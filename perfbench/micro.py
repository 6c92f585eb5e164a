"""Micro-kernels timed from outside: semiring mul+add and one advance_row."""
from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

REPEATS = 5
BATCH_S = 0.02


def per_call_s(call):
    """Median over REPEATS batches of the time one ``call()`` takes."""
    loops = 1
    while True:
        start = time.perf_counter()
        for _ in range(loops):
            call()
        if time.perf_counter() - start >= BATCH_S:
            break
        loops *= 2
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(loops):
            call()
        samples.append((time.perf_counter() - start) / loops)
    return statistics.median(samples)


def _fraction(rng, bits):
    return Fraction(rng.getrandbits(bits) | (1 << (bits - 1)) | 1,
                    rng.getrandbits(bits) | (1 << (bits - 1)))


def semiring_kernels(seed):
    """ns per ``add(acc, mul(x, y))`` on RATIONAL and GAUSSIAN operands whose
    numerators and denominators have 64 and 4096 bits."""
    from divaut.semiring import GAUSSIAN, RATIONAL, GaussianRational

    rng = random.Random(f"micro:{seed}")
    out = {}
    for bits in (64, 4096):
        x, y, acc = (_fraction(rng, bits) for _ in range(3))
        out[f"semiring.rational_muladd_ns-{bits}bit"] = 1e9 * per_call_s(
            lambda: RATIONAL.add(acc, RATIONAL.mul(x, y)))
        gx, gy, gacc = (GaussianRational(_fraction(rng, bits), _fraction(rng, bits))
                        for _ in range(3))
        out[f"semiring.gaussian_muladd_ns-{bits}bit"] = 1e9 * per_call_s(
            lambda: GAUSSIAN.add(gacc, GAUSSIAN.mul(gx, gy)))
    return out


def advance_row_us(largest):
    """µs per ``advance_row`` on (automaton, row, symbol) as a traced table
    last used it on the workload's largest automaton."""
    from divaut.automaton import advance_row

    aut, row, symbol = largest
    return 1e6 * per_call_s(lambda: advance_row(aut, row, symbol))
