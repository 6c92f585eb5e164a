"""Seeded inputs and job lists for the three workloads.

A job is one `python -m divaut` command.  The seed picks the automata,
weights, words and probe points; the shape of each job list (how many jobs,
how many states, how many rows) is fixed per workload, so that two seeds ask
for about the same amount of work and differ only in the values.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import reference
from reference import Gauss

AB = ("a", "b")


@dataclass
class Job:
    id: str
    args: list          # argv after `python -m divaut`, paths relative to the work dir
    expect: list        # exact stdout lines
    kind: str           # what the job runs, for the per-job record


# ---------------------------------------------------------------------------
# automaton specs (reference values) and their divaut text

def _weight(shape, rng, semiring):
    """A non-zero weight; denominators come from ``shape``, so that the bit
    growth of a table is the same for every seed."""
    if semiring == "boolean":
        return Fraction(1)
    if semiring == "natural":
        return Fraction(rng.randint(1, 3))
    if semiring == "rational":
        return Fraction(rng.choice((1, -1)) * rng.randint(1, 3), shape.randint(1, 4))
    return Gauss(Fraction(rng.randint(-3, 3), shape.randint(1, 3)),
                 Fraction(rng.choice((1, -1)) * rng.randint(1, 3), shape.randint(1, 3)))


def random_spec(shape, rng, semiring, states, out_degree):
    """A strongly connected automaton over {a, b}: an `a`-cycle through all
    states plus ``out_degree`` random edges per state and symbol.

    ``shape`` draws the graph and ``rng`` the weights.  Callers fix the
    shape per job slot, and draw the slot's words from it too: which pairs
    are activated, a Boolean monoid's period and the size of an extracted
    expression depend on the graph and the word, and swing a job's cost and
    its set-up/evaluation split several-fold between random graphs of the
    same size.  The seed varies the weights.
    """
    edges = {}
    for i in range(states):
        edges[(i, (i + 1) % states, "a")] = None
        for symbol in AB:
            for j in shape.sample(range(states), out_degree):
                edges[(i, j, symbol)] = None
    picks = shape.sample(range(states), 2)
    finals = sorted({picks[1], shape.randrange(states)})
    return {
        "semiring": semiring,
        "alphabet": AB,
        "states": states,
        "initial": {picks[0]: _weight(shape, rng, semiring)},
        "final": {f: _weight(shape, rng, semiring) for f in finals},
        "edges": [(i, j, s, _weight(shape, rng, semiring)) for (i, j, s) in sorted(edges)],
    }


def _shape(workload, slot):
    return random.Random(f"shape:{workload}:{slot}")


def spec_text(spec):
    lit = reference.Ring(spec["semiring"]).fmt
    names = [f"q{i}" for i in range(spec["states"])]

    def weights(vec):
        return "{" + ", ".join(f"{names[i]}: {lit(w)}" for i, w in sorted(vec.items())) + "}"

    lines = [f"semiring: {spec['semiring']}",
             f"alphabet: [{', '.join(spec['alphabet'])}]",
             f"states: [{', '.join(names)}]",
             f"initial: {weights(spec['initial'])}",
             f"final: {weights(spec['final'])}",
             "transitions: ["]
    lines += [f"  {{from: {names[i]}, to: {names[j]}, symbol: {s}, weight: {lit(w)}}},"
              for i, j, s, w in spec["edges"]]
    lines.append("]")
    return "\n".join(lines) + "\n"


def _symbols(rng, length):
    return tuple(rng.choice(AB) for _ in range(length))


def onesided_word(rng):
    prefix, cycle = _symbols(rng, 2), _symbols(rng, 2)
    return prefix, cycle, f"{' '.join(prefix)} . ( {' '.join(cycle)} )^w"


def twosided_word(rng):
    left, center, right = _symbols(rng, 2), _symbols(rng, 1), _symbols(rng, 2)
    return (left, center, right,
            f"( {' '.join(left)} )^~w . {' '.join(center)} . ( {' '.join(right)} )^w")


class Inputs:
    """Writes generated input files into the work dir."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)

    def write(self, name, text):
        (self.workdir / name).write_text(text)
        return name


# ---------------------------------------------------------------------------
# quantum-hs

def _hs_terms(rng, count):
    """``count`` (amplitude, decay) terms.  The decays are fixed (4/5, 6/7,
    8/9): how many bits a table's values gain per site, and so the cost of
    every product, follows from them.  The seed picks the amplitudes."""
    return [(Fraction(rng.choice((1, -1)) * rng.randint(1, 3)), decay)
            for decay in (Fraction(4, 5), Fraction(6, 7), Fraction(8, 9))[:count]]


def _terms_text(terms):
    return ";".join(f"{reference.fmt_fraction(a)},{reference.fmt_fraction(d)}"
                    for a, d in terms)


UP_STATE = """semiring: gaussian
alphabet: [up, dn]
states: [q0]
initial: {q0: 1}
final: {q0: 1}
transitions: [
  {from: q0, to: q0, symbol: up, weight: 1},
]
"""


def quantum_hs(rng, inputs, scale):
    jobs = []
    # (terms, table rows, probe point).  A probe past 512 takes the
    # matrix-power jump, affordable on one-term chains only; at 512 + 2^j + 1
    # its two powers (at the probe and one before) take the same number of
    # products for every j, on values within 3% of the same size
    plan = [(3, 64, 64), (2, 128, 128), (1, 64, 513 + 2 ** rng.randint(1, 4))]
    if scale == "tiny":
        plan = [(1, 16, 16), (1, 8, 520)]
    for k, (count, n, rate_at) in enumerate(plan):
        terms = _hs_terms(rng, count)
        gterms = [(Gauss(a), Gauss(d)) for a, d in terms]
        jobs.append(Job(f"hs{count}-{k}",
                        ["quantum", "hs", f"--terms={_terms_text(terms)}",
                         "--n", str(n), "--rate-at", str(rate_at)],
                        reference.hs_rows(gterms, n, rate_at), f"quantum-hs-{count}term"))
    state = inputs.write("up_state.aut", UP_STATE)
    for k in range(1 if scale == "tiny" else 2):
        distance = rng.randint(1, 6)
        op = f"correlator{k}.aut"
        n = 16 if scale == "tiny" else 128
        jobs.append(Job(f"corr-{k}", ["quantum", "correlator", "--k", str(distance),
                                      "--out", op], [], "quantum-correlator"))
        jobs.append(Job(f"expect-{k}", ["quantum", "expect", "--state", state,
                                        "--operator", op, "--n", str(n),
                                        "--rate-at", str(n)],
                        reference.correlator_rows(distance, n, n), "quantum-expect"))
    return jobs, []


# ---------------------------------------------------------------------------
# eval-tables

def eval_tables(rng, inputs, scale):
    jobs = []
    tiny = scale == "tiny"
    # one-sided: (semiring, states, out-degree, rows)
    onesided = [("boolean", 8, 4, 3000), ("natural", 6, 6, 2000),
                ("rational", 6, 6, 1000), ("gaussian", 5, 5, 600)]
    # biinfinite: (semiring, states, out-degree, rows, window starts)
    twosided = [("boolean", 8, 3, 400, (-3, 1)), ("natural", 6, 2, 300, (-2, 0)),
                ("rational", 5, 2, 200, (-1, 2)), ("gaussian", 4, 2, 150, (0,))]
    if tiny:
        onesided = [(sr, 3, 1, 12) for sr, *_ in onesided]
        twosided = [(sr, 3, 1, 8, (0,)) for sr, *_ in twosided]
    for sr, states, degree, rows in onesided:
        shape = _shape("one", sr)
        spec = random_spec(shape, rng, sr, states, degree)
        prefix, cycle, word = onesided_word(shape)
        path = inputs.write(f"one_{sr}.aut", spec_text(spec))
        jobs.append(Job(f"one-{sr}", ["eval", path, "--word", word, "--n-max", str(rows)],
                        reference.onesided_table(spec, prefix, cycle, rows),
                        f"eval-onesided-{sr}"))
    for sr, states, degree, rows, starts in twosided:
        shape = _shape("two", sr)
        spec = random_spec(shape, rng, sr, states, degree)
        left, center, right, word = twosided_word(shape)
        path = inputs.write(f"two_{sr}.aut", spec_text(spec))
        for start in starts:
            jobs.append(Job(f"two-{sr}@{start}",
                            ["eval", path, "--word", word, "--i", str(start),
                             "--n-max", str(rows)],
                            reference.twosided_table(spec, left, center, right, start, rows),
                            f"eval-twosided-{sr}"))
    return jobs, failure_probes(inputs)


def failure_probes(inputs):
    """Valid inputs that divaut has answered with a traceback: a finite word
    whose weight has more than 4300 decimal digits, and a Boolean
    permutation automaton whose matrix monoid is larger than the monoid cap
    (cycles of length 2, 3, 5, 7, 11 and 13; period 30030)."""
    doubling = {
        "semiring": "natural", "alphabet": AB, "states": 3,
        "initial": {0: Fraction(1), 1: Fraction(2)}, "final": {2: Fraction(2)},
        "edges": [(0, 1, "a", Fraction(2)), (0, 2, "a", Fraction(1)),
                  (1, 0, "b", Fraction(1)), (2, 0, "b", Fraction(2))],
    }
    word = ("a", "b") * 7200 + ("a",)
    doubling_path = inputs.write("probe_doubling.aut", spec_text(doubling))
    edges, offset = [], 0
    for length in (2, 3, 5, 7, 11, 13):
        edges += [(offset + k, offset + (k + 1) % length, "a", Fraction(1))
                  for k in range(length)]
        offset += length
    cycles = {"semiring": "boolean", "alphabet": ("a",), "states": offset,
              "initial": {0: Fraction(1), 2: Fraction(1)},
              "final": {1: Fraction(1), 4: Fraction(1)}, "edges": edges}
    cycles_path = inputs.write("probe_cycles.aut", spec_text(cycles))
    with reference.unlimited_int_str():
        doubling_expect = [reference.finite_weight(doubling, word)]
    return [
        Job("probe-int-str", ["eval", doubling_path, "--word", " ".join(word)],
            doubling_expect, "probe-int-str-limit"),
        Job("probe-monoid-cap", ["eval", cycles_path, "--word", "( a )^w", "--n-max", "40"],
            reference.onesided_table(cycles, (), ("a",), 40), "probe-monoid-cap"),
    ]


# ---------------------------------------------------------------------------
# rational-roundtrip

# the series oracle decides its acceptance indicators by a bounded scan over
# windows (K/2, K], a route independent of the activation code
ORACLE_HORIZON = 16


def rational_roundtrip(rng, inputs, scale):
    jobs = []
    tiny = scale == "tiny"
    # (semiring, states, oracle rows)
    plan = [("boolean", 4, 16), ("natural", 3, 20), ("rational", 3, 16),
            ("gaussian", 3, 12)]
    if tiny:
        plan = [("boolean", 3, 4), ("rational", 3, 4)]
    for sr, states, rows in plan:
        shape = _shape("roundtrip", sr)
        spec = random_spec(shape, rng, sr, states, 1)
        a = inputs.write(f"rt_{sr}.aut", spec_text(spec))
        prefix, cycle, word = onesided_word(shape)
        table = reference.onesided_table(spec, prefix, cycle, rows)
        e, b = f"rt_{sr}_div.expr", f"rt_{sr}_div.aut"
        jobs += [
            Job(f"rt-{sr}-extract-div", ["to-rational", a, "--level", "div", "--out", e],
                [], "kleene-extract-div"),
            Job(f"rt-{sr}-compile-div", ["from-rational", e, "--out", b], [],
                "kleene-compile-div"),
            Job(f"rt-{sr}-oracle-div", ["--chi", f"horizon:{ORACLE_HORIZON}", "eval", e,
                                        "--word", word, "--n-max", str(rows)],
                table, "series-oracle-div"),
            Job(f"rt-{sr}-eval-div", ["eval", b, "--word", word, "--n-max", str(rows)],
                table, "eval-recompiled-div"),
            Job(f"rt-{sr}-equiv-div", ["equiv", a, b, "--level", "div",
                                       "--word", word, "--word", onesided_word(shape)[2]],
                ["agree on all samples (2 words; semi-decision only)"], "equiv-div"),
        ]
        fin = _symbols(shape, 6)
        ec, bc = f"rt_{sr}_conv.expr", f"rt_{sr}_conv.aut"
        weight = [reference.finite_weight(spec, fin)]
        jobs += [
            Job(f"rt-{sr}-extract-conv", ["to-rational", a, "--level", "conv", "--out", ec],
                [], "kleene-extract-conv"),
            Job(f"rt-{sr}-compile-conv", ["from-rational", ec, "--out", bc], [],
                "kleene-compile-conv"),
            Job(f"rt-{sr}-oracle-conv", ["eval", ec, "--word", " ".join(fin)], weight,
                "series-oracle-conv"),
            Job(f"rt-{sr}-equiv-conv", ["equiv", a, bc, "--level", "conv"],
                ["agree on all samples (20 words; semi-decision only)"], "equiv-conv"),
        ]
    return jobs, []


WORKLOADS = {
    "quantum-hs": quantum_hs,
    "eval-tables": eval_tables,
    "rational-roundtrip": rational_roundtrip,
}


def build(workload, seed, workdir, scale="full"):
    """(jobs, probes) for one workload at one seed; writes the input files."""
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng, Inputs(workdir), scale)
