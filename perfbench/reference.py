"""Reference values for the benchmark's outputs, computed without divaut.

Everything here is plain `fractions.Fraction` arithmetic on dense matrices.
Booleans and naturals are embedded in the rationals (a Boolean or natural
path sum is non-zero exactly when its embedded count is), Gaussian rationals
are pairs of fractions.  Activation is decided by exact windows:

* one-sided word ``u (v)^w``: the prefix sums along each residue of |v| are a
  linear recurrence of order at most d = |Q|, so a pair is activated iff some
  position in [|u| + d|v|, |u| + 2d|v|) has a non-zero sum;
* biinfinite word ``(l)^~w m (r)^w``: an enclosing window factors as
  ``S_s L^a M R^b P_t`` (suffix of l, powers of the cycle matrices, center,
  prefix of r).  For fixed (s, t) the value is a linear recurrence of order
  at most d in a and in b separately, so it vanishes on a quadrant iff it
  vanishes on [d, 2d) x [d, 2d); a pair is activated iff some (s, t, a, b) in
  that window is non-zero.
"""
from __future__ import annotations

import contextlib
import sys
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class Gauss:
    """a + bi with Fraction parts; only what the reference needs."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=ZERO):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        return Gauss(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return Gauss(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return Gauss(self.re * other.re - self.im * other.im,
                     self.re * other.im + self.im * other.re)

    def __bool__(self):
        return bool(self.re) or bool(self.im)


def fmt_fraction(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def fmt_gauss(g: Gauss) -> str:
    if not g.im:
        return fmt_fraction(g.re)
    sign = "+" if g.im > 0 else "-"
    return f"{fmt_fraction(g.re)}{sign}{fmt_fraction(abs(g.im))}i"


class Ring:
    """The embedding of one divaut semiring into exact arithmetic."""

    def __init__(self, name):
        self.name = name
        self.gaussian = name == "gaussian"
        self.zero = Gauss(0) if self.gaussian else ZERO
        self.one = Gauss(1) if self.gaussian else ONE

    def fmt(self, value) -> str:
        """The string divaut prints for ``value``; also its literal in an
        input file."""
        if self.name == "boolean":
            return "T" if value else "F"
        if self.gaussian:
            return fmt_gauss(value)
        return fmt_fraction(value)


@contextlib.contextmanager
def unlimited_int_str():
    """Lifts the int-to-str digit limit while reference values are formatted,
    and restores it, so divaut code run in this process keeps the default."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


# ---------------------------------------------------------------------------
# dense linear algebra

class Dense:
    """An automaton spec as dense matrices over the embedding ring."""

    def __init__(self, spec):
        self.ring = Ring(spec["semiring"])
        self.n = spec["states"]
        self.alpha = [spec["initial"].get(i, self.ring.zero) for i in range(self.n)]
        self.beta = [spec["final"].get(i, self.ring.zero) for i in range(self.n)]
        self.mats = {s: [[self.ring.zero] * self.n for _ in range(self.n)]
                     for s in spec["alphabet"]}
        for src, dst, symbol, w in spec["edges"]:
            self.mats[symbol][src][dst] = self.mats[symbol][src][dst] + w
        # sparse rows of the dense matrices, so zero entries cost nothing
        self.rows = {s: [[(j, w) for j, w in enumerate(row) if w] for row in m]
                     for s, m in self.mats.items()}
        # Boolean values saturate at 1 during table evaluation: the support
        # of a non-negative row is all a Boolean value depends on
        self.saturate = spec["semiring"] == "boolean"

    def step(self, vec, symbol, saturate=False):
        out = [self.ring.zero] * self.n
        rows = self.rows[symbol]
        for i, x in enumerate(vec):
            if not x:
                continue
            for j, w in rows[i]:
                out[j] = out[j] + x * w
        if saturate:
            out = [ONE if x else ZERO for x in out]
        return out

    def col_step(self, symbol, col):
        """M(symbol) . col"""
        mat = self.mats[symbol]
        out = []
        for row in mat:
            acc = self.ring.zero
            for w, c in zip(row, col):
                if w and c:
                    acc = acc + w * c
            out.append(acc)
        return out

    def unit(self, i):
        return [self.ring.one if k == i else self.ring.zero for k in range(self.n)]

    def dot(self, u, v):
        acc = self.ring.zero
        for a, b in zip(u, v):
            if a and b:
                acc = acc + a * b
        return acc

    def initial_states(self):
        return [i for i, w in enumerate(self.alpha) if w]

    def final_states(self):
        return [f for f, w in enumerate(self.beta) if w]


def _table(dense, live, char_at, start, n_max):
    """Masked values for windows [start, start + n), n = 0..n_max.

    Initial states with the same set of live final states share one row
    vector, weighted by their initial weights."""
    ring = dense.ring
    groups = {}
    for i in dense.initial_states():
        finals = tuple(f for f in dense.final_states() if (i, f) in live)
        if finals:
            groups.setdefault(finals, []).append(i)
    chains = []
    for finals, starts in groups.items():
        vec = [ring.zero] * dense.n
        for i in starts:
            vec[i] = dense.alpha[i] if not dense.saturate else ONE
        beta = [dense.beta[f] if f in finals else ring.zero for f in range(dense.n)]
        chains.append((vec, beta))
    out = []
    for n in range(n_max + 1):
        total = ring.zero
        for vec, beta in chains:
            total = total + dense.dot(vec, beta)
        out.append(ring.fmt(total))
        if n < n_max:
            symbol = char_at(start + n)
            chains = [(dense.step(vec, symbol, dense.saturate), beta)
                      for vec, beta in chains]
    return out


# ---------------------------------------------------------------------------
# one-sided words

def onesided_live(dense, prefix, cycle):
    d = dense.n
    lo = len(prefix) + d * len(cycle)
    hi = len(prefix) + 2 * d * len(cycle)

    def char_at(k):
        return prefix[k] if k < len(prefix) else cycle[(k - len(prefix)) % len(cycle)]

    live = set()
    finals = dense.final_states()
    for i in dense.initial_states():
        row = dense.unit(i)
        for k in range(hi):
            if k >= lo:
                live.update((i, f) for f in finals if row[f])
            row = dense.step(row, char_at(k))
    return live


def onesided_table(spec, prefix, cycle, n_max):
    """Rows ``n<TAB>value`` divaut prints for ``eval --word 'u . ( v )^w'``."""
    dense = Dense(spec)
    live = onesided_live(dense, prefix, cycle)

    def char_at(k):
        return prefix[k] if k < len(prefix) else cycle[(k - len(prefix)) % len(cycle)]

    values = _table(dense, live, char_at, 0, n_max)
    return [f"{n}\t{v}" for n, v in enumerate(values)]


def finite_weight(spec, word):
    """The value divaut prints for ``eval --word 'w'`` on a finite word."""
    dense = Dense(spec)
    row = list(dense.alpha)
    for symbol in word:
        row = dense.step(row, symbol)
    return dense.ring.fmt(dense.dot(row, dense.beta))


# ---------------------------------------------------------------------------
# biinfinite words

def twosided_live(dense, left, center, right):
    d = dense.n
    live = set()
    for p in dense.initial_states():
        heads = []
        for s in range(len(left)):
            vec = dense.unit(p)
            for symbol in left[len(left) - s:]:
                vec = dense.step(vec, symbol)
            for a in range(2 * d):
                if a >= d:
                    head = vec
                    for symbol in center:
                        head = dense.step(head, symbol)
                    heads.append(head)
                for symbol in left:
                    vec = dense.step(vec, symbol)
        for q in dense.final_states():
            tails = []
            for t in range(len(right)):
                col = dense.unit(q)
                for symbol in reversed(right[:t]):
                    col = dense.col_step(symbol, col)
                for b in range(2 * d):
                    if b >= d:
                        tails.append(col)
                    for symbol in reversed(right):
                        col = dense.col_step(symbol, col)
            if any(dense.dot(h, t) for h in heads for t in tails):
                live.add((p, q))
    return live


def twosided_table(spec, left, center, right, start, n_max):
    """Rows divaut prints for ``eval --word '( l )^~w . m . ( r )^w' --i start``."""
    dense = Dense(spec)
    live = twosided_live(dense, left, center, right)

    def char_at(k):
        if k < 0:
            return left[k % len(left)]
        if k < len(center):
            return center[k]
        return right[(k - len(center)) % len(right)]

    values = _table(dense, live, char_at, start, n_max)
    return [f"{n}\t{v}" for n, v in enumerate(values)]


# ---------------------------------------------------------------------------
# quantum closed forms (on the all-up state the norm is 1 on every window)

def hs_values(terms, n_max):
    """Expected values of the decaying-coupling hamiltonian on n = 0..n_max
    sites: sum over terms of sum_{k <= n-2} a (n-1-k) d^k, accumulated as
    a * sum_{j < n} G_j with G_j = 1 + d + ... + d^(j-1)."""
    values = [Gauss(0)] * (n_max + 1)
    for amplitude, decay in terms:
        geometric, power, acc = Gauss(0), Gauss(1), Gauss(0)
        for n in range(2, n_max + 1):
            geometric = geometric + power
            power = power * decay
            acc = acc + geometric
            values[n] = values[n] + amplitude * acc
    return values


def hs_rows(terms, n_max, rate_at):
    values = hs_values(terms, max(n_max, rate_at or 0))
    rows = []
    for n in range(n_max + 1):
        value = fmt_gauss(values[n])
        rows.append(f"{n}\t{value}\t1\t{value}")
    if rate_at is not None:
        rows.append(f"rate\t{fmt_gauss(values[rate_at] - values[rate_at - 1])}")
    return rows


def correlator_rows(distance, n_max, rate_at):
    """ZZ correlator with ``distance`` identity sites between the Z sites:
    max(0, n - distance - 1) on n all-up sites."""
    rows = []
    for n in range(n_max + 1):
        value = max(0, n - distance - 1)
        rows.append(f"{n}\t{value}\t1\t{value}")
    if rate_at is not None:
        rate = max(0, rate_at - distance - 1) - max(0, rate_at - 1 - distance - 1)
        rows.append(f"rate\t{rate}")
    return rows
