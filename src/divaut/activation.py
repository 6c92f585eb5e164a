"""Activation decisions and masked behavior evaluation.

A pair of states (i, f) is *activated* by an infinite word when arbitrarily
long prefixes have a non-zero i-to-f path sum, and by a biinfinite word when
every window admits an enclosing window with a non-zero path sum.  Behavior
values sum only over activated pairs; everything else is masked to zero.

Deciding activation exactly depends on the semiring:

* Boolean: the matrix monoid is finite, so the powers of the cycle matrix
  are eventually periodic; scan one full period past the preperiod.
* Natural: no cancellation, so a path sum is non-zero exactly when some
  path is, which reduces the question to the Boolean projection.
* Rational / Gaussian rational (fields): along each residue of the cycle
  length the prefix sums form a linear recurrence s_k = u . C^k . v of order
  at most d = |Q|.  Such a sequence that is eventually zero is zero from
  index d on (its generating function is a polynomial of degree < d), and by
  the Cayley-Hamilton recurrence it is eventually zero iff s_d .. s_{2d-1}
  all vanish.  So one exact window of length d decides the tail.

No general exact two-sided decision is implemented for fields; biinfinite
activation over a field falls back to a bounded horizon scan unless the
caller insists on exactness, in which case it refuses.  The one exception
is a singleton alphabet (constant word), where a window's sum depends only
on its length and the recurrence argument applies unchanged.

Every method decides a batch at once: it makes one pass per start row and
reports, for each row, the set of end columns it activates.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_

from .automaton import (
    Automaton,
    advance_row,
    identity_matrix,
    mat_mul,
    mat_vec,
    dot,
    vec_mat,
)
from .errors import UnsupportedExactDecision
from .semiring import BOOLEAN, WeightSequence, BiWeightGrid
from .words import BiInfiniteWord, UPInfiniteWord, require_same_alphabet

_MONOID_CAP = 8192


@dataclass(frozen=True)
class ActivationPolicy:
    """auto: exact where available, bounded horizon otherwise.
    exact: refuse when no exact method exists.
    horizon: always scan up to the given bound."""

    kind: str  # "auto" | "exact" | "horizon"
    horizon: int = 0

    @classmethod
    def parse(cls, text: str) -> "ActivationPolicy":
        if text == "auto":
            return AUTO
        if text == "exact":
            return EXACT
        if text.startswith("horizon:"):
            bound = int(text.split(":", 1)[1])
            if bound < 2:
                raise ValueError("horizon bound must be at least 2")
            return cls("horizon", bound)
        raise ValueError(f"bad activation policy {text!r}")


AUTO = ActivationPolicy("auto")
EXACT = ActivationPolicy("exact")


def horizon(bound: int) -> ActivationPolicy:
    return ActivationPolicy("horizon", bound)


@dataclass(frozen=True)
class ActivationVerdict:
    """Per-pair activation outcomes plus the method that produced them."""

    pairs: dict  # (initial_state, final_state) -> bool
    method: str


# ---------------------------------------------------------------------------
# Boolean projection
#
# Boolean matrices are packed into integer bitmasks (one int per row) so the
# finite-monoid searches stay cheap on the large automata the translations
# produce.

def _bits_of_rows(sparse_rows):
    return tuple(sum(1 << j for j, _ in row) for row in sparse_rows)


def _bits_of_vector(sr, vec):
    return sum(1 << j for j, w in enumerate(vec) if not sr.is_zero(w))


def _bit_identity(n):
    return tuple(1 << i for i in range(n))


def _bit_vec_mat(row_bits: int, mat_bits) -> int:
    acc = 0
    remaining = row_bits
    while remaining:
        low = remaining & -remaining
        acc |= mat_bits[low.bit_length() - 1]
        remaining ^= low
    return acc


def _bit_mat_mul(a_bits, b_bits):
    return tuple(_bit_vec_mat(row, b_bits) for row in a_bits)


def _bit_union(mats):
    """Entrywise OR of bit-packed matrices of one size."""
    return tuple(reduce(or_, row) for row in zip(*mats))


def _monoid_powers(mat_bits):
    """Bit-packed Boolean powers C^0, C^1, ... up to one full period past
    the preperiod; returns (powers, preperiod, period)."""
    powers = [_bit_identity(len(mat_bits))]
    seen = {powers[0]: 0}
    while True:
        nxt = _bit_mat_mul(powers[-1], mat_bits)
        if nxt in seen:
            start = seen[nxt]
            return powers, start, len(powers) - start
        seen[nxt] = len(powers)
        powers.append(nxt)
        if len(powers) > _MONOID_CAP:
            raise RuntimeError("boolean matrix monoid exceeded the iteration cap")


def _monoid_reach(aut, word):
    """Exact decision over Boolean/Natural, on the Boolean projection.

    Returns the bit matrix T for which row . T holds every state that row
    reaches with non-zero weight on arbitrarily long windows.  One-sided
    prefixes factor as u . C^k . v[:r]; two-sided enclosing windows factor
    as suffix(l) . L^a . M(m) . R^b . prefix(r), with both exponents large.
    Past the preperiod the powers of a cycle matrix repeat, so each factor
    ranges over finitely many matrices, and since the Boolean product
    distributes over OR, T is the product of each factor's entrywise OR.
    """
    bmats = {s: _bits_of_rows(aut.sparse_rows(s)) for s in aut.alphabet}
    n = aut.num_states

    def product(symbols):
        out = _bit_identity(n)
        for s in symbols:
            out = _bit_mat_mul(out, bmats[s])
        return out

    def powers_past_preperiod(cycle):
        powers, start, period = _monoid_powers(product(cycle))
        return _bit_union(powers[start:start + period])

    if isinstance(word, BiInfiniteWord):
        left, right = word.left, word.right
        factors = [_bit_union(product(left[len(left) - s:]) for s in range(len(left))),
                   powers_past_preperiod(left),
                   product(word.center),
                   powers_past_preperiod(right),
                   _bit_union(product(right[:t]) for t in range(len(right)))]
    else:
        cycle = word.cycle
        factors = [product(word.prefix),
                   powers_past_preperiod(cycle),
                   _bit_union(product(cycle[:r]) for r in range(len(cycle)))]
    return reduce(_bit_mat_mul, factors)


# ---------------------------------------------------------------------------
# fields and bounded horizons

def _walk(aut, word, row, cols, lo: int, hi: int) -> set:
    """Indices c with row . M(w[0..n]) . cols[c] non-zero for some n in
    [lo, hi): one advance_row walk, reading every column at each position.

    Over a field the window [|u| + d|v|, |u| + 2d|v|) is exact: it is the
    recurrence indices [d, 2d) of every residue of the cycle length.
    """
    sr = aut.semiring
    pending = {c: [(j, w) for j, w in enumerate(col) if not sr.is_zero(w)]
               for c, col in enumerate(cols)}
    live = set()
    current = row
    for n in range(hi):
        if n >= lo:
            for c, col in list(pending.items()):
                if not sr.is_zero(sr.sum(sr.mul(current[j], w) for j, w in col)):
                    live.add(c)
                    del pending[c]
            if not pending:
                break
        if n + 1 < hi:
            current = advance_row(aut, current, word.char_at(n))
    return live


def _twosided_horizon(aut, word, rows, cols, bound: int) -> list:
    """Approximate two-sided decision: the window reaching ``bound/2`` on each
    side of the center must admit an enclosing non-zero sum within ``bound``.

    Larger windows only need enclosures of their own, so checking the widest
    reachable base window covers every smaller one.  The dense products are
    built once for the word and applied to every row and column.
    """
    sr = aut.semiring
    half = max(1, bound // 2)
    width = len(word.center)

    def char(i):  # activation is shift-invariant: index from the center
        return word.char_at(word.origin + i)

    mat = identity_matrix(sr, aut.num_states)
    for i in range(-half, width + half):
        mat = mat_mul(sr, mat, aut.matrix(char(i)))
    heads = [[vec_mat(sr, row, mat)] for row in rows]  # row . M(w[i..]) . mid
    for i in range(-half - 1, -bound - 1, -1):
        mat = mat_mul(sr, aut.matrix(char(i)), mat)
        for head, row in zip(heads, rows):
            head.append(vec_mat(sr, row, mat))
    tails = [[col] for col in cols]  # M(w[..j]) . col
    mat = identity_matrix(sr, aut.num_states)
    for j in range(width + half, width + bound):
        mat = mat_mul(sr, mat, aut.matrix(char(j)))
        for tail, col in zip(tails, cols):
            tail.append(mat_vec(sr, mat, col))
    return [{c for c, tail in enumerate(tails)
             if any(not sr.is_zero(dot(sr, h, t)) for h in head for t in tail)}
            for head in heads]


def default_twosided_bound(aut: Automaton, word: BiInfiniteWord) -> int:
    return 4 * max(aut.num_states ** 2, len(word.left) * len(word.right), 1)


# ---------------------------------------------------------------------------
# decisions

def _decide(aut, word, policy, rows, cols) -> tuple:
    """(method, live): ``live[r]`` is the set of indices c such that the
    pair (rows[r], cols[c]) is activated by ``word``.

    The method is resolved once for the semiring, the word shape and the
    policy; it refuses only when some pair must be decided.
    """
    sr = aut.semiring
    two_sided = isinstance(word, BiInfiniteWord)
    bound = policy.horizon
    if policy.kind == "horizon":
        method = f"BoundedHorizon({bound})"
    elif sr is BOOLEAN:
        method = "ExactBooleanMonoid"
    elif not sr.has_cancellation:
        method = "ExactNaturalReduction"
    elif sr.is_field and not (two_sided and len(aut.alphabet.symbols) > 1):
        method = "ExactFieldLRS"
    elif two_sided and policy.kind == "auto":
        bound = default_twosided_bound(aut, word)
        method = f"BoundedHorizon({bound})"
    else:
        method = "NoExactMethod"
    if not rows or not cols:
        return method, [set() for _ in rows]

    if method == "NoExactMethod":
        if two_sided:
            raise UnsupportedExactDecision(
                f"no exact two-sided activation decision for semiring {sr.name}; "
                "use --activation horizon:<K>")
        raise UnsupportedExactDecision(
            f"no exact activation decision for semiring {sr.name}")
    if method in ("ExactBooleanMonoid", "ExactNaturalReduction"):
        reach = _monoid_reach(aut, word)
        col_bits = [_bits_of_vector(sr, col) for col in cols]
        heads = [_bit_vec_mat(_bits_of_vector(sr, row), reach) for row in rows]
        return method, [{c for c, bits in enumerate(col_bits) if head & bits}
                        for head in heads]
    if method == "ExactFieldLRS":
        if two_sided:
            # constant word: a window's sum depends on its length alone, so
            # the two-sided condition collapses to the one-sided tail question
            word = UPInfiniteWord(aut.alphabet, (), aut.alphabet.symbols)
        lo = len(word.prefix) + aut.num_states * len(word.cycle)
        hi = lo + aut.num_states * len(word.cycle)
    elif two_sided:
        return method, _twosided_horizon(aut, word, rows, cols, bound)
    else:
        lo, hi = bound // 2 + 1, bound + 1
    return method, [_walk(aut, word, row, cols, lo, hi) for row in rows]


def _unit_row(aut, state):
    sr = aut.semiring
    return tuple(sr.one if s == state else sr.zero for s in range(aut.num_states))


def activation_verdicts(aut: Automaton, word, policy: ActivationPolicy = AUTO,
                        pairs=None) -> ActivationVerdict:
    """Decide every requested (initial, final) pair; defaults to the pairs
    with non-zero initial and final weight, the only ones behavior can see.
    One decision pass runs per distinct initial state."""
    require_same_alphabet(aut.alphabet, word.alphabet)
    if pairs is None:
        pairs = [(i, f) for i in aut.initial_states() for f in aut.final_states()]
    pairs = list(pairs)
    starts = list(dict.fromkeys(i for i, _ in pairs))
    ends = list(dict.fromkeys(f for _, f in pairs))
    method, live = _decide(aut, word, policy, [_unit_row(aut, i) for i in starts],
                           [_unit_row(aut, f) for f in ends])
    found = {(starts[r], ends[c]) for r, cols in enumerate(live) for c in cols}
    return ActivationVerdict({pair: pair in found for pair in pairs}, method)


def activates_diverging(aut: Automaton, word: UPInfiniteWord, i: int, f: int,
                        policy: ActivationPolicy = AUTO) -> bool:
    return activation_verdicts(aut, word, policy, [(i, f)]).pairs[(i, f)]


def activates_bidiverging(aut: Automaton, word: BiInfiniteWord, i: int, f: int,
                          policy: ActivationPolicy = AUTO) -> bool:
    return activation_verdicts(aut, word, policy, [(i, f)]).pairs[(i, f)]


# ---------------------------------------------------------------------------
# masked behavior evaluation

class _MaskedBehavior:
    """Masked evaluation shared by the one- and two-sided contexts.

    Activation verdicts are decided once and reused for every window.
    Initial states with the same live finals share one row, started from
    their weighted sum; per window start, the current rows and the values
    computed so far are cached, so no full matrix product is ever formed.
    """

    def __init__(self, aut: Automaton, word, policy: ActivationPolicy):
        self.automaton = aut
        self.word = word
        self.policy = policy
        self._verdict = activation_verdicts(aut, word, policy)
        sr = aut.semiring
        live_finals = {}
        for (i, f), live in self._verdict.pairs.items():
            if live:
                live_finals.setdefault(i, []).append(f)
        groups = {}  # live finals -> weighted sum of their initial states
        for i, ends in live_finals.items():
            groups.setdefault(tuple(ends), [sr.zero] * aut.num_states)[i] = aut.initial[i]
        self._starts = [tuple(row) for row in groups.values()]
        self._ends = [[(f, aut.final[f]) for f in ends] for ends in groups]
        self._windows = {}  # window start -> (current rows, values so far)

    @property
    def verdict(self) -> ActivationVerdict:
        return self._verdict

    def _value(self, start: int, n: int):
        if n < 0:
            raise IndexError("window length must be a natural number")
        aut = self.automaton
        sr = aut.semiring
        rows, values = self._windows.setdefault(start, (list(self._starts), []))
        while len(values) <= n:
            if values:
                symbol = self.word.char_at(start + len(values) - 1)
                rows[:] = [advance_row(aut, row, symbol) for row in rows]
            values.append(sr.sum(sr.mul(row[f], w)
                                 for row, ends in zip(rows, self._ends)
                                 for f, w in ends))
        return values[n]


class DivergingBehavior(_MaskedBehavior):
    """Evaluation context for one (automaton, infinite word) pair.

    Each class defines its own ``__init__`` and ``at`` (perfbench/spans.py
    wraps them per class).
    """

    def __init__(self, aut: Automaton, word: UPInfiniteWord,
                 policy: ActivationPolicy = AUTO):
        super().__init__(aut, word, policy)

    def at(self, n: int):
        return self._value(0, n)

    def sequence(self) -> WeightSequence:
        return WeightSequence(self.automaton.semiring, self.at)


class BidivergingBehavior(_MaskedBehavior):
    """Evaluation context for one (automaton, biinfinite word) pair."""

    def __init__(self, aut: Automaton, word: BiInfiniteWord,
                 policy: ActivationPolicy = AUTO):
        super().__init__(aut, word, policy)

    def at(self, i: int, n: int):
        return self._value(i, n)

    def grid(self) -> BiWeightGrid:
        return BiWeightGrid(self.automaton.semiring, self.at)


def diverging_behavior(aut: Automaton, word: UPInfiniteWord, n: int,
                       policy: ActivationPolicy = AUTO):
    """One-shot masked value; build a DivergingBehavior for whole tables."""
    return DivergingBehavior(aut, word, policy).at(n)


def bidiverging_behavior(aut: Automaton, word: BiInfiniteWord, i: int, n: int,
                         policy: ActivationPolicy = AUTO):
    return BidivergingBehavior(aut, word, policy).at(i, n)
