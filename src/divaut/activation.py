"""Activation decisions and masked behavior evaluation.

A pair of states (i, f) is *activated* by an infinite word when arbitrarily
long prefixes have a non-zero i-to-f path sum, and by a biinfinite word when
every window admits an enclosing window with a non-zero path sum.  Behavior
values sum only over activated pairs; everything else is masked to zero.

A prefix of ``u v^w`` reads u v^k v[:r] and an enclosing window of
``l^~w m r^w`` reads l[-s:] l^a m r^b r[:t]; the pair is activated when such
sums stay non-zero for arbitrarily large exponents.  Whether the semiring
cancels picks one of two exact rules (``auto`` and ``exact`` are the same):

* Boolean / natural: a sum is non-zero iff some path exists, so this is
  reachability on the supports ("pumped reach").  Among the states the cycle
  reaches from the start set, repeatedly peel off those with no predecessor
  left; the rest are reached by arbitrarily long walks.  A two-sided word
  pumps the left cycle from each suffix phase and then reads on as the
  one-sided word ``m r^w`` under the same rule.
* Fields: for fixed phases the sums are linear recurrences of order at most
  d = |Q| in each exponent (Cayley-Hamilton; Berstel & Reutenauer,
  *Noncommutative Rational Series with Applications*, ch. 2).  One that is
  eventually zero is zero from exponent d on, and one that vanishes on d
  consecutive exponents >= d vanishes on all of them.  So the window of
  prefix lengths [|u| + d|v|, |u| + 2d|v|) decides one-sided words and the
  extents [d|l|, 2d|l|) x [d|r|, 2d|r|) around the center two-sided ones; a
  purely periodic word takes the one-sided window per rotation.

A semiring that cancels but is not a field has no exact rule and raises
:class:`UnsupportedExactDecision`.  ``horizon:K`` is an explicit
approximation for differential testing: prefix lengths (K/2, K], extents
[K/2, K].  Every rule makes one pass per start row and reports for each row
the set of end columns it activates; the field and horizon rules on
two-sided words also make one pass per end column (heads x tails).  Over
the fields, rows are integer numerators over one denominator (the lifted
automaton): zero tests never reduce, and the masked evaluator reduces each
value once.
"""
from __future__ import annotations

from functools import reduce
from operator import or_

from ._record import Record
from .automaton import Automaton, advance_row
from .errors import UnsupportedExactDecision
from .semiring import BOOLEAN, WeightSequence, BiWeightGrid
from .words import BiInfiniteWord, UPInfiniteWord, require_same_alphabet, words_equal


class ActivationPolicy(Record):
    """auto (spelled ``exact`` too): the exact rule of the semiring.
    horizon: scan windows up to the given bound instead."""

    kind: str  # "auto" | "horizon"
    horizon: int = 0

    @classmethod
    def parse(cls, text: str) -> "ActivationPolicy":
        if text in ("auto", "exact"):
            return AUTO
        try:
            if not text.startswith("horizon:"):
                raise ValueError
            bound = int(text[len("horizon:"):])
        except ValueError:
            raise ValueError(f"bad activation policy {text!r}") from None
        if bound < 2:
            raise ValueError("horizon bound must be at least 2")
        return cls("horizon", bound)


AUTO = EXACT = ActivationPolicy("auto")


def horizon(bound: int) -> ActivationPolicy:
    return ActivationPolicy("horizon", bound)


class ActivationVerdict(Record):
    """Per-pair activation outcomes plus the method that produced them."""

    pairs: dict  # (initial_state, final_state) -> bool
    method: str


# ---------------------------------------------------------------------------
# no cancellation: pumped reach on the supports
#
# A support is an integer bitmask of states and a support matrix one bitmask
# per state, so the reach and peel loops stay cheap on the large automata
# the translations produce.

def _bits_of_rows(sparse_rows):
    return tuple(sum(1 << j for j, _ in row) for row in sparse_rows)


def _bits_of_vector(sr, vec):
    return sum(1 << j for j, w in enumerate(vec) if not sr.is_zero(w))


def _members(bits: int):
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _bit_step(bits: int, mat_bits) -> int:
    """The states one step of ``mat_bits`` reaches from ``bits``."""
    return reduce(or_, (mat_bits[j] for j in _members(bits)), 0)


def _transpose(mat_bits):
    return tuple(sum(1 << i for i, row in enumerate(mat_bits) if row >> j & 1)
                 for j in range(len(mat_bits)))


def _pumped(start: int, cycle, pred) -> int:
    """The states that ``start . cycle^k`` holds for arbitrarily large k;
    ``pred`` is the transpose of ``cycle``.

    Peeling keeps exactly these: a survivor traces back through survivors
    to a cycle reachable from ``start``, and a state reached by arbitrarily
    long walks always has a predecessor that is too.
    """
    reach = frontier = start
    while frontier:
        frontier = _bit_step(frontier, cycle) & ~reach
        reach |= frontier
    while True:
        kept = sum(1 << q for q in _members(reach) if pred[q] & reach)
        if kept == reach:
            return reach
        reach = kept


def _pumped_reach(aut, word, rows, cols) -> list:
    """Exact decision over Boolean/natural weights (see the module notes)."""
    sr = aut.semiring
    mats = {s: _bits_of_rows(aut.sparse_rows(s)) for s in aut.alphabet}

    def walk(bits, symbols):
        for s in symbols:
            bits = _bit_step(bits, mats[s])
        return bits

    def cycle_bits(cycle):
        """The bit matrix of one pass over ``cycle`` and its transpose."""
        cmat = tuple(walk(1 << i, cycle) for i in range(aut.num_states))
        return cmat, _transpose(cmat)

    heads = [_bits_of_vector(sr, row) for row in rows]
    if isinstance(word, BiInfiniteWord):  # left heads, then center . (right)^w
        left = word.left
        lmat, lpred = cycle_bits(left)
        heads = [reduce(or_, (_pumped(walk(h, left[len(left) - s:]), lmat, lpred)
                              for s in range(len(left))))
                 for h in heads]
        prefix, cycle = word.center, word.right
    else:
        prefix, cycle = word.prefix, word.cycle
    cmat, cpred = cycle_bits(cycle)
    ends = [_bits_of_vector(sr, col) for col in cols]
    live = []
    for h in heads:
        bits = union = _pumped(walk(h, prefix), cmat, cpred)
        for s in cycle[:-1]:  # then any partial prefix of the cycle
            bits = _bit_step(bits, mats[s])
            union |= bits
        live.append({c for c, e in enumerate(ends) if union & e})
    return live


# ---------------------------------------------------------------------------
# fields and bounded horizons: value walks over windows

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


def _col_step(aut, col, symbol):
    """M(symbol) . col using the sparse adjacency."""
    sr = aut.semiring
    return tuple(sr.sum(sr.mul(w, col[j]) for j, w in row if not sr.is_zero(col[j]))
                 for row in aut.sparse_rows(symbol))


def _steps(aut, step, vec, symbols):
    for symbol in symbols:
        vec = step(aut, vec, symbol)
    return vec


def _extent_vectors(aut, step, vec, cycle, extents):
    """``vec`` stepped over the last s symbols of ``cycle`` and then a copies
    of it, for each extent s + a * len(cycle) in ``extents``: one walk per
    phase s."""
    n = len(cycle)
    for s in range(n):
        current = _steps(aut, step, vec, cycle[n - s:])
        for e in range(s, extents.stop, n):
            if e > s:
                current = _steps(aut, step, current, cycle)
            if e >= extents.start:
                yield current


def _extent_walks(aut, word, rows, cols, left_extents, right_extents) -> list:
    """Two-sided decision over the windows reaching e symbols left and g
    symbols right of the center, for e and g in the given extents.

    Such a window sums to head . tail, with head = row . M(w[-e..0)) . M(m)
    and tail = M(w[|m|..|m| + g)) . col; heads are row walks along the left
    cycle and tails column walks along the reversed right cycle.
    """
    sr = aut.semiring
    tails = [[[(j, w) for j, w in enumerate(t) if not sr.is_zero(w)]
              for t in _extent_vectors(aut, _col_step, col, word.right[::-1], right_extents)]
             for col in cols]
    live = []
    for row in rows:
        heads = [_steps(aut, advance_row, h, word.center)
                 for h in _extent_vectors(aut, advance_row, row, word.left, left_extents)]
        live.append({c for c, tail in enumerate(tails)
                     if any(not sr.is_zero(sr.sum(sr.mul(h[j], w) for j, w in t))
                            for h in heads for t in tail)})
    return live


def _rotations(word: BiInfiniteWord) -> list:
    """For a purely periodic biinfinite word, the one-sided word
    (rotation of the period)^w from each window start modulo the period;
    otherwise []. A period of the word is one of its left tail, so it
    divides |l|."""
    n = len(word.left)
    period = next((p for p in range(1, n + 1)
                   if n % p == 0 and words_equal(word, word.shift_by(p))), 0)
    return [UPInfiniteWord(word.alphabet, (), tuple(word.char_at(r + k) for k in range(period)))
            for r in range(period)]


# ---------------------------------------------------------------------------
# decisions

def _decide(aut, word, policy, rows, cols) -> tuple:
    """(method, live): ``live[r]`` is the set of indices c such that the
    pair (rows[r], cols[c]) is activated by ``word``.

    The method is resolved once for the semiring and the policy; it refuses
    only when some pair must be decided.
    """
    sr = aut.semiring
    bound = policy.horizon if policy.kind == "horizon" else None
    if bound is not None:
        method = f"BoundedHorizon({bound})"
    elif not sr.has_cancellation:
        method = "ExactBooleanReach" if sr is BOOLEAN else "ExactNaturalReduction"
    elif sr.is_field:
        method = "ExactFieldLRS"
    else:
        method = "NoExactMethod"
    if not rows or not cols:
        return method, [set() for _ in rows]
    if method == "NoExactMethod":
        raise UnsupportedExactDecision(
            f"no exact activation decision for semiring {sr.name}: it cancels and "
            "is not a field; use --activation horizon:<K>")
    if bound is None and not sr.has_cancellation:
        return method, _pumped_reach(aut, word, rows, cols)
    d = aut.num_states
    aut = aut._lifted()[0]  # a zero test is blind to scaling: never reduce
    rows = [sr._clear(row)[1] for row in rows]
    cols = [sr._clear(col)[1] for col in cols]
    if isinstance(word, UPInfiniteWord):
        if bound is not None:
            lo, hi = bound // 2 + 1, bound + 1
        else:
            lo = len(word.prefix) + d * len(word.cycle)
            hi = lo + d * len(word.cycle)
        return method, [_walk(aut, word, row, cols, lo, hi) for row in rows]
    if bound is not None:
        left = right = range(max(1, bound // 2), bound + 1)
    elif rays := _rotations(word):
        lo = d * len(rays)  # the window [d p, 2 d p) of each rotation
        return method, [set().union(*(_walk(aut, ray, row, cols, lo, 2 * lo) for ray in rays))
                        for row in rows]
    else:
        left = range(d * len(word.left), 2 * d * len(word.left))
        right = range(d * len(word.right), 2 * d * len(word.right))
    return method, _extent_walks(aut, word, rows, cols, left, right)


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
        self._lift = aut._lifted()
        lifted = self._lift[0]
        sr = lifted.semiring
        live_finals = {}
        for (i, f), live in self._verdict.pairs.items():
            if live:
                live_finals.setdefault(i, []).append(f)
        groups = {}  # live finals -> weighted sum of their initial states
        for i, ends in live_finals.items():
            groups.setdefault(tuple(ends), [sr.zero] * aut.num_states)[i] = lifted.initial[i]
        self._starts = [tuple(row) for row in groups.values()]
        self._ends = [[(f, lifted.final[f]) for f in ends] for ends in groups]
        self._windows = {}  # window start -> [current rows, their scale, values so far]

    @property
    def verdict(self) -> ActivationVerdict:
        return self._verdict

    def _value(self, start: int, n: int):
        if n < 0:
            raise IndexError("window length must be a natural number")
        lifted, scales, end_scale = self._lift
        sr = lifted.semiring
        window = self._windows.setdefault(start, [list(self._starts), end_scale, []])
        rows, values = window[0], window[2]
        while len(values) <= n:
            if values:
                symbol = self.word.char_at(start + len(values) - 1)
                rows[:] = [advance_row(lifted, row, symbol) for row in rows]
                window[1] *= scales[symbol]
            values.append(self.automaton.semiring._reduce(
                sr.sum(sr.mul(row[f], w) for row, ends in zip(rows, self._ends)
                       for f, w in ends), window[1]))
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
