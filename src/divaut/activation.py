"""Activation decisions and masked behavior evaluation.

A pair of states (i, f) is *activated* by an infinite word when arbitrarily
long prefixes have a non-zero i-to-f path sum, and by a biinfinite word when
every window admits an enclosing window with a non-zero path sum.  Behavior
values sum only over activated pairs; everything else is masked to zero.

A prefix of ``u v^w`` reads u v^k v[:r] and an enclosing window of
``l^~w m r^w`` reads l[-s:] l^a m r^b r[:t]; the pair is activated when such
sums stay non-zero for arbitrarily large exponents.  One exact rule decides
every semiring that has one (``auto`` and ``exact`` are the same).  Over a
field, for fixed phases the sums are linear recurrences of order at most d
in each exponent, d the number of states on some path from a start to an
end (Cayley-Hamilton; Berstel & Reutenauer, *Noncommutative Rational Series
with Applications*, ch. 2).  One that is eventually zero is zero from
exponent d on, and one that vanishes on d consecutive exponents >= d
vanishes on all of them.  So the window of prefix lengths
[|u| + d|v|, |u| + 2d|v|) decides one-sided words and the extents
[d|l|, 2d|l|) x [d|r|, 2d|r|) around the center two-sided ones; a purely
periodic word takes the one-sided window per rotation.  The same windows are
exact over the naturals and the Booleans: a natural path sum is the rational
path sum of the same automaton, and c -> [c != 0] is a semiring map from the
naturals onto the Booleans, so a Boolean sum is non-zero exactly when the
path count is.

A semiring that cancels but is not a field has no exact rule and raises
:class:`UnsupportedExactDecision`.  ``horizon:K`` is an explicit
approximation for differential testing: prefix lengths (K/2, K], extents
[K/2, K].  Every rule makes one pass per start row and reports for each row
the set of end columns it activates; on a two-sided word it also makes one
pass per end column (heads x tails), unless it reads the rotations.  Rows are
those of the lifted automaton: over the fields integer numerators over one
denominator, and an end vector is one integer column per numerator of a
value: a Q(i) row is its real and imaginary integer rows side by side, and
a Q(i) end vector two columns, for the real and the imaginary part.  Over
the Booleans and the naturals the lifted automaton is the automaton itself.
Zero tests never reduce.  The masked evaluator steps rows only until they
are dependent (or repeat) at the cycle's phase points, then steps the
recurrence of the value numerators, and reduces only the values asked for.
Its text read steps the recurrence of a natural table in decimal integers,
which are written in time linear in their digits.  They hold the same
values: the recurrence holds over the integers, so its one division is
exact, and every conversion and step runs in :data:`_EXACT`, which holds
any number of digits and traps any rounding.
"""
from __future__ import annotations

import decimal
from math import gcd
from operator import mul

from ._record import Record
from .automaton import Automaton, _on_paths, _restrict, advance_col, advance_row
from .errors import UnsupportedExactDecision
from .semiring import _INTEGERS, BOOLEAN, NATURAL, WeightSequence, BiWeightGrid
from .words import BiInfiniteWord, UPInfiniteWord, require_same_alphabet, words_equal

# exact integer arithmetic on decimal digits: the operators of Decimal read
# the thread's context (28 digits by default), so only these methods are used
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
                         traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation,
                                decimal.DivisionByZero, decimal.Overflow])


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
    """Per-pair activation outcomes plus the method that produced them.

    Every exact method runs the same windows, and its label names why they
    are exact for the semiring: ExactFieldLRS (linear recurrences over a
    field), ExactNaturalReduction (the naturals inside the rationals) and
    ExactBooleanReach (a Boolean sum is non-zero iff the path count is)."""

    pairs: dict  # (initial_state, final_state) -> bool
    method: str


# ---------------------------------------------------------------------------
# value walks over windows

def _sparse(sr, vec):
    return [(j, w) for j, w in enumerate(vec) if not sr.is_zero(w)]


def _walk(aut, word, row, ends, lo: int, hi: int) -> set:
    """Keys c of ``ends`` such that row . M(w[0..n]) . col is non-zero for a
    sparse column col of ends[c] and some n in [lo, hi): one advance_row
    walk, reading every column at each position until each end is live.

    The window [|u| + d|v|, |u| + 2d|v|) is exact: it is the recurrence
    indices [d, 2d) of every residue of the cycle length.
    """
    sr = aut.semiring
    pending = dict(ends)
    live = set()
    current = row
    for n in range(hi):
        if n >= lo:
            for c, cols in list(pending.items()):
                if any(not sr.is_zero(sr.sum(sr.mul(current[j], w) for j, w in col))
                       for col in cols):
                    live.add(c)
                    del pending[c]
            if not pending:
                break
        if n + 1 < hi:
            current = advance_row(aut, current, word.char_at(n))
    return live


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


def _extent_walks(aut, word, rows, ends, left_extents, right_extents) -> dict:
    """Two-sided decision over the windows reaching e symbols left and g
    symbols right of the center, for e and g in the given extents: for each
    key r of ``rows``, the keys c of ``ends`` that it activates.

    Such a window sums to head . tail, with head = row . M(w[-e..0)) . M(m)
    and tail = M(w[|m|..|m| + g)) . col for a column col of an end; heads
    are row walks along the left cycle and tails column walks along the
    reversed right cycle.
    """
    sr = aut.semiring
    tails = {c: [_sparse(sr, t) for col in cols
                 for t in _extent_vectors(aut, advance_col, col, word.right[::-1], right_extents)]
             for c, cols in ends.items()}
    live = {}
    for r, row in rows.items():
        heads = [_steps(aut, advance_row, h, word.center)
                 for h in _extent_vectors(aut, advance_row, row, word.left, left_extents)]
        live[r] = {c for c, tail in tails.items()
                   if any(not sr.is_zero(sr.sum(sr.mul(h[j], w) for j, w in t))
                          for h in heads for t in tail)}
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

def _lift_between(aut, rows, cols) -> tuple:
    """(d, lifted, scales, scale, rows, ends): ``aut`` restricted to the d
    states on some path from the support of a row to that of a column, and
    lifted with its symbol scales; the rows cut to those states and cleared,
    and the columns as the parts of ``Semiring._clear_ends``, cleared with
    them by the factor ``scale``.  Rows and columns come sparse, as dicts
    from a state to its non-zero weight.  A state off every such path
    carries no term of a row's sum with a column, so the sums are those of
    the restriction."""
    sr = aut.semiring
    keep = _on_paths(aut.num_states, aut.edges(), set().union(*rows), set().union(*cols))
    lifted, scales = _restrict(aut, keep)._lifted()[:2]
    first, rows = sr._clear([[row.get(s, sr.zero) for s in keep] for row in rows])
    last, ends = sr._clear_ends([[col.get(s, sr.zero) for s in keep] for col in cols])
    return len(keep), lifted, scales, first * last, rows, ends


def _decide(aut, word, policy, rows, cols) -> tuple:
    """(method, live): ``live[r]`` is the set of indices c such that the
    pair (rows[r], cols[c]) is activated by ``word``; rows and end vectors
    are sparse, as for :func:`_lift_between`.  The method is resolved once
    for the semiring and the policy; it refuses only when some pair must be
    decided.

    The walks run on the lifted restriction of :func:`_lift_between` to d
    states, whose cycle matrices satisfy recurrences of order at most d.  A
    row or end vector that is zero there is dead and never walked (with
    d = 0, every one), and an end vector is live iff one of its integer
    columns is.  A Q(i) state counts once in d although it lifts to two
    integer entries: the complex sums satisfy a recurrence of order d, and
    the two integers are only their coordinates.
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
    d, aut, _, _, cleared, parts = _lift_between(aut, rows, cols)  # zero tests ignore scales
    ring = aut.semiring
    walked = {r: row for r, row in enumerate(cleared) if not all(map(ring.is_zero, row))}
    columns = list(zip(*parts))  # per end vector: its integer columns
    ends = {c: [_sparse(ring, col) for col in cols] for c, cols in enumerate(columns)}
    ends = {c: cols for c, cols in ends.items() if any(cols)}
    if isinstance(word, UPInfiniteWord):
        if bound is not None:
            lo, hi = bound // 2 + 1, bound + 1
        else:
            lo = len(word.prefix) + d * len(word.cycle)
            hi = lo + d * len(word.cycle)
        live = {r: _walk(aut, word, row, ends, lo, hi) for r, row in walked.items()}
    elif bound is None and (rays := _rotations(word)):
        lo = d * len(rays)  # the window [d p, 2 d p) of each rotation
        live = {r: set().union(*(_walk(aut, ray, row, ends, lo, 2 * lo) for ray in rays))
                for r, row in walked.items()}
    else:
        extents = ([range(max(1, bound // 2), bound + 1)] * 2 if bound is not None else
                   [range(d * len(side), 2 * d * len(side)) for side in (word.left, word.right)])
        live = _extent_walks(aut, word, walked, {c: columns[c] for c in ends}, *extents)
    return method, [live.get(r, set()) for r in range(len(rows))]


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
    one = aut.semiring.one
    method, live = _decide(aut, word, policy, [{i: one} for i in starts],
                           [{f: one} for f in ends])
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

    Activation verdicts are decided once and reused for every window.  The
    values are those of the automaton restricted by :func:`_lift_between`
    to the states on some path from a live initial state to a live final
    one: a masked value sums only paths between a live pair, and every
    state of such a path is kept.
    Initial states with the same live finals share one row, started from
    their weighted sum.  No full matrix product is ever formed.

    Each window start has a :class:`_Window`.  The word read from it is
    u' v'^w, m = |u'|, p = |v'|, and x_q, the rows of all groups stacked at
    length m + q p, is x_0 L^q for L the lifted product over one period, so
    a dependency among x_0 .. x_k holds at every later phase.  Over the
    integers (the naturals, and the lifted fields) the first one,
    sum_{j <= k} c_j x_j = 0 with c_k != 0 and k at most N, the number of
    lifted states, is found by fraction-free (Bareiss) elimination, paced
    at one basis vector applied per two row steps so that its cost stays of
    the order of the rows'.  Every numerator t of a value then
    satisfies c_k t(n) = -sum_{j < k} c_j t(n - (k - j) p), an exact
    division, for n >= m + k p.  Over the Booleans (and any other semiring)
    the first repeat x_k = x_j gives t(n) = t(n - (k - j) p).  Then the rows
    are dropped and the window steps the numerators of its last k p (or
    (k - j) p) lengths, each kept with its own scale.  Returned values are
    cached, only the values asked for are reduced, and a length below what
    is kept starts the window again.

    The text read :meth:`_text` has windows of its own.  Over the naturals
    a text window turns its kept numerators into decimal integers when it
    switches to the recurrence, and steps the recurrence there: ``str`` of
    a Python int is quadratic in its digits, of a decimal linear.  The
    values stay the same integers.  The switch converts each kept integer
    exactly, and each step is integer multiply-adds and one division that
    is exact, since the recurrence holds over the integers; all of it runs
    in :data:`_EXACT`, which holds any number of digits and traps any
    rounding.  Every other text is the formatted value.  Texts are not
    cached: a table reads each once.
    """

    def __init__(self, aut: Automaton, word, policy: ActivationPolicy):
        self.automaton = aut
        self.word = word
        self.policy = policy
        self._verdict = activation_verdicts(aut, word, policy)
        live_finals = {}
        for (i, f), live in self._verdict.pairs.items():
            if live:
                live_finals.setdefault(i, []).append(f)
        groups = {}  # live finals -> the initial states that reach exactly them
        for i, ends in live_finals.items():
            groups.setdefault(tuple(ends), []).append(i)
        _, self._lift, self._scales, self._scale, self._starts, parts = _lift_between(
            aut, [{s: aut.initial[s] for s in starts} for starts in groups.values()],
            [{s: aut.final[s] for s in ends} for ends in groups])
        ring = self._lift.semiring
        self._ends = [[_sparse(ring, col) for col in part]
                      for part in parts]  # per numerator, per group: a sparse column
        self._windows, self._texts = {}, {}  # window start -> _Window

    @property
    def verdict(self) -> ActivationVerdict:
        return self._verdict

    def _value(self, start: int, n: int, text: bool = False):
        if n < 0:
            raise IndexError("window length must be a natural number")
        windows = self._texts if text else self._windows
        window = windows.get(start)
        if window is None:
            window = windows[start] = _Window(self, start, text)
        return window.at(n)

    def _text(self, start: int, n: int) -> str:
        """The value at (start, n), formatted."""
        return self._value(start, n, True)


class _Window:
    """The values of one window start, or for the text read their text (see
    :class:`_MaskedBehavior`)."""

    def __init__(self, behavior: _MaskedBehavior, start: int, text: bool):
        self._behavior, self._start, self._values = behavior, start, {}
        self._text = text
        self._decimal = text and behavior._lift.semiring is NATURAL
        word = behavior.word  # from the start on: m letters, then a cycle of p
        bi = isinstance(word, BiInfiniteWord)
        self._cut = max(0, (word.origin + len(word.center) if bi else len(word.prefix)) - start)
        self._period = len(word.right if bi else word.cycle)
        self._restart()

    def _restart(self):
        behavior = self._behavior
        self._rows, self._position, self._scale = behavior._starts, 0, behavior._scale
        self._kept = []  # (numerators, scale) of the lengths up to the position
        # reduced stacks by pivot (or stacks seen), stacks waiting, unspent row steps
        self._search, self._stacks, self._credit = {}, [], 0
        self._record()

    def at(self, n: int):
        if n in self._values:
            return self._values[n]
        if n <= self._position - len(self._kept):
            self._restart()
        while self._position < n:
            self._step()
        numerators, scale = self._kept[n - self._position - 1]
        sr = self._behavior.automaton.semiring
        value = sr._reduce(numerators, scale)
        if self._decimal:  # str is NATURAL.format
            return str(value)
        if self._text:
            return sr.format(value)
        self._values[n] = value
        return value

    def _step(self):
        behavior = self._behavior
        symbol = behavior.word.char_at(self._start + self._position)
        self._position += 1
        self._scale *= behavior._scales[symbol]
        if self._rows is None:
            self._kept.append((self._recur(self._kept), self._scale))
            del self._kept[0]
        else:
            self._rows = [advance_row(behavior._lift, row, symbol) for row in self._rows]
            self._credit += len(self._rows)
            self._record()

    def _record(self):
        """Keep the current numerators; at a phase point, seek the recurrence."""
        ring, rows = self._behavior._lift.semiring, self._rows
        self._kept.append(([ring.sum(ring.mul(row[j], w) for row, col in zip(rows, part)
                                     for j, w in col) for part in self._behavior._ends],
                           self._scale))
        q, phase = divmod(self._position - self._cut, self._period)
        if q < 0 or phase:
            return
        if ring in (NATURAL, _INTEGERS):
            if q <= self._behavior._lift.num_states:  # x_0 .. x_N are dependent
                self._stacks.append({j: x for j, x in enumerate(sum(rows, ())) if x})
            found = self._dependency()
        else:
            lag = (q - self._search.setdefault(tuple(rows), q)) * self._period
            found = lag and (lag, lambda kept: kept[-lag][0])
        if found:
            lag, self._recur = found
            del self._kept[:-max(lag, 1)]
            if self._decimal:
                self._kept = [([_EXACT.create_decimal(t) for t in numerators], scale)
                              for numerators, scale in self._kept]
            self._rows = self._search = None

    def _dependency(self):
        while self._stacks and self._credit >= 2 * len(self._search):
            q, vector = len(self._search), self._stacks.pop(0)
            self._credit -= 2 * q
            vector[-1 - q] = 1  # key -1 - j holds c_j, for vector = sum_j c_j x_j
            previous = 1  # Bareiss: each step divides exactly by the pivot before
            for pivot, base in self._search.items():
                a, b = vector.get(pivot, 0), base[pivot]
                vector = {j: v for j in vector.keys() | base.keys()
                          if (v := (b * vector.get(j, 0) - a * base.get(j, 0)) // previous)}
                previous = b
            if (pivot := max(vector)) >= 0:
                self._search[pivot] = vector
                continue
            content = gcd(*vector.values())
            vector = {j: v // content for j, v in vector.items()}
            divisor = vector[-1 - q]
            lags = [(j - q) * self._period for j in range(q) if -1 - j in vector]
            coefficients = [-vector[-1 - j] for j in range(q) if -1 - j in vector]
            if self._decimal:
                return q * self._period, _decimal_recurrence(lags, coefficients, divisor)
            zeros = [0] * len(self._behavior._ends)

            def recur(kept):  # zeros when x_q = 0, as is every later stack
                terms = [kept[lag][0] for lag in lags]
                return [sum(map(mul, coefficients, column)) // divisor
                        for column in zip(*terms)] or zeros
            return q * self._period, recur
        return None


def _decimal_recurrence(lags, coefficients, divisor):
    """The recurrence of :meth:`_Window._dependency` on the one numerator of
    a natural value, held as a decimal integer.  The divisor's sign moves
    into the coefficients, so that a zero value is +0 and is written 0: a
    sum started at +0 is never -0, and +0 over a positive divisor is +0."""
    sign, unit = (1 if divisor > 0 else -1), abs(divisor) == 1
    coefficients = [_EXACT.create_decimal(c * sign) for c in coefficients]
    divisor, zero = _EXACT.create_decimal(divisor * sign), _EXACT.create_decimal(0)

    def recur(kept):  # zero when x_q = 0, as is every later stack
        total = zero
        for c, lag in zip(coefficients, lags):
            total = _EXACT.fma(c, kept[lag][0][0], total)
        return [total if unit else _EXACT.divide(total, divisor)]
    return recur


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
