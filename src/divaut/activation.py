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
periodic word of least period p takes the extents [0, p) x [dp, 2dp), one
per start phase.  The same windows are exact over the naturals and the
Booleans: a natural path sum is the rational path sum of the same automaton,
and c -> [c != 0] is a semiring map from the naturals onto the Booleans, so
a Boolean sum is non-zero exactly when the path count is, and a natural
decision walks the Boolean image of its automaton.

A semiring that cancels but is not a field has no exact rule and raises
:class:`UnsupportedExactDecision`.  ``horizon:K`` is an explicit
approximation for differential testing: prefix lengths (K/2, K], extents
[K/2, K].  Every rule makes one pass per start row and reports for each row
the set of end columns it activates, by row walks only: on a two-sided
word each head of the row walks the right cycle
(over the Booleans and the naturals, the heads' one sum).  Rows are
those of the lifted automaton: over the fields integer numerators over one
denominator, and an end vector is one integer column per numerator of a
value: a Q(i) row is its real and imaginary integer rows side by side, and
a Q(i) end vector two columns, for the real and the imaginary part.  Over
the Booleans and the naturals the lifted automaton is the automaton itself.
Zero tests never reduce.  The masked evaluator steps rows only until they
are dependent (or repeat) at the cycle's phase points, then steps the
monic integer recurrence of the value numerators, or jumps along it to a
far length (x^m modulo its characteristic polynomial), and reduces only the
values asked for.  A value and a text read share a window, but a natural
text read steps the recurrence in decimal integers, which are written in
time linear in their digits.  They hold the same values: the recurrence is
monic, so no step divides, and every conversion and step runs in
:data:`_EXACT`, which holds any number of digits and traps any rounding.
"""
from __future__ import annotations

import decimal
from math import gcd, prod
from operator import mul

from ._record import Record
from .automaton import Automaton, _on_paths, _restrict, advance_row
from .errors import UnsupportedExactDecision
from .semiring import _INTEGERS, BOOLEAN, NATURAL, WeightSequence, BiWeightGrid
from .words import BiInfiniteWord, UPInfiniteWord, require_same_alphabet, words_equal

# exact integer arithmetic on decimal digits: the operators of Decimal read
# the thread's context (28 digits by default), so only these methods are used
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
                         traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation,
                                decimal.DivisionByZero, decimal.Overflow])
_ZERO = _EXACT.create_decimal(0)


class ActivationPolicy(Record):
    """auto (spelled ``exact`` too): the exact rule of the semiring.
    horizon: scan windows up to the given bound instead."""

    kind: str  # "auto" | "horizon"
    horizon: int = 0

    def __post_init__(self):
        if self.kind not in ("auto", "horizon"):
            raise ValueError(f"bad activation policy kind {self.kind!r}")
        if isinstance(self.horizon, bool) or not isinstance(self.horizon, int):
            raise ValueError(f"horizon bound must be an int, got {self.horizon!r}")
        if self.kind == "horizon" and self.horizon < 2:
            raise ValueError("horizon bound must be at least 2")

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


def _walk(aut, word, current, pending, lo: int, hi: int):
    """Delete from ``pending`` the keys c such that current . M(w[0..n]) . col
    is non-zero for a sparse column col of pending[c] and some n in
    [lo, hi): one advance_row walk, reading every pending column at each
    position until none is left.

    The window [|u| + d|v|, |u| + 2d|v|) is exact: it is the recurrence
    indices [d, 2d) of every residue of the cycle length.
    """
    sr = aut.semiring
    for n in range(hi):
        if n >= lo:
            for c, cols in list(pending.items()):
                if any(not sr.is_zero(sr.sum(sr.mul(current[j], w) for j, w in col))
                       for col in cols):
                    del pending[c]
            if not pending:
                return
        if n + 1 < hi:
            current = advance_row(aut, current, word.char_at(n))


def _steps(aut, row, symbols):
    for symbol in symbols:
        row = advance_row(aut, row, symbol)
    return row


def _heads(aut, row, left, center, extents):
    """The distinct non-zero heads row . M(l[-e:]) . M(m) of l^~w m r^w,
    l = ``left`` and m = ``center``, for e in ``extents``, l[-e:] the e
    letters left of the center, lazily: one walk along the left cycle per
    phase e mod |l| met by ``extents``."""
    ring, n, seen = aut.semiring, len(left), set()
    for s in range(min(n, extents.stop)):
        current = _steps(aut, row, left[n - s:])
        for e in range(s, extents.stop, n):
            if e > s:
                current = _steps(aut, current, left)
            if e >= extents.start:
                head = _steps(aut, current, center)
                if head not in seen and not all(map(ring.is_zero, head)):
                    seen.add(head)
                    yield head


# ---------------------------------------------------------------------------
# decisions

def _lift_between(aut, rows, cols) -> tuple:
    """(d, lifted, scales, scale, rows, ends): ``aut`` restricted to the d
    states on some path from the support of a row to that of a column, and
    lifted with its symbol scales; the rows cut to those states and cleared,
    and the columns as the parts of ``Semiring._clear_ends``, cleared with
    them by the factor ``scale``: per numerator, per column, a sparse lifted
    column of (entry, non-zero weight) pairs.  Rows and columns come
    sparse, as dicts from a state to its non-zero weight.  A state off every
    such path carries no term of a row's sum with a column, so the sums are
    those of the restriction."""
    sr = aut.semiring
    keep = _on_paths(aut.num_states, aut.edges(), set().union(*rows), set().union(*cols))
    lifted, scales = _restrict(aut, keep)._lifted()[:2]
    first, rows = sr._clear([[row.get(s, sr.zero) for s in keep] for row in rows])
    last, parts = sr._clear_ends([[col.get(s, sr.zero) for s in keep] for col in cols])
    ends = [[_sparse(lifted.semiring, col) for col in part] for part in parts]
    return len(keep), lifted, scales, first * last, rows, ends


def _decide(aut, word, policy, rows, cols) -> tuple:
    """(method, live): ``live[r]`` is the set of indices c such that the
    pair (rows[r], cols[c]) is activated by ``word``; rows and end vectors
    are sparse, as for :func:`_lift_between`.  The method is resolved once
    for the semiring and the policy; it refuses only when some pair must be
    decided.

    The walks run on the lifted restriction of :func:`_lift_between` to d
    states, whose cycle matrices satisfy recurrences of order at most d;
    over the naturals on its Boolean image, which has the same zero sums
    (c -> [c != 0] is a semiring map onto the Booleans).  A row or end
    vector that is zero there is dead and never walked (with d = 0, every
    one), and an end vector is live iff one of its integer columns is.  A
    Q(i) state counts once in d although it lifts to two integer entries:
    the complex sums satisfy a recurrence of order d, and the two integers
    are only their coordinates.

    Every word shape gives each row heads that :func:`_walk` reads along
    one ray over one range of lengths [lo, hi): the row on a one-sided
    word, else each distinct non-zero head h_e = row . M(l[-e:]) . M(m)
    (:func:`_heads`) on r^w, for the window of extents (e, g) sums to
    h_e . M(r[:g]) . col.  A row walks its heads on the ends not live yet
    and stops once every end is.  A walked ring with no cancellation (the
    Booleans) is zero-sum-free, a + b = 0 only for a = b = 0, so
    sum_e h_e . M(r[:g]) . col, which distributivity makes
    (sum_e h_e) . M(r[:g]) . col, is non-zero iff some term is: one walk of
    the summed distinct heads decides the row.

    The window sums of a purely periodic word of least period p (a period
    of both tails, so p divides |l| and |r|) depend only on the start phase
    modulo p and the length n, so the word is read as its shift
    v^~w . v^w, v = r[:p], and a pair is live iff for some phase the sums
    are not eventually zero.  For a phase and a residue of n modulo p they
    are x L^q c in q = n div p, L the product over one period: a recurrence
    of order at most d, eventually zero iff it vanishes on d consecutive
    q >= d (see the module notes).  So the extents e in [0, p), one head
    per start phase -e, and g in [d p, 2 d p), which give every residue d
    consecutive q >= d, decide every phase.
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
    if aut.semiring is NATURAL:  # decided on the supports, the image under c -> [c != 0]
        aut = Automaton(BOOLEAN, aut.alphabet, d, (False,) * d, (False,) * d,
                        {s: tuple(tuple((j, True) for j, _ in row) for row in rows)
                         for s, rows in aut.transitions.items()})
        cleared = [tuple(map(bool, row)) for row in cleared]
        parts = [[[(j, True) for j, _ in col] for col in part] for part in parts]
    ring = aut.semiring
    walked = {r: row for r, row in enumerate(cleared) if not all(map(ring.is_zero, row))}
    ends = {c: cols for c, cols in enumerate(zip(*parts)) if any(cols)}

    def heads(row):
        return [row]
    if isinstance(word, UPInfiniteWord):
        ray = word
        lo = bound // 2 + 1 if bound is not None else len(word.prefix) + d * len(word.cycle)
        hi = bound + 1 if bound is not None else lo + d * len(word.cycle)
    else:
        n = len(word.left)
        p = bound is None and next((p for p in range(1, n + 1)
                                    if n % p == 0 and words_equal(word, word.shift_by(p))), 0)
        # a periodic word is read as its shift v^~w . v^w, v = r[:p]: the same window sums
        cycle, center = (word.right[:p], ()) if p else (word.left, word.center)
        ray = UPInfiniteWord(word.alphabet, (), word.right)
        left, right = ([range(max(1, bound // 2), bound + 1)] * 2 if bound is not None else
                       [range(p), range(d * p, 2 * d * p)] if p else
                       [range(d * len(side), 2 * d * len(side)) for side in (word.left, word.right)])
        lo, hi = right.start, right.stop

        def heads(row):
            found = _heads(aut, row, cycle, center, left)
            if ring.has_cancellation:
                return found
            found = list(found)
            return found if len(found) < 2 else [tuple(map(ring.sum, zip(*found)))]
    live = [set() for _ in rows]
    for r, row in walked.items():
        pending = dict(ends)
        for head in heads(row):
            _walk(aut, ray, head, pending, lo, hi)
            if not pending:
                break
        live[r] = ends.keys() - pending.keys()
    return method, live


def activation_verdicts(aut: Automaton, word, policy: ActivationPolicy = AUTO,
                        pairs=None) -> ActivationVerdict:
    """Decide every requested (initial, final) pair; defaults to the pairs
    with non-zero initial and final weight, the only ones behavior can see.
    One decision pass runs per distinct initial state."""
    require_same_alphabet(aut.alphabet, word.alphabet)
    if pairs is None:
        pairs = [(i, f) for i in aut.initial_states() for f in aut.final_states()]
    pairs = list(pairs)
    for state in (s for pair in pairs for s in pair):
        if state not in range(aut.num_states):
            raise ValueError(f"state {state!r} outside state range")
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

    Activation verdicts are decided once (``verdict``) and reused.  The
    values are those of the automaton restricted by :func:`_lift_between`
    to the states on some path from a live initial state to a live final
    one: a masked value sums only paths between a live pair, and every
    state of such a path is kept.
    Initial states with the same live finals, grouped in one pass, share
    one row, started from their weighted sum; its end is a sparse lifted
    column per numerator.  No full matrix product is ever formed.

    Each window start has a :class:`_Window`.  The word read from it is
    u' v'^w, m = |u'|, p = |v'|, and x_q, the rows of all groups stacked at
    length m + q p, is x_0 L^q for L the lifted product over one period, so
    a dependency among x_0 .. x_k holds at every later phase.  Over the
    integers (the naturals, and the lifted fields) the first one,
    sum_{j <= k} c_j x_j = 0 with k at most N, the number of lifted states,
    is found by fraction-free (Bareiss) elimination, paced at one basis
    vector applied per two row steps so that its cost stays of the order
    of the rows'.  Divided by its content it has c_k = +-1 (see
    :meth:`_Window._dependency`), so every numerator t of a value satisfies
    t(n) = sum_{j < k} chi_j t(n - (k - j) p) for n >= m + k p, with
    chi_j = -c_k c_j integers.  Over the Booleans (and any other semiring)
    the first repeat x_k = x_j gives t(n) = t(n - (k - j) p).  Then the
    rows are dropped and the window steps the numerators of its last k p
    (or (k - j) p) lengths, each kept with its own scale, or jumps along the
    recurrence to a far length (:meth:`_Window._jump`).  A read is the
    numerators and the scale of one length (:meth:`_read`), which
    :meth:`_value` reduces and :meth:`_text` writes with ``Semiring._text``;
    nothing is cached, and a length below what is kept starts the window
    again.

    Windows are keyed by start and carrier: a value and a text read of one
    start share a window, but over the naturals the text read has a decimal
    one, which turns its kept numerators into decimal integers when it
    switches to the recurrence and steps (or jumps) there: ``str`` of a
    Python int is quadratic in its digits, of a decimal linear.  The values
    stay the same integers.  The switch converts each kept integer exactly,
    and each step or jump is integer multiply-adds, with no division; all of
    it runs in :data:`_EXACT`, which holds any number of digits and traps
    any rounding.
    """

    def __init__(self, aut: Automaton, word, policy: ActivationPolicy):
        self.automaton = aut
        self.word = word
        self.policy = policy
        self.verdict = activation_verdicts(aut, word, policy)
        groups, finals = {}, aut.final_states()  # live finals -> the initial states reaching them
        for i in aut.initial_states():
            if ends := tuple(f for f in finals if self.verdict.pairs[i, f]):
                groups.setdefault(ends, []).append(i)
        # self._ends: per numerator, per group, a sparse column
        _, self._lift, self._scales, self._scale, self._starts, self._ends = _lift_between(
            aut, [{s: aut.initial[s] for s in starts} for starts in groups.values()],
            [{s: aut.final[s] for s in ends} for ends in groups])
        self._windows = {}  # (window start, decimal carrier) -> _Window

    def _read(self, start: int, n: int, decimal: bool = False):
        """(numerators, scale) of the value at (start, n)."""
        if n < 0:
            raise IndexError("window length must be a natural number")
        window = self._windows.get((start, decimal))
        if window is None:
            window = self._windows[start, decimal] = _Window(self, start, decimal)
        return window.at(n)

    def _value(self, start: int, n: int):
        return self.automaton.semiring._reduce(*self._read(start, n))

    def _text(self, start: int, n: int) -> str:
        """The value at (start, n), formatted."""
        return self.automaton.semiring._text(*self._read(start, n, self._lift.semiring is NATURAL))


class _Window:
    """The (numerators, scale) of each length from one window start (see
    :class:`_MaskedBehavior`).  Once its rows are dropped, a read more than
    max(kept lengths, p) ahead jumps by whole periods and steps the fewer
    than p lengths left; reads in order only step."""

    def __init__(self, behavior: _MaskedBehavior, start: int, decimal: bool):
        self._behavior, self._start, self._decimal = behavior, start, decimal
        self._combine = _decimal_combination if self._decimal else _integer_combination
        word = behavior.word  # from the start on: m letters, then a cycle of p
        bi = isinstance(word, BiInfiniteWord)
        self._cut = max(0, (word.origin + len(word.center) if bi else len(word.prefix)) - start)
        self._period = len(word.right if bi else word.cycle)
        self._sigma = prod(behavior._scales[word.char_at(start + self._cut + k)]
                           for k in range(self._period))  # the scale of one period
        self._restart()

    def _restart(self):
        behavior = self._behavior
        self._rows, self._position, self._scale = behavior._starts, 0, behavior._scale
        self._kept = []  # (numerators, scale) of the lengths up to the position
        self._search, self._stacks = {}, []  # reduced stacks by pivot (or stacks seen), waiting
        self._record()

    def at(self, n: int):
        if n <= self._position - len(self._kept):
            self._restart()
        while self._position < n:
            if self._rows is None and n - self._position > max(len(self._kept), self._period):
                self._jump((n - self._position) // self._period)
            else:
                self._step()
        return self._kept[n - self._position - 1]

    def _step(self):
        behavior = self._behavior
        symbol = behavior.word.char_at(self._start + self._position)
        self._position += 1
        self._scale *= behavior._scales[symbol]
        if self._rows is None:
            kept = self._kept
            kept.append((kept[0][0] if self._chi is None else  # a repeat keeps one lag
                         self._combine(self._taps, [t for t, _ in kept[::self._period]]),
                         self._scale))
            del kept[0]
        else:
            self._rows = [advance_row(behavior._lift, row, symbol) for row in self._rows]
            self._record()

    def _jump(self, periods: int):
        """Move the kept lengths on by ``periods`` periods.  A repeat of lag
        l rotates them by periods * p modulo l.  Under the recurrence, the
        kept lengths of one phase are s(0) .. s(k - 1) of a sequence with
        s(i + k) = sum_j chi_j s(i + j), so s(periods + i) is the
        combination of them by the coefficients of x^(periods + i) modulo
        chi(x) = x^k - sum_j chi_j x^j.  Each scale gains the factor
        sigma^periods, sigma the scale of one period."""
        kept, p = self._kept, self._period
        if self._chi is None:
            shift = periods * p % len(kept)
            numerators = [t for t, _ in kept[shift:] + kept[:shift]]
        else:
            powers = _powers(self._chi, periods, -(-len(kept) // p))
            numerators = [self._combine(powers[i // p], [t for t, _ in kept[i % p::p]])
                          for i in range(len(kept))]
        factor = self._sigma ** periods
        self._kept = [(t, scale * factor) for t, (_, scale) in zip(numerators, kept)]
        self._position += periods * p
        self._scale *= factor

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
            found = lag and (lag, None)
        if found:
            lag, self._chi = found
            del self._kept[:-max(lag, 1)]
            self._taps = self._chi  # of a step
            if self._decimal:
                self._kept = [([_EXACT.create_decimal(t) for t in numerators], scale)
                              for numerators, scale in self._kept]
                self._taps = [_EXACT.create_decimal(c) for c in self._chi]
            self._rows = self._search = None

    def _dependency(self):
        """(k p, chi) once x_k = sum_{j < k} chi_j x_j is found, else None.

        The first dependency sum_{j <= k} c_j x_j = 0, divided by its
        content, has c_k = +-1: x_0 .. x_(k-1) are independent, so it is
        unique up to a factor and is a multiple of mu, the monic polynomial
        of least degree with x_0 mu(L) = 0.  mu divides the characteristic
        polynomial of L, which is monic over the integers, so by Gauss's
        lemma mu has integer coefficients; being monic it is primitive, and
        the content-free dependency is +-mu.  So chi_j = -c_k c_j, and no
        step divides."""
        # paced: applying vectors 0 .. q costs 2 (0 + .. + q) = q (q + 1) of the row steps made
        while self._stacks and (q := len(self._search)) * (q + 1) <= \
                self._position * len(self._rows):
            vector = self._stacks.pop(0)
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
            lead = vector[-1 - q] // content
            if lead not in (1, -1):
                raise ArithmeticError(f"recurrence with leading coefficient {lead}, not +-1")
            return q * self._period, [-lead * vector.get(-1 - j, 0) // content for j in range(q)]
        return None


def _integer_combination(coefficients, terms):
    """sum_j coefficients[j] terms[j], numerator by numerator."""
    return [sum(map(mul, coefficients, column)) for column in zip(*terms)]


def _decimal_combination(coefficients, terms):
    """The same on the one numerator of a natural value, held as a decimal
    integer, in :data:`_EXACT`, which takes integer coefficients (a jump's)
    exactly.  The sum starts at +0, so a zero is +0 and is written 0: -0 plus +0 is
    +0."""
    total = _ZERO
    for c, (t,) in zip(coefficients, terms):
        total = _EXACT.fma(c, t, total)
    return [total]


def _powers(chi, exponent: int, count: int) -> list:
    """The coefficients of x^e modulo x^k - sum_j chi_j x^j for e =
    exponent .. exponent + count - 1, by square and multiply over the
    integers (Fiduccia, SIAM J. Comput. 14, 1985)."""
    k = len(chi)

    def reduce(full):  # from the top: x^d = x^(d - k) sum_j chi_j x^j
        while len(full) > k:
            top = full.pop()
            for j, c in enumerate(chi):
                full[len(full) - k + j] += top * c
        return full

    power = reduce([1] + [0] * (k - 1))
    for bit in bin(exponent)[2:]:
        full = [0] * (2 * k - 1)
        for i, a in enumerate(power):
            for j, b in enumerate(power):
                full[i + j] += a * b
        power = reduce([0] + reduce(full) if bit == "1" else full)
    powers = [power]
    while len(powers) < count:
        powers.append(reduce([0] + powers[-1]))
    return powers


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
