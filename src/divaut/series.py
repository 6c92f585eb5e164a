"""Rational-expression ASTs for converging, diverging, and bidiverging power
series, plus a direct coefficient oracle: one window evaluator for both
infinite levels, with one memo shared by every window of an evaluation
context.  Only the ``auto``/``exact`` acceptance indicators build an
automaton; the ``horizon:K`` indicator scans windows through the same memo
and never builds one.
"""
from __future__ import annotations

from ._record import Record
from .activation import AUTO, ActivationPolicy, _decide
from .errors import ImproperStar
from .semiring import Semiring
from .words import BiInfiniteWord, FiniteWord, UPInfiniteWord


class Expr(Record):
    """Base class for all series expressions."""


# converging layer -----------------------------------------------------------

class Atom(Expr):
    symbol: str
    coeff: object


class Sum(Expr):
    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))


class Cat(Expr):
    left: Expr
    right: Expr


class Star(Expr):
    inner: Expr


class Scale(Expr):
    left_coeff: object
    inner: Expr
    right_coeff: object


# diverging layer ------------------------------------------------------------

class Omega(Expr):
    inner: Expr  # proper converging


class Conjoin2(Expr):
    first: Expr  # proper converging
    second: Expr


# bidiverging layer ----------------------------------------------------------

class Zeta(Expr):
    inner: Expr


class Conjoin3(Expr):
    first: Expr
    middle: Expr
    second: Expr


ZERO = Sum(())
EPSILON = Star(ZERO)  # coefficient 1 on the empty word, 0 elsewhere


def is_proper(e: Expr) -> bool:
    """A converging expression is proper when its empty-word coefficient is
    zero; decidable syntactically."""
    if isinstance(e, Atom):
        return True
    if isinstance(e, Sum):
        return all(is_proper(t) for t in e.terms)
    if isinstance(e, Cat):
        return is_proper(e.left) or is_proper(e.right)
    if isinstance(e, Star):
        return False
    if isinstance(e, Scale):
        return is_proper(e.inner)
    raise TypeError(f"not a converging expression: {e!r}")


_NODE_LEVEL = {Atom: "conv", Cat: "conv", Star: "conv", Omega: "div",
               Conjoin2: "div", Zeta: "bidiv", Conjoin3: "bidiv"}

# the nodes whose operands must be proper, with the message that refuses one
_PROPER_OPERANDS = {Star: "star needs a proper operand",
                    Omega: "omega needs a proper operand",
                    Zeta: "zeta needs a proper operand",
                    Conjoin2: "conjoin needs proper operands",
                    Conjoin3: "conjoin3 needs proper operands"}


def _operands(e: Expr) -> tuple:
    """A sum's terms, or else the node's ``Expr`` fields in order."""
    if isinstance(e, Sum):
        return e.terms
    if not isinstance(e, Expr):
        raise TypeError(f"not a series expression: {e!r}")
    return tuple(getattr(e, name) for name, kind in e._fields.items() if kind == "Expr")


def expr_level(e: Expr) -> str:
    """'conv', 'div', or 'bidiv'; sums and scales take their operands' level.
    Raises TypeError unless every operand of every other node is converging."""
    if type(e) in _NODE_LEVEL:
        if any(expr_level(part) != "conv" for part in _operands(e)):
            raise TypeError(f"{type(e).__name__} needs converging operands")
        return _NODE_LEVEL[type(e)]
    levels = {expr_level(part) for part in _operands(e)}
    if len(levels) > 1:
        raise TypeError(f"sum mixes series levels {sorted(levels)}")
    return levels.pop() if levels else "conv"


def validate(e: Expr):
    """Check the properness side conditions of star/omega/zeta/conjoin."""
    message = _PROPER_OPERANDS.get(type(e))
    for part in _operands(e):
        validate(part)
        if message is not None and not is_proper(part):
            raise ImproperStar(message)


# ---------------------------------------------------------------------------
# coefficients on word windows

def _window_coeff(sr: Semiring, word):
    """Returns coeff(node, lo, hi): the coefficient of the converging
    expression ``node`` on the word positions [lo, hi), by structural
    recursion memoized over (id(node), lo, hi); ``node`` has passed
    ``validate``, so every star operand is proper.  The memo lives as long as
    the returned function, so callers keep every node they pass alive that
    long."""
    char_at = word.char_at
    memo = {}

    def splits(left, right, lo, cuts, hi):
        """The sum over cuts k of coeff(left, lo, k) * coeff(right, k, hi);
        the right factor is not evaluated where the left one is zero."""
        heads = ((k, go(left, lo, k)) for k in cuts)
        return sr.sum(sr.mul(head, go(right, k, hi))
                      for k, head in heads if not sr.is_zero(head))

    def go(node, lo, hi):
        key = (id(node), lo, hi)
        if key in memo:
            return memo[key]
        if isinstance(node, Atom):
            if hi - lo == 1 and char_at(lo) == node.symbol:
                out = sr.check(node.coeff)
            else:
                out = sr.zero
        elif isinstance(node, Sum):
            out = sr.sum(go(t, lo, hi) for t in node.terms)
        elif isinstance(node, Cat):
            out = splits(node.left, node.right, lo, range(lo, hi + 1), hi)
        elif isinstance(node, Star):
            # first block non-empty, so the recursion shrinks
            out = sr.one if lo == hi else splits(node.inner, node, lo,
                                                 range(lo + 1, hi + 1), hi)
        elif isinstance(node, Scale):
            out = sr.mul(sr.mul(sr.check(node.left_coeff), go(node.inner, lo, hi)),
                         sr.check(node.right_coeff))
        else:
            raise TypeError(f"not a converging expression: {node!r}")
        memo[key] = out
        return out

    return go


def conv_coeff(sr: Semiring, e: Expr, word: FiniteWord):
    """Coefficient of a finite word."""
    validate(e)
    if expr_level(e) != "conv":
        raise TypeError(f"not a converging expression: {e!r}")
    return _window_coeff(sr, word)(e, 0, len(word))


# ---------------------------------------------------------------------------
# diverging / bidiverging coefficients

def _tester(leaf: Expr) -> Expr:
    """The converging expression whose coefficient on a window is the
    leaf's value there, once its acceptance indicator holds."""
    if isinstance(leaf, (Omega, Zeta)):
        return Star(leaf.inner)
    if isinstance(leaf, Conjoin2):
        return Cat(leaf.first, Star(leaf.second))
    return Cat(Star(leaf.first), Cat(leaf.middle, Star(leaf.second)))


class _OracleSeries:
    """Evaluation context shared by both levels: a one-sided value is the
    two-sided window that starts at 0.  ``_value(start, n)`` distributes
    sums and scales over the leaves (of the subclass's ``_leaves`` types);
    each leaf's tester and indicator are built once, keyed by identity, and
    one memo over absolute word positions serves every window."""

    def __init__(self, sr: Semiring, e: Expr, word, chi: ActivationPolicy = AUTO):
        validate(e)
        expr_level(e)  # refuses a tree whose operands mix levels
        self.semiring = sr
        self.expr = e
        self.word = word
        self.chi_policy = chi
        self._coeff = _window_coeff(sr, word)
        self._testers = {}  # id(leaf) -> (tester, indicator)

    def _value(self, start: int, n: int):
        if n < 0:
            raise IndexError("window length must be a natural number")
        return self._eval(self.expr, start, start + n)

    def _eval(self, node, lo, hi):
        sr = self.semiring
        if isinstance(node, Sum):
            return sr.sum(self._eval(t, lo, hi) for t in node.terms)
        if isinstance(node, Scale):
            return sr.mul(sr.mul(sr.check(node.left_coeff),
                                 self._eval(node.inner, lo, hi)),
                          sr.check(node.right_coeff))
        if not isinstance(node, self._leaves):
            raise TypeError(f"not a {self._kind} expression: {node!r}")
        if id(node) not in self._testers:
            tester = _tester(node)
            self._testers[id(node)] = (tester, self._chi(tester))
        tester, live = self._testers[id(node)]
        return self._coeff(tester, lo, hi) if live else sr.zero

    def _chi(self, tester: Expr) -> bool:
        """Is the tester non-zero on windows that grow without bound?

        With an exact/auto policy the tester is compiled to an automaton and
        the activation machinery decides; with a horizon policy the windows
        are evaluated directly, which keeps the two routes independent.
        """
        sr, policy = self.semiring, self.chi_policy
        if policy.kind == "horizon":
            return any(not sr.is_zero(self._coeff(tester, lo, hi))
                       for lo, hi in self._horizon_windows(policy.horizon))
        from .kleene import compile_conv

        aut = compile_conv(sr, self.word.alphabet, tester)
        return bool(_decide(aut, self.word, policy, [aut.initial], [aut.final])[1][0])


class DivSeries(_OracleSeries):
    """Evaluation context for one (diverging expression, infinite word) pair.

    Each class defines its own ``at`` (perfbench/spans.py wraps it per
    class).
    """

    _leaves = (Omega, Conjoin2)
    _kind = "diverging"

    def at(self, n: int):
        return self._value(0, n)

    def _horizon_windows(self, bound):
        """Prefixes of length (K/2, K]."""
        return ((0, n) for n in range(bound // 2 + 1, bound + 1))


class BidivSeries(_OracleSeries):
    """Evaluation context for one (bidiverging expression, biinfinite word)
    pair."""

    _leaves = (Zeta, Conjoin3)
    _kind = "bidiverging"

    def at(self, i: int, n: int):
        return self._value(i, n)

    def _horizon_windows(self, bound):
        """Windows that reach [K/2, K] positions beyond the center on each
        side."""
        word = self.word
        half = max(1, bound // 2)
        end = len(word.center)
        return ((word.origin + lo, word.origin + hi)
                for lo in range(-half, -bound - 1, -1)
                for hi in range(end + half, end + bound + 1))


def div_coeff(sr: Semiring, e: Expr, word: UPInfiniteWord, n: int,
              chi: ActivationPolicy = AUTO):
    return DivSeries(sr, e, word, chi).at(n)


def bidiv_coeff(sr: Semiring, e: Expr, word: BiInfiniteWord, i: int, n: int,
                chi: ActivationPolicy = AUTO):
    return BidivSeries(sr, e, word, chi).at(i, n)


# ---------------------------------------------------------------------------
# characteristic form

class CharacteristicForm(Record):
    """Any rational diverging series is a finite sum of scaled conjoins plus
    scaled omega terms (likewise with 3-way conjoins and zeta terms for the
    bidiverging level); this is the flattened two-list shape."""

    level: str  # "div" | "bidiv"
    conjoin_terms: tuple  # div: (a, x, y, b);  bidiv: (a, x, m, y, b)
    iteration_terms: tuple  # (c, z, d)


def to_characteristic(sr: Semiring, e: Expr, level: str = None) -> CharacteristicForm:
    validate(e)
    declared = expr_level(e)
    if declared == "conv" and level is None:
        raise TypeError("characteristic form applies to diverging or "
                        "bidiverging expressions")
    if declared != "conv":
        if level is not None and declared != level:
            raise TypeError(f"expected a {level}-level expression, got {declared}")
        level = declared
    # a conv-level tree can only be the zero series here; the walk below
    # rejects any real converging leaf
    conjoins = []
    iterations = []

    def walk(node, left, right):
        if isinstance(node, Sum):
            for t in node.terms:
                walk(t, left, right)
        elif isinstance(node, Scale):
            walk(node.inner, sr.mul(left, sr.check(node.left_coeff)),
                 sr.mul(sr.check(node.right_coeff), right))
        elif isinstance(node, (Omega, Zeta, Conjoin2, Conjoin3)):
            parts = _operands(node)
            (conjoins if len(parts) > 1 else iterations).append((left, *parts, right))
        else:
            raise TypeError(f"unexpected node in characteristic flattening: {node!r}")

    walk(e, sr.one, sr.one)
    return CharacteristicForm(level, tuple(conjoins), tuple(iterations))


# ---------------------------------------------------------------------------
# smart constructors (used by the automaton-to-expression direction, where
# unsimplified output would blow up fast)

def make_sum(terms) -> Expr:
    flat = []
    for t in terms:
        if isinstance(t, Sum):
            flat.extend(t.terms)
        else:
            flat.append(t)
    flat = [t for t in flat if t != ZERO]
    if not flat:
        return ZERO
    if len(flat) == 1:
        return flat[0]
    return Sum(tuple(flat))


def make_cat(a: Expr, b: Expr) -> Expr:
    if a == ZERO or b == ZERO:
        return ZERO
    if a == EPSILON:
        return b
    if b == EPSILON:
        return a
    return Cat(a, b)


def make_scale(sr: Semiring, left, e: Expr, right) -> Expr:
    if sr.is_zero(left) or sr.is_zero(right) or e == ZERO:
        return ZERO
    if sr.eq(left, sr.one) and sr.eq(right, sr.one):
        return e
    if isinstance(e, Atom):
        return Atom(e.symbol, sr.mul(sr.mul(left, sr.check(e.coeff)), right))
    return Scale(left, e, right)


def make_star(e: Expr) -> Expr:
    if e == ZERO:
        return EPSILON
    return Star(e)

