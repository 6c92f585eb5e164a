"""Rational-expression ASTs for converging, diverging, and bidiverging power
series, plus a direct coefficient oracle: one window evaluator for both
infinite levels, which reads the characteristic form that ``kleene``
compiles from term by term.  An evaluation context keeps, for every node
and window end, one sparse column of coefficients over the window starts,
built from the operands' columns without recursion.  Only the ``auto``/``exact``
acceptance indicators build an automaton; the ``horizon:K`` indicator scans
windows through the same columns and never builds one.
"""
from __future__ import annotations

from ._record import Record
from .activation import AUTO, ActivationPolicy, _decide
from .errors import ImproperStar
from .semiring import Semiring
from .words import BiInfiniteWord, FiniteWord, UPInfiniteWord


class Expr(Record):
    """Base class for all series expressions."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._operand_fields = tuple(name for name, kind in cls._fields.items()
                                    if kind == "Expr")


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
    proper = _properness(e)[id(e)]
    if isinstance(proper, Expr):
        raise TypeError(f"not a converging expression: {proper!r}")
    return proper


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
    return tuple(getattr(e, name) for name in e._operand_fields)


def _post_order(root: Expr) -> list:
    """The distinct nodes under ``root`` (by identity), each after all of its
    operands, found with an explicit stack, so depth costs no recursion.
    Computed once per root: the list is cached on it."""
    order = root.__dict__.get("_post_order") if isinstance(root, Expr) else None
    if order is not None:
        return order
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((part, False) for part in reversed(_operands(node)))
    object.__setattr__(root, "_post_order", order)
    return order


def _properness(root: Expr) -> dict:
    """id(node) -> is_proper(node) for every node under ``root``; where that
    raises, the value is the non-converging node it names."""
    proper = {}
    for node in _post_order(root):
        parts = [proper[id(part)] for part in _operands(node)]
        if isinstance(node, Atom):
            out = True
        elif isinstance(node, Star):
            out = False
        elif isinstance(node, Sum):  # all(): stops at the first improper term
            out = next((p for p in parts if p is not True), True)
        elif isinstance(node, Cat):  # or: the right operand only if needed
            out = parts[0] if parts[0] is not False else parts[1]
        elif isinstance(node, Scale):
            out = parts[0]
        else:
            out = node
        proper[id(node)] = out
    return proper


def expr_level(e: Expr) -> str:
    """'conv', 'div', or 'bidiv'; sums and scales take their operands' level.
    Raises TypeError unless every operand of every other node is converging.
    Computed once per root: a level is cached on it."""
    cached = e.__dict__.get("_level") if isinstance(e, Expr) else None
    if cached is not None:
        return cached
    level = {}  # id(node) -> its level, or the TypeError computing it raises
    for node in _post_order(e):
        parts = [level[id(part)] for part in _operands(node)]
        if type(node) in _NODE_LEVEL:
            out = _NODE_LEVEL[type(node)]
            for part in parts:  # the first operand that is not converging
                if part != "conv":
                    out = part if isinstance(part, TypeError) else TypeError(
                        f"{type(node).__name__} needs converging operands")
                    break
        else:
            out = next((p for p in parts if isinstance(p, TypeError)), None)
            if out is None:
                levels = set(parts)
                out = (TypeError(f"sum mixes series levels {sorted(levels)}")
                       if len(levels) > 1 else levels.pop() if levels else "conv")
        level[id(node)] = out
    if isinstance(level[id(e)], TypeError):
        raise level[id(e)]
    object.__setattr__(e, "_level", level[id(e)])
    return level[id(e)]


def validate(e: Expr):
    """Check the properness side conditions of star/omega/zeta/conjoin; an
    operand is checked right after the operands under it."""
    order, proper = _post_order(e), _properness(e)
    required = {}  # id(operand) -> the message that refuses it if improper
    for node in order:
        if type(node) in _PROPER_OPERANDS:
            for part in _operands(node):
                required.setdefault(id(part), _PROPER_OPERANDS[type(node)])
    for node in order:
        if id(node) in required:
            if isinstance(proper[id(node)], Expr):
                raise TypeError(f"not a converging expression: {proper[id(node)]!r}")
            if not proper[id(node)]:
                raise ImproperStar(required[id(node)])


# ---------------------------------------------------------------------------
# coefficients on word windows

def _window_coeff(sr: Semiring, word):
    """Returns coeff(node, lo, hi): the coefficient of the converging
    expression ``node`` on the word positions [lo, hi); ``node`` has passed
    ``validate``, so every star operand is proper.

    Every node keeps one sparse column per window end ``hi``: a dict from
    each start ``lo`` (down to the least start asked for so far) to the
    non-zero coefficient of [lo, hi).  A query extends the columns of every
    node under its root, operands first, up to its own ``hi`` and no
    further; a start below the least one clears every column.  The returned
    function keeps each root it was given alive, with its nodes."""
    char_at, add, mul, is_zero = word.char_at, sr.add, sr.mul, sr.is_zero
    plans = {}    # id(root) -> (root, [(column rule, node, its columns, operands' columns)])
    columns = {}  # id(node) -> its columns; columns[k] ends at first + k
    first = None  # the least start asked for so far

    def nonzero(out):
        return {lo: v for lo, v in out.items() if not is_zero(v)}

    def accumulate(out, lo, value):
        out[lo] = add(out[lo], value) if lo in out else value

    # the column rules: the column of ``node`` at window end ``hi`` from the
    # columns of its operands, ``parts``

    def atom(node, parts, hi):
        if hi > first and char_at(hi - 1) == node.symbol:
            return nonzero({hi - 1: sr.check(node.coeff)})
        return {}

    def scale(node, parts, hi):
        left, right = sr.check(node.left_coeff), sr.check(node.right_coeff)
        return nonzero({lo: mul(mul(left, v), right) for lo, v in parts[0][hi - first].items()})

    def total(node, parts, hi):
        out = {}
        for part in parts:
            for lo, v in part[hi - first].items():
                accumulate(out, lo, v)
        return nonzero(out)

    def cat(node, parts, hi):
        left, right = parts
        out = {}
        for k, b in right[hi - first].items():
            for lo, a in left[k - first].items():
                accumulate(out, lo, mul(a, b))
        return nonzero(out)

    def star(node, parts, hi):
        """A non-empty first block [lo, k), then the star again on [k, hi);
        ``out[k]`` is complete once the sweep reaches k."""
        inner, out = parts[0], {hi: sr.one}
        for k in range(hi, first - 1, -1):
            if k in out and not is_zero(out[k]):
                for lo, a in inner[k - first].items():
                    if lo < k:
                        accumulate(out, lo, mul(a, out[k]))
        return nonzero(out)

    rules = {Atom: atom, Scale: scale, Sum: total, Cat: cat, Star: star}

    def plan(root):
        if id(root) not in plans:
            steps = []
            for node in _post_order(root):
                if type(node) not in rules:
                    raise TypeError(f"not a converging expression: {node!r}")
                own = columns.setdefault(id(node), [])
                steps.append((rules[type(node)], node, own,
                              [columns[id(part)] for part in _operands(node)]))
            plans[id(root)] = (root, steps)
        return plans[id(root)][1]

    def coeff(root, lo, hi):
        nonlocal first
        steps = plan(root)
        if first is None or lo < first:
            first = lo
            for own in columns.values():
                own.clear()
        for rule, node, own, parts in steps:
            for end in range(first + len(own), hi + 1):
                own.append(rule(node, parts, end))
        return columns[id(root)][hi - first].get(lo, sr.zero)

    return coeff


def conv_coeff(sr: Semiring, e: Expr, word: FiniteWord):
    """Coefficient of a finite word."""
    validate(e)
    if expr_level(e) != "conv":
        raise TypeError(f"not a converging expression: {e!r}")
    return _window_coeff(sr, word)(e, 0, len(word))


# ---------------------------------------------------------------------------
# diverging / bidiverging coefficients

def _tester(*operands: Expr) -> Expr:
    """The converging expression whose coefficient on a window is the value
    of the characteristic term with these operands, once its acceptance
    indicator holds."""
    if len(operands) == 1:
        return Star(operands[0])
    if len(operands) == 2:
        return Cat(operands[0], Star(operands[1]))
    first, middle, second = operands
    return Cat(Star(first), Cat(middle, Star(second)))


class _OracleSeries:
    """Evaluation context shared by both levels: a one-sided value is the
    two-sided window that starts at 0.  The oracle reads the characteristic
    form (the subclass names its ``level``): ``_value(start, n)`` sums each
    term's coefficients times its tester's coefficient on the window.
    Terms with the same operands share one tester, whose indicator is
    decided once, at the first value; one set of window columns over
    absolute word positions serves every window."""

    def __init__(self, sr: Semiring, e: Expr, word, chi: ActivationPolicy = AUTO):
        form = to_characteristic(sr, e, self.level)
        self.semiring = sr
        self.expr = e
        self.word = word
        self.chi_policy = chi
        self._coeff = _window_coeff(sr, word)
        testers = {}  # the ids of a term's operands -> their tester
        self._terms = [(left, testers.setdefault(tuple(map(id, parts)), _tester(*parts)), right)
                       for left, *parts, right in form.conjoin_terms + form.iteration_terms]
        self._testers = list(testers.values())
        self._live = None  # the terms whose tester's indicator holds, once decided

    def _value(self, start: int, n: int):
        if n < 0:
            raise IndexError("window length must be a natural number")
        if self._live is None:
            live = {id(tester) for tester in self._testers if self._chi(tester)}
            self._live = [term for term in self._terms if id(term[1]) in live]
        sr, coeff, hi = self.semiring, self._coeff, start + n
        return sr.sum(sr.mul(sr.mul(left, coeff(tester, start, hi)), right)
                      for left, tester, right in self._live)

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
        initial = {s: aut.initial[s] for s in aut.initial_states()}
        final = {s: aut.final[s] for s in aut.final_states()}
        return bool(_decide(aut, self.word, policy, [initial], [final])[1][0])


class DivSeries(_OracleSeries):
    """Evaluation context for one (diverging expression, infinite word) pair.

    Each class defines its own ``at`` (perfbench/spans.py wraps it per
    class).
    """

    level = "div"

    def at(self, n: int):
        return self._value(0, n)

    def _horizon_windows(self, bound):
        """Prefixes of length (K/2, K]."""
        return ((0, n) for n in range(bound // 2 + 1, bound + 1))


class BidivSeries(_OracleSeries):
    """Evaluation context for one (bidiverging expression, biinfinite word)
    pair."""

    level = "bidiv"

    def at(self, i: int, n: int):
        return self._value(i, n)

    def _horizon_windows(self, bound):
        """Windows that reach [K/2, K] positions beyond the center on each
        side; the least start comes first, so the columns are built once."""
        word = self.word
        half = max(1, bound // 2)
        end = len(word.center)
        return ((word.origin + lo, word.origin + hi)
                for hi in range(end + half, end + bound + 1)
                for lo in range(-bound, -half + 1))


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
    # a conv-level tree can only be the zero series here; the loop below
    # rejects any real converging leaf.  Each step pops (node, left, right):
    # a sum pushes its terms in reverse, so terms come out in tree order.
    conjoins, iterations = [], []
    stack = [(e, sr.one, sr.one)]
    while stack:
        node, left, right = stack.pop()
        if isinstance(node, Sum):
            stack.extend((t, left, right) for t in reversed(node.terms))
        elif isinstance(node, Scale):
            stack.append((node.inner, sr.mul(left, sr.check(node.left_coeff)),
                          sr.mul(sr.check(node.right_coeff), right)))
        elif isinstance(node, (Omega, Zeta, Conjoin2, Conjoin3)):
            parts = _operands(node)
            (conjoins if len(parts) > 1 else iterations).append((left, *parts, right))
        else:
            raise TypeError(f"unexpected node in characteristic flattening: {node!r}")
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

