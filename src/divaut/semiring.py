"""Pluggable exact semirings and the pointwise sequence semibimodules.

Weights live in one of four concrete semirings: the two-element Boolean
semiring, arbitrary-precision naturals, exact rationals, and Gaussian
rationals (complex numbers with rational components).  All arithmetic is
exact; nothing in this package ever rounds, because downstream acceptance
decisions hinge on exact zero tests.

Rows over the two fields are integer numerators over one denominator, in a
private ring of integers Z kept out of ``SEMIRINGS``, and each value is
reduced once.  A Q(i) row is its real and imaginary integer rows side by
side: state k holds lifted entries 2k (real part) and 2k + 1 (imaginary
part).  Other semirings are their own integers, with scale 1.

Every concrete carrier is falsy exactly at its zero, so its zero test is
``operator.not_``.
"""
from __future__ import annotations

import decimal
import operator
import re
from fractions import Fraction
from math import gcd, lcm, prod

from .errors import DivautParseError, SemiringMismatch

# exact integer arithmetic on decimal digits: the operators of Decimal read
# the thread's context (28 digits by default), so only these methods are used
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
                         traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation,
                                decimal.DivisionByZero, decimal.Overflow])
_remainder, _divide_int = _EXACT.remainder, _EXACT.divide_int

# the literal forms of the README, in ASCII digits: a natural is digits, a
# rational an optionally signed natural over an optional natural, and a
# Gaussian rational a real part, a signed imaginary part with i, or both
_RATIONAL_PART = r"[+-]?[0-9]+(?:/[0-9]+)?"
_NATURAL_LITERAL = re.compile(r"[0-9]+")
_RATIONAL_LITERAL = re.compile(_RATIONAL_PART)
_GAUSSIAN_LITERAL = re.compile(
    rf"(?P<real>{_RATIONAL_PART})(?:(?P<imag>[+-][0-9]+(?:/[0-9]+)?)i)?|(?P<pure>{_RATIONAL_PART})i")


class GaussianRational:
    """a + b*i with exact rational real and imaginary parts; immutable.

    Written out by hand rather than as a record: quantum ratios build and
    compare these.
    """

    __slots__ = ("real", "imag")

    def __init__(self, real, imag):
        _set_real(self, real)
        _set_imag(self, imag)

    def __eq__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return other
        return self.real == other.real and self.imag == other.imag

    def __hash__(self):
        # a real value equals its real part, so it hashes alike (as complex does)
        return hash((self.real, self.imag)) if self.imag else hash(self.real)

    def __repr__(self):
        return f"GaussianRational(real={self.real!r}, imag={self.imag!r})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __add__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return other
        return GaussianRational(self.real + other.real, self.imag + other.imag)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.real, -self.imag)

    def __sub__(self, other):
        other = _as_gaussian(other)
        return other if other is NotImplemented else self + -other

    def __rsub__(self, other):
        other = _as_gaussian(other)
        return other if other is NotImplemented else other + -self

    def __mul__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return other
        return GaussianRational(
            self.real * other.real - self.imag * other.imag,
            self.real * other.imag + self.imag * other.real,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return other
        norm = other.real * other.real + other.imag * other.imag
        if norm == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return self * GaussianRational(other.real / norm, -other.imag / norm)

    def __rtruediv__(self, other):
        other = _as_gaussian(other)
        return other if other is NotImplemented else other / self

    def conjugate(self):
        return GaussianRational(self.real, -self.imag)

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative powers are not defined here")
        out = GaussianRational(Fraction(1), Fraction(0))
        base = self
        while exponent:
            if exponent & 1:
                out = out * base
            base = base * base
            exponent >>= 1
        return out

    def __bool__(self):
        return bool(self.real) or bool(self.imag)

    def __str__(self):
        return format_gaussian(self)


# the slots' own setters, which the refusing __setattr__ leaves to __init__
_set_real, _set_imag = GaussianRational.real.__set__, GaussianRational.imag.__set__


def gaussian(real, imag=0) -> GaussianRational:
    """real + imag*i from int or Fraction parts; a float or bool part
    raises TypeError."""
    return GaussianRational(RATIONAL.check(real), RATIONAL.check(imag))


def _as_gaussian(value):
    """``value`` as a GaussianRational, or NotImplemented unless it is one, a
    Fraction or a non-bool int."""
    if value.__class__ is GaussianRational:
        return value
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return GaussianRational(Fraction(value), Fraction(0))
    return NotImplemented


def _format_fraction(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _fraction_text(t, s, factors) -> str:
    """t/s as :func:`_format_fraction` writes it in lowest terms, for
    integers t and s > 0 whose common factor ``factors`` finds
    (:meth:`_ScaleFactors.common`): decimal integers, or ints while a text
    window steps its rows.  Dividing a decimal by a small one and writing
    it both take time linear in its digits."""
    if not t:
        return "0"
    if (g := factors.common(t, s)) != 1:
        t, s = (t // g, s // g) if t.__class__ is int else (_divide_int(t, g), _divide_int(s, g))
    return str(t) if s == 1 else f"{t}/{s}"


def _coprime_base(numbers) -> list:
    """Pairwise coprime integers > 1 of which each of ``numbers`` (positive
    integers) is a product of powers: a pair with a common factor g is
    replaced by g and the two cofactors until none is left, which ends
    because each replacement divides the product of all of them by g."""
    base, pending = [], list(numbers)
    while pending:
        x = pending.pop()
        if x == 1:
            continue
        for k, b in enumerate(base):
            if (g := gcd(x, b)) > 1:
                del base[k]
                pending += [g, x // g, b // g]
                break
        else:
            base.append(x)
    return base


class _ScaleFactors:
    """The common factor of a numerator and a scale that is a product of
    known factors (a window's start scale and its letters' scales), found
    without factoring a factor and without a gcd of full-size operands.

    It keeps a coprime base B of the factors, each element b with a level
    e_b, and m = prod_b b^(e_b).  For t != 0 and s a product of the factors,
    h = gcd(t mod m, s mod m, m) = gcd(t, s, m), so a prime p of b has
    v_p(h) = min(v_p(t), v_p(s), e_b v_p(b)).  Where that is below
    v_p(m) = e_b v_p(b), it is min(v_p(t), v_p(s)) = v_p(gcd(t, s)).  Every
    prime of s divides a factor, so divides some b; a prime of no factor
    divides neither s nor gcd(t, s) nor m.  So if every prime of prod B
    divides m / h, then h = gcd(t, s).  Otherwise the *open* primes (those
    with v_p(h) = v_p(m)) make o, prod B cleared of every prime of m / h:
    each b splits into gcd(o, b), whose level doubles, and b / gcd(o, b),
    whose level stays, and the read tries again.  The pieces are coprime to
    each other and to the rest, and the factors are still products of their
    powers, so B stays a coprime base without any factoring.  An open prime
    has p^(e_b v_p(b)) dividing t != 0, so the doubling ends.

    Levels start as high as keeps m below 2^63 (at least 1): one word of
    decimal digits, so that a remainder by m is one short division.  They
    are kept from read to read, and a piece's level doubles only where its
    power at that level divides gcd(t, s), so m stays below the starting
    modulus times the square of the largest common factor read.  The gcd
    operands are below m: of the size of the common factor, not of the
    scale, however far the scale outgrows the reduced denominator.  A read
    costs two remainders of a decimal by m, one when gcd(t mod m, m) = 1,
    and the parts of a Q(i) value share the scale's."""

    def __init__(self, factors):
        base = _coprime_base(factors)
        self._levels = dict.fromkeys(base, 1)
        limit = 1 << (63 // max(len(base), 1))  # m below 10^19: one word of decimal digits
        for b in base:
            while b ** (self._levels[b] + 1) < limit:
                self._levels[b] += 1
        self._modulus()
        self._s = self._s_rest = None

    def _rest(self, x) -> int:
        """x mod m, as an int."""
        return x % self._m if x.__class__ is int else int(_remainder(x, self._m_decimal))

    def _modulus(self):
        self._m = prod(b ** e for b, e in self._levels.items())
        self._m_decimal = _EXACT.create_decimal(self._m)
        self._base = prod(self._levels)
        self._low = 1 << min(self._levels.values(), default=0)  # below any p^(e_b v_p(b))

    def common(self, t, s) -> int:
        """gcd(t, s) for t != 0 and a product s of the factors, both ints or
        both decimal integers, as an int."""
        while True:
            if (h := gcd(self._rest(t), self._m)) == 1:
                return 1
            if s is not self._s:  # the parts of a Q(i) value share their scale
                self._s, self._s_rest = s, self._rest(s)
            if (h := gcd(h, self._s_rest)) < self._low:
                return h
            rest, base = self._m // h, self._base
            if not pow(rest, base.bit_length(), base):  # every prime of the base divides m / h
                return h
            while (g := gcd(base, rest)) > 1:  # the open part
                base //= g
            for b, level in list(self._levels.items()):
                if (piece := gcd(base, b)) > 1:
                    del self._levels[b]
                    self._levels[piece] = 2 * level
                    if piece < b:
                        self._levels[b // piece] = level
            self._modulus()
            self._s = None


def format_gaussian(value: GaussianRational) -> str:
    if value.imag == 0:
        return _format_fraction(value.real)
    sign = "+" if value.imag > 0 else "-"
    return f"{_format_fraction(value.real)}{sign}{_format_fraction(abs(value.imag))}i"


class Semiring:
    """Descriptor bundling a carrier with its operations.

    Concrete instances are the module-level singletons; all containers carry
    a reference so mixed-semiring operations can be rejected eagerly.
    """

    name: str
    has_cancellation: bool
    is_field: bool
    zero = None
    one = None

    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def eq(self, a, b) -> bool:
        return a == b

    def is_zero(self, a) -> bool:
        return self.eq(a, self.zero)

    def conjugate(self, a):
        return a

    @property
    def _integers(self):
        return self

    def _clear(self, vectors):
        """(D, rows): the least D > 0 taking every entry of ``vectors`` into
        ``_integers``, and each vector times D as a row of the lifted
        automaton (see the module notes)."""
        return 1, [tuple(vector) for vector in vectors]

    def _clear_ends(self, vectors):
        """(D, parts): ``vectors`` as end vectors, with D as in :meth:`_clear`.
        ``parts`` holds one list per numerator of a value, and in it each
        vector's lifted column: a lifted row times it is that numerator of
        the row's product with the vector."""
        scale, rows = self._clear(vectors)
        return scale, [rows]

    def _clear_rows(self, rows):
        """(D, lifted): an adjacency (per state, (target, weight) pairs)
        times the least D > 0 that clears it, as the lifted adjacency."""
        scale, (weights,) = self._clear([[w for row in rows for _, w in row]])
        it = iter(weights)
        return scale, tuple(tuple((j, next(it)) for j, _ in row) for row in rows)

    def _reduce(self, numerators, scale):
        """The value with ``numerators``, one per part of :meth:`_clear_ends`,
        over ``scale``: undoes the clearing."""
        return numerators[0]

    def _text(self, numerators, scale, factors) -> str:
        """The formatted value with ``numerators`` over ``scale``.  Over the
        naturals and the fields both are decimal integers, and ``scale`` is
        a product of the factors that ``factors`` (a :class:`_ScaleFactors`)
        was built from."""
        return self.format(self._reduce(numerators, scale))

    def check(self, value):
        """Validate/coerce an externally supplied value; raises TypeError."""
        raise NotImplementedError

    def parse(self, text: str):
        raise NotImplementedError

    def format(self, value) -> str:
        raise NotImplementedError

    def sum(self, values):
        out = self.zero
        for v in values:
            out = self.add(out, v)
        return out

    def __repr__(self):
        return f"<semiring {self.name}>"


class BooleanSemiring(Semiring):
    name = "boolean"
    has_cancellation = False
    is_field = False
    zero = False
    one = True
    add, mul = staticmethod(operator.or_), staticmethod(operator.and_)
    is_zero = staticmethod(operator.not_)

    def check(self, value):
        if not isinstance(value, bool):
            raise TypeError(f"boolean semiring needs bool, got {value!r}")
        return value

    def parse(self, text):
        if text == "T":
            return True
        if text == "F":
            return False
        raise DivautParseError(f"bad boolean literal {text!r} (expected T or F)")

    def format(self, value):
        return "T" if value else "F"


class _Numeric(Semiring):
    """Adds and multiplies with Python's own + and *."""

    add, mul = staticmethod(operator.add), staticmethod(operator.mul)
    is_zero = staticmethod(operator.not_)


class NaturalSemiring(_Numeric):
    name = "natural"
    has_cancellation = False
    is_field = False
    zero = 0
    one = 1

    def check(self, value):
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise TypeError(f"natural semiring needs a non-negative int, got {value!r}")
        return value

    def parse(self, text):
        if not _NATURAL_LITERAL.fullmatch(text):
            raise DivautParseError(f"bad natural literal {text!r}")
        return int(text)

    def format(self, value):
        return str(value)

    def _text(self, numerators, scale, factors):
        return str(numerators[0])


class _Integers(_Numeric):
    """Z, the lifted carrier of both fields."""

    name = "integer"
    has_cancellation, is_field = True, False
    zero, one = 0, 1


_INTEGERS = _Integers()


class RationalSemiring(_Numeric):
    name = "rational"
    has_cancellation = True
    is_field = True
    zero = Fraction(0)
    one = Fraction(1)
    _integers = _INTEGERS

    def _clear(self, vectors):
        scale = lcm(*(v.denominator for vector in vectors for v in vector))
        return scale, [tuple(v.numerator * (scale // v.denominator) for v in vector)
                       for vector in vectors]

    def _reduce(self, numerators, scale):
        return Fraction(numerators[0], scale)

    def _text(self, numerators, scale, factors):
        return _fraction_text(numerators[0], scale, factors)

    def check(self, value):
        if isinstance(value, bool):
            raise TypeError("rational semiring got a bool")
        if isinstance(value, int):
            return Fraction(value)
        if not isinstance(value, Fraction):
            raise TypeError(f"rational semiring needs Fraction, got {value!r}")
        return value

    def parse(self, text):
        try:
            if _RATIONAL_LITERAL.fullmatch(text):
                return Fraction(text)
        except ZeroDivisionError:
            pass
        raise DivautParseError(f"bad rational literal {text!r}")

    def format(self, value):
        return _format_fraction(value)


class GaussianRationalSemiring(_Numeric):
    name = "gaussian"
    has_cancellation = True
    is_field = True
    zero = GaussianRational(Fraction(0), Fraction(0))
    one = GaussianRational(Fraction(1), Fraction(0))
    _integers = _INTEGERS

    def conjugate(self, a):
        return a.conjugate()

    def _clear(self, vectors):
        return RATIONAL._clear([[p for v in vector for p in (v.real, v.imag)]
                                for vector in vectors])

    def _clear_ends(self, vectors):
        """An end value c_k takes the real-part column (Re c_k, -Im c_k) and
        the imaginary-part column (Im c_k, Re c_k) at lifted entries 2k, 2k + 1."""
        scale, rows = self._clear(vectors)
        pairs = [tuple(zip(row[::2], row[1::2])) for row in rows]
        return scale, [[tuple(p for a, b in pair for p in (a, -b)) for pair in pairs],
                       [tuple(p for a, b in pair for p in (b, a)) for pair in pairs]]

    def _clear_rows(self, rows):
        """A weight a + bi from state k to j becomes the block [[a, b], [-b, a]]
        from lifted entries 2k, 2k + 1 to 2j, 2j + 1, without its zeros."""
        scale, (parts,) = self._clear([[w for row in rows for _, w in row]])
        it = iter(parts)
        lifted = []
        for row in rows:
            blocks = [(2 * j, next(it), next(it)) for j, _ in row]
            lifted.append(tuple((t, v) for k, a, b in blocks
                                for t, v in ((k, a), (k + 1, b)) if v))
            lifted.append(tuple((t, v) for k, a, b in blocks
                                for t, v in ((k, -b), (k + 1, a)) if v))
        return scale, tuple(lifted)

    def _reduce(self, numerators, scale):
        real, imag = numerators
        return GaussianRational(Fraction(real, scale), Fraction(imag, scale))

    def _text(self, numerators, scale, factors):
        real, imag = numerators
        text = _fraction_text(real, scale, factors)
        if not imag:
            return text
        imag = _fraction_text(imag, scale, factors)
        return f"{text}{imag}i" if imag[0] == "-" else f"{text}+{imag}i"

    def check(self, value):
        if isinstance(value, GaussianRational):
            return gaussian(value.real, value.imag)
        if isinstance(value, bool):
            raise TypeError("gaussian semiring got a bool")
        if isinstance(value, (int, Fraction)):
            return gaussian(value)
        raise TypeError(f"gaussian semiring needs GaussianRational, got {value!r}")

    def parse(self, text):
        try:
            if match := _GAUSSIAN_LITERAL.fullmatch(text):
                real, imag, pure = match.group("real", "imag", "pure")
                return GaussianRational(Fraction(real or 0), Fraction(imag or pure or 0))
        except ZeroDivisionError:
            pass
        raise DivautParseError(f"bad gaussian literal {text!r}")

    def format(self, value):
        return format_gaussian(value)


BOOLEAN = BooleanSemiring()
NATURAL = NaturalSemiring()
RATIONAL = RationalSemiring()
GAUSSIAN = GaussianRationalSemiring()

SEMIRINGS = {sr.name: sr for sr in (BOOLEAN, NATURAL, RATIONAL, GAUSSIAN)}


def semiring_by_name(name: str) -> Semiring:
    try:
        return SEMIRINGS[name]
    except KeyError:
        raise DivautParseError(
            f"unknown semiring {name!r} (known: {', '.join(sorted(SEMIRINGS))})"
        ) from None


def require_same_semiring(a: Semiring, b: Semiring) -> Semiring:
    if a is not b:
        raise SemiringMismatch(f"semiring mismatch: {a.name} vs {b.name}")
    return a


class WeightSequence:
    """A map from naturals to semiring values, exposed through ``at``.

    Sequences here are never materialized: they are evaluation interfaces
    backed by automata, expressions, or closures.  ``prefix`` materializes a
    finite window on demand.
    """

    def __init__(self, semiring: Semiring, at):
        self.semiring = semiring
        self._at = at

    def at(self, n: int):
        if n < 0:
            raise IndexError("sequence index must be a natural number")
        return self._at(n)

    def prefix(self, count: int) -> list:
        return [self.at(n) for n in range(count)]


def zero_sequence(semiring: Semiring) -> WeightSequence:
    return WeightSequence(semiring, lambda n: semiring.zero)


def seq_add(a: WeightSequence, b: WeightSequence) -> WeightSequence:
    sr = require_same_semiring(a.semiring, b.semiring)
    return WeightSequence(sr, lambda n: sr.add(a.at(n), b.at(n)))


def seq_scale(left, v: WeightSequence, right) -> WeightSequence:
    sr = v.semiring
    left = sr.check(left)
    right = sr.check(right)
    return WeightSequence(sr, lambda n: sr.mul(sr.mul(left, v.at(n)), right))


class BiWeightGrid:
    """A map from (integer, natural) pairs to semiring values."""

    def __init__(self, semiring: Semiring, at):
        self.semiring = semiring
        self._at = at

    def at(self, i: int, n: int):
        if n < 0:
            raise IndexError("window length must be a natural number")
        return self._at(i, n)


def grid_add(a: BiWeightGrid, b: BiWeightGrid) -> BiWeightGrid:
    sr = require_same_semiring(a.semiring, b.semiring)
    return BiWeightGrid(sr, lambda i, n: sr.add(a.at(i, n), b.at(i, n)))


def grid_scale(left, g: BiWeightGrid, right) -> BiWeightGrid:
    sr = g.semiring
    left = sr.check(left)
    right = sr.check(right)
    return BiWeightGrid(sr, lambda i, n: sr.mul(sr.mul(left, g.at(i, n)), right))
