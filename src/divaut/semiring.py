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

import operator
from fractions import Fraction
from math import gcd, lcm

from .errors import DivautParseError, SemiringMismatch


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


def _fraction_text(t: int, s: int) -> str:
    """t/s (s > 0) as :func:`_format_fraction` writes it in lowest terms.
    The gcd is that of the odd parts, shifted left by the smaller 2-adic
    valuation, which is cheap where the scale is mostly a power of 2."""
    if not t:
        return "0"
    low_t, low_s = (t & -t).bit_length() - 1, (s & -s).bit_length() - 1
    g = gcd(t >> low_t, s >> low_s) << min(low_t, low_s)
    t, s = t // g, s // g
    return str(t) if s == 1 else f"{t}/{s}"


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

    def _text(self, numerators, scale) -> str:
        """The formatted value with ``numerators`` over ``scale``."""
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
        if not text.isdigit():
            raise DivautParseError(f"bad natural literal {text!r}")
        return int(text)

    def format(self, value):
        return str(value)

    def _text(self, numerators, scale):
        return str(numerators[0])  # an int, or a text window's decimal integer


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

    def _text(self, numerators, scale):
        return _fraction_text(numerators[0], scale)

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
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise DivautParseError(f"bad rational literal {text!r}") from None

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

    def _text(self, numerators, scale):
        real, imag = numerators
        if not imag:
            return _fraction_text(real, scale)
        sign = "+" if imag > 0 else "-"
        return f"{_fraction_text(real, scale)}{sign}{_fraction_text(abs(imag), scale)}i"

    def check(self, value):
        if isinstance(value, GaussianRational):
            return gaussian(value.real, value.imag)
        if isinstance(value, bool):
            raise TypeError("gaussian semiring got a bool")
        if isinstance(value, (int, Fraction)):
            return gaussian(value)
        raise TypeError(f"gaussian semiring needs GaussianRational, got {value!r}")

    def parse(self, text):
        body = text
        if body.endswith("i"):
            body = body[:-1]
            split = -1
            for k in range(1, len(body)):
                if body[k] in "+-":
                    split = k
            if split == -1:
                real_text, imag_text = "0", body
            else:
                real_text, imag_text = body[:split], body[split:]
            try:
                return GaussianRational(Fraction(real_text), Fraction(imag_text))
            except (ValueError, ZeroDivisionError):
                raise DivautParseError(f"bad gaussian literal {text!r}") from None
        try:
            return GaussianRational(Fraction(body), Fraction(0))
        except (ValueError, ZeroDivisionError):
            raise DivautParseError(f"bad gaussian literal {text!r}") from None

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
