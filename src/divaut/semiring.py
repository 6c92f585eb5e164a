"""Pluggable exact semirings and the pointwise sequence semibimodules.

Weights live in one of four concrete semirings: the two-element Boolean
semiring, arbitrary-precision naturals, exact rationals, and Gaussian
rationals (complex numbers with rational components).  All arithmetic is
exact; nothing in this package ever rounds, because downstream acceptance
decisions hinge on exact zero tests.

Rows over the two fields are integer numerators over one denominator, in a
private ring of integers (Z, Z[i]) kept out of ``SEMIRINGS``, and each value
is reduced once.  Other semirings are their own integers, with scale 1.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import DivautParseError, SemiringMismatch


@dataclass(frozen=True)
class GaussianRational:
    """a + b*i with exact rational real and imaginary parts."""

    real: Fraction
    imag: Fraction

    def __add__(self, other):
        other = _as_gaussian(other)
        return GaussianRational(self.real + other.real, self.imag + other.imag)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.real, -self.imag)

    def __sub__(self, other):
        return self + (-_as_gaussian(other))

    def __mul__(self, other):
        other = _as_gaussian(other)
        return GaussianRational(
            self.real * other.real - self.imag * other.imag,
            self.real * other.imag + self.imag * other.real,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_gaussian(other)
        norm = other.real * other.real + other.imag * other.imag
        if norm == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return self * GaussianRational(other.real / norm, -other.imag / norm)

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


def gaussian(real, imag=0) -> GaussianRational:
    return GaussianRational(Fraction(real), Fraction(imag))


def _as_gaussian(value) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    return GaussianRational(Fraction(value), Fraction(0))


def _format_fraction(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


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

    def _clear(self, values):
        """(D, D * values): the least D > 0 taking a sequence into ``_integers``."""
        return 1, tuple(values)

    def _reduce(self, numerator, scale):
        """``numerator / scale`` back in this semiring: undoes ``_clear``."""
        return numerator

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

    def product(self, values):
        out = self.one
        for v in values:
            out = self.mul(out, v)
        return out

    def __repr__(self):
        return f"<semiring {self.name}>"


class BooleanSemiring(Semiring):
    name = "boolean"
    has_cancellation = False
    is_field = False
    zero = False
    one = True

    def add(self, a, b):
        return a or b

    def mul(self, a, b):
        return a and b

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


class _Integers(_Numeric):
    """Z or Z[i], the ring of integers of a field."""

    has_cancellation, is_field = True, False

    def __init__(self, name, zero, one):
        self.name, self.zero, self.one = name, zero, one


class RationalSemiring(_Numeric):
    name = "rational"
    has_cancellation = True
    is_field = True
    zero = Fraction(0)
    one = Fraction(1)
    _integers = _Integers("integer", 0, 1)

    def _clear(self, values):
        scale = lcm(*(v.denominator for v in values))
        return scale, tuple(v.numerator * (scale // v.denominator) for v in values)

    def _reduce(self, numerator, scale):
        return Fraction(numerator, scale)

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
    _integers = _Integers("gaussian-integer", GaussianRational(0, 0), GaussianRational(1, 0))

    def conjugate(self, a):
        return a.conjugate()

    def _clear(self, values):
        scale, parts = RATIONAL._clear([p for v in values for p in (v.real, v.imag)])
        return scale, tuple(map(GaussianRational, parts[::2], parts[1::2]))

    def _reduce(self, numerator, scale):
        return GaussianRational(Fraction(numerator.real, scale), Fraction(numerator.imag, scale))

    def check(self, value):
        if isinstance(value, GaussianRational):
            return GaussianRational(RATIONAL.check(value.real), RATIONAL.check(value.imag))
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
