from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from divaut.errors import DivautParseError, SemiringMismatch
from divaut.semiring import (
    BOOLEAN,
    GAUSSIAN,
    NATURAL,
    RATIONAL,
    SEMIRINGS,
    GaussianRational,
    WeightSequence,
    gaussian,
    semiring_by_name,
    seq_add,
    seq_scale,
    zero_sequence,
)

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=9)
gaussians = st.builds(GaussianRational, fractions, fractions)

VALUE_STRATEGIES = [
    (BOOLEAN, st.booleans()),
    (NATURAL, st.integers(min_value=0, max_value=60)),
    (RATIONAL, fractions),
    (GAUSSIAN, gaussians),
]


@pytest.mark.parametrize("sr,strategy", VALUE_STRATEGIES,
                         ids=lambda v: getattr(v, "name", ""))
def test_semiring_laws(sr, strategy):
    @settings(max_examples=200)
    @given(strategy, strategy, strategy)
    def laws(a, b, c):
        assert sr.eq(sr.add(a, b), sr.add(b, a))
        assert sr.eq(sr.add(sr.add(a, b), c), sr.add(a, sr.add(b, c)))
        assert sr.eq(sr.add(a, sr.zero), a)
        assert sr.eq(sr.mul(sr.mul(a, b), c), sr.mul(a, sr.mul(b, c)))
        assert sr.eq(sr.mul(a, sr.one), a)
        assert sr.eq(sr.mul(sr.one, a), a)
        assert sr.eq(sr.mul(a, sr.zero), sr.zero)
        assert sr.eq(sr.mul(sr.zero, a), sr.zero)
        assert sr.eq(sr.mul(a, sr.add(b, c)), sr.add(sr.mul(a, b), sr.mul(a, c)))
        assert sr.eq(sr.mul(sr.add(a, b), c), sr.add(sr.mul(a, c), sr.mul(b, c)))

    laws()


def test_cancellation_flags():
    assert not BOOLEAN.has_cancellation
    assert not NATURAL.has_cancellation
    assert RATIONAL.has_cancellation
    assert GAUSSIAN.has_cancellation


def test_gaussian_arithmetic():
    i = gaussian(0, 1)
    assert i * i == gaussian(-1)
    z = gaussian(Fraction(1, 2), Fraction(3, 4))
    assert z.conjugate().imag == -Fraction(3, 4)
    assert (z * z.conjugate()).imag == 0
    assert z / z == gaussian(1)
    assert not GAUSSIAN.zero
    assert bool(i)


@pytest.mark.parametrize("sr,texts", [
    (BOOLEAN, ["T", "F"]),
    (NATURAL, ["0", "7", "123456789012345678901234567890"]),
    (RATIONAL, ["0", "-3", "5/8", "-11/4"]),
    (GAUSSIAN, ["0", "2", "-1/2", "1/2+3/4i", "1/2-3/4i", "2i", "-5/7i"]),
])
def test_literal_round_trip(sr, texts):
    for text in texts:
        value = sr.parse(text)
        assert sr.eq(sr.parse(sr.format(value)), value)


def test_literal_rejects_garbage():
    with pytest.raises(DivautParseError):
        BOOLEAN.parse("yes")
    with pytest.raises(DivautParseError):
        NATURAL.parse("-1")
    with pytest.raises(DivautParseError):
        RATIONAL.parse("1/0")
    with pytest.raises(DivautParseError):
        GAUSSIAN.parse("i+i")


def test_semiring_registry():
    assert semiring_by_name("natural") is NATURAL
    with pytest.raises(DivautParseError):
        semiring_by_name("tropical")


def test_gaussian_check_coerces_int_parts_and_plain_numbers():
    checked = GAUSSIAN.check(GaussianRational(3, -1))
    assert checked == gaussian(3, -1)
    assert type(checked.real) is Fraction and type(checked.imag) is Fraction
    for plain in (2, Fraction(-1, 3)):
        checked = GAUSSIAN.check(plain)
        assert checked == gaussian(plain)
        assert type(checked.real) is Fraction and type(checked.imag) is Fraction


@pytest.mark.parametrize("value", [GaussianRational(0.1, 0), GaussianRational(0, 2.0),
                                   GaussianRational(True, 0), GaussianRational(0, False)],
                         ids=["float-real", "float-imag", "bool-real", "bool-imag"])
def test_gaussian_check_refuses_float_and_bool_parts(value):
    with pytest.raises(TypeError, match="rational semiring"):
        GAUSSIAN.check(value)


@pytest.mark.parametrize("parts", [(0.1,), (1, 0.5), (True,)],
                         ids=["float-real", "float-imag", "bool-real"])
def test_gaussian_refuses_float_and_bool_parts(parts):
    with pytest.raises(TypeError, match="rational semiring"):
        gaussian(*parts)
    value = gaussian(1, -2)
    assert type(value.real) is Fraction and type(value.imag) is Fraction

@pytest.mark.parametrize("sr,strategy", VALUE_STRATEGIES,
                         ids=lambda v: getattr(v, "name", ""))
def test_clear_and_reduce_invert_each_other(sr, strategy):
    @settings(max_examples=60)
    @given(st.lists(strategy, max_size=5))
    def round_trip(values):
        scale, numerators = sr._clear(values)
        assert [sr._reduce(n, scale) for n in numerators] == values
        if sr.is_field:  # the least scale: it shares no factor with every numerator
            parts = [p for n in numerators for p in (n.real, n.imag)] \
                if sr is GAUSSIAN else list(numerators)
            assert all(type(p) is int for p in parts)
            assert gcd(scale, *parts) == 1
        else:
            assert scale == 1

    round_trip()
    # a field's integers are private: no file can name them
    assert (sr._integers is sr) is not sr.is_field
    assert (sr._integers in SEMIRINGS.values()) is not sr.is_field



def test_seq_add_identity():
    ramp = WeightSequence(NATURAL, lambda n: n)
    assert seq_add(ramp, zero_sequence(NATURAL)).prefix(5) == [0, 1, 2, 3, 4]


def test_seq_add_pointwise():
    ramp = WeightSequence(NATURAL, lambda n: n)
    ones = WeightSequence(NATURAL, lambda n: 1)
    assert seq_add(ramp, ones).prefix(4) == [1, 2, 3, 4]


def test_seq_add_boolean_parity_cover():
    evens = WeightSequence(BOOLEAN, lambda n: n % 2 == 0)
    odds = WeightSequence(BOOLEAN, lambda n: n % 2 == 1)
    assert all(seq_add(evens, odds).at(n) for n in range(32))


def test_seq_scale():
    ramp = WeightSequence(RATIONAL, lambda n: Fraction(n))
    assert seq_scale(1, ramp, 1).prefix(4) == ramp.prefix(4)
    assert seq_scale(0, ramp, 5).prefix(8) == [Fraction(0)] * 8
    scaled = seq_scale(2, ramp, 3)
    assert scaled.prefix(32) == [Fraction(6 * n) for n in range(32)]


def test_seq_add_rejects_mismatch():
    with pytest.raises(SemiringMismatch):
        seq_add(zero_sequence(NATURAL), zero_sequence(RATIONAL))


@given(st.integers(min_value=0, max_value=63), fractions, fractions, fractions)
def test_sequence_semibimodule_laws(n, left, right, value):
    base = WeightSequence(RATIONAL, lambda k: value + k)
    other = WeightSequence(RATIONAL, lambda k: value * 2 - k)
    added = seq_add(base, other)
    assert added.at(n) == base.at(n) + other.at(n)
    scaled = seq_scale(left, base, right)
    assert scaled.at(n) == left * base.at(n) * right
    assert seq_scale(left, seq_add(base, other), right).at(n) == \
        seq_scale(left, base, right).at(n) + seq_scale(left, other, right).at(n)


@given(st.integers(min_value=-32, max_value=31),
       st.integers(min_value=0, max_value=63), fractions, fractions)
def test_grid_semibimodule_laws(i, n, left, right):
    from divaut.semiring import BiWeightGrid, grid_add, grid_scale

    base = BiWeightGrid(RATIONAL, lambda a, b: Fraction(a + b))
    other = BiWeightGrid(RATIONAL, lambda a, b: Fraction(a - 2 * b))
    assert grid_add(base, other).at(i, n) == base.at(i, n) + other.at(i, n)
    assert grid_scale(left, base, right).at(i, n) == left * base.at(i, n) * right
    assert grid_scale(left, grid_add(base, other), right).at(i, n) == \
        grid_scale(left, base, right).at(i, n) + \
        grid_scale(left, other, right).at(i, n)
