"""The frozen value records: construction, equality, hashing, immutability
and ``repr``, which error messages embed."""
from fractions import Fraction
from pathlib import Path

import pytest

from divaut.activation import AUTO, ActivationPolicy, ActivationVerdict, horizon
from divaut.automaton import Automaton, WeightedSumDecomposition, decompose_diverging
from divaut.fileformat import ExpressionFile
from divaut.quantum import ExpectedValue
from divaut.semiring import NATURAL, RATIONAL, GaussianRational, gaussian
from divaut.series import (
    Atom,
    Cat,
    CharacteristicForm,
    Conjoin2,
    Conjoin3,
    Omega,
    Scale,
    Star,
    Sum,
    Zeta,
    to_characteristic,
)
from divaut.words import Alphabet, BiInfiniteWord, FiniteWord, UPInfiniteWord

GOLDEN = Path(__file__).parent / "golden" / "record_reprs.txt"
AB = Alphabet(("a", "b"))
A, B = Atom("a", Fraction(1, 2)), Atom("b", Fraction(-3))


def one_of_each():
    """One instance of every public record class, in a fixed order."""
    aut = Automaton.build(NATURAL, AB, 2, {0: 1}, {1: 2},
                          [(0, 1, "a", 2), (1, 0, "b", 1)], state_names=("p", "q"))
    return [
        gaussian(1, Fraction(-1, 2)),
        AB,
        FiniteWord(AB, ("a", "b")),
        UPInfiniteWord(AB, ("a",), ("b", "a")),
        BiInfiniteWord(AB, ("a",), ("b",), ("a", "b"), origin=2),
        aut,
        decompose_diverging(aut),
        horizon(5),
        ActivationVerdict({(0, 1): True}, "exact"),
        A,
        Sum((A, B)),
        Cat(A, B),
        Star(A),
        Scale(Fraction(2), A, Fraction(1, 3)),
        Omega(A),
        Conjoin2(A, B),
        Zeta(B),
        Conjoin3(A, B, A),
        to_characteristic(RATIONAL, Sum((Omega(A), Conjoin2(A, B)))),
        ExpressionFile(RATIONAL, AB, Omega(A)),
        ExpectedValue(numerator="num", denominator="den"),
    ]


def test_repr_matches_the_dataclass_format():
    got = [repr(record) for record in one_of_each()]
    assert got == GOLDEN.read_text().splitlines()
    assert len({type(record) for record in one_of_each()}) == len(got)


def test_equality_is_type_sensitive():
    assert Star(A) != Omega(A)
    assert Zeta(A) != Omega(A) and Star(A) == Star(A)
    assert Omega(A) != ("a", Fraction(1, 2))
    assert gaussian(1) != (Fraction(1), Fraction(0)) and gaussian(1) != 1.0


def field_names(record):
    cls = type(record)
    return tuple(cls._fields) if cls is not GaussianRational else cls.__slots__


def test_equal_records_hash_equal():
    for record in one_of_each():
        copy = type(record)(*(getattr(record, name) for name in field_names(record)))
        assert copy == record and copy is not record
        if isinstance(record, (Automaton, WeightedSumDecomposition, ActivationVerdict)):
            with pytest.raises(TypeError, match="unhashable"):
                hash(record)
        else:
            assert hash(copy) == hash(record)
    assert len({Cat(A, B), Cat(A, B), Cat(B, A)}) == 2


def test_gaussian_int_and_fraction_parts_are_one_value():
    ints, fractions = GaussianRational(1, 0), GaussianRational(Fraction(1), Fraction(0))
    assert ints == fractions and hash(ints) == hash(fractions)
    assert hash(ints) == hash(1) and hash(GaussianRational(1, 2)) == hash((1, 2))


def test_keyword_construction_and_defaults():
    word = BiInfiniteWord(AB, ("a",), (), ("b",))
    assert word.origin == 0
    assert BiInfiniteWord(AB, left=("a",), center=(), right=("b",), origin=0) == word
    assert ActivationPolicy("auto") == AUTO and AUTO.horizon == 0
    aut = Automaton(NATURAL, AB, 1, (1,), (1,), {})
    assert aut.state_names is None
    assert Automaton(NATURAL, AB, 1, (1,), (1,), {}, state_names=("s",)).state_names == ("s",)
    assert Scale(right_coeff=1, inner=A, left_coeff=2) == Scale(2, A, 1)


@pytest.mark.parametrize("args,kwargs,message", [
    ((), {}, "missing 1 required positional argument: 'symbols'"),
    ((("a",), ("b",)), {}, "takes 2 positional arguments but 3 were given"),
    ((("a",),), {"symbols": ("a",)}, "got multiple values for argument 'symbols'"),
    ((), {"letters": ("a",)}, "got an unexpected keyword argument 'letters'"),
])
def test_bad_construction_raises_type_error(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        Alphabet(*args, **kwargs)


def test_post_init_errors_are_unchanged():
    with pytest.raises(ValueError, match="alphabet must be non-empty"):
        Alphabet(())
    with pytest.raises(ValueError, match="cycle must be non-empty"):
        UPInfiniteWord(AB, ("a",), ())
    with pytest.raises(ValueError, match="left and right cycles must be non-empty"):
        BiInfiniteWord(AB, (), ("a",), ("b",))
    assert Sum([A, B]).terms == (A, B)


def test_fields_cannot_be_assigned_or_deleted():
    for record in one_of_each():
        name = field_names(record)[0]
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
