import pytest
from hypothesis import given, strategies as st

from divaut.errors import AlphabetMismatch, DivautParseError, UnknownSymbol
from divaut.words import (
    Alphabet,
    BiInfiniteWord,
    FiniteWord,
    UPInfiniteWord,
    concat,
    format_word,
    parse_word,
    slice_word,
    words_equal,
)

from conftest import AB, bi_word, finite, up_word

GAMMA = Alphabet(("a", "b", "g"))

symbols = st.sampled_from(AB.symbols)
finite_words = st.lists(symbols, max_size=6).map(lambda s: finite(s))
up_words = st.tuples(st.lists(symbols, max_size=4),
                     st.lists(symbols, min_size=1, max_size=4)).map(
    lambda pair: up_word(*pair))
bi_words = st.tuples(st.lists(symbols, min_size=1, max_size=3),
                     st.lists(symbols, max_size=3),
                     st.lists(symbols, min_size=1, max_size=3),
                     st.integers(min_value=-4, max_value=4)).map(
    lambda t: BiInfiniteWord(AB, tuple(t[0]), tuple(t[1]), tuple(t[2]), t[3]))


def test_alphabet_membership():
    assert "a" in AB
    assert "z" not in AB
    with pytest.raises(UnknownSymbol):
        AB.require("z")
    with pytest.raises(ValueError):
        Alphabet(())
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))


def test_finite_word_basics():
    w = finite("aba")
    assert len(w) == 3
    assert w.char_at(2) == "a"
    with pytest.raises(IndexError):
        w.char_at(3)
    with pytest.raises(UnknownSymbol):
        finite("ax")


def test_slice_prefix_of_cycle():
    w = up_word([], "ab")
    assert slice_word(w, 0, 3).symbols == ("a", "b", "a")


def test_slice_empty():
    w = up_word([], "ab")
    assert len(slice_word(w, 2, 2)) == 0


def test_slice_biinfinite_window():
    # left cycle b, center g, right cycle a: positions -2..1 read b b g a;
    # cross-checked by materializing -8..8 one character at a time
    w = bi_word("b", "g", "a", GAMMA)
    got = slice_word(w, -2, 2)
    assert got.symbols == ("b", "b", "g", "a")
    chars = [w.char_at(i) for i in range(-8, 9)]
    assert chars == ["b"] * 8 + ["g"] + ["a"] * 8
    for start in range(-8, 5):
        window = slice_word(w, start, start + 4)
        assert window.symbols == tuple(chars[start + 8:start + 12])


def test_slice_infinite_tail():
    w = up_word("ab", "ba")
    tail = slice_word(w, 3, None)
    assert isinstance(tail, UPInfiniteWord)
    assert [tail.char_at(i) for i in range(5)] == [w.char_at(3 + i) for i in range(5)]


def test_slice_rejects_bad_bounds():
    with pytest.raises(IndexError):
        slice_word(finite("ab"), 0, 3)
    with pytest.raises(IndexError):
        slice_word(finite("ab"), 2, 1)
    with pytest.raises(IndexError):
        slice_word(up_word([], "a"), -1, 2)


def test_concat_empty_prefix():
    w = up_word([], "ab")
    assert words_equal(concat(finite(""), w), w)


def test_concat_shifts_cycle():
    # b . (ab)^w equals (ba)^w as a sequence
    left = concat(finite("b"), up_word([], "ab"))
    assert left.char_at(0) == "b"
    assert words_equal(left, up_word([], "ba"))


def test_concat_finite():
    assert concat(finite("ab"), finite("a")).symbols == ("a", "b", "a")
    with pytest.raises(AlphabetMismatch):
        concat(finite("ab"), finite("g", GAMMA))


@given(finite_words | up_words, st.integers(0, 10), st.integers(0, 10))
def test_slice_char_consistency(w, start, extra):
    end = start + extra
    if isinstance(w, FiniteWord):
        start = min(start, len(w))
        end = min(end, len(w))
        if start > end:
            start, end = end, start
    piece = slice_word(w, start, end)
    assert len(piece) == end - start
    for k in range(len(piece)):
        assert piece.char_at(k) == w.char_at(start + k)


@given(bi_words, st.integers(-16, 16), st.integers(-16, 16))
def test_shift_consistency(w, i, k):
    assert w.shift_by(k).char_at(i + k) == w.char_at(i)


@given(bi_words, st.integers(-5, 5))
def test_shift_preserves_equality_of_underlying_sequence(w, k):
    shifted = w.shift_by(k).shift_by(-k)
    assert words_equal(shifted, w)
    for i in range(-6, 7):
        assert shifted.char_at(i) == w.char_at(i)


def test_semantic_equality_of_rotated_cycles():
    assert words_equal(up_word("b", "ab"), up_word([], "ba"))
    assert not words_equal(up_word([], "ab"), up_word([], "ba"))
    assert words_equal(bi_word("ab", "", "ab"), bi_word("abab", "", "abab"))


def test_parse_word_forms(ab):
    assert parse_word("a b a", ab).symbols == ("a", "b", "a")
    w = parse_word("a b . ( a b )^w", ab)
    assert isinstance(w, UPInfiniteWord)
    assert w.prefix == ("a", "b") and w.cycle == ("a", "b")
    assert parse_word("( a )^w", ab).prefix == ()
    bi = parse_word("( b )^~w . a . ( a b )^w", ab)
    assert isinstance(bi, BiInfiniteWord)
    assert bi.left == ("b",) and bi.center == ("a",) and bi.right == ("a", "b")
    empty_center = parse_word("( b )^~w . ( a )^w", ab)
    assert empty_center.center == ()
    assert parse_word("", ab).symbols == ()


@pytest.mark.parametrize("bad", [
    "( a b", "a )^w", "( )^w", "( a )^~w", "( a )^~w . b",
    "x", "( a )^w . ( b )^w",
])
def test_parse_word_rejects(bad, ab):
    with pytest.raises((DivautParseError, UnknownSymbol)):
        parse_word(bad, ab)


@given(finite_words | up_words | st.tuples(
    st.lists(symbols, min_size=1, max_size=3),
    st.lists(symbols, max_size=3),
    st.lists(symbols, min_size=1, max_size=3)).map(lambda t: bi_word(*t)))
def test_format_parse_round_trip(w):
    assert words_equal(parse_word(format_word(w), AB), w)


@pytest.mark.parametrize("w", [bi_word("ab", "g", "ba", GAMMA), bi_word("b", "", "ag", GAMMA),
                               bi_word("abg", "gg", "a", GAMMA)],
                         ids=["center", "no-center", "long-left"])
def test_right_shifted_words_format_and_parse_back(w):
    for k in range(5):
        shifted = w.shift_by(k)
        back = parse_word(format_word(shifted), GAMMA)
        assert isinstance(back, BiInfiniteWord) and back.origin == 0
        assert [back.char_at(i) for i in range(-10, 10)] == \
            [shifted.char_at(i) for i in range(-10, 10)]


def test_left_shifted_word_cannot_be_formatted():
    with pytest.raises(ValueError, match="shifted left"):
        format_word(bi_word("ab", "g", "ba", GAMMA).shift_by(-1))


@pytest.mark.parametrize("w, starts", [
    (up_word("aab", "ab"), range(8)),            # inside and past the prefix
    (up_word([], "abb"), range(5)),
    (bi_word("ab", "gg", "bga", GAMMA), range(-6, 9)),   # left tail, center, right cycle
    (bi_word("a", "", "gb", GAMMA).shift_by(3), range(-2, 9)),
], ids=["prefix", "pure-cycle", "biinfinite", "shifted-biinfinite"])
def test_infinite_slice_agrees_with_char_at(w, starts):
    for start in starts:
        tail = slice_word(w, start, None)
        assert isinstance(tail, UPInfiniteWord)
        assert [tail.char_at(i) for i in range(12)] == [w.char_at(start + i) for i in range(12)]
