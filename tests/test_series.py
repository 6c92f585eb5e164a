import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import divaut.kleene
import divaut.series
from divaut.activation import AUTO, horizon
from divaut.errors import ImproperStar
from divaut.semiring import BOOLEAN, GAUSSIAN, NATURAL, RATIONAL
from divaut.series import (
    Atom,
    BidivSeries,
    Cat,
    Conjoin2,
    Conjoin3,
    DivSeries,
    EPSILON,
    Omega,
    Scale,
    Star,
    Sum,
    ZERO,
    Zeta,
    _window_coeff,
    bidiv_coeff,
    conv_coeff,
    div_coeff,
    expr_level,
    is_proper,
    to_characteristic,
    validate,
)

from conftest import (
    bi_word,
    finite,
    random_conv_expr,
    random_finite_word,
    up_word,
)


# ---------------------------------------------------------------------------
# properness

def test_properness_rules():
    atom = Atom("a", 1)
    assert is_proper(atom)
    assert is_proper(Sum((atom, atom)))
    assert is_proper(ZERO)
    assert not is_proper(Star(atom))
    assert not is_proper(EPSILON)
    assert is_proper(Cat(Star(atom), atom))
    assert is_proper(Cat(atom, Star(atom)))
    assert not is_proper(Cat(Star(atom), Star(atom)))
    assert is_proper(Scale(2, atom, 3))


def test_validate_rejects_improper_operands():
    atom = Atom("a", 1)
    with pytest.raises(ImproperStar, match="^star needs a proper operand$"):
        validate(Star(Star(atom)))
    with pytest.raises(ImproperStar, match="^omega needs a proper operand$"):
        validate(Omega(EPSILON))
    with pytest.raises(ImproperStar, match="^conjoin needs proper operands$"):
        validate(Conjoin2(Star(atom), atom))
    with pytest.raises(ImproperStar, match="^zeta needs a proper operand$"):
        validate(Zeta(Star(atom)))
    with pytest.raises(ImproperStar, match="^conjoin3 needs proper operands$"):
        validate(Conjoin3(atom, Star(atom), atom))
    validate(Conjoin2(atom, atom))
    with pytest.raises(TypeError):
        validate(3)


def test_expr_level():
    atom = Atom("a", 1)
    assert expr_level(Cat(atom, atom)) == "conv"
    assert expr_level(Omega(atom)) == "div"
    assert expr_level(Sum((Zeta(atom), Conjoin3(atom, atom, atom)))) == "bidiv"
    with pytest.raises(TypeError):
        expr_level(Sum((Omega(atom), Zeta(atom))))


# ---------------------------------------------------------------------------
# converging coefficients

def test_star_counts_empty_split():
    assert conv_coeff(NATURAL, Star(Atom("a", 2)), finite("")) == 1


def test_star_multiplies_blocks():
    assert conv_coeff(NATURAL, Star(Atom("a", 2)), finite("aaa")) == 8


def test_cat_orders_factors():
    expr = Cat(Atom("a", 1), Atom("b", 3))
    assert conv_coeff(NATURAL, expr, finite("ab")) == 3
    assert conv_coeff(NATURAL, expr, finite("ba")) == 0


def test_cat_of_two_stars_handles_empty_blocks():
    expr = Cat(Star(Atom("a", 2)), Star(Atom("b", 3)))
    assert conv_coeff(NATURAL, expr, finite("")) == 1
    assert conv_coeff(NATURAL, expr, finite("a")) == 2
    assert conv_coeff(NATURAL, expr, finite("b")) == 3
    assert conv_coeff(NATURAL, expr, finite("ab")) == 6
    assert conv_coeff(NATURAL, expr, finite("ba")) == 0


def test_conv_coeff_raises_on_improper_star():
    with pytest.raises(ImproperStar):
        conv_coeff(NATURAL, Star(EPSILON), finite("a"))


def test_star_split_enumeration_terminates_on_long_words():
    expr = Star(Sum((Atom("a", 1), Cat(Atom("a", 1), Atom("b", 1)))))
    value = conv_coeff(NATURAL, expr, finite("ab" * 6 + "a" * 4))
    assert value >= 1


def test_deep_products_need_no_recursion():
    deep = Atom("a", 2)
    for _ in range(5000):
        deep = Cat(EPSILON, deep)
    assert conv_coeff(NATURAL, deep, finite("a")) == 2
    series = DivSeries(NATURAL, Omega(deep), up_word([], "a"), chi=horizon(16))
    assert [series.at(n) for n in range(5)] == [1, 2, 4, 8, 16]


# ---------------------------------------------------------------------------
# window columns against the definition

def naive_coeff(sr, node, word, lo, hi):
    """The coefficient of ``node`` on the positions [lo, hi) of ``word``,
    straight from the definition: unmemoized sums over every cut."""
    if isinstance(node, Atom):
        hit = hi - lo == 1 and word.char_at(lo) == node.symbol
        return sr.check(node.coeff) if hit else sr.zero
    if isinstance(node, Sum):
        return sr.sum(naive_coeff(sr, t, word, lo, hi) for t in node.terms)
    if isinstance(node, Scale):
        inner = naive_coeff(sr, node.inner, word, lo, hi)
        return sr.mul(sr.mul(sr.check(node.left_coeff), inner), sr.check(node.right_coeff))
    if isinstance(node, Cat):
        return sr.sum(sr.mul(naive_coeff(sr, node.left, word, lo, k),
                             naive_coeff(sr, node.right, word, k, hi))
                      for k in range(lo, hi + 1))
    # a star: the empty word, or a non-empty first block and the star again
    if lo == hi:
        return sr.one
    return sr.sum(sr.mul(naive_coeff(sr, node.inner, word, lo, k),
                         naive_coeff(sr, node, word, k, hi))
                  for k in range(lo + 1, hi + 1))


def assert_every_window_matches(sr, expr, word, rng):
    """Every window of ``word``, asked of one set of columns in a shuffled
    order, so that a start below the earlier ones rebuilds them."""
    windows = [(lo, hi) for hi in range(len(word) + 1) for lo in range(hi + 1)]
    rng.shuffle(windows)
    coeff = _window_coeff(sr, word)
    for lo, hi in windows:
        assert sr.eq(coeff(expr, lo, hi), naive_coeff(sr, expr, word, lo, hi)), (lo, hi)
    assert sr.eq(conv_coeff(sr, expr, word), naive_coeff(sr, expr, word, 0, len(word)))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from([BOOLEAN, NATURAL, RATIONAL, GAUSSIAN]))
def test_window_columns_match_the_definition(seed, sr):
    rng = random.Random(seed)
    expr = random_conv_expr(rng, sr, rng.randint(0, 3), proper=rng.random() < 0.5)
    assert_every_window_matches(sr, expr, random_finite_word(rng, max_len=6), rng)


def test_window_columns_drop_cancelled_sums():
    a, b = Atom("a", Fraction(1)), Atom("b", Fraction(2))
    zero = Sum((Cat(a, b), Scale(Fraction(-1), Cat(a, b), Fraction(1))))
    expr = Cat(Star(Sum((zero, a))), Sum((zero, b)))  # a* b, coefficient 2
    rng = random.Random(5)
    for text in ("aab", "abab", "ab", "abb", "b"):
        assert_every_window_matches(RATIONAL, expr, finite(text), rng)
    assert conv_coeff(RATIONAL, expr, finite("aab")) == 2
    assert conv_coeff(RATIONAL, expr, finite("abab")) == 0


def test_columns_stop_at_the_largest_end_asked_for():
    word, read = up_word("ab", "ba"), []

    class Watched:
        def char_at(self, i):
            read.append(i)
            return word.char_at(i)

    coeff = _window_coeff(NATURAL, Watched())
    expr = Star(Sum((Atom("a", 1), Cat(Atom("b", 1), Atom("a", 1)))))
    for hi in range(6):
        coeff(expr, 0, hi)
        assert max(read, default=-1) == hi - 1


# ---------------------------------------------------------------------------
# diverging coefficients

def test_omega_all_prefixes():
    expr = Omega(Atom("a", True))
    word = up_word([], "a")
    assert [div_coeff(BOOLEAN, expr, word, n) for n in range(4)] == [True] * 4


def test_omega_rejects_spoiled_prefixes():
    expr = Omega(Atom("a", True))
    word = up_word("ab", "a")
    assert [div_coeff(BOOLEAN, expr, word, n) for n in range(5)] == [False] * 5


def test_conjoin2_coefficients():
    expr = Conjoin2(Atom("b", 1), Atom("a", 1))
    word = up_word("b", "a")
    assert [div_coeff(NATURAL, expr, word, n) for n in range(5)] == [0, 1, 1, 1, 1]


def test_div_scale_and_sum():
    expr = Scale(2, Sum((Omega(Atom("a", 1)), Conjoin2(Atom("a", 1), Atom("a", 1)))), 3)
    word = up_word([], "a")
    series = DivSeries(NATURAL, expr, word)
    # omega contributes 1 at every n; the conjoin contributes 1 from n >= 1
    assert [series.at(n) for n in range(5)] == [6, 12, 12, 12, 12]


def test_chi_horizon_route_matches_exact():
    expr = Sum((Omega(Atom("a", True)), Conjoin2(Atom("b", True), Atom("a", True))))
    for word in (up_word([], "a"), up_word("b", "a"), up_word("ab", "a"),
                 up_word([], "ab")):
        exact = DivSeries(BOOLEAN, expr, word)
        scanned = DivSeries(BOOLEAN, expr, word, chi=horizon(24))
        for n in range(8):
            assert exact.at(n) == scanned.at(n)


# ---------------------------------------------------------------------------
# bidiverging coefficients

def test_zeta_constant_word():
    expr = Zeta(Atom("a", Fraction(1)))
    word = bi_word("a", "", "a")
    assert all(bidiv_coeff(RATIONAL, expr, word, i, n) == 1
               for i in (-3, 0, 2) for n in range(5))


def test_conjoin3_window_crossing():
    expr = Conjoin3(Atom("a", 1), Atom("b", 2), Atom("a", 1))
    word = bi_word("a", "b", "a")
    assert bidiv_coeff(NATURAL, expr, word, -2, 4) == 2
    assert bidiv_coeff(NATURAL, expr, word, 0, 1) == 2
    assert bidiv_coeff(NATURAL, expr, word, -2, 2) == 0  # window misses the b


def test_conjoin3_rejects_markerless_word():
    expr = Conjoin3(Atom("a", 1), Atom("b", 2), Atom("a", 1))
    word = bi_word("a", "", "a")
    assert all(bidiv_coeff(NATURAL, expr, word, i, n) == 0
               for i in (-2, 0) for n in range(6))


def test_bidiv_chi_horizon_route_matches_exact():
    expr = Sum((Zeta(Atom("a", 1)),
                Conjoin3(Atom("a", 1), Atom("b", 2), Atom("a", 1))))
    for word in (bi_word("a", "", "a"), bi_word("a", "b", "a"),
                 bi_word("b", "", "a")):
        exact = BidivSeries(NATURAL, expr, word)
        scanned = BidivSeries(NATURAL, expr, word, chi=horizon(16))
        for i in (-2, 0, 1):
            for n in range(6):
                assert exact.at(i, n) == scanned.at(i, n)


# ---------------------------------------------------------------------------
# one window oracle for both levels

def window_dependent_exprs(c):
    """A diverging and a bidiverging expression whose values depend on the
    window start and length on the words of the test below; ``c`` maps a
    small natural number to a coefficient."""
    a, b = Atom("a", c(2)), Atom("b", c(3))
    div = Sum((Omega(Sum((a, b))),
               Scale(c(2), Conjoin2(Cat(Atom("b", c(1)), a),
                                    Sum((a, Cat(a, b)))), c(1))))
    bidiv = Sum((Zeta(Sum((a, b))),
                 Conjoin3(Sum((a, b)), Cat(Atom("b", c(5)), a), Atom("a", c(1)))))
    return div, bidiv


@pytest.mark.parametrize("chi", [AUTO, horizon(16)], ids=["auto", "horizon16"])
def test_interleaved_queries_match_fresh_series(chi):
    starts = (0, -3, 2, -1, 3, 1, -2)
    up, bi = up_word("ba", "ab"), bi_word("ab", "ba", "a")
    for sr, c in ((BOOLEAN, lambda k: True), (NATURAL, lambda k: k),
                  (RATIONAL, lambda k: Fraction(-k, 2))):
        div_expr, bidiv_expr = window_dependent_exprs(c)
        div = DivSeries(sr, div_expr, up, chi)
        bidiv = BidivSeries(sr, bidiv_expr, bi, chi)
        for n in range(8, -1, -1):
            assert div.at(n) == DivSeries(sr, div_expr, up, chi).at(n)
            for i in starts:
                assert bidiv.at(i, n) == BidivSeries(sr, bidiv_expr, bi, chi).at(i, n)


def test_horizon_indicator_needs_no_automaton(monkeypatch):
    div_expr = Sum((Omega(Atom("a", 1)), Conjoin2(Atom("b", 1), Atom("a", 1))))
    bidiv_expr = Sum((Zeta(Atom("a", 1)),
                      Conjoin3(Atom("a", 1), Atom("b", 2), Atom("a", 1))))
    cases = [(up_word("b", "a"), up_word([], "a"), up_word("ab", "a")),
             (bi_word("a", "b", "a"), bi_word("a", "", "a"), bi_word("b", "", "a"))]

    def tables(chi):
        div = [DivSeries(NATURAL, div_expr, w, chi) for w in cases[0]]
        bidiv = [BidivSeries(NATURAL, bidiv_expr, w, chi) for w in cases[1]]
        return ([[s.at(n) for n in range(6)] for s in div],
                [[s.at(i, n) for i in (-2, 0, 1) for n in range(6)] for s in bidiv])

    expected = tables(AUTO)

    class Refused(Exception):
        pass

    def refuse(*args, **kwargs):
        raise Refused

    monkeypatch.setattr(divaut.kleene, "compile_conv", refuse)
    monkeypatch.setattr(divaut.series, "_decide", refuse)
    with pytest.raises(Refused):
        tables(AUTO)
    assert tables(horizon(16)) == expected


def deep_scales(leaf, depth=5000):
    """``leaf`` under ``depth`` nested ``Scale(1, Sum((.,)), 1)``."""
    for _ in range(depth):
        leaf = Scale(1, Sum((leaf,)), 1)
    return leaf


@pytest.mark.parametrize("chi", [AUTO, horizon(16)], ids=["auto", "horizon"])
def test_deep_scales_over_leaves_need_no_recursion(chi):
    div = deep_scales(Omega(Atom("a", 1)))
    assert DivSeries(NATURAL, div, up_word([], "a"), chi).at(3) == 1
    bidiv = deep_scales(Zeta(Atom("a", 1)))
    assert BidivSeries(NATURAL, bidiv, bi_word("a", "", "a"), chi).at(0, 3) == 1


def test_leaf_under_two_scales_is_decided_once(monkeypatch):
    leaf = Conjoin2(Atom("b", 1), Sum((Atom("a", 1), Atom("a", 2))))
    word = up_word("b", "a")
    compile_conv, compiled = divaut.kleene.compile_conv, []

    def counting(*args):
        compiled.append(args)
        return compile_conv(*args)

    monkeypatch.setattr(divaut.kleene, "compile_conv", counting)
    series = DivSeries(NATURAL, Sum((Scale(2, leaf, 3), Scale(5, leaf, 1))), word)
    values = [series.at(n) for n in range(6)]
    assert len(compiled) == 1
    alone = DivSeries(NATURAL, leaf, word)
    assert values == [11 * alone.at(n) for n in range(6)]
    assert alone.at(3) == 9


def test_expr_level_is_cached_on_the_root(monkeypatch):
    expr = Sum((Omega(Cat(Atom("a", 1), Atom("b", 1))), Conjoin2(Atom("a", 1), Atom("b", 1))))
    assert expr_level(expr) == "div"
    operands, calls = divaut.series._operands, []

    def counting(e):
        calls.append(e)
        return operands(e)

    monkeypatch.setattr(divaut.series, "_operands", counting)
    assert expr_level(expr) == "div"
    assert calls == []


def test_series_rejects_leaves_of_the_other_level():
    with pytest.raises(TypeError):
        DivSeries(NATURAL, Zeta(Atom("a", 1)), up_word([], "a")).at(0)
    with pytest.raises(TypeError):
        BidivSeries(NATURAL, Sum((Omega(Atom("a", 1)),)), bi_word("a", "", "a")).at(0, 1)


# ---------------------------------------------------------------------------
# characteristic form

def test_characteristic_single_term():
    expr = Scale(2, Conjoin2(Atom("a", 1), Atom("b", 1)), 3)
    form = to_characteristic(NATURAL, expr)
    assert form.level == "div"
    assert form.conjoin_terms == ((2, Atom("a", 1), Atom("b", 1), 3),)
    assert form.iteration_terms == ()


def test_characteristic_distributes_over_sum():
    expr = Scale(2, Sum((Omega(Atom("a", 1)),
                         Conjoin2(Atom("a", 1), Atom("b", 1)))), 3)
    form = to_characteristic(NATURAL, expr)
    assert form.iteration_terms == ((2, Atom("a", 1), 3),)
    assert form.conjoin_terms == ((2, Atom("a", 1), Atom("b", 1), 3),)


def test_characteristic_nested_scales_compose():
    expr = Scale(2, Scale(3, Omega(Atom("a", 1)), 5), 7)
    form = to_characteristic(NATURAL, expr)
    ((left, _, right),) = form.iteration_terms
    assert (left, right) == (2 * 3, 5 * 7)


def test_characteristic_bidiv():
    expr = Sum((Zeta(Atom("a", 1)),
                Conjoin3(Atom("a", 1), Atom("b", 1), Atom("a", 1))))
    form = to_characteristic(NATURAL, expr)
    assert form.level == "bidiv"
    assert len(form.conjoin_terms[0]) == 5
