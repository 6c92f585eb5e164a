import random

import pytest

from divaut import kleene
from divaut.activation import BidivergingBehavior, DivergingBehavior
from divaut.automaton import (
    Automaton,
    AutomatonClass,
    classify,
    converging_weight,
    trim,
    zero_automaton,
)
from divaut.kleene import (
    compile_bidiv,
    compile_conv,
    compile_div,
    extract_bidiv,
    extract_conv,
    extract_div,
)
from divaut.errors import UnknownSymbol
from divaut.fileformat import format_expr
from divaut.semiring import BOOLEAN, GAUSSIAN, NATURAL, RATIONAL, gaussian
from divaut.series import (
    Atom,
    BidivSeries,
    Cat,
    Conjoin2,
    DivSeries,
    EPSILON,
    Omega,
    Scale,
    Star,
    Sum,
    ZERO,
    Zeta,
    conv_coeff,
    is_proper,
    make_cat,
    make_scale,
    make_star,
    make_sum,
    to_characteristic,
)
from divaut.words import Alphabet

from conftest import (
    AB,
    as_boolean,
    bi_word,
    finite,
    random_bi_word,
    random_bidiv_expr,
    random_conv_expr,
    random_div_expr,
    random_finite_word,
    random_fraction,
    random_gaussian_automaton,
    random_natural_automaton,
    random_rational_automaton,
    random_up_word,
    up_word,
)


def div_table(aut, word, n_max):
    behavior = DivergingBehavior(aut, word)
    return [behavior.at(n) for n in range(n_max + 1)]


def bidiv_table(aut, word, starts, n_max):
    behavior = BidivergingBehavior(aut, word)
    return [behavior.at(i, n) for i in starts for n in range(n_max + 1)]


# ---------------------------------------------------------------------------
# converging direction

def test_compile_atom():
    aut = compile_conv(NATURAL, AB, Atom("a", 3))
    assert aut.num_states == 2
    assert converging_weight(aut, finite("a")) == 3
    assert converging_weight(aut, finite("b")) == 0
    assert converging_weight(aut, finite("")) == 0


def test_compile_star_weights():
    aut = compile_conv(NATURAL, AB, Star(Atom("a", 2)))
    assert converging_weight(aut, finite("aaa")) == 8
    assert converging_weight(aut, finite("")) == 1


def positions(e):
    """Atoms of ``e``, counting a non-empty sum of atoms as one."""
    if isinstance(e, Atom) or isinstance(e, Sum) and e.terms \
            and all(isinstance(t, Atom) for t in e.terms):
        return 1
    if isinstance(e, Sum):
        return sum(positions(t) for t in e.terms)
    if isinstance(e, Cat):
        return positions(e.left) + positions(e.right)
    return positions(e.inner)  # a star or a scale


def test_compile_has_one_state_per_position():
    rng = random.Random(107)
    for sr in (NATURAL, BOOLEAN, RATIONAL, GAUSSIAN):
        for _ in range(25):
            expr = random_conv_expr(rng, sr, rng.randint(0, 4), proper=False)
            assert compile_conv(sr, AB, expr).num_states == 1 + positions(expr)


@pytest.mark.parametrize("expr", [
    Atom("z", 1),
    Cat(ZERO, Atom("z", 1)),
    Sum((Atom("a", 1), Atom("z", 1))),
], ids=["atom", "under-zero", "sum-of-atoms"])
def test_compile_refuses_unknown_symbols(expr):
    with pytest.raises(UnknownSymbol):
        compile_conv(NATURAL, AB, expr)


def test_compile_random_matches_oracle():
    rng = random.Random(101)
    for _ in range(50):
        sr = rng.choice((NATURAL, RATIONAL, BOOLEAN))
        expr = random_conv_expr(rng, sr, rng.randint(0, 3), proper=False)
        aut = compile_conv(sr, AB, expr)
        for _ in range(4):
            word = random_finite_word(rng, max_len=8)
            assert sr.eq(converging_weight(aut, word),
                         conv_coeff(sr, expr, word))


def test_extract_zero_automaton():
    assert extract_conv(zero_automaton(NATURAL, AB)) == ZERO


def test_extract_self_loop_behaves_like_star():
    loop = Automaton.build(NATURAL, AB, 1, {0: 1}, {0: 1}, [(0, 0, "a", 2)])
    expr = extract_conv(loop)
    star = Star(Atom("a", 2))
    for length in range(7):
        word = finite("a" * length)
        assert conv_coeff(NATURAL, expr, word) == conv_coeff(NATURAL, star, word)
    assert conv_coeff(NATURAL, expr, finite("ab")) == 0


def test_extract_figure_three(figure_three):
    expr = extract_conv(figure_three)
    rng = random.Random(19)
    for _ in range(25):
        word = random_finite_word(rng, max_len=8)
        assert conv_coeff(NATURAL, expr, word) == \
            converging_weight(figure_three, word)


def test_extract_proper_when_empty_word_rejected():
    rng = random.Random(21)
    for _ in range(10):
        aut = random_natural_automaton(rng, max_states=3)
        zeroed = Automaton.build(NATURAL, AB, aut.num_states, aut.initial,
                                 {}, list(aut.edges()))
        assert is_proper(extract_conv(zeroed))


def test_extract_compile_round_trip_conv():
    rng = random.Random(23)
    for _ in range(15):
        aut = random_rational_automaton(rng, max_states=3)
        expr = extract_conv(aut)
        back = compile_conv(RATIONAL, AB, expr)
        for _ in range(4):
            word = random_finite_word(rng, max_len=6)
            assert converging_weight(back, word) == converging_weight(aut, word)


def full_elimination(aut):
    """State elimination that updates every row and column at each step:
    the reference that the pruned loop of ``extract_conv`` must match."""
    aut = trim(aut)
    sr = aut.semiring
    n = aut.num_states
    table = [[ZERO] * n for _ in range(n)]
    for i, j, symbol, w in aut.edges():
        table[i][j] = make_sum([table[i][j], Atom(symbol, w)])
    for k in range(n):
        through = make_star(table[k][k])
        row_k = [(j, e) for j, e in enumerate(table[k]) if e != ZERO]
        col_k = [table[i][k] for i in range(n)]
        for i in range(n):
            if col_k[i] == ZERO:
                continue
            via = make_cat(col_k[i], through)
            for j, out in row_k:
                table[i][j] = make_sum([table[i][j], make_cat(via, out)])
    terms = [make_scale(sr, aut.initial[i], table[i][j], aut.final[j])
             for i in range(n) if not sr.is_zero(aut.initial[i])
             for j in range(n) if not sr.is_zero(aut.final[j])]
    empty_weight = sr.sum(sr.mul(a, b) for a, b in zip(aut.initial, aut.final))
    if not sr.is_zero(empty_weight):
        terms.append(make_scale(sr, empty_weight, EPSILON, sr.one))
    return make_sum(terms)


def test_extract_matches_full_elimination():
    rng = random.Random(1913)
    makers = [random_natural_automaton, random_rational_automaton, random_gaussian_automaton,
              lambda rng, **kw: as_boolean(random_natural_automaton(rng, **kw))]
    for make in makers:
        for _ in range(20):
            aut = make(rng, max_states=5, density=0.35)
            sr = aut.semiring
            assert format_expr(sr, extract_conv(aut)) == format_expr(sr, full_elimination(aut))


def test_extract_is_linear_on_a_chain(monkeypatch):
    one = Alphabet(("a",))
    calls = []

    def counting(a, b):
        calls.append(None)
        return make_cat(a, b)

    monkeypatch.setattr(kleene, "make_cat", counting)
    for n in (100, 200):
        calls.clear()
        chain = Automaton.build(NATURAL, one, n, {0: 1}, {n - 1: 1},
                                [(i, i + 1, "a", 1) for i in range(n - 1)])
        expr = extract_conv(chain)
        assert len(calls) < 2 * n  # the full elimination makes (n - 1)^2
        assert conv_coeff(NATURAL, expr, finite("a" * (n - 1), one)) == 1


# ---------------------------------------------------------------------------
# diverging direction

def test_compile_omega_loopback_cases():
    aut = compile_div(BOOLEAN, AB, Omega(Atom("a", True)))
    assert classify(aut) is AutomatonClass.LOOPBACK
    assert div_table(aut, up_word([], "a"), 4) == [True] * 5
    assert div_table(aut, up_word("ab", "a"), 4) == [False] * 5


def test_compile_conjoin2_matches_oracle_fixture():
    expr = Conjoin2(Atom("b", 1), Atom("a", 1))
    aut = compile_div(NATURAL, AB, expr)
    assert div_table(aut, up_word("b", "a"), 4) == [0, 1, 1, 1, 1]


def test_compile_div_random_round_trips():
    rng = random.Random(303)
    for _ in range(30):
        sr = rng.choice((NATURAL, NATURAL, BOOLEAN))
        expr = random_div_expr(rng, sr, rng.randint(0, 3))
        aut = compile_div(sr, AB, expr)
        word = random_up_word(rng)
        series = DivSeries(sr, expr, word)
        behavior = DivergingBehavior(aut, word)
        for n in range(9):
            assert sr.eq(series.at(n), behavior.at(n))


def test_extract_div_figure_one(figure_one):
    expr = extract_div(figure_one)
    for m in range(5):
        word = up_word("a" * m + "b", "a")
        series = DivSeries(BOOLEAN, expr, word)
        for n in range(17):
            assert series.at(n) == (n >= m + 1)
    dead = DivSeries(BOOLEAN, expr, up_word("bb", "a"))
    assert all(dead.at(n) is False for n in range(10))


def test_extract_div_figure_two(figure_two):
    expr = extract_div(figure_two)
    series = DivSeries(NATURAL, expr, up_word([], "ab"))
    for n in range(13):
        assert series.at(n) == (0 if n % 2 == 0 else 2 ** n)


def test_extract_div_loopback_is_single_omega():
    loop = Automaton.build(NATURAL, AB, 1, {0: 1}, {0: 1}, [(0, 0, "a", 2)])
    expr = extract_div(loop)
    assert isinstance(expr, Omega)


def test_extract_then_compile_preserves_div_behavior():
    rng = random.Random(31)
    for _ in range(10):
        aut = random_natural_automaton(rng, max_states=3)
        expr = extract_div(aut)
        back = compile_div(NATURAL, AB, expr)
        word = random_up_word(rng)
        assert div_table(back, word, 8) == div_table(aut, word, 8)


# ---------------------------------------------------------------------------
# bidiverging direction

def test_compile_zeta_single_loopback():
    from divaut.series import Zeta

    aut = compile_bidiv(NATURAL, AB, Zeta(Atom("a", 1)))
    assert classify(aut) is AutomatonClass.LOOPBACK
    assert aut.num_states == 1
    word = bi_word("a", "", "a")
    assert bidiv_table(aut, word, (-2, 0, 1), 4) == [1] * 15


def test_compile_conjoin3_matches_fixture():
    from divaut.series import Conjoin3

    expr = Conjoin3(Atom("a", 1), Atom("b", 2), Atom("a", 1))
    aut = compile_bidiv(NATURAL, AB, expr)
    word = bi_word("a", "b", "a")
    assert BidivergingBehavior(aut, word).at(-2, 4) == 2
    series = BidivSeries(NATURAL, expr, word)
    behavior = BidivergingBehavior(aut, word)
    for i in (-3, -1, 0, 2):
        for n in range(7):
            assert series.at(i, n) == behavior.at(i, n)


def test_compile_bidiv_random_round_trips():
    rng = random.Random(404)
    for _ in range(20):
        sr = rng.choice((NATURAL, NATURAL, BOOLEAN))
        expr = random_bidiv_expr(rng, sr, rng.randint(0, 3))
        aut = compile_bidiv(sr, AB, expr)
        word = random_bi_word(rng)
        series = BidivSeries(sr, expr, word)
        behavior = BidivergingBehavior(aut, word)
        for i in (-2, 0, 1):
            for n in range(7):
                assert sr.eq(series.at(i, n), behavior.at(i, n))


def test_extract_bidiv_loopback_is_single_zeta():
    from divaut.series import Zeta

    loop = Automaton.build(NATURAL, AB, 1, {0: 1}, {0: 1}, [(0, 0, "a", 2)])
    assert isinstance(extract_bidiv(loop), Zeta)


def test_extract_then_compile_preserves_bidiv_behavior():
    rng = random.Random(37)
    for _ in range(8):
        aut = random_natural_automaton(rng, max_states=3)
        expr = extract_bidiv(aut)
        back = compile_bidiv(NATURAL, AB, expr)
        word = random_bi_word(rng)
        starts = (-2, 0, 1)
        assert bidiv_table(back, word, starts, 6) == \
            bidiv_table(aut, word, starts, 6)


def test_compile_never_normalizes_empty_word_acceptors():
    # properness of characteristic-form operands keeps normalize applicable;
    # a large random batch exercises the assertion inside the compiler
    rng = random.Random(41)
    for _ in range(20):
        expr = random_div_expr(rng, NATURAL, 3)
        compile_div(NATURAL, AB, expr)


def test_compile_deep_scales_needs_no_recursion():
    div, bidiv = Omega(Atom("a", 1)), Zeta(Atom("a", 1))
    for _ in range(5000):
        div, bidiv = Scale(1, Sum((div,)), 1), Scale(1, Sum((bidiv,)), 1)
    up, bi = up_word([], "a"), bi_word("a", "", "a")
    assert div_table(compile_div(NATURAL, AB, div), up, 4) == [1] * 5
    behavior = BidivergingBehavior(compile_bidiv(NATURAL, AB, bidiv), bi)
    assert [behavior.at(0, n) for n in range(5)] == [1] * 5


def test_compile_div_and_bidiv_are_trim():
    """No dead state unless an operand's series is zero or a term is scaled
    by zero."""
    rng = random.Random(43)
    trimmed = 0
    for case in range(80):
        sr = (NATURAL, BOOLEAN, RATIONAL, GAUSSIAN)[case % 4]
        level = ("div", "bidiv")[case // 4 % 2]
        generate, compile_ = ((random_div_expr, compile_div) if level == "div"
                              else (random_bidiv_expr, compile_bidiv))
        expr = generate(rng, sr, rng.randint(0, 3))
        form = to_characteristic(sr, expr, level)
        terms = form.conjoin_terms + form.iteration_terms
        if any(sr.is_zero(left) or sr.is_zero(right) for left, *_, right in terms):
            continue
        if any(trim(compile_conv(sr, AB, operand)).num_states == 0
               for _, *operands, _ in terms for operand in operands):
            continue
        aut = compile_(sr, AB, expr)
        assert trim(aut).num_states == aut.num_states, (level, expr)
        trimmed += 1
    assert trimmed >= 40


# ---------------------------------------------------------------------------
# round trips on series that are live on their words

def live_expr(rng, sr, word):
    """A diverging or bidiverging expression built from the symbols of
    ``word``, so that most of its leaves are live there: each star runs over
    a sum of every symbol the word uses, and the marked operands of a
    conjoin spell out a stretch of the word."""
    from divaut.series import Conjoin3, Scale, Zeta
    from divaut.words import Alphabet

    def coeff():
        if sr is BOOLEAN:
            return True
        if sr is NATURAL:
            return rng.randint(1, 3)
        if sr is GAUSSIAN:
            return gaussian(random_fraction(rng, allow_zero=False), random_fraction(rng))
        return random_fraction(rng, allow_zero=False)

    def spell(symbols):
        atoms = [Atom(s, coeff()) for s in symbols]
        out = atoms[-1]
        for atom in reversed(atoms[:-1]):
            out = Cat(atom, out)
        return out

    twosided = hasattr(word, "center")
    parts = (word.left, word.center, word.right) if twosided else (word.prefix, word.cycle)
    used = sorted({s for part in parts for s in part})

    def any_symbol():
        if rng.random() < 0.25:  # a random proper expression over the same symbols
            return random_conv_expr(rng, sr, 1, Alphabet(tuple(used)), True)
        return Sum(tuple(Atom(s, coeff()) for s in used))

    def leaf():
        if rng.random() < 0.4:
            return Zeta(any_symbol()) if twosided else Omega(any_symbol())
        if twosided:
            middle = spell(word.center) if word.center else any_symbol()
            return Conjoin3(any_symbol(), middle, any_symbol())
        stretch = (word.prefix + word.cycle)[:rng.randint(1, len(word.prefix) + 1)]
        return Conjoin2(spell(stretch), any_symbol())

    expr = leaf() if rng.random() < 0.5 else Sum((leaf(), leaf()))
    return Scale(coeff(), expr, coeff()) if rng.random() < 0.3 else expr


def test_compile_random_round_trips_on_live_series():
    rng = random.Random(505)
    tables = []
    for case in range(40):
        sr = rng.choice((NATURAL, BOOLEAN, RATIONAL, GAUSSIAN))
        if case % 2 == 0:
            word = random_up_word(rng)
            expr = live_expr(rng, sr, word)
            aut = compile_div(sr, AB, expr)
            series, behavior = DivSeries(sr, expr, word), DivergingBehavior(aut, word)
            pairs = [(series.at(n), behavior.at(n)) for n in range(8)]
        else:
            word = random_bi_word(rng)
            expr = live_expr(rng, sr, word)
            aut = compile_bidiv(sr, AB, expr)
            series = BidivSeries(sr, expr, word)
            behavior = BidivergingBehavior(aut, word)
            pairs = [(series.at(i, n), behavior.at(i, n))
                     for i in (-2, 0, 1) for n in range(6)]
        assert all(sr.eq(got, want) for got, want in pairs), (expr, word)
        tables.append(any(not sr.is_zero(got) for got, _ in pairs))
    # the generators above exist to make these comparisons non-trivial
    assert sum(tables) >= len(tables) // 2
