import random
from fractions import Fraction

import pytest

from divaut.activation import BidivergingBehavior, DivergingBehavior
from divaut.automaton import (
    Automaton,
    AutomatonClass,
    classify,
    conjoin2,
    conjoin3,
    converging_weight,
    decompose_bidiverging,
    decompose_diverging,
    disjoin2,
    disjoin3,
    isomorphic,
    normalize,
    roll,
    scale_automaton,
    sum_automata,
    unroll,
    zero_automaton,
)
from divaut.errors import (
    EmptyWordAccepted,
    NotLoopback,
    NotNormalized,
    SemiringMismatch,
    UnknownSymbol,
    WrongClass,
)
from divaut.semiring import NATURAL, RATIONAL

from conftest import (
    AB,
    as_boolean,
    bi_word,
    dense,
    enumerate_path_weight,
    finite,
    random_bi_word,
    random_finite_word,
    random_gaussian_automaton,
    random_natural_automaton,
    random_rational_automaton,
    random_up_word,
    up_word,
)


def normalized_pair(sr=NATURAL):
    """Two small normalized automata over the shared alphabet."""
    x = Automaton.build(sr, AB, 2, {0: sr.one}, {1: sr.one}, [(0, 1, "b", sr.one)])
    y = Automaton.build(sr, AB, 2, {0: sr.one}, {1: sr.one}, [(0, 1, "a", sr.one)])
    return x, y


def random_normalized(rng, sr=RATIONAL):
    base = (random_rational_automaton(rng) if sr is RATIONAL
            else random_natural_automaton(rng))
    try:
        return normalize(base)
    except EmptyWordAccepted:
        zeroed = Automaton.build(base.semiring, base.alphabet, base.num_states,
                                 base.initial,
                                 {s: base.semiring.zero for s in range(base.num_states)},
                                 list(base.edges()))
        return normalize(zeroed)


# ---------------------------------------------------------------------------
# converging weights

def test_zero_automaton_weight():
    zero = zero_automaton(NATURAL, AB)
    assert converging_weight(zero, finite("ab")) == 0
    assert converging_weight(zero, finite("")) == 0


def test_figure_two_odd_word(figure_two):
    # seven alternating symbols pick up a factor 2 per step
    assert converging_weight(figure_two, finite("abababa")) == 2 ** 7


def test_unknown_symbol(figure_two):
    from divaut.words import Alphabet, FiniteWord

    other = FiniteWord(Alphabet(("a", "z")), ("z",))
    with pytest.raises((UnknownSymbol, Exception)):
        converging_weight(figure_two, other)


def test_weight_matches_path_enumeration():
    rng = random.Random(42)
    for _ in range(25):
        aut = random_rational_automaton(rng)
        word = random_finite_word(rng, max_len=5)
        assert converging_weight(aut, word) == enumerate_path_weight(aut, word)


# ---------------------------------------------------------------------------
# elementary operations

def test_scale_identity(figure_three):
    scaled = scale_automaton(1, figure_three, 1)
    assert scaled == figure_three


def test_scale_zero_annihilates(figure_three):
    scaled = scale_automaton(0, figure_three, 1)
    for length in range(5):
        word = finite("a" * length)
        assert converging_weight(scaled, word) == 0


def test_scale_rational_figure_three():
    rng = random.Random(7)
    aut = Automaton.build(
        RATIONAL, AB, 3, {1: 1, 2: 3}, {0: 1},
        [(0, 0, "a", 1), (1, 0, "a", 1), (1, 1, "a", 1),
         (2, 0, "b", 1), (2, 2, "b", 3)])
    scaled = scale_automaton(Fraction(2), aut, Fraction(3))
    word = finite("a")
    assert converging_weight(scaled, word) == 6 * converging_weight(aut, word)
    for _ in range(10):
        word = random_finite_word(rng, max_len=6)
        assert converging_weight(scaled, word) == 6 * converging_weight(aut, word)


def test_sum_with_zero(figure_two):
    summed = sum_automata(figure_two, zero_automaton(NATURAL, AB))
    rng = random.Random(3)
    for _ in range(10):
        word = random_finite_word(rng, max_len=6)
        assert converging_weight(summed, word) == converging_weight(figure_two, word)


def test_sum_is_pointwise():
    rng = random.Random(11)
    for _ in range(15):
        a = random_rational_automaton(rng)
        b = random_rational_automaton(rng)
        summed = sum_automata(a, b)
        assert summed.num_states == a.num_states + b.num_states
        for _ in range(4):
            word = random_finite_word(rng, max_len=5)
            assert converging_weight(summed, word) == \
                converging_weight(a, word) + converging_weight(b, word)


def test_sum_boolean_idempotent(figure_one):
    doubled = sum_automata(figure_one, figure_one)
    rng = random.Random(5)
    for _ in range(10):
        word = random_finite_word(rng, max_len=6)
        assert converging_weight(doubled, word) == converging_weight(figure_one, word)


def test_sum_rejects_mismatch(figure_one, figure_two):
    with pytest.raises(SemiringMismatch):
        sum_automata(figure_one, figure_two)


# ---------------------------------------------------------------------------
# normalize

def test_normalize_figure_two(figure_two):
    norm = normalize(figure_two)
    assert norm.num_states == 5
    assert classify(norm) is AutomatonClass.NORMALIZED
    rng = random.Random(1)
    for _ in range(20):
        word = random_finite_word(rng, max_len=10)
        assert converging_weight(norm, word) == converging_weight(figure_two, word)


def test_normalize_preserves_already_normalized():
    x, _ = normalized_pair()
    assert classify(x) is AutomatonClass.NORMALIZED
    again = normalize(x)
    assert classify(again) is AutomatonClass.NORMALIZED
    for word in (finite(""), finite("b"), finite("ba")):
        assert converging_weight(again, word) == converging_weight(x, word)


def test_normalize_rejects_empty_word_acceptor():
    aut = Automaton.build(NATURAL, AB, 1, {0: 1}, {0: 1}, [(0, 0, "a", 1)])
    with pytest.raises(EmptyWordAccepted):
        normalize(aut)


def test_normalize_random_behavior_equal():
    rng = random.Random(23)
    for _ in range(15):
        aut = random_normalized(rng)
        for _ in range(4):
            word = random_finite_word(rng, max_len=6)
            assert converging_weight(normalize(aut), word) == \
                converging_weight(aut, word)


def dense_normalize(aut):
    """``normalize`` from dense matrices: per symbol s, the entry row
    initial . M(s), the exit column M(s) . final and the corner
    initial . M(s) . final, from ``conftest.dense`` alone."""
    sr, n = aut.semiring, aut.num_states
    edges = list(aut.edges())
    for symbol in aut.alphabet:
        mat = dense(aut, symbol)
        entry = [sr.sum(sr.mul(aut.initial[i], mat[i][j]) for i in range(n)) for j in range(n)]
        exit_ = [sr.sum(sr.mul(mat[i][j], aut.final[j]) for j in range(n)) for i in range(n)]
        corner = sr.sum(sr.mul(entry[j], aut.final[j]) for j in range(n))
        edges += [(n, j, symbol, w) for j, w in enumerate(entry)]
        edges += [(i, n + 1, symbol, w) for i, w in enumerate(exit_)]
        edges.append((n, n + 1, symbol, corner))
    return Automaton.build(sr, aut.alphabet, n + 2, {n: sr.one}, {n + 1: sr.one}, edges)


@pytest.mark.parametrize("make", [
    random_rational_automaton, random_gaussian_automaton, random_natural_automaton,
    lambda rng, **shape: as_boolean(random_natural_automaton(rng, **shape))],
    ids=["rational", "gaussian", "natural", "boolean"])
def test_normalize_equals_the_dense_construction(make):
    rng = random.Random(31)
    checked = 0
    for _ in range(25):
        aut = make(rng, max_states=5, density=0.5)
        sr = aut.semiring
        # no final weight on an initial state: the empty word weighs zero
        final = [sr.zero if i in aut.initial_states() else w for i, w in enumerate(aut.final)]
        aut = Automaton.build(sr, AB, aut.num_states, aut.initial, final, list(aut.edges()))
        if classify(aut) is AutomatonClass.NORMALIZED:
            assert normalize(aut) is aut
            continue
        assert normalize(aut) == dense_normalize(aut)
        checked += 1
    assert checked >= 15


# ---------------------------------------------------------------------------
# roll / unroll

def test_roll_two_state_chain():
    chain = Automaton.build(NATURAL, AB, 2, {0: 1}, {1: 1}, [(0, 1, "a", 1)])
    looped = roll(chain)
    assert looped.num_states == 1
    assert classify(looped) is AutomatonClass.LOOPBACK
    assert dense(looped, "a")[0][0] == 1


def test_unroll_self_loop():
    loop = Automaton.build(NATURAL, AB, 1, {0: 1}, {0: 1}, [(0, 0, "a", 1)])
    norm = unroll(loop)
    assert norm.num_states == 2
    assert classify(norm) is AutomatonClass.NORMALIZED
    assert dense(norm, "a")[0][1] == 1


def test_roll_unroll_inverse_up_to_bijection():
    rng = random.Random(17)
    for _ in range(20):
        norm = random_normalized(rng)
        assert isomorphic(unroll(roll(norm)), norm)
        loop = roll(norm)
        assert isomorphic(roll(unroll(loop)), loop)


def single_trip_weight(loop, word):
    """Sum over paths of a loopback automaton that start and end on the
    loopback state without passing through it in between."""
    sr = loop.semiring
    start = loop.initial_states()[0]
    total = sr.zero
    import itertools

    middles = range(loop.num_states)
    mats = {symbol: dense(loop, symbol) for symbol in set(word)}
    for inner in itertools.product(middles, repeat=max(0, len(word) - 1)):
        path = (start,) + inner + (start,)
        if start in inner:
            continue
        w = sr.one
        for k, symbol in enumerate(word):
            w = sr.mul(w, mats[symbol][path[k]][path[k + 1]])
        total = sr.add(total, w)
    return total


def test_unroll_counts_single_trips():
    # weight of non-empty w in the unroll = sum over single-trip loops
    rng = random.Random(29)
    for _ in range(10):
        norm = random_normalized(rng)
        loop = roll(norm)
        spread = unroll(loop)
        for _ in range(4):
            word = random_finite_word(rng, max_len=4)
            if len(word) == 0:
                continue
            assert converging_weight(spread, word) == \
                single_trip_weight(loop, word)


def test_roll_rejects_non_normalized(figure_two):
    with pytest.raises(NotNormalized):
        roll(figure_two)
    bridge = Automaton.build(NATURAL, AB, 2, {0: 1}, {1: 1},
                             [(0, 1, "a", 1), (1, 0, "a", 1)])
    with pytest.raises(NotNormalized):
        roll(bridge)


def test_unroll_rejects_non_loopback(figure_two):
    with pytest.raises(NotLoopback):
        unroll(figure_two)


# ---------------------------------------------------------------------------
# conjoin2 / disjoin2

def test_conjoin2_state_count():
    x, y = normalized_pair()
    glued = conjoin2(x, y)
    assert glued.num_states == (x.num_states - 1) + (y.num_states - 1)
    assert classify(glued) in (AutomatonClass.LOOPBACK_WITH_PRELUDE,
                               AutomatonClass.NORMALIZED)


def test_conjoin2_behavior_is_conjoin(ab):
    # behavior(X * Y) sampled against the x.y* split sum
    x, y = normalized_pair()
    glued = conjoin2(x, y)
    word = up_word("b", "a")
    behavior = DivergingBehavior(glued, word)
    # (b a^*) over prefixes b a^{n-1}: 1 for n >= 1
    assert [behavior.at(n) for n in range(5)] == [0, 1, 1, 1, 1]


def test_conjoin2_then_disjoin2_round_trip():
    rng = random.Random(31)
    count = 0
    while count < 12:
        x = random_normalized(rng)
        y = random_normalized(rng)
        glued = conjoin2(x, y)
        prelude, cycle = disjoin2(glued)
        reglued = conjoin2(prelude, cycle)
        word = random_up_word(rng)
        one = DivergingBehavior(glued, word)
        two = DivergingBehavior(reglued, word)
        assert [one.at(n) for n in range(9)] == [two.at(n) for n in range(9)]
        count += 1


def test_disjoin2_components_normalized():
    x, y = normalized_pair()
    prelude, cycle = disjoin2(conjoin2(x, y))
    assert classify(prelude) is AutomatonClass.NORMALIZED
    assert classify(cycle) is AutomatonClass.NORMALIZED


def test_disjoin2_rejects_loopback():
    loop = Automaton.build(NATURAL, AB, 1, {0: 1}, {0: 1}, [(0, 0, "a", 1)])
    with pytest.raises(WrongClass):
        disjoin2(loop)


def test_conjoin2_rejects_non_normalized(figure_two):
    x, _ = normalized_pair()
    with pytest.raises(NotNormalized):
        conjoin2(figure_two, x)


# ---------------------------------------------------------------------------
# conjoin3 / disjoin3

def test_conjoin3_state_count():
    x, y = normalized_pair()
    m, _ = normalized_pair()
    glued = conjoin3(x, m, y)
    assert glued.num_states == (x.num_states - 1) + (m.num_states - 2) + \
        (y.num_states - 1)
    assert classify(glued) in (AutomatonClass.BRIDGE,
                               AutomatonClass.LOOPBACK_WITH_PRELUDE,
                               AutomatonClass.NORMALIZED)


def test_conjoin3_direct_middle_edge():
    # a two-state middle collapses to a single bridging edge between the
    # two loopback states
    x, y = normalized_pair()
    m = Automaton.build(NATURAL, AB, 2, {0: 1}, {1: 1}, [(0, 1, "b", 7)])
    glued = conjoin3(x, m, y)
    src = glued.initial_states()[0]
    dst = glued.final_states()[0]
    assert dense(glued, "b")[src][dst] == 7


def test_conjoin3_then_disjoin3_round_trip():
    # the glued and the reglued automaton have one two-sided masked behavior;
    # naturals are decided by the extent window that decides every semiring
    rng = random.Random(37)
    for _ in range(10):
        x = random_normalized(rng, NATURAL)
        m = random_normalized(rng, NATURAL)
        y = random_normalized(rng, NATURAL)
        glued = conjoin3(x, m, y)
        head, middle, tail = disjoin3(glued)
        for part in (head, middle, tail):
            assert classify(part) is AutomatonClass.NORMALIZED
        reglued = conjoin3(head, middle, tail)
        word = random_bi_word(rng)
        one = BidivergingBehavior(glued, word)
        two = BidivergingBehavior(reglued, word)
        for i in (-2, 0, 1):
            for n in range(6):
                assert one.at(i, n) == two.at(i, n)


def test_disjoin3_parts_drop_dead_states():
    # the middle input's third state and the reglued split parts' states off
    # every endpoint-to-endpoint path must not pile up round after round
    def part(*edges):
        return Automaton.build(NATURAL, AB, 3, {0: 1}, {1: 1}, edges)

    bridge = conjoin3(part((0, 1, "b", 1)),
                      part((0, 2, "a", 2), (2, 2, "b", 1), (2, 1, "a", 1)),
                      part((0, 1, "a", 3)))
    chain = [bridge]
    for _ in range(3):
        chain.append(conjoin3(*disjoin3(chain[-1])))
    assert [aut.num_states for aut in chain] == [5, 3, 3, 3]
    word = bi_word("b", "abba", "a")
    for aut in chain[1:]:
        assert [BidivergingBehavior(aut, word).at(i, n) for i in (-1, 0) for n in range(6)] \
            == [BidivergingBehavior(bridge, word).at(i, n) for i in (-1, 0) for n in range(6)]


def test_disjoin3_zero_middle_keeps_both_endpoints():
    apart = Automaton.build(NATURAL, AB, 3, {0: 1}, {1: 1},
                            [(0, 0, "a", 1), (1, 1, "b", 1), (2, 1, "a", 1)])
    _, middle, _ = disjoin3(apart)
    assert middle.num_states == 2 and not list(middle.edges())
    assert classify(middle) is AutomatonClass.NORMALIZED


def test_disjoin3_rejects_loopback():
    loop = Automaton.build(NATURAL, AB, 1, {0: 1}, {0: 1}, [(0, 0, "a", 1)])
    with pytest.raises(WrongClass):
        disjoin3(loop)


# ---------------------------------------------------------------------------
# decompositions

def test_decompose_single_loopback():
    loop = Automaton.build(NATURAL, AB, 1, {0: 1}, {0: 1}, [(0, 0, "a", 1)])
    parts = decompose_diverging(loop).parts
    assert len(parts) == 1
    left, part, right = parts[0]
    assert left == 1 and right == 1
    assert classify(part) is AutomatonClass.LOOPBACK


def test_decompose_diverging_figure_two(figure_two):
    word = up_word([], "ab")
    direct = DivergingBehavior(figure_two, word)
    parts = decompose_diverging(figure_two).parts
    behaviors = [(left, DivergingBehavior(part, word), right)
                 for left, part, right in parts]
    for n in range(13):
        total = 0
        for left, behavior, right in behaviors:
            total += left * behavior.at(n) * right
        assert total == direct.at(n)


def test_decompose_part_count_and_classes(figure_two):
    parts = decompose_diverging(figure_two).parts
    # two non-zero initial states x one non-zero final state
    assert len(parts) == 2
    for left, part, right in parts:
        assert classify(part) in (AutomatonClass.LOOPBACK,
                                  AutomatonClass.LOOPBACK_WITH_PRELUDE,
                                  AutomatonClass.NORMALIZED)


def test_decompose_bidiverging_classes(figure_two):
    parts = decompose_bidiverging(figure_two).parts
    for left, part, right in parts:
        ini = part.initial_states()
        fin = part.final_states()
        if ini == fin:
            assert classify(part) is AutomatonClass.LOOPBACK
        else:
            assert classify(part) in (AutomatonClass.BRIDGE,
                                      AutomatonClass.LOOPBACK_WITH_PRELUDE,
                                      AutomatonClass.NORMALIZED)


def test_decompose_bidiverging_behavior_sum():
    rng = random.Random(41)
    for _ in range(6):
        aut = random_natural_automaton(rng, max_states=3)
        word = random_bi_word(rng)
        direct = BidivergingBehavior(aut, word)
        parts = [(left, BidivergingBehavior(part, word), right)
                 for left, part, right in decompose_bidiverging(aut).parts]
        for i in (-3, 0, 2):
            for n in range(8):
                total = sum(left * behavior.at(i, n) * right
                            for left, behavior, right in parts)
                assert total == direct.at(i, n)


def test_constructions_never_alias_states():
    rng = random.Random(43)
    for _ in range(10):
        norm = random_normalized(rng)
        assert normalize(norm).num_states in (norm.num_states, norm.num_states + 2)
        assert unroll(roll(norm)).num_states == norm.num_states
        parts = decompose_diverging(norm).parts
        for _, part, _ in parts:
            assert part.num_states in (norm.num_states, norm.num_states + 1)


# ---------------------------------------------------------------------------
# homomorphism

def test_behavior_homomorphism_converging():
    rng = random.Random(47)
    for _ in range(12):
        a = random_rational_automaton(rng)
        b = random_rational_automaton(rng)
        alpha, beta = Fraction(2), Fraction(-1, 2)
        gamma, delta = Fraction(1, 3), Fraction(3)
        combined = sum_automata(scale_automaton(alpha, a, gamma),
                                scale_automaton(beta, b, delta))
        for _ in range(4):
            word = random_finite_word(rng, max_len=6)
            assert converging_weight(combined, word) == \
                alpha * converging_weight(a, word) * gamma + \
                beta * converging_weight(b, word) * delta


def test_isomorphic_needs_no_recursion():
    def chain(order, first_weight=1):
        edges = [(p, q, "a", first_weight if k == 0 else 1)
                 for k, (p, q) in enumerate(zip(order, order[1:]))]
        return Automaton.build(NATURAL, AB, len(order), {order[0]: 1}, {order[-1]: 1}, edges)

    states = list(range(500))
    forward = chain(states)
    assert isomorphic(forward, forward)
    assert isomorphic(forward, chain(states[::-1]))
    assert not isomorphic(forward, chain(states, first_weight=2))


def test_isomorphic_detects_relabeling(figure_two):
    edges = [(2, 0, "a", 2), (2, 1, "a", 1), (0, 2, "b", 1), (1, 2, "b", 2)]
    relabeled = Automaton.build(NATURAL, AB, 3, {2: 1, 0: 2}, {1: 2}, edges)
    assert isomorphic(figure_two, relabeled)
    assert not isomorphic(figure_two, scale_automaton(2, figure_two, 1))
