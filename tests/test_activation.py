import random
import tracemalloc
from pathlib import Path
from unittest import mock
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from divaut import activation
from divaut.activation import (
    AUTO,
    EXACT,
    ActivationPolicy,
    BidivergingBehavior,
    DivergingBehavior,
    activates_bidiverging,
    activates_diverging,
    activation_verdicts,
    bidiverging_behavior,
    diverging_behavior,
    horizon,
)
from divaut.automaton import Automaton, converging_weight
from divaut.errors import UnsupportedExactDecision
from divaut.fileformat import parse_automaton
from divaut.semiring import BOOLEAN, GAUSSIAN, NATURAL, RATIONAL, Semiring, gaussian
from divaut.words import Alphabet, BiInfiniteWord, UPInfiniteWord, slice_word

from conftest import (
    AB,
    as_boolean,
    bi_word,
    dense,
    finite,
    least_period,
    random_gaussian_automaton,
    random_natural_automaton,
    random_rational_automaton,
    random_bi_word,
    random_up_word,
    up_word,
    with_dead_ends,
)

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def cancellation_gadget():
    """Two parallel routes with weights +1 and -1 on every symbol: each path
    is non-zero but every source-to-sink path sum cancels."""
    return Automaton.build(
        RATIONAL, AB, 4, {0: 1}, {3: 1},
        [(0, 1, "a", 1), (0, 2, "a", -1),
         (1, 1, "a", 1), (2, 2, "a", 1),
         (1, 3, "a", 1), (2, 3, "a", 1),
         (3, 3, "a", 1)])


# ---------------------------------------------------------------------------
# one-sided decisions

def test_figure_one_activation(figure_one):
    for m in range(4):
        word = up_word("a" * m + "b", "a")
        assert activates_diverging(figure_one, word, 0, 1)
    assert not activates_diverging(figure_one, up_word("bb", "a"), 0, 1)


def test_cancellation_gadget_not_activated():
    gadget = cancellation_gadget()
    word = up_word([], "a")
    assert not activates_diverging(gadget, word, 0, 3)
    assert not activates_diverging(gadget, word, 0, 3, horizon(64))
    behavior = DivergingBehavior(gadget, word)
    assert all(behavior.at(n) == 0 for n in range(20))
    # the individual routes really are non-zero
    for route_end in (1, 2):
        assert any(converging_weight(
            Automaton.build(RATIONAL, AB, 4, {0: 1}, {route_end: 1},
                            list(gadget.edges())),
            finite("a" * n)) != 0 for n in range(1, 5))


def test_lrs_window_bound_against_horizon_scan():
    # the decisive-window claim behind the field method, cross-checked by a
    # long brute-force scan on random instances, half of them with dead
    # initial and final states that the decision walks leave out
    rng = random.Random(2024)
    checked = 0
    for k in range(60):
        aut = random_rational_automaton(rng, max_states=3)
        if k % 2:
            aut = with_dead_ends(aut)
        word = random_up_word(rng)
        n_total = 120
        mats = {symbol: dense(aut, symbol) for symbol in aut.alphabet}
        for i in aut.initial_states():
            row = [Fraction(int(s == i)) for s in range(aut.num_states)]
            sums = {f: [] for f in aut.final_states()}
            for n in range(n_total):
                for f in sums:
                    sums[f].append(row[f])
                mat = mats[word.char_at(n)]
                row = [sum(row[k] * mat[k][j] for k in range(len(row)))
                       for j in range(len(row))]
            for f, values in sums.items():
                # eventually-zero sequences over a 3-state recurrence are
                # flat well before index 40, so the scan is decisive
                tail_nonzero = any(v != 0 for v in values[40:])
                got = activates_diverging(aut, word, i, f, EXACT)
                assert got == tail_nonzero
                checked += 1
    assert checked > 50


def test_method_agreement_exact_vs_horizon(figure_three):
    rat3 = Automaton.build(
        RATIONAL, AB, 3, {1: 1, 2: 3}, {0: 1},
        [(0, 0, "a", 1), (1, 0, "a", 1), (1, 1, "a", 1),
         (2, 0, "b", 1), (2, 2, "b", 3)])
    bound = 4 * rat3.num_states ** 2
    for word in (up_word([], "a"), up_word([], "b"), up_word("bbb", "a"),
                 up_word("a", "b")):
        for i in rat3.initial_states():
            for f in rat3.final_states():
                assert activates_diverging(rat3, word, i, f, EXACT) == \
                    activates_diverging(rat3, word, i, f, horizon(bound))


def test_natural_reduction_matches_boolean_projection():
    rng = random.Random(99)
    for _ in range(20):
        nat = random_natural_automaton(rng, max_states=3)
        projected = Automaton.build(
            BOOLEAN, nat.alphabet, nat.num_states,
            [w != 0 for w in nat.initial], [w != 0 for w in nat.final],
            [(i, j, s, True) for i, j, s, w in nat.edges()])
        word = random_up_word(rng)
        for i in nat.initial_states():
            for f in nat.final_states():
                assert activates_diverging(nat, word, i, f) == \
                    activates_diverging(projected, word, i, f)


def test_verdict_is_deterministic(figure_two):
    word = up_word([], "ab")
    first = activation_verdicts(figure_two, word)
    second = activation_verdicts(figure_two, word)
    assert first.pairs == second.pairs
    assert first.method == "ExactNaturalReduction"


# ---------------------------------------------------------------------------
# diverging behavior tables

def test_figure_one_behavior_table(figure_one):
    for m in range(6):
        word = up_word("a" * m + "b", "a")
        behavior = DivergingBehavior(figure_one, word)
        for n in range(21):
            assert behavior.at(n) == (n >= m + 1)
    rejected = DivergingBehavior(figure_one, up_word("bb", "a"))
    assert all(rejected.at(n) is False for n in range(21))


def test_figure_two_behavior_table(figure_two):
    swing = DivergingBehavior(figure_two, up_word([], "ab"))
    for n in range(17):
        assert swing.at(n) == (0 if n % 2 == 0 else 2 ** n)
    other = DivergingBehavior(figure_two, up_word([], "ba"))
    for n in range(17):
        assert other.at(n) == (2 ** n if n % 2 == 0 and n > 0 else 0)
    dead = DivergingBehavior(figure_two, up_word([], "a"))
    assert all(dead.at(n) == 0 for n in range(17))


def test_figure_three_behavior_table(figure_three):
    ramp = DivergingBehavior(figure_three, up_word([], "a"))
    assert [ramp.at(n) for n in range(17)] == list(range(17))
    powers = DivergingBehavior(figure_three, up_word([], "b"))
    assert [powers.at(n) for n in range(8)] == [0] + [3 ** n for n in range(1, 8)]
    for m in range(1, 6):
        plateau = DivergingBehavior(figure_three, up_word("b" * m, "a"))
        for n in range(17):
            expected = 0 if n == 0 else (3 ** n if n < m else 3 ** m)
            assert plateau.at(n) == expected
    dead = DivergingBehavior(figure_three, up_word("a", "b"))
    assert all(dead.at(n) == 0 for n in range(17))


def test_diverging_matches_converging_when_all_pairs_activated(figure_one):
    fan = Automaton.build(NATURAL, AB, 3, {0: 1, 1: 2}, {2: 1},
                          [(0, 2, "a", 1), (1, 2, "a", 1), (2, 2, "a", 1)])
    for aut, word in ((figure_one, up_word("b", "a")),
                      (fan, up_word([], "a"))):
        verdict = activation_verdicts(aut, word)
        assert all(verdict.pairs.values())
        behavior = DivergingBehavior(aut, word)
        for n in range(17):
            assert behavior.at(n) == converging_weight(aut,
                                                       slice_word(word, 0, n))


def test_one_shot_helpers(figure_one):
    word = up_word("b", "a")
    assert diverging_behavior(figure_one, word, 3) is True


# ---------------------------------------------------------------------------
# two-sided decisions

def test_single_state_all_ones_always_activated():
    aut = Automaton.build(NATURAL, AB, 1, {0: 1}, {0: 1},
                          [(0, 0, "a", 1), (0, 0, "b", 1)])
    rng = random.Random(7)
    for _ in range(5):
        word = random_bi_word(rng)
        assert activates_bidiverging(aut, word, 0, 0)
        behavior = BidivergingBehavior(aut, word)
        assert all(behavior.at(i, n) == 1 for i in (-2, 0, 3) for n in range(6))


def test_zero_transitions_not_activated():
    aut = Automaton.build(NATURAL, AB, 2, {0: 1}, {1: 1}, [])
    word = bi_word("a", "", "a")
    assert not activates_bidiverging(aut, word, 0, 1)


def test_single_site_marker_activated():
    # identity letters everywhere except one marked site: every window
    # grows to enclose the marker, so the end-to-end pair activates
    marks = Alphabet(("I", "Z"))
    for sr in (NATURAL, BOOLEAN, RATIONAL, GAUSSIAN):
        one = sr.one
        aut = Automaton.build(sr, marks, 2, {0: one}, {1: one},
                              [(0, 0, "I", one), (1, 1, "I", one), (0, 1, "Z", one)])
        word = BiInfiniteWord(marks, ("I",), ("Z",), ("I",))
        assert activates_bidiverging(aut, word, 0, 1)
        blank = BiInfiniteWord(marks, ("I",), (), ("I",))
        assert not activates_bidiverging(aut, word.__class__(marks, ("I",), (), ("I",)), 0, 1)
        assert not activates_bidiverging(aut, blank, 0, 1)


def test_twosided_transient_and_phase_pairs():
    for sr in (BOOLEAN, NATURAL, RATIONAL, GAUSSIAN):
        one = sr.one
        # a window leaves state 0 only when it reaches exactly one a left of
        # the center, so longer enclosures are all zero: dead
        transient = Automaton.build(sr, AB, 2, {0: one}, {1: one},
                                    [(0, 1, "a", one), (1, 1, "b", one)])
        assert not activates_bidiverging(transient, bi_word("a", "", "b"), 0, 1)
        # on the purely periodic (a b)^~w . (a b)^w only windows that start
        # on a b symbol leave state 0, and every window has such enclosures
        phase = Automaton.build(sr, AB, 2, {0: one}, {1: one},
                                [(0, 1, "b", one), (1, 1, "a", one), (1, 1, "b", one)])
        assert activates_bidiverging(phase, bi_word("ab", "", "ab"), 0, 1)


def dense_heads_times_tails(aut, word, policy):
    """Two-sided verdicts by heads x tails on dense matrices from
    ``conftest.dense``: (i, f) is live when some head
    e_i . M(l[-e:]) . M(m), e in the left extents, times some tail
    M(r[:g]) . e_f, g in the right extents, is non-zero.  The exact extents
    are [d|l|, 2d|l|) x [d|r|, 2d|r|), d the states on a path from an
    initial to a final state; horizon:K takes [K/2, K] on both sides."""
    sr, n = aut.semiring, aut.num_states
    mats = {symbol: dense(aut, symbol) for symbol in aut.alphabet}
    identity = [[sr.one if i == j else sr.zero for j in range(n)] for i in range(n)]

    def times(x, y):
        return [[sr.sum(sr.mul(x[i][k], y[k][j]) for k in range(n)) for j in range(n)]
                for i in range(n)]

    def closure(seeds, step):
        seen, todo = set(seeds), list(seeds)
        while todo:
            s = todo.pop()
            for t in range(n):
                if t not in seen and any(not sr.is_zero(step(m, s, t)) for m in mats.values()):
                    seen.add(t)
                    todo.append(t)
        return seen

    d = len(closure(aut.initial_states(), lambda m, s, t: m[s][t])
            & closure(aut.final_states(), lambda m, s, t: m[t][s]))
    if policy.kind == "horizon":
        left = right = range(max(1, policy.horizon // 2), policy.horizon + 1)
    else:
        left, right = (range(d * len(side), 2 * d * len(side)) for side in (word.left, word.right))
    center = identity
    for symbol in word.center:
        center = times(center, mats[symbol])
    heads, tails, before, after = [], [], identity, identity
    for e in range(1, max(left.stop, right.stop)):
        before = times(mats[word.left[-e % len(word.left)]], before)  # M(l[-e:])
        after = times(after, mats[word.right[(e - 1) % len(word.right)]])  # M(r[:e])
        if e in left:
            heads.append(times(before, center))
        if e in right:
            tails.append(after)
    return {(i, f): any(not sr.is_zero(sr.sum(sr.mul(h[i][k], t[k][f]) for k in range(n)))
                        for h in heads for t in tails)
            for i in aut.initial_states() for f in aut.final_states()}


@pytest.mark.parametrize("make", [
    random_rational_automaton, random_gaussian_automaton, random_natural_automaton,
    lambda rng, **shape: as_boolean(random_natural_automaton(rng, **shape))],
    ids=["rational", "gaussian", "natural", "boolean"])
def test_two_sided_verdicts_match_dense_heads_times_tails(make):
    """The row walks of the heads along the right cycle give the verdicts
    of every head against every tail, on non-periodic and purely periodic
    words (where ``auto`` reads one head per phase), exactly and under
    horizon:K; every third automaton carries dead ends."""
    rng = random.Random(47)
    shapes = set()
    for k in range(16):
        aut = make(rng, max_states=6, density=0.35)
        if k % 3 == 2:
            aut = with_dead_ends(aut)
        if k % 2:
            word = random_bi_word(rng)
        else:
            cycle = [rng.choice("ab") for _ in range(rng.randint(1, 3))]
            word = bi_word(cycle, cycle[:rng.randint(0, len(cycle))], cycle)
        for policy in (AUTO, horizon(rng.randint(2, 9))):
            verdict = activation_verdicts(aut, word, policy).pairs
            assert verdict == dense_heads_times_tails(aut, word, policy), (k, word, policy)
            shapes.add((bool(least_period(word)), any(verdict.values())))
    assert shapes == {(True, True), (True, False), (False, True), (False, False)}


def test_bidiverging_shift_invariance():
    rng = random.Random(13)
    for _ in range(12):
        aut = random_natural_automaton(rng, max_states=3)
        word = random_bi_word(rng)
        behavior = BidivergingBehavior(aut, word)
        for k in (-5, -1, 2, 4):
            shifted = BidivergingBehavior(aut, word.shift_by(k))
            for i in (-3, 0, 2):
                for n in range(6):
                    assert behavior.at(i, n) == shifted.at(i + k, n)


def test_bidiverging_invariance_under_resplit():
    aut = random_natural_automaton(random.Random(3), max_states=3)
    one = bi_word("b", "", "a")
    # same two-way sequence, fatter representation
    two = bi_word("bb", "a", "aa")
    for i in aut.initial_states():
        for f in aut.final_states():
            assert activates_bidiverging(aut, one, i, f) == \
                activates_bidiverging(aut, two, i, f)
    lhs = BidivergingBehavior(aut, one)
    rhs = BidivergingBehavior(aut, two)
    for i in (-2, 0, 1):
        for n in range(6):
            assert lhs.at(i, n) == rhs.at(i, n)


def test_exact_refused_for_field_twosided_multisymbol():
    aut = Automaton.build(RATIONAL, AB, 1, {0: 1}, {0: 1},
                          [(0, 0, "a", Fraction(1, 2)), (0, 0, "b", 1)])
    word = bi_word("a", "", "b")
    # fields have an exact two-sided rule, so exact answers rather than refuses
    assert activates_bidiverging(aut, word, 0, 0, EXACT)
    assert activates_bidiverging(aut, word, 0, 0, EXACT) == \
        activates_bidiverging(aut, word, 0, 0, horizon(16))
    assert activation_verdicts(aut, word, EXACT).method == "ExactFieldLRS"
    assert activates_bidiverging(aut, word, 0, 0, AUTO)


def test_exact_singleton_field_twosided():
    single = Alphabet(("0",))
    aut = Automaton.build(GAUSSIAN, single, 2,
                          {0: gaussian(1)}, {1: gaussian(1)},
                          [(0, 0, "0", gaussian(1)), (0, 1, "0", gaussian(1)),
                           (1, 1, "0", gaussian(1))])
    word = BiInfiniteWord(single, ("0",), (), ("0",))
    assert activates_bidiverging(aut, word, 0, 1, EXACT)
    verdict = activation_verdicts(aut, word, EXACT)
    assert verdict.method == "ExactFieldLRS"


WEIGHTS = {
    BOOLEAN: [True],
    NATURAL: [1, 2, 3],
    RATIONAL: [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-2)],
    GAUSSIAN: [gaussian(1), gaussian(-1), gaussian(0, 1), gaussian(Fraction(1, 2), -1)],
}


@st.composite
def automata(draw, semirings=tuple(WEIGHTS), max_states=4):
    sr = draw(st.sampled_from(semirings))
    n = draw(st.integers(1, max_states))
    weight = st.sampled_from(WEIGHTS[sr])
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                    st.sampled_from("ab"), weight), max_size=3 * n))
    ends = st.dictionaries(st.integers(0, n - 1), weight, min_size=1)
    return Automaton.build(sr, AB, n, draw(ends), draw(ends), edges)


@st.composite
def automaton_and_word(draw):
    aut = draw(automata())
    block = st.lists(st.sampled_from("ab"), min_size=1, max_size=3).map(tuple)
    cycle = draw(block)
    shape = draw(st.sampled_from(["ray", "bi", "periodic", "marked"]))
    if shape == "ray":
        return aut, UPInfiniteWord(AB, draw(block) if draw(st.booleans()) else (), cycle)
    if shape == "bi":
        return aut, BiInfiniteWord(AB, draw(block), draw(block) if draw(st.booleans()) else (),
                                   cycle)
    if shape == "periodic":  # e.g. ( a b )^~w . a b . ( a b )^w
        return aut, BiInfiniteWord(AB, cycle, cycle, cycle)
    return aut, BiInfiniteWord(AB, cycle, ("b",), cycle)  # ( a b )^~w . b . ( a b )^w


@settings(max_examples=60, deadline=None)
@given(automaton_and_word())
def test_exact_verdicts_match_a_long_horizon(case):
    # with K = 4 (d m + p + 1) the horizon windows hold d consecutive
    # exponents >= d for every phase, where the exact rules decide
    aut, word = case
    if isinstance(word, UPInfiniteWord):
        longest, prefix = len(word.cycle), len(word.prefix)
    else:
        longest, prefix = max(len(word.left), len(word.right)), len(word.center)
    bound = 4 * (aut.num_states * longest + prefix + 1)
    exact = activation_verdicts(aut, word, EXACT)
    assert exact.method.startswith("Exact")
    assert exact.pairs == activation_verdicts(aut, word, horizon(bound)).pairs


def reach_oracle(aut, word, pairs):
    """Boolean/natural one-sided verdicts from the supports alone, on the
    product graph of states and phases in the cycle: (i, f) is live iff some
    path from (a state u leads i to, phase 0) meets a node on a cycle and
    then reaches (f, any phase), so that the prefixes reaching f are
    arbitrarily long."""
    p = len(word.cycle)
    succ = {(q, r): [(j, (r + 1) % p) for j, _ in aut.sparse_rows(word.cycle[r])[q]]
            for q in range(aut.num_states) for r in range(p)}

    def closure(seeds):
        seen, queue = set(seeds), list(seeds)
        while queue:
            for nxt in succ[queue.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return seen

    on_cycle = {node for node in succ if node in closure(succ[node])}
    verdicts = {}
    for i, f in pairs:
        states = {i}
        for symbol in word.prefix:
            states = {j for q in states for j, _ in aut.sparse_rows(symbol)[q]}
        pumped = closure(on_cycle & closure({(q, 0) for q in states}))
        verdicts[(i, f)] = any((f, r) in pumped for r in range(p))
    return verdicts


support_automata = automata((BOOLEAN, NATURAL), max_states=5)
blocks = st.lists(st.sampled_from("ab"), max_size=3).map(tuple)
cycles = st.lists(st.sampled_from("ab"), min_size=1, max_size=3).map(tuple)


@settings(max_examples=150, deadline=None)
@given(support_automata, blocks, cycles)
def test_boolean_and_natural_verdicts_match_a_support_graph_oracle(aut, prefix, cycle):
    word = UPInfiniteWord(AB, prefix, cycle)
    pairs = [(i, f) for i in range(aut.num_states) for f in range(aut.num_states)]
    verdict = activation_verdicts(aut, word, AUTO, pairs)
    assert verdict.pairs == reach_oracle(aut, word, pairs)


def as_rational(aut):
    """The same automaton with its Boolean or natural weights in Q."""
    return Automaton.build(RATIONAL, aut.alphabet, aut.num_states,
                           [Fraction(int(w)) for w in aut.initial],
                           [Fraction(int(w)) for w in aut.final],
                           [(i, j, s, Fraction(int(w))) for i, j, s, w in aut.edges()])


@settings(max_examples=150, deadline=None)
@given(support_automata, st.sampled_from(["one-sided", "periodic", "two-sided"]),
       blocks, cycles, cycles)
def test_boolean_and_natural_verdicts_are_those_of_the_rational_embedding(
        aut, shape, center, left, right):
    if shape == "one-sided":
        word = UPInfiniteWord(AB, center, right)
    elif shape == "periodic":  # e.g. ( a b )^~w . a b . ( a b )^w
        word = BiInfiniteWord(AB, right, right * (len(center) % 2), right * 2)
    else:
        word = BiInfiniteWord(AB, left, center, right)
    pairs = [(i, f) for i in range(aut.num_states) for f in range(aut.num_states)]
    verdict = activation_verdicts(aut, word, AUTO, pairs)
    rational = activation_verdicts(as_rational(aut), word, AUTO, pairs)
    assert rational.method == "ExactFieldLRS"
    assert verdict.method == ("ExactBooleanReach" if aut.semiring is BOOLEAN
                              else "ExactNaturalReduction")
    assert verdict.pairs == rational.pairs


class IntegersMod6(Semiring):
    """Cancels (2 + 4 = 0) and has zero divisors (2 * 3 = 0): not a field."""

    name = "z6"
    has_cancellation = True
    is_field = False
    zero = 0
    one = 1

    def add(self, a, b):
        return (a + b) % 6

    def mul(self, a, b):
        return a * b % 6

    def check(self, value):
        return value % 6


def test_refusal_for_cancelling_non_field_semiring():
    z6 = IntegersMod6()
    edges = [(0, 1, "a", 2), (1, 1, "a", 3), (1, 1, "b", 1)]
    ray, biword = up_word([], "a"), bi_word("a", "", "b")
    aut = Automaton.build(z6, AB, 2, {0: 1}, {1: 1}, edges)
    for word in (ray, biword):
        for policy in (AUTO, EXACT):
            with pytest.raises(UnsupportedExactDecision):
                activation_verdicts(aut, word, policy)
        assert activation_verdicts(aut, word, horizon(8)).method == "BoundedHorizon(8)"
    # along a^w the only path weighs 2 * 3^(n - 1), which is 0 for n >= 2
    assert activation_verdicts(aut, ray, horizon(8)).pairs == {(0, 1): False}
    # nothing to decide, nothing refused
    silent = Automaton.build(z6, AB, 2, {}, {1: 1}, edges)
    for word in (ray, biword):
        verdict = activation_verdicts(silent, word, EXACT)
        assert verdict.pairs == {} and verdict.method == "NoExactMethod"


def test_policy_parsing():
    assert ActivationPolicy.parse("auto") is AUTO
    assert ActivationPolicy.parse("exact") is EXACT
    assert ActivationPolicy.parse("horizon:64").horizon == 64
    assert horizon(2) == ActivationPolicy.parse("horizon:2") == ActivationPolicy("horizon", 2)
    with pytest.raises(ValueError):
        ActivationPolicy.parse("horizon:1")
    with pytest.raises(ValueError):
        ActivationPolicy.parse("sometimes")


def test_exact_is_the_auto_policy():
    assert EXACT is AUTO and AUTO.kind == "auto"
    assert ActivationPolicy.parse("exact").kind == "auto"


@pytest.mark.parametrize("text", ["horizon:abc", "horizon:", "horizon:1.5", "horizon"])
def test_policy_with_a_bad_bound_names_the_policy(text):
    with pytest.raises(ValueError) as err:
        ActivationPolicy.parse(text)
    assert str(err.value) == f"bad activation policy {text!r}"


@pytest.mark.parametrize("build, message", [
    (lambda: horizon(0), "horizon bound must be at least 2"),
    (lambda: horizon(-3), "horizon bound must be at least 2"),
    (lambda: horizon(1), "horizon bound must be at least 2"),
    (lambda: ActivationPolicy("horizon"), "horizon bound must be at least 2"),
    (lambda: ActivationPolicy("horizon", horizon=1), "horizon bound must be at least 2"),
    (lambda: ActivationPolicy("bogus"), "bad activation policy kind 'bogus'"),
    (lambda: ActivationPolicy("exact"), "bad activation policy kind 'exact'"),
    (lambda: horizon(2.5), "horizon bound must be an int, got 2.5"),
    (lambda: horizon(8.0), "horizon bound must be an int, got 8.0"),
    (lambda: horizon(True), "horizon bound must be an int, got True"),
    (lambda: ActivationPolicy("horizon", "8"), "horizon bound must be an int, got '8'"),
    (lambda: ActivationPolicy("auto", 0.0), "horizon bound must be an int, got 0.0"),
], ids=["horizon0", "horizon-3", "horizon1", "default-bound", "keyword-bound", "bogus", "exact",
        "float-bound", "integral-float-bound", "bool-bound", "str-bound", "auto-float-bound"])
def test_a_bad_policy_is_refused_however_it_is_built(build, message):
    """parse, horizon() and direct construction share one check: the kind
    is auto or horizon, and a horizon bound is an int, at least 2."""
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize("state", [-1, -4, 3, 99])
def test_a_state_outside_the_automaton_is_refused(state):
    """A requested state outside range(num_states) raises a ValueError
    that names it, on either word shape and through every entry point."""
    aut = parse_automaton((FIXTURES / "doubling.aut").read_text())
    assert aut.num_states == 3
    message = f"state {state} outside state range"
    for word, decide in ((up_word([], "ab"), activates_diverging),
                         (bi_word("ab", "", "ab"), activates_bidiverging)):
        for pair in ((0, state), (state, 2)):
            for policy in (AUTO, horizon(8)):
                with pytest.raises(ValueError) as err:
                    activation_verdicts(aut, word, policy, pairs=[(0, 2), pair])
                assert str(err.value) == message
                with pytest.raises(ValueError) as err:
                    decide(aut, word, *pair, policy)
                assert str(err.value) == message


def test_bidiverging_one_shot(figure_two):
    word = bi_word("ab", "", "ab")
    value = bidiverging_behavior(figure_two, word, 0, 3)
    context = BidivergingBehavior(figure_two, word)
    assert value == context.at(0, 3)


def test_empty_verdict_names_its_method():
    # no initial state, so no pair is decided and nothing is refused
    aut = Automaton.build(RATIONAL, AB, 2, {}, {1: 1},
                          [(0, 1, "a", 1), (1, 1, "b", 1)])
    onesided = activation_verdicts(aut, up_word([], "ab"))
    assert onesided.pairs == {} and onesided.method == "ExactFieldLRS"
    twosided = bi_word("a", "", "b")
    assert activation_verdicts(aut, twosided).method == "ExactFieldLRS"
    exact = activation_verdicts(aut, twosided, EXACT)
    assert exact.pairs == {} and exact.method == "ExactFieldLRS"
    assert activation_verdicts(aut, twosided, horizon(8)).method == "BoundedHorizon(8)"


# ---------------------------------------------------------------------------
# masked evaluator

def grouped_gadget():
    """Initial states 0 and 1 share their live final 3.  Initial state 2
    reaches 3 by two routes that cancel, plus a direct b-edge that is only
    non-zero on length-1 windows, so its pair is dead but not silent."""
    return Automaton.build(
        RATIONAL, AB, 6, {0: 2, 1: Fraction(-1, 3), 2: 5}, {3: Fraction(1, 2)},
        [(0, 0, "a", 1), (0, 0, "b", 1), (0, 3, "a", 1),
         (1, 1, "a", Fraction(1, 2)), (1, 1, "b", 2), (1, 3, "a", 3),
         (2, 4, "a", 1), (2, 5, "a", -1), (2, 3, "b", 7),
         (4, 4, "a", 1), (4, 4, "b", 1), (5, 5, "a", 1), (5, 5, "b", 1),
         (4, 3, "a", 1), (5, 3, "a", 1)])


def walked_table(aut, word, live, start, count):
    """For the lengths 0 .. count - 1 from ``start``: the sum over the live
    pairs of initial . dense row walk . final, in the semiring of ``aut``."""
    sr = aut.semiring
    size = aut.num_states
    mats = {symbol: dense(aut, symbol) for symbol in aut.alphabet}
    totals = [sr.zero] * count
    for i in dict.fromkeys(i for i, _ in live):  # one walk per live initial state
        row = [sr.one if s == i else sr.zero for s in range(size)]
        for n in range(count):
            for f in (f for j, f in live if j == i):
                totals[n] = sr.add(totals[n],
                                   sr.mul(sr.mul(aut.initial[i], row[f]), aut.final[f]))
            mat = mats[word.char_at(start + n)]
            row = [sr.sum(sr.mul(row[s], mat[s][t]) for s in range(size))
                   for t in range(size)]
    return totals


def masked_at(aut, word):
    """(behavior, at(i, n)) for either word shape; a one-sided word has the
    window start 0 only."""
    if isinstance(word, UPInfiniteWord):
        behavior = DivergingBehavior(aut, word)
        return behavior, lambda i, n: behavior.at(n)
    behavior = BidivergingBehavior(aut, word)
    return behavior, behavior.at


def test_masked_evaluator_matches_live_pair_walks():
    gadget = grouped_gadget()
    # two groups of one live pair each, on disjoint states
    apart = Automaton.build(NATURAL, AB, 4, {0: 1, 2: 3}, {1: 1, 3: 2},
                            [(i, i + 1, s, 1) for i in (0, 2) for s in "ab"]
                            + [(1, 1, "a", 1), (1, 1, "b", 2), (3, 3, "a", 3), (3, 3, "b", 1)])
    rng = random.Random(612)
    cases = [(gadget, up_word([], "ba")), (gadget, bi_word("ab", "b", "ba")),
             (apart, up_word("a", "ab")), (apart, bi_word("b", "a", "ab"))]
    makers = [random_rational_automaton, random_natural_automaton, random_gaussian_automaton,
              lambda rng, **shape: as_boolean(random_natural_automaton(rng, **shape))]
    for make in makers:
        for _ in range(6):
            aut = make(rng, max_states=6, density=0.3)
            cases += [(aut, random_up_word(rng)), (aut, random_bi_word(rng))]
    for aut, word in cases:
        starts = (0,) if isinstance(word, UPInfiniteWord) else (-2, 0, 3)
        queries = [(i, n) for i in starts for n in range(13)]
        ordered, at = masked_at(aut, word)
        table = [at(i, n) for i, n in queries]
        # shuffled, with repeats: cached values, steps forward and restarts
        shuffled = queries * 2
        rng.shuffle(shuffled)
        _, at = masked_at(aut, word)
        assert [at(i, n) for i, n in shuffled] == [table[queries.index(q)] for q in shuffled]
        live = [pair for pair, ok in ordered.verdict.pairs.items() if ok]
        if aut is gadget:
            assert live == [(0, 3), (1, 3)]
        if aut is apart:
            assert live == [(0, 1), (2, 3)]
        # the walks sum in Q, where natural and Boolean weights embed
        exact = aut if aut.semiring in (RATIONAL, GAUSSIAN) else as_rational(aut)
        walked = {i: walked_table(exact, word, live, i, 13) for i in starts}
        walked = [walked[i][n] for i, n in queries]
        if aut.semiring is BOOLEAN:
            walked = [value != 0 for value in walked]
        assert table == walked
    # the dead pair is masked out where it alone is non-zero
    assert converging_weight(gadget, finite("b")) == Fraction(35, 2)
    assert DivergingBehavior(gadget, up_word([], "ba")).at(1) == 0


def random_boolean_automaton(rng, **shape):
    return as_boolean(random_natural_automaton(rng, **shape))


@pytest.mark.parametrize("make", [random_natural_automaton, random_rational_automaton,
                                  random_gaussian_automaton, random_boolean_automaton],
                         ids=["natural", "rational", "gaussian", "boolean"])
def test_tables_read_from_the_recurrence_match_dense_walks(make):
    """Each window steps its rows until they are dependent (or, over the
    Booleans, repeat) at the phase points, and then steps the recurrence of
    the numerators.  Tables run past m + 3 (k + 1) p, read in order and then
    shuffled with repeats (restarts), and equal the dense walks in the
    automaton's own semiring."""
    rng = random.Random(2110)
    for k in range(8):
        aut = make(rng, max_states=4, density=0.6)
        if k % 2:
            aut = with_dead_ends(aut)
        for word in (random_up_word(rng), random_bi_word(rng)):
            behavior, at = masked_at(aut, word)
            live = [pair for pair, ok in behavior.verdict.pairs.items() if ok]
            for start in ((0,) if isinstance(word, UPInfiniteWord) else (-3, 1)):
                tail = slice_word(word, start, None)
                m, p = len(tail.prefix), len(tail.cycle)
                table = [at(start, 0)]
                while behavior._windows[start, False]._rows is not None:  # stepping rows
                    table.append(at(start, len(table)))
                switch = len(table) - 1  # a phase point, m + k p or later
                assert switch >= m and (switch - m) % p == 0
                count = switch + 2 * (switch - m) + 3 * p + 1
                table += [at(start, n) for n in range(len(table), count)]
                assert table == walked_table(aut, word, live, start, count)
                shuffled = rng.sample(range(count), min(count, 30)) * 2
                rng.shuffle(shuffled)
                _, again = masked_at(aut, word)
                assert [again(start, n) for n in shuffled] == [table[n] for n in shuffled]
            if isinstance(word, BiInfiniteWord):  # a start far left costs no more
                far = -10 ** 9
                assert [at(far, n) for n in range(4)] == walked_table(aut, word, live, far, 4)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([random_natural_automaton, random_rational_automaton,
                        random_gaussian_automaton, random_boolean_automaton]),
       st.integers(0, 2 ** 32 - 1), st.booleans(), st.booleans())
def test_text_read_is_the_formatted_value(make, seed, padded, two_sided):
    """The text read has windows of its own, which over the naturals step
    the recurrence in decimal integers once found.  Read past the switch, in
    order and then shuffled with repeats (restarts), it is the formatted
    value."""
    rng = random.Random(seed)
    aut = make(rng, max_states=4, density=0.6)
    if padded:
        aut = with_dead_ends(aut)
    word = random_bi_word(rng) if two_sided else random_up_word(rng)
    sr = aut.semiring
    for start in ((-3, 1) if two_sided else (0,)):
        behavior, at = masked_at(aut, word)
        tail = slice_word(word, start, None)
        m, p = len(tail.prefix), len(tail.cycle)
        at(start, 0)
        switch = 0
        while behavior._windows[start, False]._rows is not None:
            switch += 1
            at(start, switch)
        count = switch + 2 * (switch - m) + 3 * p + 1
        expected = [sr.format(at(start, n)) for n in range(count)]
        assert [behavior._text(start, n) for n in range(count)] == expected
        window = behavior._windows[start, sr is NATURAL]
        assert window._rows is None
        assert isinstance(window._kept[-1][0][0], Decimal) == (sr is NATURAL)
        shuffled = rng.sample(range(count), min(count, 30)) * 2
        rng.shuffle(shuffled)
        again, _ = masked_at(aut, word)
        assert [again._text(start, n) for n in shuffled] == [expected[n] for n in shuffled]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([random_natural_automaton, random_rational_automaton,
                        random_gaussian_automaton, random_boolean_automaton]),
       st.integers(0, 2 ** 32 - 1), st.booleans(), st.booleans())
def test_far_reads_jump_to_the_values_read_in_order(make, seed, padded, two_sided):
    """A read more than the kept lengths ahead jumps along the recurrence
    (over the Booleans, along the repeat).  Values and texts read at far
    lengths in shuffled order, then below the kept span (which restarts the
    window), equal the values read in order and the dense walk."""
    rng = random.Random(seed)
    aut = make(rng, max_states=4, density=0.6)
    if padded:
        aut = with_dead_ends(aut)
    word = random_bi_word(rng) if two_sided else random_up_word(rng)
    sr, count = aut.semiring, 240
    jumps = []
    jump = activation._Window._jump

    def counted(window, periods):
        jumps.append(periods)
        jump(window, periods)
    for start in ((-3, 1) if two_sided else (0,)):
        ordered, at = masked_at(aut, word)
        table = [at(start, n) for n in range(count)]
        live = [pair for pair, ok in ordered.verdict.pairs.items() if ok]
        assert table == walked_table(aut, word, live, start, count)
        far = rng.sample(range(count // 2, count), 8) + [rng.randrange(count // 8)]
        with mock.patch.object(activation._Window, "_jump", counted):
            behavior, at = masked_at(aut, word)
            assert [at(start, n) for n in far] == [table[n] for n in far]
            assert [behavior._text(start, n) for n in far] == [sr.format(table[n]) for n in far]
    assert jumps


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([random_natural_automaton, random_rational_automaton,
                        random_gaussian_automaton, random_boolean_automaton]),
       st.integers(0, 2 ** 32 - 1), st.booleans(), st.booleans())
def test_value_and_text_reads_share_one_window_per_start(make, seed, padded, two_sided):
    """One behavior answers value and text reads interleaved: in order,
    shuffled with repeats, below the kept span (a restart) and far ahead
    (a jump).  Each value is the dense walk's and each text is its format.
    Both reads step one window per start, except over the naturals, where
    the text read keeps a second on the decimal carrier."""
    rng = random.Random(seed)
    aut = make(rng, max_states=4, density=0.6)
    if padded:
        aut = with_dead_ends(aut)
    word = random_bi_word(rng) if two_sided else random_up_word(rng)
    sr, count = aut.semiring, 160
    behavior, at = masked_at(aut, word)
    live = [pair for pair, ok in behavior.verdict.pairs.items() if ok]
    starts = (-3, 1) if two_sided else (0,)
    for start in starts:
        table = walked_table(aut, word, live, start, count)
        shuffled = rng.sample(range(count // 2), 20) * 2
        rng.shuffle(shuffled)
        far = sorted(rng.sample(range(count // 2, count), 4))
        for n in [*range(count // 2), *shuffled, 0, 1, *far]:
            reads = [lambda: at(start, n) == table[n],
                     lambda: behavior._text(start, n) == sr.format(table[n])]
            rng.shuffle(reads)
            assert all(read() for read in reads), (start, n)
    carriers = {False, sr is NATURAL}
    assert sorted(behavior._windows) == sorted((start, c) for start in starts for c in carriers)


def test_a_long_read_keeps_no_value_alive():
    """A window keeps the numerators of its last few lengths, not the
    values it has read: after reading 2^n on ( a b )^w to n = 4,000 and
    dropping the values, less than 64 KiB stays allocated."""
    aut = parse_automaton((FIXTURES / "doubling.aut").read_text())
    behavior = DivergingBehavior(aut, up_word([], "ab"))
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for n in range(4001):
            behavior.at(n)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 64 * 1024


@pytest.mark.parametrize("make", [random_natural_automaton, random_rational_automaton,
                                  random_gaussian_automaton, random_boolean_automaton],
                         ids=["natural", "rational", "gaussian", "boolean"])
def test_the_jump_reach_is_the_kept_span_or_a_period(make):
    """Once a window has dropped its rows it reaches max(kept span, p): a
    read exactly that many lengths ahead steps there, and a read one length
    further jumps once.  Both read the dense walk's value.  In every
    semiring a two-cycle on ( a )^w keeps two lengths, more than its
    period, and a dead pair on ( a b )^w keeps one, less than its period
    (over the Booleans, whose repeat has a lag of at least a period, two)."""
    rng = random.Random(2605)
    sr = make(rng).semiring
    cases = [(Automaton.build(sr, AB, 2, {0: sr.one}, {0: sr.one},
                              [(0, 1, "a", sr.one), (1, 0, "a", sr.one)]), up_word([], "a"), 0),
             (Automaton.build(sr, AB, 1, {0: sr.one}, {0: sr.one}), up_word([], "ab"), 0)]
    while len(cases) < 10:
        aut = make(rng, max_states=4, density=0.6)
        word, start = ((random_bi_word(rng), rng.randint(-3, 3)) if len(cases) % 2 else
                       (random_up_word(rng), 0))
        if any(masked_at(aut, word)[0].verdict.pairs.values()):
            cases.append((aut, word, start))
    jumps, jump, spans = [], activation._Window._jump, []

    def counted(window, periods):
        jumps.append(periods)
        jump(window, periods)
    for aut, word, start in cases:
        for ahead in (0, 1):
            behavior, at = masked_at(aut, word)
            at(start, 0)
            window = behavior._windows[start, False]
            while window._rows is not None:
                at(start, window._position + 1)
            spans.append((len(window._kept), window._period))
            n = window._position + max(len(window._kept), window._period) + ahead
            live = [pair for pair, ok in behavior.verdict.pairs.items() if ok]
            jumps.clear()
            with mock.patch.object(activation._Window, "_jump", counted):
                assert at(start, n) == walked_table(aut, word, live, start, n + 1)[n]
            assert len(jumps) == ahead
    assert spans[:4] == [(2, 1)] * 2 + [(2 if sr is BOOLEAN else 1, 2)] * 2


def test_a_far_read_steps_the_recurrence_a_bounded_number_of_times():
    """On ( a b )^w the doubling automaton's values are 0 at even n and 2^n
    at odd n: a read at n jumps there from the switch and then steps fewer
    than a period, over the naturals and, along the repeat, the Booleans."""
    aut = parse_automaton((FIXTURES / "doubling.aut").read_text())
    step, steps = activation._Window._step, []

    def counted(window):
        steps.append(window._rows is None)
        step(window)
    for n in (10 ** 3, 10 ** 4 + 1, 10 ** 5, 10 ** 5 + 3):
        for automaton, value in ((aut, 2 ** n if n % 2 else 0), (as_boolean(aut), n % 2 == 1)):
            behavior = DivergingBehavior(automaton, up_word([], "ab"))
            steps.clear()
            with mock.patch.object(activation._Window, "_step", counted):
                assert behavior.at(n) == value
                text = behavior._text(0, n)  # 2^n has more digits than str(int) writes
                assert (text == BOOLEAN.format(value)) if isinstance(value, bool) else (Decimal(text) == value)
            assert sum(steps) <= 4


def test_text_read_is_exact_whatever_the_callers_decimal_context(figure_two):
    """The decimal steps run in an exact context of their own: with the
    caller's precision at 5 digits a table of 2^4001 is exact, and the
    caller's context keeps its settings and raises no flag."""
    with localcontext() as context:
        context.prec = 5
        before = repr(context)
        behavior = DivergingBehavior(figure_two, up_word([], "ab"))
        table = [behavior._text(0, n) for n in range(4002)]
        assert getcontext() is context and repr(context) == before
    assert table == [str(2 ** n) if n % 2 else "0" for n in range(4002)]


def test_a_zero_of_the_decimal_recurrence_is_written_0():
    """t(n) = -2 t(n - 1) on a kept zero: -2 times +0 is -0, which a sum
    started at -0 would keep.  The jump's coefficients come as ints."""
    combine = activation._decimal_combination
    assert [str(t) for t in combine([Decimal(-2)], [[Decimal(0)]])] == ["0"]
    assert [str(t) for t in combine([-2, 3], [[Decimal(0)], [Decimal(0)]])] == ["0"]
    assert combine([-2, 3], [[Decimal(6)], [Decimal(5)]]) == [Decimal(3)]


def test_out_of_order_queries_match_ascending_table(figure_two):
    ray = up_word("b", "ab")
    mixed = DivergingBehavior(figure_two, ray)
    got = [mixed.at(n) for n in (9, 3, 9, 0, 12, 5)]
    fresh = DivergingBehavior(figure_two, ray)
    table = [fresh.at(n) for n in range(13)]
    assert got == [table[n] for n in (9, 3, 9, 0, 12, 5)]

    word = bi_word("ab", "b", "ab")
    queries = [(2, 9), (-1, 3), (2, 3), (0, 9), (-1, 9), (2, 9), (0, 0)]
    mixed = BidivergingBehavior(figure_two, word)
    got = [mixed.at(i, n) for i, n in queries]
    tables = {}
    for i in (2, -1, 0):
        fresh = BidivergingBehavior(figure_two, word)
        tables[i] = [fresh.at(i, n) for n in range(10)]
    assert got == [tables[i][n] for i, n in queries]


def test_negative_window_length_raises(figure_two):
    one = DivergingBehavior(figure_two, up_word([], "ab"))
    assert one.at(5) == 32
    with pytest.raises(IndexError):
        one.at(-1)
    two = BidivergingBehavior(figure_two, bi_word("ab", "", "ab"))
    two.at(0, 5)
    with pytest.raises(IndexError):
        two.at(0, -1)


def test_sequence_and_grid_views_read_the_masked_values(figure_two):
    ray, biword = up_word("b", "ab"), bi_word("ab", "a", "ba")
    one = DivergingBehavior(figure_two, ray)
    sequence = one.sequence()
    assert sequence.semiring is NATURAL
    assert sequence.prefix(9) == [one.at(n) for n in range(9)] == \
        [0, 0, 4, 0, 16, 0, 64, 0, 256]
    assert sequence.at(4) == diverging_behavior(figure_two, ray, 4)
    two = BidivergingBehavior(figure_two, biword)
    grid = two.grid()
    assert grid.semiring is NATURAL
    for i in (-3, 0, 2):
        for n in range(6):
            assert grid.at(i, n) == two.at(i, n) == bidiverging_behavior(figure_two, biword, i, n)
    assert [grid.at(0, n) for n in range(6)] == [0, 2, 0, 8, 0, 32]
    with pytest.raises(IndexError):
        sequence.at(-1)
    with pytest.raises(IndexError):
        grid.at(0, -1)
