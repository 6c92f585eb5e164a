"""Integer rows against Fraction rows.

Over the rationals and the Gaussian rationals every row walk runs on the
lifted automaton: integer numerators under one denominator, reduced once per
value.  These tests recompute tables, verdicts and word weights with
Fraction / GaussianRational rows, stepped by ``advance_row`` on the
automaton itself, and ask for the same values, and the same printed bytes.
"""
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import divaut
from divaut import activation, automaton, cli, fileformat, kleene, quantum, semiring, series
from divaut import words
from divaut.activation import (
    AUTO,
    BidivergingBehavior,
    DivergingBehavior,
    activation_verdicts,
    horizon,
)
from divaut.automaton import Automaton, advance_row, converging_weight, dot
from divaut.semiring import BOOLEAN, GAUSSIAN, NATURAL, RATIONAL, gaussian
from divaut.words import UPInfiniteWord

from conftest import (
    AB,
    bi_word,
    enumerate_path_weight,
    least_period,
    random_finite_word,
    random_gaussian,
    random_gaussian_automaton,
    random_natural_automaton,
    random_rational_automaton,
    random_bi_word,
    random_up_word,
    up_word,
    with_dead_ends,
)

MERSENNE = 2 ** 61 - 1
FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def random_automaton(rng, sr):
    """Up to 3 states, plus for the fields one twin state whose paths cancel
    the original's exactly and one edge over 2^61 - 1."""
    if sr in (BOOLEAN, NATURAL):
        aut = random_natural_automaton(rng, max_states=3, density=0.6)
        if sr is NATURAL:
            return aut
        return Automaton.build(BOOLEAN, AB, aut.num_states,
                               {i: True for i in aut.initial_states()},
                               {f: True for f in aut.final_states()},
                               [(i, j, s, True) for i, j, s, _ in aut.edges()])
    make, weight = ((random_rational_automaton, lambda: Fraction(rng.randint(-3, 3), 4))
                    if sr is RATIONAL else (random_gaussian_automaton, lambda: random_gaussian(rng)))
    aut = make(rng, max_states=3, density=0.6)
    n = aut.num_states
    edges = list(aut.edges())
    # twin: state n copies state j's way out, entered with -w where j gets w
    j, i = rng.randrange(n), rng.randrange(n)
    edges += [(n, k, s, w) for src, k, s, w in aut.edges() if src == j]
    w, s = weight() or sr.one, rng.choice("ab")
    edges += [(i, j, s, w), (i, n, s, -w)]
    edges.append((rng.randrange(n), rng.randrange(n), rng.choice("ab"),
                  sr.mul(sr.check(rng.choice([1, -1, 2])), sr.check(Fraction(1, MERSENNE)))))
    final = dict(enumerate(aut.final))
    final[n] = aut.final[j]
    return Automaton.build(sr, AB, n + 1, dict(enumerate(aut.initial)), final, edges)


def random_word(rng, shape):
    if shape == "one-sided":
        return random_up_word(rng)
    if shape == "two-sided":
        return random_bi_word(rng)
    cycle = [rng.choice("ab") for _ in range(rng.randint(1, 3))]
    return bi_word(cycle, cycle, cycle)  # purely periodic


# ---------------------------------------------------------------------------
# the reference: Fraction rows on the automaton as given

def unit(aut, state):
    sr = aut.semiring
    return tuple(sr.one if s == state else sr.zero for s in range(aut.num_states))


def walk(aut, row, symbols):
    for symbol in symbols:
        row = advance_row(aut, row, symbol)
    return row


def nonzero(aut, row):
    return {f for f, value in enumerate(row) if not aut.semiring.is_zero(value)}


def one_sided_live(aut, word, start, lo, hi):
    row, live = unit(aut, start), set()
    for n in range(hi):
        if n >= lo:
            live |= nonzero(aut, row)
        row = advance_row(aut, row, word.char_at(n))
    return live


def reference_live(aut, word, policy, start):
    """The end states that the window rules find live from ``start``."""
    d = aut.num_states
    bound = policy.horizon if policy.kind == "horizon" else None
    if isinstance(word, UPInfiniteWord):
        lo = bound // 2 + 1 if bound else len(word.prefix) + d * len(word.cycle)
        hi = bound + 1 if bound else lo + d * len(word.cycle)
        return one_sided_live(aut, word, start, lo, hi)
    period = 0 if bound else least_period(word)
    if period:  # the one-sided window [d p, 2 d p) on each rotation of the period
        rotations = [UPInfiniteWord(word.alphabet, (),
                                    tuple(word.char_at(r + k) for k in range(period)))
                     for r in range(period)]
        return set().union(*(one_sided_live(aut, ray, start, d * period, 2 * d * period)
                             for ray in rotations))
    left, right = word.left, word.right
    lefts = range(max(1, bound // 2), bound + 1) if bound else \
        range(d * len(left), 2 * d * len(left))
    rights = lefts if bound else range(d * len(right), 2 * d * len(right))
    live = set()
    for e in lefts:
        row = walk(aut, unit(aut, start),
                   [left[(k - e) % len(left)] for k in range(e)] + list(word.center))
        for g in range(rights.stop):
            if g in rights:
                live |= nonzero(aut, row)
            row = advance_row(aut, row, right[g % len(right)])
    return live


def reference_pairs(aut, word, policy):
    live = {i: reference_live(aut, word, policy, i) for i in aut.initial_states()}
    return {(i, f): f in live[i] for i in aut.initial_states() for f in aut.final_states()}


def reference_value(aut, pairs, word, start, n):
    sr = aut.semiring
    total = sr.zero
    for i in aut.initial_states():
        row = walk(aut, unit(aut, i), [word.char_at(start + k) for k in range(n)])
        for f in aut.final_states():
            if pairs[(i, f)]:
                total = sr.add(total, sr.mul(sr.mul(aut.initial[i], row[f]), aut.final[f]))
    return total


def same(sr, got, want):
    return got == want and sr.format(got) == sr.format(want)


SEMIRINGS = [BOOLEAN, NATURAL, RATIONAL, GAUSSIAN]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from(SEMIRINGS),
       st.sampled_from(["one-sided", "two-sided", "periodic"]), st.integers(2, 12))
def test_integer_rows_match_fraction_rows(seed, sr, shape, bound):
    rng = random.Random(seed)
    aut = random_automaton(rng, sr)
    word = random_word(rng, shape)
    pairs = reference_pairs(aut, word, AUTO)
    assert activation_verdicts(aut, word, AUTO).pairs == pairs
    assert activation_verdicts(aut, word, horizon(bound)).pairs == \
        reference_pairs(aut, word, horizon(bound))
    if isinstance(word, UPInfiniteWord):
        behavior = DivergingBehavior(aut, word)
        got = [(0, n, behavior.at(n)) for n in range(10)]
    else:
        behavior = BidivergingBehavior(aut, word)
        got = [(i, n, behavior.at(i, n)) for i in (-2, 0, 3) for n in range(8)]
    for i, n, value in got:
        assert same(sr, value, reference_value(aut, pairs, word, i, n)), (i, n)
    for _ in range(3):
        finite = random_finite_word(rng, max_len=8)
        want = dot(sr, walk(aut, aut.initial, finite), aut.final)
        assert same(sr, converging_weight(aut, finite), want)
    short = random_finite_word(rng, max_len=3)
    assert same(sr, converging_weight(aut, short), enumerate_path_weight(aut, short))


def test_each_symbol_has_its_own_scale():
    aut = Automaton.build(RATIONAL, AB, 2, {0: Fraction(1, 3)}, {1: Fraction(3, 4)},
                          [(0, 1, "a", Fraction(1, MERSENNE)), (1, 0, "b", Fraction(-2, 3)),
                           (1, 1, "a", Fraction(1, 2))])
    lifted, scales, end_scale, ends = aut._lifted()
    assert (scales, end_scale) == ({"a": 2 * MERSENNE, "b": 3}, 3 * 4)
    assert lifted.semiring is RATIONAL._integers
    assert ends == [lifted.final] == [(0, 3)]
    assert sorted(lifted.edges()) == [(0, 1, "a", 2), (1, 0, "b", -2), (1, 1, "a", MERSENNE)]
    word = up_word("", "ab")
    behavior = DivergingBehavior(aut, word)
    assert [behavior.at(n) for n in range(6)] == \
        [reference_value(aut, {(0, 1): True}, word, 0, n) for n in range(6)]
    natural = random_natural_automaton(random.Random(1))
    assert natural._lifted() == (natural, dict.fromkeys(AB, 1), 1, [natural.final])


def test_gaussian_rows_lift_to_pairs_of_integer_rows():
    """State k lifts to entries 2k (real part) and 2k + 1 (imaginary part);
    a + bi to the block [[a, b], [-b, a]] without its zeros."""
    aut = Automaton.build(GAUSSIAN, AB, 2, {0: gaussian(Fraction(1, 2), 1)},
                          {1: gaussian(0, Fraction(-1, 3))},
                          [(0, 1, "a", gaussian(1, Fraction(-1, 2))), (1, 0, "b", gaussian(2)),
                           (1, 1, "a", gaussian(0, Fraction(1, 4)))])
    lifted, scales, end_scale, ends = aut._lifted()
    assert lifted.semiring is RATIONAL._integers and lifted.num_states == 4
    assert scales == {"a": 4, "b": 1} and end_scale == 2 * 3
    assert lifted.initial == (1, 2, 0, 0)
    assert ends == [(0, 0, 0, 1), (0, 0, -1, 0)]
    assert sorted(lifted.edges()) == [
        (0, 2, "a", 4), (0, 3, "a", -2), (1, 2, "a", 2), (1, 3, "a", 4),
        (2, 0, "b", 2), (2, 3, "a", 1), (3, 1, "b", 2), (3, 2, "a", -1)]
    for symbols in ("a", "ab", "aa", "aab", "abaa"):
        finite = words.FiniteWord(AB, tuple(symbols))
        assert converging_weight(aut, finite) == enumerate_path_weight(aut, finite)


# ---------------------------------------------------------------------------
# the benchmark counts rows through the module bindings of advance_row

@pytest.fixture
def row_counter(monkeypatch):
    """The automata advance_row is called on, recorded by patching every
    binding of it in divaut's modules, as the benchmark's tracer does."""
    original = automaton.advance_row
    calls = []

    def counted(aut, row, symbol):
        calls.append(aut)
        return original(aut, row, symbol)

    for module in (divaut, activation, automaton, cli, fileformat, kleene, quantum,
                   semiring, series, words):
        for key, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, key, counted)
    return calls


GAUSSIAN_FILE = """semiring: gaussian
alphabet: [a, b]
states: [p, q]
initial: {p: 1/2+1i}
final: {q: -1/3i}
transitions: [
  {from: p, to: q, symbol: a, weight: 1-1/2i},
  {from: q, to: p, symbol: b, weight: 2/3},
  {from: q, to: q, symbol: a, weight: 1/4i},
]
"""


@pytest.mark.parametrize("sr", [RATIONAL, GAUSSIAN], ids=lambda sr: sr.name)
def test_field_tables_step_through_advance_row(row_counter, tmp_path, capsys, sr):
    path = FIXTURES / "cancelling.aut"
    if sr is GAUSSIAN:
        path = tmp_path / "g.aut"
        path.write_text(GAUSSIAN_FILE)
    rows = 60
    assert cli.main(["eval", str(path), "--word", "( a b )^w", "--n-max", str(rows - 1)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == rows
    assert all(aut.semiring is sr._integers for aut in row_counter)
    # here the window steps its rows at most m + (stack length + 1) p times,
    # m = 0 and p = 2, and reads the rest of the table from their recurrence
    behavior = DivergingBehavior(fileformat.parse_automaton(path.read_text()),
                                 words.parse_word("( a b )^w", AB))
    row_counter.clear()
    assert [behavior.at(n) for n in range(rows)]
    groups = len(behavior._starts)
    stack = groups * behavior._lift.num_states
    assert 0 < len(row_counter) <= groups * (stack + 1) * 2 < rows
    assert all(aut.semiring is sr._integers for aut in row_counter)


def test_advance_row_still_takes_fraction_rows():
    aut = Automaton.build(RATIONAL, AB, 2, {0: 1}, {1: 1},
                          [(0, 1, "a", Fraction(1, 2)), (0, 0, "a", Fraction(-2, 3))])
    assert advance_row(aut, (Fraction(3), Fraction(1, 5)), "a") == \
        (Fraction(-2), Fraction(3, 2))
    assert advance_row(aut, (Fraction(3), Fraction(1, 5)), "b") == (0, 0)


def test_exact_gaussian_decision_walks_the_gaussian_window(row_counter):
    """A one-sided exact Q(i) decision steps each start row at most
    |u| + 2d|v| - 1 times, d the Q(i) state count, on integer rows of 2d
    entries.  Every state lies on a path from a start to the end (0 -> 1 -> 2),
    but only prefixes a* b+ a reach the end, so nothing here is live and
    every row walks its whole window."""
    aut = Automaton.build(GAUSSIAN, AB, 3, {0: 1, 1: gaussian(0, 1)}, {2: gaussian(1, 1)},
                          [(0, 0, "a", gaussian(0, 1)), (1, 1, "b", gaussian(1, -1)),
                           (0, 1, "b", 1), (1, 2, "a", gaussian(1, 1))])
    word = up_word("ba", "ab")
    assert activation_verdicts(aut, word).pairs == {(0, 2): False, (1, 2): False}
    d, u, v = aut.num_states, 2, 2
    assert len(row_counter) == 2 * (u + 2 * d * v - 1)
    assert all(lifted.semiring is RATIONAL._integers and lifted.num_states == 2 * d
               for lifted in row_counter)
    # a live pair ends the walk at the window's first position, although the
    # imaginary-part column of its real values stays zero
    row_counter.clear()
    real = Automaton.build(GAUSSIAN, AB, 1, {0: 1}, {0: 2}, [(0, 0, "a", 1), (0, 0, "b", -1)])
    assert activation_verdicts(real, word).pairs == {(0, 0): True}
    assert len(row_counter) == u + v  # |u| + d|v| with d = 1


@pytest.mark.parametrize("sr", [BOOLEAN, RATIONAL], ids=lambda sr: sr.name)
def test_the_window_counts_only_states_on_a_start_to_end_path(row_counter, sr):
    """Five dead states pad a three-state core in which nothing is live: each
    start row steps exactly |u| + 2d|v| - 1 times, with d = 3 the states on a
    path from a start to an end, not the eight states of the automaton, on
    the automaton restricted to those d states."""
    w = (lambda x: True) if sr is BOOLEAN else Fraction
    core = [(0, 0, "a", w(2)), (1, 1, "b", w(-1)), (0, 1, "b", w(1)), (1, 2, "a", w(3))]
    dead = [(0, 3, "a", w(1)), (3, 3, "b", w(1)),  # reached, never reaches the end
            (4, 2, "a", w(1)), (4, 4, "a", w(1)),  # reaches the end, never reached
            (5, 6, "a", w(1)), (6, 5, "b", w(1)), (7, 7, "b", w(1))]  # neither
    aut = Automaton.build(sr, AB, 8, {0: w(1), 1: w(1)}, {2: w(1)}, core + dead)
    word = up_word("ba", "ab")
    verdict = activation_verdicts(aut, word)
    assert verdict.pairs == {(0, 2): False, (1, 2): False}
    assert verdict.method == ("ExactBooleanReach" if sr is BOOLEAN else "ExactFieldLRS")
    d, u, v = 3, 2, 2
    assert len(row_counter) == 2 * (u + 2 * d * v - 1)
    assert all(walked.num_states == d for walked in row_counter)
    # with no start-to-end path at all nothing is walked
    row_counter.clear()
    cut = Automaton.build(sr, AB, 8, {0: w(1), 1: w(1)}, {2: w(1)}, core[:3] + dead)
    assert activation_verdicts(cut, word).pairs == {(0, 2): False, (1, 2): False}
    assert activation_verdicts(cut, bi_word("ab", "b", "a")).pairs == \
        {(0, 2): False, (1, 2): False}
    assert row_counter == []


def test_a_start_off_every_path_steps_no_head(row_counter):
    """On a two-sided word that is not periodic, the heads of each start row
    are stepped along the left cycle.  An initial state with no edges lies
    on no path to an end, so its row is zero on the states walked: it is
    dead without a walk, and adding it steps no extra row."""
    core = [(0, 0, "a", Fraction(1, 2)), (0, 0, "b", Fraction(2)),
            (0, 1, "b", Fraction(-1)), (1, 1, "a", Fraction(3))]
    word = bi_word("ab", "b", "a")
    assert least_period(word) == 0
    live = Automaton.build(RATIONAL, AB, 2, {0: 1}, {1: 1}, core)
    assert activation_verdicts(live, word).pairs == {(0, 1): True}
    steps = len(row_counter)
    assert steps > 0
    row_counter.clear()
    padded = Automaton.build(RATIONAL, AB, 3, {0: 1, 2: 1}, {1: 1}, core)
    assert activation_verdicts(padded, word).pairs == {(0, 1): True, (2, 1): False}
    assert len(row_counter) == steps


def a_then_b_automaton(sr, live):
    """Starts 0 and 1, end 2, on states 0 -a-> 0, 0 -a-> 1, 1 -b-> 1,
    1 -a-> 2 and 2 -a-> 2: every state is on a path to the end.  From 0,
    a^e reaches (1, 1, e - 1) over the naturals, from 1 (0, 0, 1).  With
    ``live`` the end also loops on b."""
    one = sr.one
    edges = [(0, 0, "a", one), (0, 1, "a", one), (1, 1, "b", one), (1, 2, "a", one),
             (2, 2, "a", one)] + [(2, 2, "b", one)] * live
    return Automaton.build(sr, AB, 3, {0: one, 1: one}, {2: one}, edges)


@pytest.mark.parametrize("sr", [BOOLEAN, NATURAL, RATIONAL, GAUSSIAN], ids=lambda sr: sr.name)
def test_two_sided_walks_each_head_along_the_right_cycle(row_counter, sr):
    """On ( a )^~w . ( b )^w, with d = 3, each start row steps its heads
    along the left cycle (2d - 1 = 5 steps, the extents e in [3, 6)) and
    walks them along the right cycle over the lengths [3, 6).  No window
    a^e b^g with g >= 1 ends in state 2 unless it loops on b.  Dead: a walk
    steps 2d - 1 = 5 times; over the Booleans and the naturals the heads
    of a row are summed and walked once, over a field each distinct head
    of row 0 (three) and row 1 (one) walks.  Live: the first head of each
    row is live at length 3, so a field decision steps its heads only up
    to e = 3 and walks 3 steps, and a sum still steps every head."""
    word = bi_word("a", "", "b")
    assert least_period(word) == 0
    summed = not sr.has_cancellation
    dead = activation_verdicts(a_then_b_automaton(sr, live=False), word)
    assert dead.pairs == {(0, 2): False, (1, 2): False}
    assert len(row_counter) == 2 * 5 + (2 if summed else 3 + 1) * 5
    row_counter.clear()
    live = activation_verdicts(a_then_b_automaton(sr, live=True), word)
    assert live.pairs == {(0, 2): True, (1, 2): True}
    assert len(row_counter) == 2 * ((5 if summed else 3) + 3)


def phase_automaton(sr, via, twin, weight):
    """Start 0 with loops a (2) and b (3), end 3 with loops a and b (1), and
    0 -a-> 1 (1), 0 -a-> 2 (``twin``), 1 -``via``-> 3 (``weight``),
    2 -``via``-> 3 (1): all four states lie on a path from 0 to 3.  With
    twin = -1 and weight = 1 the two routes into 3 cancel."""
    w = (lambda x: x != 0) if sr is BOOLEAN else (lambda x: x)
    edges = [(0, 0, "a", 2), (0, 0, "b", 3), (0, 1, "a", 1), (0, 2, "a", twin),
             (1, 3, via, weight), (2, 3, via, 1), (3, 3, "a", 1), (3, 3, "b", 1)]
    return Automaton.build(sr, AB, 4, {0: w(1)}, {3: w(1)},
                           [(i, j, s, w(x)) for i, j, s, x in edges])


@pytest.mark.parametrize("word", [bi_word("ab", "", "ab"),
                                  bi_word("abab", "aba", "ba").shift_by(3)],
                         ids=["bare", "centered"])
@pytest.mark.parametrize("sr", SEMIRINGS, ids=lambda sr: sr.name)
def test_a_periodic_word_walks_one_head_per_phase(row_counter, sr, word):
    """A purely periodic word of least period p = 2 is read as its shift
    v^~w . v^w, v = r[:p], whatever its center and origin.  With d = 4 a
    start row steps one head per start phase, e in [0, p), which costs
    p (p - 1) / 2 steps, and walks heads along the right cycle over the
    lengths [d p, 2 d p).  Dead: over the Booleans and the naturals the
    heads are summed and walked once (2 d p - 1 steps), over a field each
    of the p distinct heads walks.  Live: a field decision walks its first
    head d p steps and steps no other, a sum still steps every head.  The
    naturals are walked on Boolean rows."""
    p, d = 2, 4
    assert least_period(word) == p and len(word.left) % p == 0
    heads = p * (p - 1) // 2
    summed = not sr.has_cancellation
    walked = BOOLEAN if summed else sr._integers
    dead = phase_automaton(sr, *(("a", 1, 1) if summed else ("b", -1, 1)))
    verdict = activation_verdicts(dead, word)
    assert verdict.pairs == {(0, 3): False}
    assert verdict.pairs == reference_pairs(dead, word, AUTO)
    assert len(row_counter) == heads + (1 if summed else p) * (2 * d * p - 1)
    assert all(aut.semiring is walked and aut.num_states == (2 if sr is GAUSSIAN else 1) * d
               for aut in row_counter)
    row_counter.clear()
    live = phase_automaton(sr, "b", *((1, 1) if summed else (-1, 2)))
    verdict = activation_verdicts(live, word)
    assert verdict.pairs == {(0, 3): True}
    assert verdict.pairs == reference_pairs(live, word, AUTO)
    method = {BOOLEAN: "ExactBooleanReach", NATURAL: "ExactNaturalReduction"}
    assert verdict.method == method.get(sr, "ExactFieldLRS")
    assert len(row_counter) == (heads if summed else 0) + d * p
    assert all(aut.semiring is walked for aut in row_counter)


def random_periodic_word(rng):
    """A purely periodic l^~w m r^w: l is k copies of a cycle c, m a prefix
    of c^3, r the rotation of c that follows m, and the origin shifted."""
    cycle = [rng.choice("ab") for _ in range(rng.randint(1, 3))]
    j = rng.randint(0, 2 * len(cycle))
    rotated = cycle[j % len(cycle):] + cycle[:j % len(cycle)]
    return bi_word(cycle * rng.randint(1, 3), (cycle * 3)[:j],
                   rotated * rng.randint(1, 2)).shift_by(rng.randint(-3, 3))


@pytest.mark.parametrize("sr", SEMIRINGS, ids=lambda sr: sr.name)
def test_periodic_verdicts_match_the_rotation_reference(sr):
    """512 decisions per semiring, half of them on automata padded with dead
    ends: on purely periodic words the heads route gives the verdicts of
    the one-sided window [d p, 2 d p) on each rotation of the period
    (``reference_live``), and under horizon:K those of every extent pair."""
    rng = random.Random(2026)
    shapes = set()
    for k in range(256):
        aut = random_automaton(rng, sr)
        if k % 2:
            aut = with_dead_ends(aut)
        word = random_periodic_word(rng)
        assert least_period(word)
        for policy in (AUTO, horizon(rng.randint(2, 12))):
            verdict = activation_verdicts(aut, word, policy).pairs
            assert verdict == reference_pairs(aut, word, policy), (k, word, policy)
            shapes.add((policy.kind, any(verdict.values())))
    assert len(shapes) == 4


# state 0 is initial, its loops on a and b weigh 1 and its final weight is i:
# every window sums to i, whose real part is 0
IMAGINARY = Automaton.build(GAUSSIAN, AB, 2, {0: 1}, {0: gaussian(0, 1), 1: gaussian(0, -2)},
                            [(0, 0, "a", 1), (0, 0, "b", 1), (1, 1, "a", gaussian(0, 1))])


@pytest.mark.parametrize("word", [up_word("b", "ab"), up_word("", "a"),
                                  bi_word("a", "b", "ab"), bi_word("ab", "", "ab"),
                                  bi_word("a", "", "b")],
                         ids=["one-sided", "cycle", "two-sided", "periodic", "no-center"])
def test_a_purely_imaginary_window_is_live(word):
    """A kernel that tests only the real-part column finds every pair dead."""
    verdict = activation_verdicts(IMAGINARY, word)
    assert verdict.pairs == {(0, 0): True, (0, 1): False}
    assert verdict.pairs == reference_pairs(IMAGINARY, word, AUTO)
    if isinstance(word, UPInfiniteWord):
        assert [DivergingBehavior(IMAGINARY, word).at(n) for n in range(4)] == \
            [gaussian(0, 1)] * 4
    else:
        assert [BidivergingBehavior(IMAGINARY, word).at(i, 3) for i in (-2, 0, 1)] == \
            [gaussian(0, 1)] * 3
    finite = words.FiniteWord(AB, ("a", "b"))
    assert converging_weight(IMAGINARY, finite) == gaussian(0, 1)
    # as an expression's tester is decided: one start row, one end vector
    ends = {0: gaussian(0, 1), 1: gaussian(0, -2)}
    assert activation._decide(IMAGINARY, word, AUTO, [{0: gaussian(1)}], [ends]) == \
        ("ExactFieldLRS", [{0}])
