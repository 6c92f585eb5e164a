import itertools
from fractions import Fraction

import pytest

from divaut.automaton import Automaton
from divaut.semiring import BOOLEAN, GAUSSIAN, NATURAL, RATIONAL, gaussian
from divaut.series import Atom, Cat, Conjoin2, Conjoin3, Omega, Scale, Star, Sum, Zeta
from divaut.words import (
    Alphabet,
    BiInfiniteWord,
    FiniteWord,
    UPInfiniteWord,
    require_same_alphabet,
)

AB = Alphabet(("a", "b"))


@pytest.fixture
def ab():
    return AB


@pytest.fixture
def figure_one():
    """Boolean two-state acceptor for words with exactly one b."""
    return Automaton.build(
        BOOLEAN, AB, 2, {0: True}, {1: True},
        [(0, 0, "a", True), (0, 1, "b", True), (1, 1, "a", True)],
        state_names=("q1", "q2"))


@pytest.fixture
def figure_two():
    """Natural three-state automaton with exponential alternating weights."""
    return Automaton.build(
        NATURAL, AB, 3, {0: 1, 1: 2}, {2: 2},
        [(0, 1, "a", 2), (0, 2, "a", 1), (1, 0, "b", 1), (2, 0, "b", 2)],
        state_names=("q1", "q2", "q3"))


@pytest.fixture
def figure_three():
    """Natural three-state automaton: counts a-jumps, powers of 3 on b-runs."""
    return Automaton.build(
        NATURAL, AB, 3, {1: 1, 2: 3}, {0: 1},
        [(0, 0, "a", 1), (1, 0, "a", 1), (1, 1, "a", 1),
         (2, 0, "b", 1), (2, 2, "b", 3)],
        state_names=("q1", "q2", "q3"))


def finite(symbols, alphabet=AB):
    return FiniteWord(alphabet, tuple(symbols))


def up_word(prefix, cycle, alphabet=AB):
    return UPInfiniteWord(alphabet, tuple(prefix), tuple(cycle))


def bi_word(left, center, right, alphabet=AB):
    return BiInfiniteWord(alphabet, tuple(left), tuple(center), tuple(right))


def least_period(word: BiInfiniteWord) -> int:
    """The least period of a purely periodic biinfinite word, else 0.  Such
    a period divides |l|, and p is a period iff the letters p apart agree
    over two left periods before the center, the center and one right
    period after it (every pair of positions p apart is one of those up to
    the periods of l and r)."""
    n = len(word.left)
    span = range(word.origin - 2 * n, word.origin + len(word.center) + len(word.right))
    return next((p for p in range(1, n + 1)
                 if all(word.char_at(i) == word.char_at(i + p) for i in span)), 0)


def dense(aut: Automaton, symbol):
    """Dense matrix of one symbol, filled from ``aut.edges()`` alone, so the
    oracles below never call the evaluation code they check."""
    sr = aut.semiring
    mat = [[sr.zero] * aut.num_states for _ in range(aut.num_states)]
    for i, j, x, w in aut.edges():
        if x == symbol:
            mat[i][j] = w
    return tuple(map(tuple, mat))


def enumerate_path_weight(aut: Automaton, word: FiniteWord):
    """Brute-force oracle: sum over every state sequence of the product of
    initial weight, transition weights, and final weight.  Exponential; only
    for cross-checking the matrix-product evaluation.  Zero is absorbing, so
    a sequence stops being multiplied once its running product is zero."""
    require_same_alphabet(aut.alphabet, word.alphabet)
    sr = aut.semiring
    total = sr.zero
    states = range(aut.num_states)
    mats = {symbol: dense(aut, symbol) for symbol in set(word)}
    for path in itertools.product(states, repeat=len(word) + 1):
        w = aut.initial[path[0]]
        for i, symbol in enumerate(word):
            if sr.is_zero(w):
                break
            w = sr.mul(w, mats[symbol][path[i]][path[i + 1]])
        else:
            total = sr.add(total, sr.mul(w, aut.final[path[-1]]))
    return total


# ---------------------------------------------------------------------------
# random generators (deterministic seeds; tests pass their own Random)

def random_fraction(rng, allow_zero=True):
    num = rng.randint(-3, 3)
    if not allow_zero and num == 0:
        num = 1
    return Fraction(num, rng.randint(1, 3))


def random_gaussian(rng):
    """A Gaussian rational with small parts; half of them are real."""
    imag = random_fraction(rng) if rng.random() < 0.5 else 0
    return gaussian(random_fraction(rng), imag)


def _random_automaton(rng, sr, edge_weight, end_weight, max_states, alphabet, density):
    n = rng.randint(1, max_states)
    edges = []
    for symbol in alphabet.symbols:
        for i in range(n):
            for j in range(n):
                if rng.random() < density:
                    edges.append((i, j, symbol, edge_weight()))
    initial = {i: end_weight() for i in range(n) if rng.random() < 0.7}
    final = {i: end_weight() for i in range(n) if rng.random() < 0.7}
    return Automaton.build(sr, alphabet, n, initial, final, edges)


def random_rational_automaton(rng, max_states=4, alphabet=AB, density=0.4):
    weight = lambda: random_fraction(rng)
    return _random_automaton(rng, RATIONAL, weight, weight, max_states, alphabet, density)


def random_gaussian_automaton(rng, max_states=4, alphabet=AB, density=0.4):
    weight = lambda: random_gaussian(rng)
    return _random_automaton(rng, GAUSSIAN, weight, weight, max_states, alphabet, density)


def random_field_automaton(rng, sr, denominators, max_states=4, alphabet=AB, density=0.6):
    """A RATIONAL or GAUSSIAN automaton whose weights have numerators in
    [-3, 3] over ``denominators``; over Q(i) real, pure imaginary and mixed
    alike."""
    def part():
        return Fraction(rng.randint(-3, 3), rng.choice(denominators))

    def weight():
        if sr is RATIONAL:
            return part()
        return gaussian(*rng.choice([(part(), part()), (0, part()), (part(), 0)]))
    return _random_automaton(rng, sr, weight, weight, max_states, alphabet, density)


def random_natural_automaton(rng, max_states=4, alphabet=AB, density=0.4):
    return _random_automaton(rng, NATURAL, lambda: rng.randint(1, 3),
                             lambda: rng.randint(1, 2), max_states, alphabet, density)


def as_boolean(aut):
    """The same automaton with its natural weights mapped to their support."""
    return Automaton.build(BOOLEAN, aut.alphabet, aut.num_states,
                           [bool(w) for w in aut.initial], [bool(w) for w in aut.final],
                           [(i, j, s, bool(w)) for i, j, s, w in aut.edges()])


def with_dead_ends(aut):
    """``aut`` with two more states off every path from a start to an end: an
    initial state reached from state 0 that reaches no final state, and a
    final state that reaches state 0 and is never reached."""
    sr, n = aut.semiring, aut.num_states
    edges = list(aut.edges()) + [(0, n, "a", sr.one), (n, n, "b", sr.one),
                                 (n + 1, 0, "b", sr.one)]
    return Automaton.build(sr, aut.alphabet, n + 2, list(aut.initial) + [sr.one, sr.zero],
                           list(aut.final) + [sr.zero, sr.one], edges)


def random_finite_word(rng, max_len=8, alphabet=AB):
    return finite([rng.choice(alphabet.symbols)
                   for _ in range(rng.randint(0, max_len))], alphabet)


def random_up_word(rng, alphabet=AB, max_prefix=3, max_cycle=3):
    prefix = [rng.choice(alphabet.symbols) for _ in range(rng.randint(0, max_prefix))]
    cycle = [rng.choice(alphabet.symbols) for _ in range(rng.randint(1, max_cycle))]
    return up_word(prefix, cycle, alphabet)


def random_bi_word(rng, alphabet=AB, max_center=2, max_cycle=3):
    left = [rng.choice(alphabet.symbols) for _ in range(rng.randint(1, max_cycle))]
    center = [rng.choice(alphabet.symbols) for _ in range(rng.randint(0, max_center))]
    right = [rng.choice(alphabet.symbols) for _ in range(rng.randint(1, max_cycle))]
    return bi_word(left, center, right, alphabet)


def random_conv_expr(rng, sr, depth, alphabet=AB, proper=True):
    """Random converging expression; with proper=True the result is proper."""
    def coeff():
        if sr is NATURAL:
            return rng.randint(0, 3)
        if sr is BOOLEAN:
            return rng.random() < 0.8
        if sr is GAUSSIAN:
            return random_gaussian(rng)
        return random_fraction(rng)

    def atom():
        return Atom(rng.choice(alphabet.symbols), coeff())

    if depth <= 0:
        return atom()
    roll = rng.random()
    if roll < 0.3:
        return Sum(tuple(random_conv_expr(rng, sr, depth - 1, alphabet, proper)
                         for _ in range(rng.randint(1, 2))))
    if roll < 0.6:
        left_proper = rng.random() < 0.5 if not proper else True
        return Cat(random_conv_expr(rng, sr, depth - 1, alphabet, left_proper),
                   random_conv_expr(rng, sr, depth - 1, alphabet,
                                    proper and not left_proper))
    if roll < 0.75 and not proper:
        return Star(random_conv_expr(rng, sr, depth - 1, alphabet, True))
    if roll < 0.9:
        return Scale(coeff(), random_conv_expr(rng, sr, depth - 1, alphabet, proper),
                     coeff())
    return atom()


def random_div_expr(rng, sr, depth, alphabet=AB):
    if depth <= 0 or rng.random() < 0.4:
        inner_depth = max(0, depth - 1)
        if rng.random() < 0.5:
            return Omega(random_conv_expr(rng, sr, inner_depth, alphabet, True))
        return Conjoin2(random_conv_expr(rng, sr, inner_depth, alphabet, True),
                        random_conv_expr(rng, sr, inner_depth, alphabet, True))
    if rng.random() < 0.5:
        return Sum(tuple(random_div_expr(rng, sr, depth - 1, alphabet)
                         for _ in range(rng.randint(1, 2))))
    if sr is NATURAL:
        left, right = rng.randint(0, 2), rng.randint(0, 2)
    elif sr is BOOLEAN:
        left, right = True, rng.random() < 0.9
    else:
        left, right = random_fraction(rng), random_fraction(rng)
    return Scale(left, random_div_expr(rng, sr, depth - 1, alphabet), right)


def random_bidiv_expr(rng, sr, depth, alphabet=AB):
    if depth <= 0 or rng.random() < 0.4:
        inner_depth = max(0, depth - 1)
        if rng.random() < 0.5:
            return Zeta(random_conv_expr(rng, sr, inner_depth, alphabet, True))
        return Conjoin3(random_conv_expr(rng, sr, inner_depth, alphabet, True),
                        random_conv_expr(rng, sr, inner_depth, alphabet, True),
                        random_conv_expr(rng, sr, inner_depth, alphabet, True))
    if rng.random() < 0.5:
        return Sum(tuple(random_bidiv_expr(rng, sr, depth - 1, alphabet)
                         for _ in range(rng.randint(1, 2))))
    if sr is NATURAL:
        left, right = rng.randint(0, 2), rng.randint(0, 2)
    elif sr is BOOLEAN:
        left, right = True, rng.random() < 0.9
    else:
        left, right = random_fraction(rng), random_fraction(rng)
    return Scale(left, random_bidiv_expr(rng, sr, depth - 1, alphabet), right)
