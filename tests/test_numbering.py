"""Golden outputs of the structural constructions.

The bytes of every written ``.aut`` file depend on how a construction
numbers its states, so these tests pin that numbering: each construction is
run on small fixed inputs whose endpoints are not the first or last states
(the compiler on one expression that uses every converging node), and its
formatted output is compared with a file under ``tests/golden``.
Multi-part results are written one part after another, each under a
``# part k`` comment line.
"""
from fractions import Fraction
from pathlib import Path

import pytest

from divaut.automaton import (
    Automaton,
    WeightedSumDecomposition,
    conjoin2,
    conjoin3,
    decompose_bidiverging,
    decompose_diverging,
    disjoin2,
    disjoin3,
    roll,
    sum_automata,
)
from divaut.fileformat import format_automaton
from divaut.kleene import compile_conv
from divaut.quantum import SPIN, SPIN_ENDO, apply_transducer, compose_transducers
from divaut.semiring import GAUSSIAN, NATURAL, RATIONAL, gaussian
from divaut.series import Atom, Cat, Scale, Star, Sum

from conftest import AB

GOLDEN = Path(__file__).parent / "golden"

# normalized, initial state 1 and final state 0
X = Automaton.build(NATURAL, AB, 3, {1: 1}, {0: 1},
                    [(1, 2, "a", 2), (2, 2, "b", 3), (2, 0, "a", 1), (1, 0, "b", 1)])
# normalized, initial state 0 and final state 3
Y = Automaton.build(NATURAL, AB, 4, {0: 1}, {3: 1},
                    [(0, 1, "a", 1), (1, 2, "b", 2), (2, 1, "a", 1), (2, 3, "b", 1),
                     (0, 3, "a", 3)])
# normalized, initial state 2 and final state 0
M = Automaton.build(NATURAL, AB, 4, {2: 1}, {0: 1},
                    [(2, 1, "a", 1), (1, 3, "b", 2), (3, 1, "a", 1), (3, 0, "b", 1),
                     (2, 0, "a", 4)])
# loopback-with-prelude: initial state 3, final state 1
PRELUDE = Automaton.build(NATURAL, AB, 4, {3: 1}, {1: 1},
                          [(3, 0, "a", 1), (0, 1, "b", 2), (1, 2, "a", 1), (2, 1, "b", 1),
                           (2, 0, "a", 3)])
# bridge: initial state 1, final state 2
BRIDGE = Automaton.build(NATURAL, AB, 4, {1: 1}, {2: 1},
                         [(1, 0, "a", 1), (0, 1, "b", 1), (0, 2, "a", 2), (2, 3, "b", 1),
                          (3, 2, "a", 1), (3, 1, "b", 3)])
# general, named states: one diagonal pair (s, s) and three off-diagonal ones
MIXED = Automaton.build(RATIONAL, AB, 3, {0: Fraction(1, 2), 2: 2},
                        {0: 3, 1: Fraction(-1, 3)},
                        [(0, 1, "a", 1), (1, 0, "b", Fraction(2, 3)), (1, 2, "a", 1),
                         (2, 0, "b", 5), (2, 2, "a", Fraction(1, 4))],
                        state_names=("s", "t", "u"))

# operator over the spin endomorphisms (no dn->up edge): initial state 1,
# final states 2 and 0
OP = Automaton.build(GAUSSIAN, SPIN_ENDO, 3, {1: gaussian(1, 2)},
                     {2: gaussian(1), 0: gaussian(0, -1)},
                     [(1, 0, "up->dn", gaussian(Fraction(1, 2))),
                      (0, 2, "dn->dn", gaussian(0, 1)),
                      (1, 2, "up->up", gaussian(-1)),
                      (2, 2, "up->up", gaussian(1, 1)),
                      (0, 0, "dn->dn", gaussian(3))])
# operator with a dn->up edge and no dn->dn edge: initial state 1, final state 0
INNER = Automaton.build(GAUSSIAN, SPIN_ENDO, 2, {1: gaussian(1)}, {0: gaussian(2, -1)},
                        [(1, 0, "dn->up", gaussian(0, 1)),
                         (1, 1, "up->dn", gaussian(Fraction(-1, 3))),
                         (0, 0, "up->up", gaussian(2)),
                         (0, 1, "dn->up", gaussian(1, -1))])
# spin state: initial state 1, final states 0 and 1
KET = Automaton.build(GAUSSIAN, SPIN, 2, {1: gaussian(2, -1)},
                      {0: gaussian(Fraction(1, 3)), 1: gaussian(0, 1)},
                      [(1, 0, "up", gaussian(1, 1)), (0, 0, "dn", gaussian(-2)),
                       (0, 1, "up", gaussian(1)), (1, 1, "dn", gaussian(0, 3))])
# every converging node: 2 (a3 (a1 + b2)*) 5 + (b1 a4)*
EXPR = Sum((Scale(2, Cat(Atom("a", 3), Star(Sum((Atom("a", 1), Atom("b", 2))))), 5),
            Star(Cat(Atom("b", 1), Atom("a", 4)))))

CONSTRUCTIONS = {
    "compile_conv": lambda: compile_conv(NATURAL, AB, EXPR),
    "apply_transducer": lambda: apply_transducer(OP, KET),
    "compose_transducers": lambda: compose_transducers(OP, INNER),
    "roll": lambda: roll(X),
    "conjoin2": lambda: conjoin2(X, Y),
    "conjoin3": lambda: conjoin3(X, M, Y),
    "disjoin2": lambda: disjoin2(PRELUDE),
    "disjoin3": lambda: disjoin3(BRIDGE),
    "decompose_diverging": lambda: decompose_diverging(MIXED),
    "decompose_bidiverging": lambda: decompose_bidiverging(MIXED),
    "sum3": lambda: sum_automata(X, M, Y),
}


def render(result) -> str:
    if isinstance(result, Automaton):
        return format_automaton(result)
    if isinstance(result, WeightedSumDecomposition):
        sr = MIXED.semiring
        return "".join(f"# part {k}: left {sr.format(left)}, right {sr.format(right)}\n"
                       + format_automaton(part)
                       for k, (left, part, right) in enumerate(result.parts))
    return "".join(f"# part {k}\n" + format_automaton(part)
                   for k, part in enumerate(result))


@pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
def test_construction_output_is_pinned(name):
    assert render(CONSTRUCTIONS[name]()) == (GOLDEN / f"{name}.txt").read_text()
