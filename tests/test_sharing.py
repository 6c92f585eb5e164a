"""Expressions read from files are shared DAGs.

The reader builds each distinct subexpression once.  These tests read
seeded random expressions and expressions with planted repeats back from
their text, and check that sharing changes only how an expression is held:
the parsed expression equals its source, holds one node per distinct
subterm, and gives the same oracle values and compiled automata as a
fresh, unshared copy of it.
"""
import random
from fractions import Fraction
from pathlib import Path

import pytest

from divaut.activation import AUTO, horizon
from divaut.fileformat import (
    format_automaton,
    format_expression_file,
    parse_automaton,
    parse_expression_file,
)
from divaut.kleene import compile_bidiv, compile_conv, compile_div, extract_div
from divaut.semiring import BOOLEAN, GAUSSIAN, NATURAL, RATIONAL, gaussian
from divaut.series import (
    Atom,
    BidivSeries,
    Cat,
    Conjoin2,
    Conjoin3,
    DivSeries,
    Omega,
    Scale,
    Star,
    Sum,
    Zeta,
    _post_order,
    conv_coeff,
)

from conftest import (
    AB,
    bi_word,
    finite,
    random_bidiv_expr,
    random_conv_expr,
    random_div_expr,
    up_word,
)
from test_numbering import EXPR, GOLDEN

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
SEMIRINGS = [BOOLEAN, NATURAL, RATIONAL, GAUSSIAN]
COEFF = {BOOLEAN: True, NATURAL: 2, RATIONAL: Fraction(-1, 2), GAUSSIAN: gaussian(1, -1)}
COMPILE = {"conv": compile_conv, "div": compile_div, "bidiv": compile_bidiv}
UP, BI = up_word("ba", "ab"), bi_word("ab", "ba", "a")


def planted(sr, level):
    """An expression whose subterms repeat, in which two products differ
    only in the order of their operands and two atoms only in their
    symbol."""
    c = COEFF[sr]
    a, b = Atom("a", c), Atom("b", c)
    ab, ba = Cat(a, b), Cat(b, a)
    return {"conv": Sum((ab, Star(ba), Scale(c, Sum((a, b)), c), Sum((b, a)))),
            "div": Sum((Conjoin2(ab, ba), Omega(Sum((ab, ba))),
                        Scale(c, Omega(Sum((ba, ab))), c))),
            "bidiv": Sum((Conjoin3(ab, ba, ab), Zeta(Sum((a, b, ab)))))}[level]


def seeded(sr, level, seed):
    rng = random.Random(f"{sr.name}:{level}:{seed}")
    if level == "conv":
        return random_conv_expr(rng, sr, 3, proper=False)
    return {"div": random_div_expr, "bidiv": random_bidiv_expr}[level](rng, sr, 3)


CASES = [(sr, level, seed) for sr in SEMIRINGS for level in ("conv", "div", "bidiv")
         for seed in ("planted", 0, 1, 2, 3)]
IDS = [f"{sr.name}-{level}-{seed}" for sr, level, seed in CASES]


def source(sr, level, seed):
    return planted(sr, level) if seed == "planted" else seeded(sr, level, seed)


def read_back(sr, e):
    return parse_expression_file(format_expression_file(sr, AB, e)).expr


def occurrences(root):
    """Every node under ``root``, once per occurrence."""
    out, stack = [], [root]
    while stack:
        node = stack.pop()
        out.append(node)
        for name, kind in node._fields.items():
            value = getattr(node, name)
            if kind == "Expr":
                stack.append(value)
            elif kind == "tuple":
                stack.extend(value)
    return out


def structural_keys(root):
    """The set of distinct subterms under ``root``, each keyed by its class,
    its operands' keys in order, its symbol and (type, value) of each
    coefficient."""
    keys = {}  # id(node) -> key; the nodes stay alive under root

    def key(node):
        if id(node) not in keys:
            parts = []
            for name, kind in node._fields.items():
                value = getattr(node, name)
                parts.append(key(value) if kind == "Expr" else
                             tuple(map(key, value)) if kind == "tuple" else
                             value if kind == "str" else (type(value), value))
            keys[id(node)] = (type(node), *parts)
        return keys[id(node)]

    return {key(node) for node in occurrences(root)}


def unshared(node):
    """A copy of ``node`` with a fresh object for every occurrence."""
    args = []
    for name, kind in node._fields.items():
        value = getattr(node, name)
        args.append(unshared(value) if kind == "Expr" else
                    tuple(map(unshared, value)) if kind == "tuple" else value)
    return type(node)(*args)


@pytest.mark.parametrize("sr, level, seed", CASES, ids=IDS)
def test_a_parsed_expression_holds_each_distinct_subterm_once(sr, level, seed):
    e = source(sr, level, seed)
    parsed = read_back(sr, e)
    assert parsed == e
    assert len(_post_order(parsed)) == len(structural_keys(parsed))
    if seed == "planted":
        assert len(_post_order(parsed)) < len(occurrences(parsed))


@pytest.mark.parametrize("sr, level, seed", CASES, ids=IDS)
def test_a_shared_expression_evaluates_and_compiles_as_its_tree(sr, level, seed):
    parsed = read_back(sr, source(sr, level, seed))
    tree = unshared(parsed)
    assert len(_post_order(tree)) == len(occurrences(tree))
    assert tree == parsed
    assert (format_automaton(COMPILE[level](sr, AB, parsed))
            == format_automaton(COMPILE[level](sr, AB, tree)))
    if level == "conv":
        for symbols in ("", "a", "ab", "ba", "abba", "babab"):
            word = finite(symbols)
            assert conv_coeff(sr, parsed, word) == conv_coeff(sr, tree, word)
        return
    for chi in (AUTO, horizon(8)):
        if level == "div":
            shared, fresh = DivSeries(sr, parsed, UP, chi), DivSeries(sr, tree, UP, chi)
            assert [shared.at(n) for n in range(8)] == [fresh.at(n) for n in range(8)]
        else:
            shared, fresh = BidivSeries(sr, parsed, BI, chi), BidivSeries(sr, tree, BI, chi)
            assert ([shared.at(i, n) for i in (-2, 0, 1) for n in range(6)]
                    == [fresh.at(i, n) for i in (-2, 0, 1) for n in range(6)])


def test_an_extracted_expression_reads_back_shared():
    """The div expression of fixtures/cancelling.aut repeats its subterms:
    read back, it holds 40 nodes for its 148 occurrences."""
    e = extract_div(parse_automaton((FIXTURES / "cancelling.aut").read_text()))
    parsed = read_back(RATIONAL, e)
    assert parsed == e
    assert (len(_post_order(parsed)), len(occurrences(parsed))) == (40, 148)
    assert len(structural_keys(parsed)) == 40
    tree = unshared(parsed)
    assert format_automaton(compile_div(RATIONAL, AB, parsed)) == format_automaton(
        compile_div(RATIONAL, AB, tree))


def test_compiling_a_read_expression_keeps_the_pinned_numbering():
    """Positions are numbered per occurrence, so compiling the shared DAG
    gives the pinned automaton; a repeated atom takes a position per
    occurrence."""
    golden = (GOLDEN / "compile_conv.txt").read_text()
    assert format_automaton(compile_conv(NATURAL, AB, read_back(NATURAL, EXPR))) == golden
    twice = read_back(NATURAL, Cat(Atom("a", 1), Atom("a", 1)))
    assert twice.left is twice.right
    assert compile_conv(NATURAL, AB, twice).num_states == 3
