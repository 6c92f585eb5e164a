import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from divaut.automaton import Automaton
from divaut.cli import main
from divaut.errors import DivautParseError
from divaut.fileformat import (
    detect_kind,
    format_automaton,
    format_expression_file,
    parse_automaton,
    parse_expression_file,
)
from divaut.semiring import BOOLEAN, GAUSSIAN, NATURAL, RATIONAL, gaussian
from divaut.series import Atom, Omega
from divaut.words import Alphabet

from conftest import AB, random_bidiv_expr, random_conv_expr, random_div_expr

SRC = Path(__file__).resolve().parents[1] / "src"

AUTOMATON = """\
semiring: natural
alphabet: [a, b]
states: [q1, q2]
initial: {q1: 1, q2: 2}
final: {q2: 3}
transitions: [
  {from: q1, to: q2, symbol: a, weight: 2},
  {from: q2, to: q1, symbol: b},
]
"""

EXPRESSION = """\
semiring: natural
alphabet: [a, b]
expr: sum(omega(sym(a, 1)), scale(2, conjoin(cat(sym(b, 1), sym(a, 3)), sym(a, 1)), 1))
"""


def _limit_memory():
    """Caps the child's address space at 1 GiB, so that a tokenizer that
    stalls while its token list grows fails fast instead of filling memory."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# white space and comments

@pytest.mark.parametrize("space", ["\v", "\f", "\u00a0"], ids=["vt", "ff", "nbsp"])
@pytest.mark.parametrize("kind", ["aut", "expr"])
def test_every_white_space_character_separates_tokens(tmp_path, capsys, space, kind):
    """Run as a child with a time limit: a tokenizer that stalls on a white
    space character fails here instead of hanging the suite."""
    text = AUTOMATON if kind == "aut" else EXPRESSION
    plain = tmp_path / f"plain.{kind}"
    plain.write_text(text)
    argv = ["eval", "--word", "( a b )^w", "--n-max", "3"]
    code, expected, _ = run(capsys, *argv, str(plain))
    assert code == 0 and expected.count("\n") == 4
    spaced = tmp_path / f"spaced.{kind}"
    spaced.write_text(text.replace(" ", space, 3).replace("\n", space + "\n", 2))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    result = subprocess.run([sys.executable, "-m", "divaut", *argv, str(spaced)],
                            env=env, capture_output=True, text=True, timeout=20,
                            preexec_fn=_limit_memory if os.name == "posix" else None)
    assert (result.returncode, result.stdout, result.stderr) == (0, expected, "")


def test_tokens_carry_line_and_column():
    from divaut.fileformat import tokenize

    tokens = list(tokenize("a: [b,\tc] # note [x]\n\tsym(d)"))
    assert [(t.text, t.line, t.column, t.is_word) for t in tokens] == [
        ("a", 1, 1, True), (":", 1, 2, False), ("[", 1, 4, False),
        ("b", 1, 5, True), (",", 1, 6, False), ("c", 1, 8, True),
        ("]", 1, 9, False), ("sym", 2, 2, True), ("(", 2, 5, False),
        ("d", 2, 6, True), (")", 2, 7, False)]


def test_end_of_input_error_points_at_the_end():
    with pytest.raises(DivautParseError) as err:
        parse_automaton("semiring: natural\nalphabet: [a]\nstates: [x\n")
    assert (err.value.line, err.value.column) == (4, 1)
    with pytest.raises(DivautParseError) as err:
        parse_expression_file("semiring: natural\nalphabet: [a]\nexpr: sym(a,")
    assert (err.value.line, err.value.column) == (3, 13)


# ---------------------------------------------------------------------------
# section keys

def test_symbol_named_expr_in_an_automaton(tmp_path, capsys):
    f = tmp_path / "keyword.aut"
    f.write_text("semiring: natural\nalphabet: [expr, b]\nstates: [q]\n"
                 "initial: {q: 1}\nfinal: {q: 1}\n"
                 "transitions: [{from: q, to: q, symbol: expr, weight: 2}]\n")
    assert detect_kind(f.read_text()) == "automaton"
    code, out, err = run(capsys, "eval", str(f), "--word", "expr expr expr")
    assert (code, out, err) == (0, "8\n", "")


def test_symbol_named_states_in_an_expression_file(tmp_path, capsys):
    f = tmp_path / "keyword.expr"
    f.write_text("semiring: natural\nalphabet: [a, states]\n"
                 "expr: omega(sum(sym(a, 1), sym(states, 2)))\n")
    assert detect_kind(f.read_text()) == "expression"
    code, out, err = run(capsys, "eval", str(f), "--word", "( a states )^w",
                         "--n-max", "3")
    assert (code, out, err) == (0, "0\t1\n1\t1\n2\t2\n3\t2\n", "")


def test_duplicate_expr_section_is_rejected(tmp_path, capsys):
    f = tmp_path / "twice.expr"
    f.write_text(EXPRESSION + "expr: omega(sym(b, 1))\n")
    code, out, err = run(capsys, "eval", str(f), "--word", "( b )^w", "--n-max", "2")
    assert (code, out) == (2, "")
    assert "duplicate section 'expr'" in err


def test_expression_mixing_levels_is_rejected(tmp_path, capsys):
    for body in ("cat(sym(a, 1), omega(sym(a, 1)))",
                 "sum(omega(sym(a, 1)), zeta(sym(a, 1)))"):
        f = tmp_path / "mixed.expr"
        f.write_text(f"semiring: natural\nalphabet: [a, b]\nexpr: {body}\n")
        code, out, err = run(capsys, "eval", str(f), "--word", "b")
        assert (code, out) == (2, "")
        assert err.startswith("parse error: line 3, column 7")


@pytest.mark.parametrize("text, where", [
    ("semiring: natural\nalphabet: [a\nstates: [x]\n", (2, 11)),
    ("semiring: natural\nalphabet: [a]]\nstates: [x]\n", (2, 14)),
    ("semiring: natural\nalphabet: [a, (b\n[c]\nexpr: sym(a, 1)\n", (2, 11)),
    ("semiring: natural\n)\nalphabet: [a]\nexpr: sym(a, 1)\n", (2, 1)),
], ids=["unclosed-automaton", "stray-automaton", "unclosed-expression",
        "stray-expression"])
def test_unbalanced_bracket_before_the_first_key_is_placed(tmp_path, capsys,
                                                           text, where):
    with pytest.raises(DivautParseError) as err:
        detect_kind(text)
    assert (err.value.line, err.value.column) == where
    f = tmp_path / "unbalanced.txt"
    f.write_text(text)
    code, out, err = run(capsys, "eval", str(f), "--word", "a")
    assert (code, out) == (2, "")
    assert err.startswith("parse error: line %d, column %d: un" % where)


# ---------------------------------------------------------------------------
# the comma rule

def test_commas_are_optional_in_every_list():
    comma_less = """\
semiring: natural
alphabet: [a b]
states: [q1 q2]
initial: {q1: 1 q2: 2}
final: {q2: 3}
transitions: [
  {from: q1 to: q2 symbol: a weight: 2}
  {from: q2 to: q1 symbol: b}
]
"""
    assert parse_automaton(comma_less) == parse_automaton(AUTOMATON)
    expr_comma_less = EXPRESSION.replace(",", "")
    assert parse_expression_file(expr_comma_less) == parse_expression_file(EXPRESSION)


def test_doubled_comma_is_rejected():
    with pytest.raises(DivautParseError):
        parse_automaton(AUTOMATON.replace("[a, b]", "[a,, b]"))
    with pytest.raises(DivautParseError):
        parse_expression_file(EXPRESSION.replace("sym(a, 1)", "sym(a,, 1)", 1))


# ---------------------------------------------------------------------------
# parse errors: the message and where it points

_HEAD = "semiring: natural\nalphabet: [a, b]\nstates: [p, q]\n"

PARSE_ERRORS = {
    "unknown-section": (parse_automaton, _HEAD + "colour: red\n",
                        "line 4, column 1: unknown section 'colour'"),
    "section-order": (parse_automaton, "semiring: natural\ninitial: {p: 1}\nstates: [p]\n",
                      "line 2, column 1: initial must follow semiring, states"),
    "duplicate-state": (parse_automaton, "semiring: natural\nalphabet: [a]\nstates: [p, q, p]\n",
                        "line 3, column 1: duplicate state names"),
    "unknown-state": (parse_automaton, _HEAD + "initial: {r: 1}\n",
                      "line 4, column 11: unknown state 'r'"),
    "symbol-not-in-alphabet": (parse_automaton,
                               _HEAD + "transitions: [{from: p, to: q, symbol: c}]\n",
                               "line 4, column 40: symbol 'c' not in alphabet"),
    "unknown-head": (parse_expression_file,
                     "semiring: natural\nalphabet: [a]\nexpr: loop(sym(a, 1))\n",
                     "line 3, column 7: unknown expression head 'loop'"),
    "unknown-field": (parse_automaton,
                      _HEAD + "transitions: [{from: p, to: q, symbol: a, colour: red}]\n",
                      "line 4, column 43: unknown transition field 'colour'"),
    "missing-field": (parse_automaton, _HEAD + "transitions: [{from: p, symbol: a}]\n",
                      "line 4, column 15: transition is missing 'to'"),
    "expected-colon": (parse_automaton, "semiring natural\n",
                       "line 1, column 10: expected ':', found 'natural'"),
    "missing-sections-automaton": (parse_automaton, "semiring: natural\nstates: [p]\n",
                                   "file needs semiring, alphabet, states sections"),
    "missing-sections-expression": (parse_expression_file,
                                    "semiring: natural\nalphabet: [a]\n",
                                    "file needs semiring, alphabet, expr sections"),
    "neither-states-nor-expr": (detect_kind, "semiring: natural\nalphabet: [a]\n",
                                "file has neither a states nor an expr section"),
}


@pytest.mark.parametrize("case", PARSE_ERRORS)
def test_parse_error_message_and_position(case):
    parse, text, message = PARSE_ERRORS[case]
    with pytest.raises(DivautParseError) as err:
        parse(text)
    assert str(err.value) == message
    where = re.match(r"line (\d+), column (\d+): ", message)
    assert (err.value.line, err.value.column) == (
        (int(where[1]), int(where[2])) if where else (None, None))


@pytest.mark.parametrize("case", ["unknown-field", "neither-states-nor-expr"])
def test_parse_error_through_main(tmp_path, capsys, case):
    _, text, message = PARSE_ERRORS[case]
    f = tmp_path / "bad.txt"
    f.write_text(text)
    assert run(capsys, "eval", str(f), "--word", "a") == (2, "", f"parse error: {message}\n")


# ---------------------------------------------------------------------------
# formatted files survive commas dropped and white space and comments added

_TOKEN = re.compile(r"[\[\]{}:,()]|[^\s\[\]{}:,()]+")
_GAPS = [" ", "  ", "\t", "\n", " # comment, with [brackets]\n", "\n\n# line\n"]


def scramble(text, rng):
    """``text`` with some commas dropped and white space or comments between
    its tokens."""
    out = []
    prev_word = False
    for tok in _TOKEN.findall(text):
        if tok == "," and rng.random() < 0.6:
            continue
        word = tok not in "[]{}:,()"
        gap = rng.choice(_GAPS + [""] * 4)
        if gap == "" and word and prev_word:
            gap = " "
        out.append(gap + tok)
        prev_word = word
    return "".join(out) + rng.choice(_GAPS)


weights = {
    BOOLEAN: st.just(True),
    NATURAL: st.integers(1, 10 ** 30),
    RATIONAL: st.fractions(max_denominator=50).filter(bool),
    GAUSSIAN: st.builds(gaussian, st.fractions(max_denominator=9),
                        st.fractions(max_denominator=9)).filter(
                            lambda g: not GAUSSIAN.is_zero(g)),
}


@st.composite
def automata(draw):
    sr = draw(st.sampled_from([BOOLEAN, NATURAL, RATIONAL, GAUSSIAN]))
    symbols = draw(st.lists(st.sampled_from(["a", "b", "expr", "states", "x_1"]),
                            min_size=1, max_size=3, unique=True))
    names = draw(st.lists(st.sampled_from(["q0", "q1", "from", "final", "expr",
                                           "states", "p-2"]),
                          min_size=1, max_size=4, unique=True))
    n = len(names)
    vector = st.dictionaries(st.integers(0, n - 1), weights[sr], max_size=n)
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                    st.sampled_from(symbols), weights[sr]),
                          max_size=6))
    return Automaton.build(sr, Alphabet(tuple(symbols)), n, draw(vector), draw(vector),
                           edges, state_names=names)


@settings(max_examples=80, deadline=None)
@given(automata(), st.integers(0, 2 ** 32))
def test_scrambled_automaton_files_parse_back(aut, seed):
    rng = random.Random(seed)
    text = format_automaton(aut)
    for _ in range(3):
        variant = scramble(text, rng)
        assert detect_kind(variant) == "automaton"
        assert parse_automaton(variant) == aut


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([BOOLEAN, NATURAL, RATIONAL]),
       st.sampled_from(["conv", "div", "bidiv"]), st.integers(0, 3),
       st.integers(0, 2 ** 32))
def test_scrambled_expression_files_parse_back(sr, level, depth, seed):
    rng = random.Random(seed)
    make = {"conv": lambda: random_conv_expr(rng, sr, depth, proper=False),
            "div": lambda: random_div_expr(rng, sr, depth),
            "bidiv": lambda: random_bidiv_expr(rng, sr, depth)}[level]
    expr = make()
    text = format_expression_file(sr, AB, expr)
    for _ in range(3):
        variant = scramble(text, rng)
        assert detect_kind(variant) == "expression"
        parsed = parse_expression_file(variant)
        assert (parsed.semiring, parsed.alphabet, parsed.expr) == (sr, AB, expr)


def test_empty_sum_and_nested_heads_round_trip():
    expr = Omega(Atom("a", Fraction(-1, 2)))
    text = format_expression_file(RATIONAL, AB, expr)
    assert text == "semiring: rational\nalphabet: [a, b]\nexpr: omega(sym(a, -1/2))\n"
    assert parse_expression_file(text).expr == expr
    zero = parse_expression_file("semiring: natural alphabet: [a] expr: sum()")
    assert format_expression_file(NATURAL, Alphabet(("a",)), zero.expr).endswith(
        "expr: sum()\n")
