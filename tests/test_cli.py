import contextlib
import io
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from divaut import cli
from divaut.automaton import Automaton, AutomatonClass, classify, converging_weight
from divaut.activation import BidivergingBehavior, DivergingBehavior, _Window
from divaut.cli import main
from divaut.fileformat import (
    detect_kind,
    format_automaton,
    format_expression_file,
    parse_automaton,
    parse_expression_file,
)
from divaut.semiring import GAUSSIAN, NATURAL, gaussian
from divaut.series import Atom, Conjoin2, Omega, Scale, Star, Sum
from divaut.words import Alphabet

from conftest import AB, bi_word, finite, up_word


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_figure_two(path):
    text = """\
# alternating doubling weights
semiring: natural
alphabet: [a, b]
states: [q1, q2, q3]
initial: {q1: 1, q2: 2}
final: {q3: 2}
transitions: [
  {from: q1, to: q2, symbol: a, weight: 2},
  {from: q1, to: q3, symbol: a, weight: 1},
  {from: q2, to: q1, symbol: b, weight: 1},
  {from: q3, to: q1, symbol: b, weight: 2},
]
"""
    path.write_text(text)
    return path


def write_figure_one(path):
    text = """\
semiring: boolean
alphabet: [a, b]
states: [q1, q2]
initial: {q1: T}
final: {q2: T}
transitions: [
  {from: q1, to: q1, symbol: a, weight: T},
  {from: q1, to: q2, symbol: b, weight: T},
  {from: q2, to: q2, symbol: a, weight: T},
]
"""
    path.write_text(text)
    return path


def write_figure_three(path):
    text = """\
semiring: natural
alphabet: [a, b]
states: [q1, q2, q3]
initial: {q2: 1, q3: 3}
final: {q1: 1}
transitions: [
  {from: q1, to: q1, symbol: a},
  {from: q2, to: q1, symbol: a},
  {from: q2, to: q2, symbol: a},
  {from: q3, to: q1, symbol: b},
  {from: q3, to: q3, symbol: b, weight: 3},
]
"""
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# file formats

def test_automaton_round_trip_is_byte_stable(figure_two):
    text = format_automaton(figure_two)
    again = parse_automaton(text)
    assert again == figure_two
    assert format_automaton(again) == text


def test_expression_file_round_trip():
    expr = Scale(2, Sum((Omega(Atom("a", 1)),
                         Conjoin2(Atom("b", 1), Star(Atom("a", 1)) and Atom("a", 1)))), 3)
    text = format_expression_file(NATURAL, AB, expr)
    parsed = parse_expression_file(text)
    assert parsed.semiring is NATURAL
    assert parsed.alphabet == AB
    assert parsed.expr == expr
    assert format_expression_file(NATURAL, AB, parsed.expr) == text


def test_detect_kind():
    assert detect_kind("semiring: natural\nalphabet: [a]\nstates: []\n") == "automaton"
    assert detect_kind("semiring: natural\nalphabet: [a]\nexpr: sym(a, 1)\n") == "expression"


def test_parse_error_carries_position():
    from divaut.errors import DivautParseError

    with pytest.raises(DivautParseError) as err:
        parse_automaton("semiring: natural\nalphabet: [a]\nstates: [x\n")
    assert err.value.line is not None


def test_gaussian_file_round_trip():
    aut = Automaton.build(GAUSSIAN, Alphabet(("u",)), 1,
                          {0: gaussian(1)}, {0: gaussian(1)},
                          [(0, 0, "u", GAUSSIAN.parse("1/2-3/4i"))],
                          state_names=("q0",))
    assert parse_automaton(format_automaton(aut)) == aut


# ---------------------------------------------------------------------------
# eval

def test_eval_finite_word(tmp_path, capsys):
    f = write_figure_two(tmp_path / "a2.aut")
    code, out, _ = run(capsys, "eval", str(f), "--word", "a b a b a b a")
    assert code == 0
    assert out.strip() == "128"


def test_eval_diverging_rows(tmp_path, capsys):
    f = write_figure_three(tmp_path / "a3.aut")
    code, out, _ = run(capsys, "eval", str(f), "--word", "( a )^w", "--n-max", "5")
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()]
    assert rows == [[str(n), str(n)] for n in range(6)]


def test_eval_rejected_word_is_all_zero(tmp_path, capsys):
    f = write_figure_one(tmp_path / "a1.aut")
    code, out, _ = run(capsys, "eval", str(f), "--word", "b b . ( a )^w",
                       "--n-max", "5")
    assert code == 0
    assert [line.split("\t")[1] for line in out.strip().splitlines()] == ["F"] * 6


def test_eval_biinfinite(tmp_path, capsys):
    f = write_figure_two(tmp_path / "a2.aut")
    code, out, _ = run(capsys, "eval", str(f), "--word", "( a b )^~w . ( a b )^w",
                       "--i", "-1", "--n-max", "4")
    assert code == 0
    assert len(out.strip().splitlines()) == 5


def test_eval_expression_with_chi_horizon(tmp_path, capsys):
    f = tmp_path / "omega.expr"
    f.write_text("semiring: boolean\nalphabet: [a, b]\nexpr: omega(sym(a, T))\n")
    code, out, _ = run(capsys, "--chi", "horizon:16", "eval", str(f),
                       "--word", "( a )^w", "--n-max", "3")
    assert code == 0
    assert [line.split("\t")[1] for line in out.strip().splitlines()] == ["T"] * 4


BIDIV_EXPR = ("semiring: natural\nalphabet: [a, b]\n"
              "expr: sum(zeta(sum(sym(a, 1), sym(b, 1))), "
              "scale(3, conjoin3(sym(a, 1), sym(b, 2), sym(a, 1)), 1))\n")


def test_eval_bidiv_expression_matches_compiled_automaton(tmp_path, capsys):
    expr_file = tmp_path / "bi.expr"
    expr_file.write_text(BIDIV_EXPR)
    compiled = tmp_path / "bi.aut"
    assert run(capsys, "from-rational", str(expr_file), "--out", str(compiled))[0] == 0
    tables = [run(capsys, "eval", str(path), "--word", "( a )^~w . b . ( a )^w",
                  "--i", "-2", "--n-max", "6")
              for path in (expr_file, compiled)]
    assert tables[0] == tables[1]
    code, out, err = tables[0]
    assert (code, err) == (0, "")
    assert out == "0\t1\n1\t1\n2\t1\n3\t7\n4\t7\n5\t7\n6\t7\n"


def test_eval_malformed_file_is_parse_error(tmp_path, capsys):
    f = tmp_path / "broken.aut"
    f.write_text("semiring: natural\nalphabet: [a\nstates: [x]\n")
    code, _, err = run(capsys, "eval", str(f), "--word", "a")
    assert code == 2
    assert "parse error" in err


def test_eval_unknown_semiring_value(tmp_path, capsys):
    f = tmp_path / "broken.aut"
    f.write_text("semiring: natural\nalphabet: [a]\nstates: [x]\n"
                 "initial: {x: -3}\nfinal: {x: 1}\ntransitions: []\n")
    code, _, err = run(capsys, "eval", str(f), "--word", "a")
    assert code == 2


@pytest.mark.parametrize("semiring,weight", [
    ("rational", "1e30"), ("rational", "1_000"), ("gaussian", "0.5+1i"),
    ("natural", "\u00b2"), ("natural", "\u0663"),
])
def test_an_undocumented_literal_is_refused_at_its_token(tmp_path, capsys, semiring, weight):
    """A weight outside the README's literal forms exits 2 with a bad
    literal line at its token, whatever Python's own parsers would take."""
    f = tmp_path / "two.aut"
    f.write_text(f"semiring: {semiring}\nalphabet: [a]\nstates: [s, t]\n"
                 "initial: {s: 1}\nfinal: {t: 1}\n"
                 f"transitions: [{{from: s, to: t, symbol: a, weight: {weight}}}]\n")
    assert run(capsys, "eval", str(f), "--word", "( a )^w", "--n-max", "2") == \
        (2, "", f"parse error: line 6, column 51: bad {semiring} literal {weight!r}\n")


def test_an_undocumented_hs_term_is_refused(capsys):
    assert run(capsys, "quantum", "hs", "--terms", "1e3,1/2", "--n", "2") == \
        (2, "", "parse error: bad gaussian literal '1e3'\n")


# ---------------------------------------------------------------------------
# transforms

def test_normalize_roll_unroll_pipeline(tmp_path, capsys):
    source = write_figure_two(tmp_path / "a2.aut")
    norm = tmp_path / "norm.aut"
    code, _, _ = run(capsys, "normalize", str(source), "--out", str(norm))
    assert code == 0
    rolled = tmp_path / "rolled.aut"
    assert run(capsys, "roll", str(norm), "--out", str(rolled))[0] == 0
    unrolled = tmp_path / "unrolled.aut"
    assert run(capsys, "unroll", str(rolled), "--out", str(unrolled))[0] == 0
    first = parse_automaton(norm.read_text())
    second = parse_automaton(unrolled.read_text())
    for length in range(7):
        word = finite("a" * length)
        assert converging_weight(first, word) == converging_weight(second, word)


def test_normalize_rejects_empty_word_acceptor(tmp_path, capsys):
    f = tmp_path / "eps.aut"
    f.write_text("semiring: natural\nalphabet: [a]\nstates: [x]\n"
                 "initial: {x: 1}\nfinal: {x: 1}\ntransitions: []\n")
    code, _, err = run(capsys, "normalize", str(f))
    assert code == 1
    assert "empty word" in err


def test_roll_rejects_wrong_class(tmp_path, capsys):
    f = write_figure_two(tmp_path / "a2.aut")
    code, _, err = run(capsys, "roll", str(f))
    assert code == 1


def test_conjoin_disjoin_round_trip(tmp_path, capsys):
    x = tmp_path / "x.aut"
    x.write_text("semiring: natural\nalphabet: [a, b]\nstates: [s, t]\n"
                 "initial: {s: 1}\nfinal: {t: 1}\n"
                 "transitions: [{from: s, to: t, symbol: b, weight: 1}]\n")
    y = tmp_path / "y.aut"
    y.write_text("semiring: natural\nalphabet: [a, b]\nstates: [s, t]\n"
                 "initial: {s: 1}\nfinal: {t: 1}\n"
                 "transitions: [{from: s, to: t, symbol: a, weight: 1}]\n")
    glued = tmp_path / "glued.aut"
    assert run(capsys, "conjoin", str(x), str(y), "--out", str(glued))[0] == 0
    out_x = tmp_path / "back_x.aut"
    out_y = tmp_path / "back_y.aut"
    assert run(capsys, "disjoin", str(glued), "--out-x", str(out_x),
               "--out-y", str(out_y))[0] == 0
    reglued = tmp_path / "reglued.aut"
    assert run(capsys, "conjoin", str(out_x), str(out_y),
               "--out", str(reglued))[0] == 0
    one = parse_automaton(glued.read_text())
    two = parse_automaton(reglued.read_text())
    word = up_word("b", "a")
    assert [DivergingBehavior(one, word).at(n) for n in range(8)] == \
        [DivergingBehavior(two, word).at(n) for n in range(8)]


def test_decompose_magnetization_bidiv(tmp_path, capsys):
    operator = tmp_path / "mag.aut"
    run(capsys, "quantum", "magnetization", "--out", str(operator))
    out_dir = tmp_path / "parts"
    code, _, _ = run(capsys, "decompose", str(operator), "--level", "bidiv",
                     "--out-dir", str(out_dir))
    assert code == 0
    manifest = (out_dir / "manifest.tsv").read_text()
    assert "bridge" in manifest


def test_decompose_writes_manifest(tmp_path, capsys):
    f = write_figure_two(tmp_path / "a2.aut")
    out_dir = tmp_path / "parts"
    code, out, _ = run(capsys, "decompose", str(f), "--level", "div",
                       "--out-dir", str(out_dir))
    assert code == 0
    manifest = (out_dir / "manifest.tsv").read_text().strip().splitlines()
    assert manifest[0].split("\t") == ["file", "left", "right", "class"]
    assert len(manifest) == 3  # two initial states x one final state
    for line in manifest[1:]:
        name = line.split("\t")[0]
        parse_automaton((out_dir / name).read_text())


# ---------------------------------------------------------------------------
# rational translations

def test_from_rational_to_rational_round_trip(tmp_path, capsys):
    expr_file = tmp_path / "expr.expr"
    expr_file.write_text("semiring: natural\nalphabet: [a, b]\n"
                         "expr: sum(omega(sym(a, 1)), "
                         "scale(2, conjoin(sym(b, 1), sym(a, 1)), 1))\n")
    compiled = tmp_path / "compiled.aut"
    assert run(capsys, "from-rational", str(expr_file), "--out",
               str(compiled))[0] == 0
    extracted = tmp_path / "back.expr"
    assert run(capsys, "to-rational", str(compiled), "--level", "div",
               "--out", str(extracted))[0] == 0
    code, out, _ = run(capsys, "equiv", str(expr_file), str(extracted),
                       "--level", "div", "--samples", "12", "--n-max", "7")
    assert code == 0
    assert "agree" in out


def test_from_rational_level_mismatch(tmp_path, capsys):
    expr_file = tmp_path / "expr.expr"
    expr_file.write_text("semiring: natural\nalphabet: [a]\nexpr: zeta(sym(a, 1))\n")
    code, _, err = run(capsys, "from-rational", str(expr_file), "--level", "div")
    assert (code, err) == (1, "error: expression is bidiv-level, not div\n")


@pytest.mark.parametrize("level, iteration, word", [
    ("div", "omega", "a . ( b )^w"),
    ("bidiv", "zeta", "( a )^~w . b . ( a )^w"),
])
def test_zero_series_round_trip_keeps_its_level(tmp_path, capsys, level, iteration, word):
    """An automaton with no (initial, final) pair has the zero series; it is
    written as the zero operand's iteration, so it reads back at its level."""
    source = tmp_path / "zero.aut"
    source.write_text("semiring: rational\nalphabet: [a, b]\nstates: [p, q]\n"
                      "initial: {p: 1}\nfinal: {}\n"
                      "transitions: [\n  {from: p, to: q, symbol: a, weight: 1},\n]\n")
    extracted, compiled = tmp_path / "zero.expr", tmp_path / "back.aut"
    assert run(capsys, "to-rational", str(source), "--level", level,
               "--out", str(extracted)) == (0, "", "")
    assert extracted.read_text().endswith(f"expr: {iteration}(sum())\n")
    assert run(capsys, "from-rational", str(extracted), "--level", level,
               "--out", str(compiled)) == (0, "", "")
    for path in (extracted, compiled):
        assert run(capsys, "eval", str(path), "--word", word, "--n-max", "2") == \
            (0, "0\t0\n1\t0\n2\t0\n", "")
    assert run(capsys, "equiv", str(source), str(extracted), "--level", level,
               "--samples", "4") == \
        (0, "agree on all samples (4 words; semi-decision only)\n", "")


# ---------------------------------------------------------------------------
# equiv

def test_equiv_automaton_vs_itself(tmp_path, capsys):
    f = write_figure_two(tmp_path / "a2.aut")
    code, out, _ = run(capsys, "equiv", str(f), str(f), "--level", "div",
                       "--samples", "6")
    assert code == 0
    assert "agree" in out


def test_equiv_reports_witness(tmp_path, capsys):
    f = write_figure_two(tmp_path / "a2.aut")
    g = tmp_path / "scaled.aut"
    scaled = parse_automaton(f.read_text())
    from divaut.automaton import scale_automaton

    g.write_text(format_automaton(scale_automaton(3, scaled, 1)))
    code, out, _ = run(capsys, "equiv", str(f), str(g), "--level", "div",
                       "--word", "( a b )^w", "--n-max", "4")
    assert code == 0
    assert "disagree" in out


@pytest.mark.parametrize("level, text", [
    ("bidiv", BIDIV_EXPR),
    ("conv", "semiring: rational\nalphabet: [a, b]\n"
             "expr: sum(cat(star(sym(a, 1/2)), sym(b, -3)), star(sym(b, 2)))\n"),
])
def test_equiv_expression_vs_compiled_automaton(tmp_path, capsys, level, text):
    expr_file = tmp_path / "e.expr"
    expr_file.write_text(text)
    compiled = tmp_path / "e.aut"
    assert run(capsys, "from-rational", str(expr_file), "--out", str(compiled))[0] == 0
    code, out, err = run(capsys, "equiv", str(expr_file), str(compiled),
                         "--level", level, "--samples", "8", "--n-max", "6")
    assert (code, err) == (0, "")
    assert out == "agree on all samples (8 words; semi-decision only)\n"


def test_equiv_semiring_mismatch(tmp_path, capsys):
    f = write_figure_two(tmp_path / "a2.aut")
    g = write_figure_one(tmp_path / "a1.aut")
    code, _, err = run(capsys, "equiv", str(f), str(g), "--level", "div")
    assert code == 1


# ---------------------------------------------------------------------------
# quantum

def test_quantum_magnetization_emits_parseable_operator(tmp_path, capsys):
    out_file = tmp_path / "mag.aut"
    code, _, _ = run(capsys, "quantum", "magnetization", "--out", str(out_file))
    assert code == 0
    operator = parse_automaton(out_file.read_text())
    assert operator.num_states == 2
    assert operator.semiring is GAUSSIAN


def test_quantum_expect_table(tmp_path, capsys):
    mag = tmp_path / "mag.aut"
    run(capsys, "quantum", "magnetization", "--out", str(mag))
    state = tmp_path / "up.aut"
    state.write_text("semiring: gaussian\nalphabet: [up, dn]\nstates: [s]\n"
                     "initial: {s: 1}\nfinal: {s: 1}\n"
                     "transitions: [{from: s, to: s, symbol: up, weight: 1}]\n")
    code, out, _ = run(capsys, "quantum", "expect", "--state", str(state),
                       "--operator", str(mag), "--n", "6", "--rate-at", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[:3] == ["0\t0\t1\t0", "1\t1\t1\t1", "2\t2\t1\t2"]
    assert lines[-1] == "rate\t1"


@pytest.mark.parametrize("order", [
    "dn->dn, dn->up, up->dn, up->up",
    "up->dn, dn->up, up->up, dn->dn",
], ids=["sources-reordered", "targets-reordered"])
def test_quantum_expect_accepts_a_reordered_operator_alphabet(tmp_path, capsys, order):
    args = ["quantum", "expect", "--state", str(FIXTURES / "up_state.aut"), "--n", "3"]
    fixture = FIXTURES / "magnetization.aut"
    reordered = tmp_path / "mag.aut"
    reordered.write_text(fixture.read_text().replace(
        "alphabet: [up->up, up->dn, dn->up, dn->dn]", f"alphabet: [{order}]"))
    expected = run(capsys, *args, "--operator", str(fixture))
    assert expected[0] == 0
    assert run(capsys, *args, "--operator", str(reordered)) == expected


def test_quantum_expect_refuses_an_operator_over_other_symbols(tmp_path, capsys):
    operator = tmp_path / "wide.aut"
    operator.write_text("semiring: gaussian\nalphabet: [up->up, dn->dn, lf->lf]\n"
                        "states: [s]\ninitial: {s: 1}\nfinal: {s: 1}\n"
                        "transitions: [{from: s, to: s, symbol: lf->lf, weight: 1}]\n")
    code, out, err = run(capsys, "quantum", "expect", "--state",
                         str(FIXTURES / "up_state.aut"), "--operator", str(operator),
                         "--n", "3")
    assert (code, out) == (1, "")
    assert err == ("error: operator reads ['up', 'dn', 'lf'] but state is over "
                   "['up', 'dn']\n")


def test_quantum_correlator_table(tmp_path, capsys):
    corr = tmp_path / "corr.aut"
    assert run(capsys, "quantum", "correlator", "--k", "1", "--out",
               str(corr))[0] == 0
    state = tmp_path / "up.aut"
    state.write_text("semiring: gaussian\nalphabet: [up, dn]\nstates: [s]\n"
                     "initial: {s: 1}\nfinal: {s: 1}\n"
                     "transitions: [{from: s, to: s, symbol: up, weight: 1}]\n")
    code, out, _ = run(capsys, "quantum", "expect", "--state", str(state),
                       "--operator", str(corr), "--n", "5")
    assert code == 0
    ratios = [line.split("\t")[3] for line in out.strip().splitlines()]
    assert ratios == ["0", "0", "0", "1", "2", "3"]


def test_quantum_correlator_rejects_negative_distance(capsys):
    code, out, err = run(capsys, "quantum", "correlator", "--k", "-1")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "--k" in err


def test_quantum_hs_rate(capsys):
    code, out, _ = run(capsys, "quantum", "hs", "--terms", "1,1/2", "--n", "4",
                       "--rate-at", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "0\t0\t1\t0"
    assert lines[2] == "2\t1\t1\t1"
    assert lines[-1].startswith("rate\t")


def test_a_probe_inside_the_table_takes_its_ratios_from_the_rows(capsys):
    """A --rate-at probe at most --n restarts no window that a probe past
    the table does not, and prints the rate a probe past it reads."""
    restarts, rates = {}, {}
    for n, rate_at in (("128", "128"), ("128", "200"), ("4", "128")):
        with mock.patch.object(_Window, "_restart", autospec=True,
                               side_effect=_Window._restart) as restart:
            code, out, _ = run(capsys, "quantum", "hs", "--terms", "1,1/2", "--n", n,
                               "--rate-at", rate_at)
        assert code == 0
        restarts[n, rate_at] = restart.call_count
        rates[n, rate_at] = out.splitlines()[-1]
    assert restarts["128", "128"] == restarts["128", "200"]
    assert rates["128", "128"] == rates["4", "128"]


def test_quantum_hs_rate_at_must_be_positive(capsys):
    code, out, err = run(capsys, "quantum", "hs", "--terms", "1,1/2", "--n", "3",
                         "--rate-at", "0")
    assert (code, out) == (1, "")
    assert "--rate-at" in err


def test_quantum_expect_rate_at_must_be_positive(tmp_path, capsys):
    mag = tmp_path / "mag.aut"
    run(capsys, "quantum", "magnetization", "--out", str(mag))
    state = tmp_path / "up.aut"
    state.write_text("semiring: gaussian\nalphabet: [up, dn]\nstates: [s]\n"
                     "initial: {s: 1}\nfinal: {s: 1}\n"
                     "transitions: [{from: s, to: s, symbol: up, weight: 1}]\n")
    code, out, err = run(capsys, "quantum", "expect", "--state", str(state),
                         "--operator", str(mag), "--n", "4", "--rate-at", "0")
    assert (code, out) == (1, "")
    assert "--rate-at" in err


def test_quantum_hs_rejects_bad_terms(capsys):
    code, _, err = run(capsys, "quantum", "hs", "--terms", "nope", "--n", "3")
    assert code in (1, 2)


def test_undefined_ratio_prints_undef(tmp_path, capsys):
    mag = tmp_path / "mag.aut"
    run(capsys, "quantum", "magnetization", "--out", str(mag))
    zero_state = tmp_path / "zero.aut"
    zero_state.write_text("semiring: gaussian\nalphabet: [up, dn]\nstates: [s]\n"
                          "initial: {}\nfinal: {s: 1}\n"
                          "transitions: [{from: s, to: s, symbol: up, weight: 1}]\n")
    code, out, _ = run(capsys, "quantum", "expect", "--state", str(zero_state),
                       "--operator", str(mag), "--n", "2")
    assert code == 0
    assert all(line.endswith("undef") for line in out.strip().splitlines())


def test_activation_exact_refusal_surfaces(tmp_path, capsys):
    f = tmp_path / "rat.aut"
    f.write_text("semiring: rational\nalphabet: [a, b]\nstates: [s]\n"
                 "initial: {s: 1}\nfinal: {s: 1}\n"
                 "transitions: [{from: s, to: s, symbol: a, weight: 1/2},\n"
                 "  {from: s, to: s, symbol: b, weight: 1}]\n")
    code, out, err = run(capsys, "--activation", "exact", "eval", str(f),
                         "--word", "( a )^~w . ( b )^w", "--n-max", "2")
    # rational two-sided words are decided exactly, so exact answers
    assert code == 0 and err == ""
    code, bounded, _ = run(capsys, "--activation", "horizon:16", "eval", str(f),
                           "--word", "( a )^~w . ( b )^w", "--n-max", "2")
    assert code == 0
    assert out == bounded == "0\t1\n1\t1\n2\t1\n"


def _digit_limit():
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None


def _decimal(value: int) -> str:
    """str(value) past the interpreter's int-to-str digit limit."""
    if _digit_limit() is None:
        return str(value)
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(saved)


def test_weight_literal_past_int_digit_limit(tmp_path, capsys):
    weight = _decimal(10 ** 4999 + 7)  # 5000 digits
    f = tmp_path / "big.aut"
    f.write_text("semiring: natural\nalphabet: [a]\nstates: [s, t]\n"
                 "initial: {s: 1}\nfinal: {t: 1}\n"
                 f"transitions: [{{from: s, to: t, symbol: a, weight: {weight}}}]\n")
    limit = _digit_limit()
    code, out, err = run(capsys, "eval", str(f), "--word", "a")
    assert (code, out, err) == (0, weight + "\n", "")
    assert _digit_limit() == limit


def test_printed_weight_past_int_digit_limit(tmp_path, capsys):
    # on (a b)^k a only q1 -a-> q2 -b-> q1 (2 * 1) and q1 -a-> q3 -b-> q1
    # (1 * 2) carry weight, so the word weighs 4^k * 1 * 2 = 2^(2k + 1)
    f = tmp_path / "doubling.aut"
    write_figure_two(f)
    limit = _digit_limit()
    code, out, err = run(capsys, "eval", str(f), "--word", " ".join(["a b"] * 7200 + ["a"]))
    assert (code, out, err) == (0, _decimal(2 ** 14401) + "\n", "")
    assert _digit_limit() == limit


def test_boolean_cycles_with_long_period(tmp_path, capsys):
    # a-cycles of lengths 2, 3, 5, 7, 11 and 13: the cycle matrix has period
    # lcm = 30030, so no short scan of its powers sees every phase
    succ, offset = [], 0
    for length in (2, 3, 5, 7, 11, 13):
        succ += [offset + (k + 1) % length for k in range(length)]
        offset += length
    initials, finals = (0, 2), (1, 4)
    f = tmp_path / "cycles.aut"
    f.write_text(
        "semiring: boolean\nalphabet: [a]\n"
        f"states: [{', '.join(f'q{i}' for i in range(offset))}]\n"
        f"initial: {{{', '.join(f'q{i}: T' for i in initials)}}}\n"
        f"final: {{{', '.join(f'q{i}: T' for i in finals)}}}\n"
        "transitions: [" + ",\n".join(f"{{from: q{i}, to: q{j}, symbol: a, weight: T}}"
                                       for i, j in enumerate(succ)) + "]\n")

    def lands_on_final(start, n):
        for _ in range(n):
            start = succ[start]
        return start in finals

    # every path is on a cycle, so a pair that meets once meets every
    # period and the mask removes nothing from the unmasked walk
    expected = "".join(f"{n}\t{'T' if any(lands_on_final(i, n) for i in initials) else 'F'}\n"
                       for n in range(41))
    code, out, err = run(capsys, "eval", str(f), "--word", "( a )^w", "--n-max", "40")
    assert (code, out, err) == (0, expected, "")


FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


@pytest.mark.parametrize("argv", [
    ["--level", "div", "--n-max", "-1"],
    ["--level", "bidiv", "--i-range", "-1"],
    ["--level", "div", "--samples", "0"],
], ids=["n-max", "i-range", "samples"])
def test_equiv_rejects_ranges_it_cannot_sample(capsys, argv):
    # the two automata disagree at n=1, so an empty sample range must not
    # be reported as agreement
    code, out, err = run(capsys, "equiv", str(FIXTURES / "doubling.aut"),
                         str(FIXTURES / "ramp_powers.aut"), *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and argv[-2] in err


def test_eval_rejects_negative_n_max(capsys):
    code, out, err = run(capsys, "eval", str(FIXTURES / "doubling.aut"),
                         "--word", "( a b )^w", "--n-max", "-1")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "--n-max" in err


def test_decompose_out_dir_that_is_not_a_directory(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    for out_dir in (taken, taken / "below"):
        code, out, err = run(capsys, "decompose", str(FIXTURES / "doubling.aut"),
                             "--level", "div", "--out-dir", str(out_dir))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot create {out_dir}")


@pytest.mark.parametrize("argv", [
    ["hs", "--terms", "1,1/2"],
    ["expect", "--state", str(FIXTURES / "up_state.aut"),
     "--operator", str(FIXTURES / "magnetization.aut")],
], ids=["hs", "expect"])
def test_quantum_tables_reject_negative_n(capsys, argv):
    code, out, err = run(capsys, "quantum", *argv, "--n", "-1", "--rate-at", "3")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "--n" in err


@pytest.mark.parametrize("flag", ["--activation", "--chi"])
def test_bad_horizon_bound_names_the_policy(capsys, flag):
    code, out, err = run(capsys, flag, "horizon:abc", "eval",
                         str(FIXTURES / "doubling.aut"), "--word", "a b")
    assert (code, out, err) == (1, "", "error: bad activation policy 'horizon:abc'\n")


@pytest.mark.parametrize("flag", ["--activation", "--chi"])
def test_a_horizon_bound_below_two_exits_1(capsys, flag):
    code, out, err = run(capsys, flag, "horizon:1", "eval",
                         str(FIXTURES / "doubling.aut"), "--word", "a b")
    assert (code, out, err) == (1, "", "error: horizon bound must be at least 2\n")


@pytest.mark.parametrize("argv, flag", [
    (["--n", "-1"], "--n"),
    (["--n", "3", "--rate-at", "0"], "--rate-at"),
], ids=["n", "rate-at"])
def test_quantum_ranges_are_checked_before_the_build(capsys, monkeypatch, argv, flag):
    import divaut.quantum

    def refuse(*args, **kwargs):
        raise AssertionError("built before the ranges were checked")

    monkeypatch.setattr(divaut.quantum, "build_hs_hamiltonian", refuse)
    monkeypatch.setattr(divaut.quantum, "expected_value", refuse)
    code, out, err = run(capsys, "quantum", "hs", "--terms", "1,1/2;1,1/3;1,1/5", *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {flag} must be at least")
    # expect checks the ranges before it reads its files, too
    code, out, err = run(capsys, "quantum", "expect", "--state", "missing.aut",
                         "--operator", "missing.aut", *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {flag} must be at least")


def test_conjoin3_disjoin3_round_trip(tmp_path, capsys):
    names = ("x", "m", "y")
    texts = [
        "transitions: [{from: s, to: t, symbol: b, weight: 1}]\n",
        "transitions: [{from: s, to: u, symbol: a, weight: 2},\n"
        "  {from: u, to: u, symbol: b, weight: 1}, {from: u, to: t, symbol: a}]\n",
        "transitions: [{from: s, to: t, symbol: a, weight: 3}]\n",
    ]
    for name, transitions in zip(names, texts):
        (tmp_path / f"{name}.aut").write_text(
            "semiring: natural\nalphabet: [a, b]\nstates: [s, t, u]\n"
            "initial: {s: 1}\nfinal: {t: 1}\n" + transitions)
    bridge = tmp_path / "bridge.aut"
    inputs = [str(tmp_path / f"{name}.aut") for name in names]
    assert run(capsys, "conjoin3", *inputs, "--out", str(bridge)) == (0, "", "")
    pieces = [str(tmp_path / f"piece_{name}.aut") for name in names]
    assert run(capsys, "disjoin3", str(bridge), "--out-x", pieces[0],
               "--out-m", pieces[1], "--out-y", pieces[2]) == (0, "", "")
    code, printed, err = run(capsys, "conjoin3", *pieces)
    assert (code, err) == (0, "")
    one = parse_automaton(bridge.read_text())
    two = parse_automaton(printed)
    assert classify(one) is classify(two) is AutomatonClass.BRIDGE
    for word in (bi_word("b", "abba", "a"), bi_word("b", "aa", "a"), bi_word("ab", "", "ba")):
        assert [BidivergingBehavior(one, word).at(i, n) for i in range(-2, 3)
                for n in range(8)] == \
            [BidivergingBehavior(two, word).at(i, n) for i in range(-2, 3)
             for n in range(8)]
    assert any(BidivergingBehavior(one, bi_word("b", "abba", "a")).at(0, n) for n in range(8))


def test_rational_fixture_table_matches_its_golden(capsys):
    # the README quick-start table over the rationals; the golden was written
    # by the Fraction-row evaluator, so it pins the exact values byte for byte
    golden = Path(__file__).parent / "golden" / "eval_cancelling.txt"
    code, out, err = run(capsys, "eval", str(FIXTURES / "cancelling.aut"),
                         "--word", "( a b )^w", "--n-max", "6")
    assert (code, out, err) == (0, golden.read_text(), "")


class CountingStdout:
    """A stdout that counts its writes."""

    def __init__(self):
        self.parts = []

    def write(self, text):
        self.parts.append(text)
        return len(text)

    def flush(self):
        pass


def test_table_rows_leave_in_blocks_after_the_first(monkeypatch):
    """Row 0 is one write on its own; every later write is whole rows, at
    most 64 KiB plus one row; the bytes are those of one write per row."""
    out = CountingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["eval", str(FIXTURES / "doubling.aut"), "--word", "( a b )^w",
                 "--n-max", "4001"]) == 0
    rows = [f"{n}\t{2 ** n if n % 2 else 0}\n" for n in range(4002)]
    assert out.parts[0] == rows[0]
    assert "".join(out.parts) == "".join(rows)
    assert all(part.endswith("\n") for part in out.parts)  # so each is whole rows
    assert all(len(part) <= 64 * 1024 + max(map(len, rows)) for part in out.parts[1:])
    assert len(out.parts) > 2
    out.parts.clear()
    cli._print_rows(iter([]))
    assert out.parts == []


# ---------------------------------------------------------------------------
# error paths: exit 1 and one error line

def chain_automaton(n):
    """The one-symbol chain q0 -a-> q1 -a-> ... q(n-1)."""
    edges = "".join(f"  {{from: q{i}, to: q{i + 1}, symbol: a}},\n" for i in range(n - 1))
    return (f"semiring: natural\nalphabet: [a]\nstates: [{', '.join(f'q{i}' for i in range(n))}]\n"
            f"initial: {{q0: 1}}\nfinal: {{q{n - 1}: 1}}\ntransitions: [\n{edges}]\n")


def nested_expression(depth):
    """cat(sym(a, 1), cat(sym(a, 1), ... sym(a, 1))), ``depth`` atoms deep."""
    return ("semiring: natural\nalphabet: [a]\nexpr: "
            + "cat(sym(a, 1), " * (depth - 1) + "sym(a, 1)" + ")" * (depth - 1) + "\n")


@pytest.mark.parametrize("command, text, extra", [
    ("from-rational", nested_expression(2000), []),
    ("eval", nested_expression(2000), ["--word", "a a"]),
], ids=["from-rational-nested", "eval-nested"])
def test_deep_nesting_is_one_error_line(tmp_path, capsys, command, text, extra):
    source, out = tmp_path / "deep.txt", tmp_path / "out.txt"
    source.write_text(text)
    argv = [command, str(source), *extra] + (["--out", str(out)] if command != "eval" else [])
    assert run(capsys, *argv) == (1, "", "error: expression nested too deeply\n")
    assert not out.exists()


def test_to_rational_of_a_long_chain_reads_back(tmp_path, capsys):
    """The formatter keeps no recursion: the 300-state chain's expression is
    written, and it is shallow enough for the parser to read back."""
    source, out = tmp_path / "chain.aut", tmp_path / "chain.expr"
    source.write_text(chain_automaton(300))
    assert run(capsys, "to-rational", str(source), "--level", "conv",
               "--out", str(out)) == (0, "", "")
    assert run(capsys, "eval", str(out), "--word", " ".join("a" * 299)) == (0, "1\n", "")


def test_expression_400_deep_answers(tmp_path, capsys):
    """Only the parser, compile and the formatters recurse once per level, so
    400 nested products are evaluated and compiled."""
    source, out = tmp_path / "deep.expr", tmp_path / "deep.aut"
    source.write_text(nested_expression(400))
    word = " ".join("a" * 400)
    assert run(capsys, "eval", str(source), "--word", word) == (0, "1\n", "")
    assert run(capsys, "from-rational", str(source), "--out", str(out)) == (0, "", "")
    assert run(capsys, "eval", str(out), "--word", word) == (0, "1\n", "")


def zero_norm_state(tmp_path):
    """A state automaton with no transitions: its norm is 0 past n = 0."""
    path = tmp_path / "still.aut"
    path.write_text("semiring: gaussian\nalphabet: [up, dn]\nstates: [s]\n"
                    "initial: {s: 1}\nfinal: {s: 1}\ntransitions: []\n")
    return str(path)


MARKED = str(FIXTURES / "mark_then_tail.expr")
DOUBLING = str(FIXTURES / "doubling.aut")
ERROR_PATHS = {
    "missing-file": (lambda tmp: ["eval", str(tmp / "absent.aut"), "--word", "a"],
                     "error: cannot read "),
    "roll-expression": (lambda tmp: ["roll", MARKED],
                        f"error: {MARKED} is not an automaton file"),
    "conv-word-for-div": (lambda tmp: ["eval", MARKED, "--word", "a b"],
                          "error: a diverging expression needs an infinite word"),
    "from-rational-automaton": (lambda tmp: ["from-rational", DOUBLING],
                                "error: from-rational needs an expression file"),
    "equiv-word-level": (lambda tmp: ["equiv", DOUBLING, DOUBLING, "--level", "div",
                                      "--word", "a b"],
                         "error: word 'a b' does not match level div"),
    "hs-no-terms": (lambda tmp: ["quantum", "hs", "--terms", ";", "--n", "3"],
                    "error: need at least one amplitude,decay term"),
    "ratio-undefined": (lambda tmp: ["quantum", "expect", "--state", zero_norm_state(tmp),
                                     "--operator", str(FIXTURES / "magnetization.aut"),
                                     "--n", "2", "--rate-at", "3"],
                        "error: ratio undefined near probe point 3"),
}


@pytest.mark.parametrize("case", ERROR_PATHS)
def test_error_path_is_one_error_line(tmp_path, capsys, case):
    argv, start = ERROR_PATHS[case]
    code, out, err = run(capsys, *argv(tmp_path))
    assert code == 1
    assert err.startswith(start) and err.count("\n") == 1 and err.endswith("\n")
    if case != "ratio-undefined":  # the table comes first, then the probe fails
        assert out == ""


# ---------------------------------------------------------------------------
# mutated fixture files: every run ends in an exit code, never a traceback

MUTATION_TOKENS = ["{", "}", "[", "]", "(", ")", ",", ":", "#", "\n", " ", "-", "/", "0",
                   "1", "7/3", "-1/2i", "T", "F", "a", "b", "q1", "weight", "symbol",
                   "from", "to", "states", "expr", "sum", "omega", "star", "natural",
                   "boolean", "gaussian"]
MUTATION_COMMANDS = [
    lambda f, tmp: ["eval", f, "--word", "( a b )^w", "--n-max", "6"],
    lambda f, tmp: ["eval", f, "--word", "b . ( a )^w", "--n-max", "6"],
    lambda f, tmp: ["eval", f, "--word", "( a )^~w . b . ( a b )^w", "--i", "-2",
                    "--n-max", "5"],
    lambda f, tmp: ["eval", f, "--word", "a b a"],
    lambda f, tmp: ["decompose", f, "--level", "div", "--out-dir", tmp],
    lambda f, tmp: ["to-rational", f, "--level", "div", "--out", str(Path(tmp) / "e.expr")],
    lambda f, tmp: ["from-rational", f, "--out", str(Path(tmp) / "c.aut")],
    lambda f, tmp: ["equiv", f, DOUBLING, "--level", "div", "--samples", "2", "--n-max", "4"],
]


@st.composite
def mutated_fixtures(draw):
    """(file name, text): a fixture with one to three spans deleted,
    duplicated or replaced by a token of the file syntax."""
    path = draw(st.sampled_from(sorted(FIXTURES.iterdir())))
    text = path.read_text()
    for _ in range(draw(st.integers(1, 3))):
        lo = draw(st.integers(0, len(text)))
        hi = draw(st.integers(lo, min(len(text), lo + 8)))
        kind = draw(st.sampled_from(["delete", "duplicate", "replace"]))
        middle = {"delete": "", "duplicate": text[lo:hi] * 2,
                  "replace": draw(st.sampled_from(MUTATION_TOKENS))}[kind]
        text = text[:lo] + middle + text[hi:]
    return path.name, text


@settings(max_examples=150, deadline=None)
@given(mutated_fixtures(), st.sampled_from(MUTATION_COMMANDS))
def test_mutated_fixtures_exit_with_a_code_and_at_most_one_error_line(fixture, command):
    name, text = fixture
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(command(str(path), tmp))
    assert code in (0, 1, 2)
    assert len(err.getvalue().splitlines()) <= 1
