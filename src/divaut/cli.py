"""Command-line surface.

Exit codes: 0 on success, 1 on semantic errors (wrong class, mismatched
semirings, unsupported activation, ...), 2 on parse errors.
"""
from __future__ import annotations

import argparse
import atexit
import os
import random
import sys
from pathlib import Path

from . import kleene, quantum
from .activation import (
    ActivationPolicy,
    BidivergingBehavior,
    DivergingBehavior,
    _MaskedBehavior,
)
from .automaton import (
    Automaton,
    classify,
    conjoin2,
    conjoin3,
    converging_weight,
    decompose_bidiverging,
    decompose_diverging,
    disjoin2,
    disjoin3,
    normalize,
    roll,
    unroll,
)
from .errors import DivautError, DivautParseError
from .fileformat import (
    ExpressionFile,
    detect_kind,
    format_automaton,
    format_expression_file,
    parse_automaton,
    parse_expression_file,
)
from .semiring import require_same_semiring
from .series import BidivSeries, DivSeries, conv_coeff, expr_level
from .words import (
    Alphabet,
    BiInfiniteWord,
    FiniteWord,
    UPInfiniteWord,
    format_word,
    parse_word,
    require_same_alphabet,
)


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise DivautError(f"cannot read {path}: {exc}") from None


def _write_output(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        _write_file(out, text)


def _write_file(path: str, text: str):
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise DivautError(f"cannot write {path}: {exc}") from None


def _at_least(flag: str, value: int, low: int):
    if value < low:
        raise DivautError(f"{flag} must be at least {low}, got {value}")


def _load_any(path: str):
    text = _read(path)
    if detect_kind(text) == "automaton":
        return parse_automaton(text)
    return parse_expression_file(text)


def _load_automaton(path: str) -> Automaton:
    text = _read(path)
    if detect_kind(text) != "automaton":
        raise DivautError(f"{path} is not an automaton file")
    return parse_automaton(text)


def _policy(text: str) -> ActivationPolicy:
    try:
        return ActivationPolicy.parse(text)
    except ValueError as exc:
        raise DivautError(str(exc)) from None


_BLOCK = 1 << 16  # characters; rows are ASCII


def _print_rows(rows):
    """Writes the first row on its own, so that it leaves as soon as it is
    known, and the others in blocks of whole rows: a block is written once
    it holds at least ``_BLOCK`` characters, so it has at most that many
    plus one row.  Unbuffered stdout makes each write one system call."""
    write = sys.stdout.write
    block, size = [], _BLOCK  # full, so that the first row leaves alone
    for row in rows:
        line = "\t".join(row) + "\n"
        block.append(line)
        size += len(line)
        if size >= _BLOCK:
            write("".join(block))
            block, size = [], 0
    if block:
        write("".join(block))


# ---------------------------------------------------------------------------
# eval

_WORD_KINDS = {"conv": FiniteWord, "div": UPInfiniteWord, "bidiv": BiInfiniteWord}
_WORD_NEEDED = {"conv": "a converging expression needs a finite word",
                "div": "a diverging expression needs an infinite word",
                "bidiv": "a bidiverging expression needs a biinfinite word"}


def cmd_eval(args):
    _at_least("--n-max", args.n_max, 0)
    obj = _load_any(args.file)
    policy = _policy(args.activation)
    chi = _policy(args.chi)
    if isinstance(obj, Automaton):
        word = parse_word(args.word, obj.alphabet)
        level = next(lvl for lvl, kind in _WORD_KINDS.items() if isinstance(word, kind))
    else:
        level = expr_level(obj.expr)
        word = parse_word(args.word, obj.alphabet)
        if not isinstance(word, _WORD_KINDS[level]):
            raise DivautError(_WORD_NEEDED[level])
    sr, _, context = _evaluator(obj, level, policy, chi)
    if level == "conv":
        print(sr.format(context(word)(0, 0)))
        return
    text = context(word, text=True)
    _print_rows((str(n), text(args.i, n)) for n in range(args.n_max + 1))


# ---------------------------------------------------------------------------
# structural transforms

# name -> (help, input automata, construction, output flags).  A single
# automaton goes to --out (stdout without it); the parts of a split go one
# to each required flag.
_STRUCTURAL = {
    "normalize": ("fresh weight-1 endpoints", ("file",), normalize, ("--out",)),
    "roll": ("normalized -> loopback", ("file",), roll, ("--out",)),
    "unroll": ("loopback -> normalized", ("file",), unroll, ("--out",)),
    "conjoin": ("glue two normalized automata", ("x", "y"), conjoin2, ("--out",)),
    "conjoin3": ("glue three normalized automata", ("x", "m", "y"), conjoin3,
                 ("--out",)),
    "disjoin": ("split a loopback-with-prelude automaton", ("file",), disjoin2,
                ("--out-x", "--out-y")),
    "disjoin3": ("split a bridge automaton", ("file",), disjoin3,
                 ("--out-x", "--out-m", "--out-y")),
}


def cmd_structural(args):
    _, inputs, construct, outputs = _STRUCTURAL[args.command]
    result = construct(*(_load_automaton(getattr(args, name)) for name in inputs))
    if isinstance(result, Automaton):
        _write_output(format_automaton(result), args.out)
        return
    for flag, part in zip(outputs, result):
        _write_file(getattr(args, flag[2:].replace("-", "_")), format_automaton(part))


def cmd_decompose(args):
    aut = _load_automaton(args.file)
    decompose = decompose_diverging if args.level == "div" else decompose_bidiverging
    parts = decompose(aut).parts
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DivautError(f"cannot create {out_dir}: {exc}") from None
    sr = aut.semiring
    manifest = []
    for idx, (left, part, right) in enumerate(parts):
        name = f"part_{idx:03d}.aut"
        _write_file(out_dir / name, format_automaton(part))
        manifest.append((name, sr.format(left), sr.format(right),
                         classify(part).value))
    lines = ["\t".join(("file", "left", "right", "class"))]
    lines += ["\t".join(entry) for entry in manifest]
    _write_file(out_dir / "manifest.tsv", "\n".join(lines) + "\n")
    print(f"wrote {len(parts)} parts to {out_dir}")


# ---------------------------------------------------------------------------
# rational translations

def cmd_from_rational(args):
    obj = _load_any(args.file)
    if not isinstance(obj, ExpressionFile):
        raise DivautError("from-rational needs an expression file")
    declared = expr_level(obj.expr)
    level = args.level or declared
    compilers = {"conv": kleene.compile_conv, "div": kleene.compile_div,
                 "bidiv": kleene.compile_bidiv}
    if declared != level:
        raise DivautError(f"expression is {declared}-level, not {level}")
    aut = compilers[level](obj.semiring, obj.alphabet, obj.expr)
    _write_output(format_automaton(aut), args.out)


def cmd_to_rational(args):
    aut = _load_automaton(args.file)
    extractors = {"conv": kleene.extract_conv, "div": kleene.extract_div,
                  "bidiv": kleene.extract_bidiv}
    expr = extractors[args.level](aut)
    _write_output(format_expression_file(aut.semiring, aut.alphabet, expr),
                  args.out)


# ---------------------------------------------------------------------------
# equivalence sampling

def _sample_words(alphabet: Alphabet, level: str, count: int, seed: int):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        def chunk(lo, hi):
            return tuple(rng.choice(alphabet.symbols)
                         for _ in range(rng.randint(lo, hi)))
        if level == "conv":
            out.append(FiniteWord(alphabet, chunk(0, 6)))
        elif level == "div":
            out.append(UPInfiniteWord(alphabet, chunk(0, 3), chunk(1, 3)))
        else:
            out.append(BiInfiniteWord(alphabet, chunk(1, 3), chunk(0, 2),
                                      chunk(1, 3)))
    return out


def _evaluator(obj, level, policy, chi):
    """Returns (semiring, alphabet, context): context(word) evaluates one
    word, as a function value(i, n); one-sided levels ignore the window
    start i, and the converging level the length n too.  Below the
    converging level, context(word, text=True) gives the values' text, read
    from a masked behavior's own text windows."""
    if isinstance(obj, Automaton):
        sr, alphabet = obj.semiring, obj.alphabet
        if level == "conv":
            return sr, alphabet, lambda word: lambda i, n: converging_weight(obj, word)
        behavior = DivergingBehavior if level == "div" else BidivergingBehavior

        def build(word):
            return behavior(obj, word, policy)
    else:
        sr, alphabet, expr = obj.semiring, obj.alphabet, obj.expr
        if expr_level(expr) != level:
            raise DivautError(f"expression is {expr_level(expr)}-level, not {level}")
        if level == "conv":
            return sr, alphabet, lambda word: lambda i, n: conv_coeff(sr, expr, word)
        series = DivSeries if level == "div" else BidivSeries

        def build(word):
            return series(sr, expr, word, chi)

    def context(word, text=False):
        built = build(word)
        if text and isinstance(built, _MaskedBehavior):
            return built._text if level == "bidiv" else lambda i, n: built._text(0, n)
        at = built.at if level == "bidiv" else lambda i, n: built.at(n)
        return (lambda i, n: sr.format(at(i, n))) if text else at
    return sr, alphabet, context


def cmd_equiv(args):
    _at_least("--n-max", args.n_max, 0)
    _at_least("--i-range", args.i_range, 0)
    _at_least("--samples", args.samples, 1)
    first = _load_any(args.a)
    second = _load_any(args.b)
    policy = _policy(args.activation)
    chi = _policy(args.chi)
    level = args.level
    sr_a, alpha_a, context_a = _evaluator(first, level, policy, chi)
    sr_b, alpha_b, context_b = _evaluator(second, level, policy, chi)
    require_same_semiring(sr_a, sr_b)
    require_same_alphabet(alpha_a, alpha_b)

    if args.word:
        words = [parse_word(text, alpha_a) for text in args.word]
    else:
        words = _sample_words(alpha_a, level, args.samples, args.seed)
    expected_kind = _WORD_KINDS[level]
    for word in words:
        if not isinstance(word, expected_kind):
            raise DivautError(f"word {format_word(word)!r} does not match "
                              f"level {level}")

    starts = range(-args.i_range, args.i_range + 1) if level == "bidiv" else (0,)
    lengths = range(args.n_max + 1) if level != "conv" else (0,)
    for word in words:
        value_a, value_b = context_a(word), context_b(word)
        for i in starts:
            for n in lengths:
                got_a, got_b = value_a(i, n), value_b(i, n)
                if not sr_a.eq(got_a, got_b):
                    where = f"word={format_word(word)!r}"
                    if level == "bidiv":
                        where += f" i={i}"
                    if level != "conv":
                        where += f" n={n}"
                    print(f"disagree: {where}: "
                          f"{sr_a.format(got_a)} vs {sr_a.format(got_b)}")
                    return
    print(f"agree on all samples ({len(words)} words; semi-decision only)")


# ---------------------------------------------------------------------------
# quantum

def cmd_quantum(args):
    policy = _policy(args.activation)
    if args.quantum_command == "magnetization":
        _write_output(format_automaton(quantum.build_magnetization()), args.out)
        return
    if args.quantum_command == "correlator":
        _at_least("--k", args.k, 0)
        _write_output(format_automaton(quantum.build_correlator(args.k)), args.out)
        return
    _at_least("--n", args.n, 0)
    if args.rate_at is not None:
        _at_least("--rate-at", args.rate_at, 1)
    if args.quantum_command == "expect":
        state = _load_automaton(args.state)
        operator = _load_automaton(args.operator)
        ev = quantum.expected_value(state, operator, policy)
        _print_expect_table(ev, args.n, args.rate_at)
        return
    terms = _parse_hs_terms(args.terms)
    operator = quantum.build_hs_hamiltonian(terms)
    ev = quantum.expected_value(quantum.up_state(), operator, policy)
    _print_expect_table(ev, args.n, args.rate_at)


def _parse_hs_terms(text: str):
    from .semiring import GAUSSIAN

    terms = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(",")
        if len(pieces) != 2:
            raise DivautError(f"bad term {part!r}; expected amplitude,decay")
        terms.append((GAUSSIAN.parse(pieces[0].strip()),
                      GAUSSIAN.parse(pieces[1].strip())))
    if not terms:
        raise DivautError("need at least one amplitude,decay term")
    return terms


def _print_expect_table(ev, n_max: int, rate_at):
    from .semiring import GAUSSIAN

    rows, ratios = [], []
    for n in range(n_max + 1):
        numerator, denominator, ratio = ev.row(n)
        ratios.append(ratio)
        rows.append((str(n), GAUSSIAN.format(numerator),
                     GAUSSIAN.format(denominator),
                     "undef" if ratio is None else GAUSSIAN.format(ratio)))
    _print_rows(rows)
    if rate_at is not None:
        # a probe inside the table takes its ratios from the rows: the
        # sequences read forward, and a read below their kept span restarts
        ratio_prev, ratio_here = (ratios[rate_at - 1:rate_at + 1] if rate_at <= n_max
                                  else (ev.ratio_at(rate_at - 1), ev.ratio_at(rate_at)))
        if ratio_prev is None or ratio_here is None:
            raise DivautError(f"ratio undefined near probe point {rate_at}")
        print(f"rate\t{GAUSSIAN.format(ratio_here - ratio_prev)}")


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divaut",
        description="Weighted automata and rational series over infinite and "
                    "biinfinite words, with divergence-profile semantics.")
    parser.add_argument("--activation", default="auto",
                        help="activation decision: auto, exact, or horizon:<K>")
    parser.add_argument("--chi", default="auto",
                        help="acceptance-indicator decision for expression "
                             "evaluation: auto, exact, or horizon:<K>")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an automaton or expression on a word")
    p.add_argument("file")
    p.add_argument("--word", required=True,
                   help="finite 'a b', infinite 'a . ( b )^w', or biinfinite "
                        "'( a )^~w . b . ( c )^w'")
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--i", type=int, default=0,
                   help="window start for biinfinite words")
    p.set_defaults(func=cmd_eval)

    for name, (help_text, inputs, _, outputs) in _STRUCTURAL.items():
        p = sub.add_parser(name, help=help_text)
        for input_name in inputs:
            p.add_argument(input_name)
        for flag in outputs:
            p.add_argument(flag, required=flag != "--out")
        p.set_defaults(func=cmd_structural)

    p = sub.add_parser("decompose",
                       help="weighted sum of loopback/prelude/bridge parts")
    p.add_argument("file")
    p.add_argument("--level", choices=("div", "bidiv"), required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("from-rational", help="compile an expression file")
    p.add_argument("file")
    p.add_argument("--level", choices=("conv", "div", "bidiv"))
    p.add_argument("--out")
    p.set_defaults(func=cmd_from_rational)

    p = sub.add_parser("to-rational", help="extract an expression")
    p.add_argument("file")
    p.add_argument("--level", choices=("conv", "div", "bidiv"), required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_to_rational)

    p = sub.add_parser("equiv", help="sampled behavioral equality (semi-decision)")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--level", choices=("conv", "div", "bidiv"), required=True)
    p.add_argument("--word", action="append",
                   help="explicit sample word (repeatable)")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--i-range", type=int, default=3)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("quantum", help="spin-chain pipeline")
    qsub = p.add_subparsers(dest="quantum_command", required=True)

    q = qsub.add_parser("magnetization", help="emit the magnetization operator")
    q.add_argument("--out")
    q.set_defaults(func=cmd_quantum)

    q = qsub.add_parser("correlator", help="emit a two-point ZZ correlator")
    q.add_argument("--k", type=int, required=True,
                   help="identity sites between the two Z sites")
    q.add_argument("--out")
    q.set_defaults(func=cmd_quantum)

    q = qsub.add_parser("expect", help="expected-value table for a state/operator")
    q.add_argument("--state", required=True)
    q.add_argument("--operator", required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--rate-at", type=int)
    q.set_defaults(func=cmd_quantum)

    q = qsub.add_parser("hs", help="decaying-exponential spin-coupling "
                                   "hamiltonian on the all-up state")
    q.add_argument("--terms", required=True,
                   help="semicolon-separated amplitude,decay pairs")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--rate-at", type=int)
    q.set_defaults(func=cmd_quantum)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # exact weights outgrow the default 4300-digit int<->str limit: lift it
    # while the command runs (where the interpreter has one)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    try:
        if limit is not None:
            sys.set_int_max_str_digits(0)
        args.func(args)
    except DivautParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except DivautError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:  # the parser and the compiler recurse once per level
        print("error: expression nested too deeply", file=sys.stderr)
        return 1
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    return 0


def run():
    """Process entry point of ``python -m divaut`` and the ``divaut``
    script: runs :func:`main` and exits with its code, skipping interpreter
    teardown.

    The exit goes through an ``atexit`` handler, so it comes after a
    profiler has printed its report and after ``coverage run`` has saved its
    data.  The handler flushes stdout and stderr and then ends the process
    with ``os._exit``; if a flush raises, it returns and normal finalization
    reports the error.  A closed stdout pipe exits 1 with nothing on stderr;
    any other failed write to stdout exits 1 with one ``error:`` line.
    """
    reported = False
    try:
        code = main()
    except BrokenPipeError:
        code = 1
    except OSError as exc:  # files fail as DivautError: this is a stdout write
        code, reported = _stdout_failed(exc), True
    atexit.register(_exit_without_teardown, code, reported)
    sys.exit(code)


def _stdout_failed(exc) -> int:
    """Reports a failed stdout write on stderr; returns the exit code."""
    try:
        print(f"error: cannot write to stdout: {exc}", file=sys.stderr)
    except (OSError, ValueError, AttributeError):
        pass
    return 1


def _exit_without_teardown(code, reported):
    # a stream is None when the process started with that descriptor closed
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except BrokenPipeError:
        code = 1  # the reader has gone; os._exit drops what is still buffered
    except OSError as exc:
        if not reported:
            code = _stdout_failed(exc)
    except ValueError:
        return
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except (OSError, ValueError):
        return
    os._exit(code)


if __name__ == "__main__":
    run()
