"""Textual formats for automata and expressions.

One human-readable format each, with deterministic serialization (states in
id order, transitions sorted) so emitted files are byte-stable and every
emitted file re-parses to a semantically equal object.

Both formats are read by one reader: a file is a sequence of ``key: value``
sections, each key at most once and after the sections its value needs.
Lists are ``[...]``, weight maps and transitions ``{...}``, expression
arguments ``(...)``; a comma may follow each item and is never required.
Every white space character separates tokens, and ``#`` starts a comment
that runs to the end of the line.
"""
from __future__ import annotations

import re
from collections import namedtuple

from ._record import Record
from .automaton import Automaton
from .errors import DivautParseError
from .semiring import Semiring, semiring_by_name
from .series import (
    Atom,
    Cat,
    Conjoin2,
    Conjoin3,
    Expr,
    Omega,
    Scale,
    Star,
    Sum,
    Zeta,
    expr_level,
)
from .words import Alphabet

Token = namedtuple("Token", "text line column is_word")

# newline, other white space, comment, punctuation, word: every character
# starts a match of one of them, so the scan never stalls
_TOKEN = re.compile(r"(\n)|([^\S\n]+)|(#[^\n]*)|([\[\]{}:,()])|([^\s#\[\]{}:,()]+)")
_NEWLINE, _PUNCT, _WORD = 1, 4, 5


def tokenize(text: str):
    """Yields the punctuation and word tokens of ``text``, lazily."""
    line, line_start = 1, 0
    for match in _TOKEN.finditer(text):
        kind = match.lastindex
        if kind == _NEWLINE:
            line += 1
            line_start = match.end()
        elif kind >= _PUNCT:
            yield Token(match.group(), line, match.start() - line_start + 1,
                        kind == _WORD)


# The expression syntax: one head per node class.  A node's arguments are
# its record fields in order, read and written by their annotation
# (strings, as series.py postpones annotations): "Expr" a subexpression,
# "str" a symbol, "object" a coefficient, "tuple" any number of
# subexpressions.
_HEADS = {"sym": Atom, "sum": Sum, "cat": Cat, "star": Star, "scale": Scale,
          "omega": Omega, "conjoin": Conjoin2, "zeta": Zeta, "conjoin3": Conjoin3}
_HEAD_OF = {cls: head for head, cls in _HEADS.items()}
_ARGS = {cls: tuple(cls._fields.items()) for cls in _HEAD_OF}


class _Reader:
    """Recursive descent over ``tokenize(text)`` with one token of lookahead
    (``tok``, None at the end of the input)."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.tok = next(self.tokens, None)

    def error(self, message, tok=None):
        """A parse error at ``tok``, or at the end of the input."""
        if tok is None:
            return DivautParseError(message, self.text.count("\n") + 1,
                                    len(self.text) - self.text.rfind("\n"))
        return DivautParseError(message, tok.line, tok.column)

    def at(self, text) -> bool:
        return self.tok is not None and self.tok.text == text

    def next(self, expect=None):
        tok = self.tok
        if tok is None:
            raise self.error("unexpected end of input")
        if expect is not None and tok.text != expect:
            raise self.error(f"expected {expect!r}, found {tok.text!r}", tok)
        self.tok = next(self.tokens, None)
        return tok

    def word(self, what="name"):
        tok = self.next()
        if not tok.is_word:
            raise self.error(f"expected {what}, found {tok.text!r}", tok)
        return tok

    def comma(self):
        """Skips the comma that may follow an item."""
        if self.at(","):
            self.next()

    def items(self, open_, close, item):
        """The list ``open_ item item ... close``."""
        self.next(open_)
        out = []
        while not self.at(close):
            out.append(item())
            self.comma()
        self.next(close)
        return out

    def sections(self, table, required):
        """Reads ``key: value`` sections to the end of the input and returns
        the values by key.  ``table`` maps each key to the keys that must
        come before it and to ``read(reader, values)``, which reads its
        value given the values read so far."""
        values = {}
        while self.tok is not None:
            key = self.word("section name")
            if key.text not in table:
                raise self.error(f"unknown section {key.text!r}", key)
            if key.text in values:
                raise self.error(f"duplicate section {key.text!r}", key)
            after, read = table[key.text]
            if not all(need in values for need in after):
                raise self.error(f"{key.text} must follow {', '.join(after)}", key)
            self.next(":")
            try:
                values[key.text] = read(self, values)
            except ValueError as exc:  # well-formed, but not a valid value
                raise self.error(str(exc), key) from None
        if not all(need in values for need in required):
            raise DivautParseError(f"file needs {', '.join(required)} sections")
        return values

    def parsed(self, parse, tok):
        """``parse(tok.text)``, its parse errors placed at ``tok``."""
        try:
            return parse(tok.text)
        except DivautParseError as exc:
            raise self.error(str(exc), tok) from None

    def state(self, state_index, tok):
        if tok.text not in state_index:
            raise self.error(f"unknown state {tok.text!r}", tok)
        return state_index[tok.text]

    def symbol(self, alphabet: Alphabet, tok):
        if tok.text not in alphabet:
            raise self.error(f"symbol {tok.text!r} not in alphabet", tok)
        return tok.text

    def names(self):
        return [tok.text for tok in self.items("[", "]", self.word)]

    def expr(self, sr: Semiring, alphabet: Alphabet) -> Expr:
        head = self.word("expression")
        if head.text not in _HEADS:
            raise self.error(f"unknown expression head {head.text!r}", head)
        cls = _HEADS[head.text]
        if cls is Sum:
            return Sum(tuple(self.items("(", ")", lambda: self.expr(sr, alphabet))))
        self.next("(")
        args = []
        for _, kind in _ARGS[cls]:
            if kind == "Expr":
                args.append(self.expr(sr, alphabet))
            elif kind == "str":
                args.append(self.symbol(alphabet, self.word("symbol")))
            else:
                args.append(self.parsed(sr.parse, self.word("coefficient")))
            self.comma()
        self.next(")")
        return cls(*args)


# ---------------------------------------------------------------------------
# sections

def _semiring(reader, values):
    return reader.parsed(semiring_by_name, reader.word("semiring name"))


def _alphabet(reader, values):
    return Alphabet(tuple(reader.names()))


def _states(reader, values):
    names = reader.names()
    state_index = {name: i for i, name in enumerate(names)}
    if len(state_index) != len(names):
        raise ValueError("duplicate state names")
    return state_index


def _weight_map(reader, values):
    sr, state_index = values["semiring"], values["states"]

    def entry():
        state = reader.state(state_index, reader.word("state name"))
        reader.next(":")
        return state, reader.parsed(sr.parse, reader.word("weight"))
    return dict(reader.items("{", "}", entry))


def _transitions(reader, values):
    sr, alphabet, state_index = values["semiring"], values["alphabet"], values["states"]

    def field():
        key = reader.word("transition field")
        if key.text not in ("from", "to", "symbol", "weight"):
            raise reader.error(f"unknown transition field {key.text!r}", key)
        reader.next(":")
        return key.text, reader.word("value")

    def transition():
        brace = reader.tok
        given = dict(reader.items("{", "}", field))
        for need in ("from", "to", "symbol"):
            if need not in given:
                raise reader.error(f"transition is missing {need!r}", brace)
        weight = reader.parsed(sr.parse, given["weight"]) if "weight" in given else sr.one
        return (reader.state(state_index, given["from"]),
                reader.state(state_index, given["to"]),
                reader.symbol(alphabet, given["symbol"]), weight)
    return reader.items("[", "]", transition)


def _expr(reader, values):
    head = reader.tok
    e = reader.expr(values["semiring"], values["alphabet"])
    try:
        expr_level(e)
    except TypeError as exc:  # the expression mixes series levels
        raise reader.error(str(exc), head) from None
    return e


_AUTOMATON_SECTIONS = {
    "semiring": ((), _semiring),
    "alphabet": ((), _alphabet),
    "states": ((), _states),
    "initial": (("semiring", "states"), _weight_map),
    "final": (("semiring", "states"), _weight_map),
    "transitions": (("semiring", "alphabet", "states"), _transitions),
}
_EXPRESSION_SECTIONS = {
    "semiring": ((), _semiring),
    "alphabet": ((), _alphabet),
    "expr": (("semiring", "alphabet"), _expr),
}


# ---------------------------------------------------------------------------
# automaton files

def parse_automaton(text: str) -> Automaton:
    values = _Reader(text).sections(_AUTOMATON_SECTIONS,
                                    ("semiring", "alphabet", "states"))
    states = values["states"]
    return Automaton.build(values["semiring"], values["alphabet"], len(states),
                           values.get("initial", {}), values.get("final", {}),
                           values.get("transitions", []), state_names=list(states))


def _header(sr: Semiring, alphabet: Alphabet) -> list:
    return [f"semiring: {sr.name}", f"alphabet: [{', '.join(alphabet.symbols)}]"]


def format_automaton(aut: Automaton) -> str:
    sr = aut.semiring
    names = [aut.name_of(i) for i in range(aut.num_states)]
    lines = _header(sr, aut.alphabet) + [f"states: [{', '.join(names)}]"]

    def weight_map(vec):
        entries = [f"{names[i]}: {sr.format(w)}" for i, w in enumerate(vec)
                   if not sr.is_zero(w)]
        return "{" + ", ".join(entries) + "}"

    lines.append(f"initial: {weight_map(aut.initial)}")
    lines.append(f"final: {weight_map(aut.final)}")
    edges = sorted(aut.edges(), key=lambda e: (names[e[0]], e[2], names[e[1]]))
    if not edges:
        lines.append("transitions: []")
    else:
        lines.append("transitions: [")
        for src, dst, symbol, weight in edges:
            lines.append(f"  {{from: {names[src]}, to: {names[dst]}, "
                         f"symbol: {symbol}, weight: {sr.format(weight)}}},")
        lines.append("]")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# expression files

class ExpressionFile(Record):
    semiring: Semiring
    alphabet: Alphabet
    expr: Expr


def parse_expression_file(text: str) -> ExpressionFile:
    values = _Reader(text).sections(_EXPRESSION_SECTIONS,
                                    ("semiring", "alphabet", "expr"))
    return ExpressionFile(values["semiring"], values["alphabet"], values["expr"])


def format_expr(sr: Semiring, e: Expr) -> str:
    if type(e) not in _HEAD_OF:
        raise TypeError(f"not a series expression: {e!r}")
    args = (_format_arg(sr, kind, getattr(e, name)) for name, kind in _ARGS[type(e)])
    return f"{_HEAD_OF[type(e)]}({', '.join(args)})"


def _format_arg(sr: Semiring, kind: str, value) -> str:
    if kind == "Expr":
        return format_expr(sr, value)
    if kind == "tuple":
        return ", ".join(format_expr(sr, t) for t in value)
    if kind == "str":
        return value
    return sr.format(sr.check(value))


def format_expression_file(sr: Semiring, alphabet: Alphabet, e: Expr) -> str:
    return "\n".join(_header(sr, alphabet) + [f"expr: {format_expr(sr, e)}"]) + "\n"


_KINDS = {"states": "automaton", "expr": "expression"}


def detect_kind(text: str) -> str:
    """'automaton' or 'expression', by whether a ``states`` or an ``expr``
    section comes first.  A section key is a word outside all brackets that
    is followed by ':'; a bracket left unbalanced before the first key is
    reported where it stands."""
    open_, prev = [], None
    for tok in tokenize(text):
        if tok.text in "([{":
            open_.append(tok)
        elif tok.text in ")]}":
            if not open_:
                raise DivautParseError(f"unmatched {tok.text!r}", tok.line, tok.column)
            open_.pop()
        elif tok.text == ":" and not open_ and prev in _KINDS:
            return _KINDS[prev]
        prev = tok.text
    if open_:
        tok = open_[0]
        raise DivautParseError(f"unclosed {tok.text!r}", tok.line, tok.column)
    raise DivautParseError("file has neither a states nor an expr section")
