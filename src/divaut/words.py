"""Finite, ultimately periodic infinite, and biinfinite words.

Infinite words are restricted to the ultimately periodic shape ``u v^w`` and
biinfinite ones to ``l^~w m r^w``: every query this package answers needs a
finite description, and those shapes are closed under everything we do to
them (slicing, shifting, concatenation with a finite prefix).
"""
from __future__ import annotations

from math import lcm

from ._record import Record
from .errors import AlphabetMismatch, DivautParseError, UnknownSymbol


class Alphabet(Record):
    symbols: tuple

    def __post_init__(self):
        if not self.symbols:
            raise ValueError("alphabet must be non-empty")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet has duplicate symbols")

    def __contains__(self, symbol):
        return symbol in self.symbols

    def __iter__(self):
        return iter(self.symbols)

    def require(self, symbol):
        if symbol not in self.symbols:
            raise UnknownSymbol(f"symbol {symbol!r} not in alphabet {list(self.symbols)}")
        return symbol


def require_same_alphabet(a: Alphabet, b: Alphabet) -> Alphabet:
    if a != b:
        raise AlphabetMismatch(f"alphabet mismatch: {list(a.symbols)} vs {list(b.symbols)}")
    return a


def _check_symbols(alphabet, symbols):
    for s in symbols:
        alphabet.require(s)
    return tuple(symbols)


class FiniteWord(Record):
    alphabet: Alphabet
    symbols: tuple

    def __post_init__(self):
        object.__setattr__(self, "symbols", _check_symbols(self.alphabet, self.symbols))

    def __len__(self):
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def char_at(self, i: int):
        if not 0 <= i < len(self.symbols):
            raise IndexError(f"position {i} outside finite word of length {len(self.symbols)}")
        return self.symbols[i]

    def slice(self, start: int, end):
        return slice_word(self, start, end)


class UPInfiniteWord(Record):
    """Ultimately periodic infinite word: finite prefix, then a repeated cycle."""

    alphabet: Alphabet
    prefix: tuple
    cycle: tuple

    def __post_init__(self):
        object.__setattr__(self, "prefix", _check_symbols(self.alphabet, self.prefix))
        object.__setattr__(self, "cycle", _check_symbols(self.alphabet, self.cycle))
        if not self.cycle:
            raise ValueError("cycle must be non-empty")

    def char_at(self, i: int):
        if i < 0:
            raise IndexError("infinite words are indexed from 0")
        if i < len(self.prefix):
            return self.prefix[i]
        return self.cycle[(i - len(self.prefix)) % len(self.cycle)]

    def slice(self, start: int, end):
        return slice_word(self, start, end)


class BiInfiniteWord(Record):
    """Biinfinite word ``l^~w m r^w``.

    With ``origin`` 0 the first character of the center block sits at
    position 0 (or the first cycle of the right block when the center is
    empty).  ``shift_by`` re-indexes by adjusting ``origin`` only, so the
    underlying two-way sequence never changes.
    """

    alphabet: Alphabet
    left: tuple
    center: tuple
    right: tuple
    origin: int = 0

    def __post_init__(self):
        object.__setattr__(self, "left", _check_symbols(self.alphabet, self.left))
        object.__setattr__(self, "center", _check_symbols(self.alphabet, self.center))
        object.__setattr__(self, "right", _check_symbols(self.alphabet, self.right))
        if not self.left or not self.right:
            raise ValueError("left and right cycles must be non-empty")

    def char_at(self, i: int):
        j = i - self.origin
        if j < 0:
            return self.left[j % len(self.left)]
        if j < len(self.center):
            return self.center[j]
        return self.right[(j - len(self.center)) % len(self.right)]

    def shift_by(self, k: int) -> "BiInfiniteWord":
        """Word w' with w'.char_at(i) == self.char_at(i - k)."""
        return BiInfiniteWord(self.alphabet, self.left, self.center, self.right,
                              self.origin + k)

    def slice(self, start: int, end):
        return slice_word(self, start, end)


def slice_word(word, start: int, end):
    """Substring from ``start`` up to (excluding) ``end``; ``end=None`` means
    +infinity and yields an ultimately periodic word."""
    if end is not None:
        if start > end:
            raise IndexError(f"slice start {start} exceeds end {end}")
        if isinstance(word, (FiniteWord, UPInfiniteWord)) and start < 0:
            raise IndexError("one-way words are indexed from 0")
        if isinstance(word, FiniteWord) and end > len(word):
            raise IndexError(f"slice end {end} outside finite word of length {len(word)}")
        return FiniteWord(word.alphabet, tuple(word.char_at(i) for i in range(start, end)))

    if isinstance(word, FiniteWord):
        raise IndexError("cannot take an infinite slice of a finite word")
    if isinstance(word, UPInfiniteWord):
        if start < 0:
            raise IndexError("one-way words are indexed from 0")
        if start <= len(word.prefix):
            return UPInfiniteWord(word.alphabet, word.prefix[start:], word.cycle)
        rot = (start - len(word.prefix)) % len(word.cycle)
        return UPInfiniteWord(word.alphabet, (), word.cycle[rot:] + word.cycle[:rot])
    # biinfinite: from start onward the word is the center remainder, then
    # the right cycle
    center_end = word.origin + len(word.center)
    if start >= center_end:
        rot = (start - center_end) % len(word.right)
        return UPInfiniteWord(word.alphabet, (), word.right[rot:] + word.right[:rot])
    prefix = tuple(word.char_at(i) for i in range(start, center_end))
    return UPInfiniteWord(word.alphabet, prefix, word.right)


def concat(a: FiniteWord, b):
    """Prepend the finite word ``a`` to ``b`` (finite or infinite)."""
    require_same_alphabet(a.alphabet, b.alphabet)
    if isinstance(b, FiniteWord):
        return FiniteWord(a.alphabet, a.symbols + b.symbols)
    if isinstance(b, UPInfiniteWord):
        return UPInfiniteWord(a.alphabet, a.symbols + b.prefix, b.cycle)
    raise TypeError(f"cannot concatenate onto {type(b).__name__}")


def words_equal(a, b) -> bool:
    """Semantic equality.

    Ultimately periodic words that agree on a window as long as both
    transients plus twice the cycle lcm agree everywhere, so the comparison
    is exact despite being bounded.
    """
    if a.alphabet != b.alphabet:
        return False
    if isinstance(a, FiniteWord) and isinstance(b, FiniteWord):
        return a.symbols == b.symbols
    if isinstance(a, UPInfiniteWord) and isinstance(b, UPInfiniteWord):
        window = len(a.prefix) + len(b.prefix) + 2 * lcm(len(a.cycle), len(b.cycle))
        return all(a.char_at(i) == b.char_at(i) for i in range(window))
    if isinstance(a, BiInfiniteWord) and isinstance(b, BiInfiniteWord):
        left = 2 * lcm(len(a.left), len(b.left))
        right = 2 * lcm(len(a.right), len(b.right))
        lo = min(a.origin, b.origin) - left
        hi = max(a.origin + len(a.center), b.origin + len(b.center)) + right
        return all(a.char_at(i) == b.char_at(i) for i in range(lo, hi))
    return False


def parse_word(text: str, alphabet: Alphabet):
    """Parse the surface word syntax.

    finite      ``a b c``
    infinite    ``a b . ( c d )^w``       (prefix optional)
    biinfinite  ``( b )^~w . g . ( a )^w``  (center optional)
    """
    sections = [part.split() for part in text.split(".")]
    if any(not tok for sec in sections for tok in sec):
        raise DivautParseError(f"malformed word {text!r}")

    def parse_section(tokens):
        if tokens and tokens[0] == "(":
            if len(tokens) < 3 or tokens[-1] not in (")^w", ")^~w"):
                raise DivautParseError(f"malformed cycle in word {text!r}")
            body = tokens[1:-1]
            if any(t in ("(", ")^w", ")^~w") for t in body) or not body:
                raise DivautParseError(f"malformed cycle in word {text!r}")
            return ("~cycle" if tokens[-1] == ")^~w" else "cycle", body)
        if any(t in ("(", ")^w", ")^~w") for t in tokens):
            raise DivautParseError(f"malformed word {text!r}")
        return ("plain", tokens)

    parsed = [parse_section(sec) for sec in sections]
    kinds = [kind for kind, _ in parsed]

    if kinds == ["plain"]:
        return FiniteWord(alphabet, tuple(parsed[0][1]))
    if kinds == ["cycle"]:
        return UPInfiniteWord(alphabet, (), tuple(parsed[0][1]))
    if kinds == ["plain", "cycle"]:
        return UPInfiniteWord(alphabet, tuple(parsed[0][1]), tuple(parsed[1][1]))
    if kinds == ["~cycle", "cycle"]:
        return BiInfiniteWord(alphabet, tuple(parsed[0][1]), (), tuple(parsed[1][1]))
    if kinds == ["~cycle", "plain", "cycle"]:
        return BiInfiniteWord(alphabet, tuple(parsed[0][1]), tuple(parsed[1][1]),
                              tuple(parsed[2][1]))
    raise DivautParseError(f"malformed word {text!r}")


def format_word(word) -> str:
    if isinstance(word, FiniteWord):
        return " ".join(word.symbols)
    if isinstance(word, UPInfiniteWord):
        cycle = f"( {' '.join(word.cycle)} )^w"
        if word.prefix:
            return f"{' '.join(word.prefix)} . {cycle}"
        return cycle
    if isinstance(word, BiInfiniteWord):
        if word.origin != 0:
            word = _rebase(word)
        left = f"( {' '.join(word.left)} )^~w"
        right = f"( {' '.join(word.right)} )^w"
        if word.center:
            return f"{left} . {' '.join(word.center)} . {right}"
        return f"{left} . {right}"
    raise TypeError(f"not a word: {word!r}")


def _rebase(word: BiInfiniteWord) -> BiInfiniteWord:
    """Equivalent representation with origin 0.

    Only right shifts can be absorbed: the absorbed characters extend the
    center and rotate the left cycle.  A left-shifted word would need center
    characters at negative positions, which the surface syntax cannot spell.
    """
    k = word.origin
    nl, nc = len(word.left), len(word.center)
    if k < 0:
        raise ValueError("cannot serialize a word shifted left of its center")
    center = tuple(word.char_at(i) for i in range(0, nc + k))
    left = tuple(word.left[(j - k) % nl] for j in range(nl))
    return BiInfiniteWord(word.alphabet, left, center, word.right)
