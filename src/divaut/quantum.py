"""Quantum states as bidiverging series over a configuration alphabet,
observables over the endomorphism alphabet, and the expected-value pipeline.

A state of a biinfinite spin chain is an automaton over the configuration
alphabet with Gaussian-rational weights.  Operators are automata over the
alphabet of formal one-site maps ``a->b``; applying one to a state is a
product construction, and the dual turns a state into a transducer onto the
singleton alphabet, so bra-operator-ket sandwiches collapse to automata over
a single symbol whose behavior is just a sequence of numbers indexed by the
window size n: the value on any n contiguous bulk sites.
"""
from __future__ import annotations

from ._record import Record
from .activation import AUTO, ActivationPolicy, BidivergingBehavior
from .automaton import Automaton
from .errors import AlphabetMismatch, SemiringMismatch
from .semiring import GAUSSIAN, GaussianRational, gaussian
from .series import Atom, Cat, Conjoin3, Scale, Star, Sum
from .words import Alphabet, BiInfiniteWord
from . import kleene

UP = "up"
DOWN = "dn"
SPIN = Alphabet((UP, DOWN))
SCALAR = Alphabet(("0",))


def endo_symbol(src: str, dst: str) -> str:
    return f"{src}->{dst}"


def split_endo_symbol(symbol: str):
    if "->" not in symbol:
        raise AlphabetMismatch(f"{symbol!r} is not an a->b operator symbol")
    src, dst = symbol.split("->", 1)
    return src, dst


def endo_alphabet(src: Alphabet, dst: Alphabet) -> Alphabet:
    return Alphabet(tuple(endo_symbol(a, b) for a in src for b in dst))


SPIN_ENDO = endo_alphabet(SPIN, SPIN)
SPIN_DUAL = endo_alphabet(SPIN, SCALAR)


def build_pauli_atoms() -> dict:
    """Single-site spin operators as converging expressions over the
    operator alphabet: X flips, Y flips with a quarter turn, Z signs, and I
    passes through."""
    i = gaussian(0, 1)
    one = gaussian(1)
    return {
        "X": Sum((Atom(endo_symbol(UP, DOWN), one),
                  Atom(endo_symbol(DOWN, UP), one))),
        "Y": Sum((Atom(endo_symbol(UP, DOWN), -i),
                  Atom(endo_symbol(DOWN, UP), i))),
        "Z": Sum((Atom(endo_symbol(UP, UP), one),
                  Atom(endo_symbol(DOWN, DOWN), -one))),
        "I": Sum((Atom(endo_symbol(UP, UP), one),
                  Atom(endo_symbol(DOWN, DOWN), one))),
    }


def uniform_state(symbol: str) -> Automaton:
    """The product state that repeats one configuration on every site."""
    SPIN.require(symbol)
    one = gaussian(1)
    return Automaton.build(GAUSSIAN, SPIN, 1, {0: one}, {0: one},
                           [(0, 0, symbol, one)])


def up_state() -> Automaton:
    return uniform_state(UP)


def down_state() -> Automaton:
    return uniform_state(DOWN)


def _operator_alphabets(op: Automaton):
    sources = []
    targets = []
    for symbol in op.alphabet:
        src, dst = split_endo_symbol(symbol)
        if src not in sources:
            sources.append(src)
        if dst not in targets:
            targets.append(dst)
    return Alphabet(tuple(sources)), Alphabet(tuple(targets))


def _pair_product(a: Automaton, b: Automaton, alphabet: Alphabet, triples) -> Automaton:
    """Product of two automata over ``alphabet``: the pair of states (i, j)
    is numbered i * |b| + j, and each (symbol of a, symbol of b, output
    symbol) triple gives one output edge per pair of edges."""
    sr = a.semiring
    nb = b.num_states
    initial = [sr.mul(x, y) for x in a.initial for y in b.initial]
    final = [sr.mul(x, y) for x in a.final for y in b.final]
    edges = []
    for sa, sb, out in triples:
        arows, brows = a.transitions.get(sa), b.transitions.get(sb)
        if arows is None or brows is None:
            continue
        for i, arow in enumerate(arows):
            for k, aw in arow:
                for j, brow in enumerate(brows):
                    for l, bw in brow:
                        edges.append((i * nb + j, k * nb + l, out, sr.mul(aw, bw)))
    return Automaton.build(sr, alphabet, a.num_states * nb, initial, final, edges)


def apply_transducer(op: Automaton, state: Automaton) -> Automaton:
    """Run an operator automaton over a state automaton.

    States pair up; a transition on output symbol b sums over the input
    symbols the two factors agree on.
    """
    if op.semiring is not state.semiring:
        raise SemiringMismatch("operator and state must share a semiring")
    sources, targets = _operator_alphabets(op)
    if set(sources) != set(state.alphabet):
        raise AlphabetMismatch(
            f"operator reads {list(sources.symbols)} but state is over "
            f"{list(state.alphabet.symbols)}")
    return _pair_product(op, state, targets,
                         [(symbol, *split_endo_symbol(symbol)) for symbol in op.alphabet])


def compose_transducers(outer: Automaton, inner: Automaton) -> Automaton:
    """Operator composition: (outer o inner) reading a and writing c sums
    over the intermediate symbol b."""
    if outer.semiring is not inner.semiring:
        raise SemiringMismatch("transducers must share a semiring")
    outer_src, outer_dst = _operator_alphabets(outer)
    inner_src, inner_dst = _operator_alphabets(inner)
    if set(outer_src) != set(inner_dst):
        raise AlphabetMismatch("composition needs the outer input alphabet to "
                               "match the inner output alphabet")
    return _pair_product(outer, inner, endo_alphabet(inner_src, outer_dst),
                         [(endo_symbol(b, c), endo_symbol(a, b), endo_symbol(a, c))
                          for b in outer_src for a in inner_src for c in outer_dst])


def dual(state: Automaton) -> Automaton:
    """Bra of a state: a transducer onto the singleton alphabet with every
    weight conjugated."""
    if state.semiring is not GAUSSIAN:
        raise SemiringMismatch("dual is defined over the gaussian semiring")
    sr = state.semiring
    alphabet = endo_alphabet(state.alphabet, SCALAR)
    edges = [(i, j, endo_symbol(s, "0"), sr.conjugate(w))
             for i, j, s, w in state.edges()]
    initial = tuple(sr.conjugate(w) for w in state.initial)
    final = tuple(sr.conjugate(w) for w in state.final)
    return Automaton.build(sr, alphabet, state.num_states, initial, final, edges)


def relabel_symbols(aut: Automaton, mapping: dict, alphabet: Alphabet) -> Automaton:
    edges = [(i, j, mapping[s], w) for i, j, s, w in aut.edges()]
    return Automaton.build(aut.semiring, alphabet, aut.num_states, aut.initial,
                           aut.final, edges)


_SCALAR_WORD = BiInfiniteWord(SCALAR, ("0",), (), ("0",))


class ScalarSequence:
    """Sequence of exact complex numbers read off an automaton over the
    singleton alphabet; the word and window start are immaterial, so the
    behavior is indexed by n alone (window start fixed at 0).
    """

    def __init__(self, aut: Automaton, policy: ActivationPolicy = AUTO):
        if aut.alphabet != SCALAR:
            raise AlphabetMismatch("scalar sequences need the singleton alphabet")
        self.automaton = aut
        self._behavior = BidivergingBehavior(aut, _SCALAR_WORD, policy)

    def at(self, n: int) -> GaussianRational:
        return self._behavior.at(0, n)

    def prefix(self, count: int):
        return [self.at(n) for n in range(count)]


def norm_sequence(state: Automaton, policy: ActivationPolicy = AUTO) -> ScalarSequence:
    """n -> squared norm of the state restricted to n contiguous sites."""
    return ScalarSequence(apply_transducer(dual(state), state), policy)


class ExpectedValue(Record):
    """Numerator and denominator sequences of a pointwise-ratio expected
    value; the ratio is partial (undefined where the denominator vanishes)."""

    numerator: ScalarSequence
    denominator: ScalarSequence

    def ratio_at(self, n: int):
        den = self.denominator.at(n)
        if not den:
            return None
        return self.numerator.at(n) / den

    def row(self, n: int):
        """(numerator, denominator, ratio) at n, each sequence read once."""
        numerator, denominator = self.numerator.at(n), self.denominator.at(n)
        return numerator, denominator, numerator / denominator if denominator else None


def expected_value(state: Automaton, operator: Automaton,
                   policy: ActivationPolicy = AUTO) -> ExpectedValue:
    """bra(state) . operator . ket(state) over n sites, next to the norm."""
    sources, targets = _operator_alphabets(operator)
    if set(sources) != set(targets):
        raise AlphabetMismatch("expected values need an endomorphism operator")
    numerator = ScalarSequence(
        apply_transducer(dual(state), apply_transducer(operator, state)), policy)
    return ExpectedValue(numerator, norm_sequence(state, policy))


# ---------------------------------------------------------------------------
# observable builders (spin-1/2 chain)

def build_magnetization() -> Automaton:
    """Total Z magnetization: identity everywhere except a single Z site.

    Built directly as the two-state automaton whose transition matrix is
    I on the diagonal plus Z in the upper corner.
    """
    one = gaussian(1)
    edges = [
        (0, 0, endo_symbol(UP, UP), one),
        (0, 0, endo_symbol(DOWN, DOWN), one),
        (1, 1, endo_symbol(UP, UP), one),
        (1, 1, endo_symbol(DOWN, DOWN), one),
        (0, 1, endo_symbol(UP, UP), one),
        (0, 1, endo_symbol(DOWN, DOWN), -one),
    ]
    return Automaton.build(GAUSSIAN, SPIN_ENDO, 2, {0: one}, {1: one}, edges)


def build_correlator(distance: int) -> Automaton:
    """Two-point ZZ correlator with ``distance`` identity sites between the
    two Z sites: a chain of length distance+2 bridging two identity loops."""
    if distance < 0:
        raise ValueError("correlator distance must be a natural number")
    one = gaussian(1)
    n = distance + 3
    last = n - 1
    edges = []
    for loop_state in (0, last):
        edges.append((loop_state, loop_state, endo_symbol(UP, UP), one))
        edges.append((loop_state, loop_state, endo_symbol(DOWN, DOWN), one))
    for step in range(n - 1):  # 0 -Z-> 1 -I-> ... -I-> n-2 -Z-> n-1
        is_z = step == 0 or step == n - 2
        edges.append((step, step + 1, endo_symbol(UP, UP), one))
        edges.append((step, step + 1, endo_symbol(DOWN, DOWN), -one if is_z else one))
    return Automaton.build(GAUSSIAN, SPIN_ENDO, n, {0: one}, {last: one}, edges)


def hs_hamiltonian_expr(terms) -> Sum:
    """Exponential-decay approximation of an inverse-square spin coupling:
    for each (amplitude, decay) pair, an XX + YY + ZZ interaction whose
    strength falls off by the decay factor per intervening site."""
    terms = list(terms)
    if not terms:
        raise ValueError("need at least one (amplitude, decay) term")
    pauli = build_pauli_atoms()
    identity = pauli["I"]
    pieces = []
    for amplitude, decay in terms:
        amplitude = GAUSSIAN.check(amplitude)
        decay = GAUSSIAN.check(decay)
        for name in ("X", "Y", "Z"):
            coupling = Cat(pauli[name],
                           Cat(Star(Scale(decay, identity, gaussian(1))),
                               pauli[name]))
            pieces.append(Scale(amplitude,
                                Conjoin3(identity, coupling, identity),
                                gaussian(1)))
    return Sum(tuple(pieces))


def build_hs_hamiltonian(terms) -> Automaton:
    return kleene.compile_bidiv(GAUSSIAN, SPIN_ENDO, hs_hamiltonian_expr(terms))


def asymptotic_rate(sequence, n_probe: int) -> GaussianRational:
    """Discrete per-site rate s(n) - s(n-1) at the probe point; it shows the
    asymptotic rate once the transients have died off.  A far probe is
    cheap: a masked evaluator jumps along the recurrence of its values, in a
    number of products that grows with the logarithm of the probe."""
    if n_probe < 2:
        raise ValueError("probe point must be at least 2")
    at = sequence.at if hasattr(sequence, "at") else sequence
    # ascending: a masked evaluator then steps once more, where the other
    # order would start its window again
    before = at(n_probe - 1)
    return at(n_probe) - before
