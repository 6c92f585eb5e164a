from fractions import Fraction

import pytest

from divaut.cli import main
from divaut.errors import AlphabetMismatch, SemiringMismatch
from divaut.kleene import compile_conv
from divaut.semiring import GAUSSIAN, GaussianRational, gaussian
from divaut.automaton import Automaton, converging_weight, scale_automaton
from divaut.words import Alphabet, FiniteWord
from divaut.quantum import (
    DOWN,
    SPIN,
    SPIN_ENDO,
    UP,
    apply_transducer,
    asymptotic_rate,
    build_correlator,
    build_hs_hamiltonian,
    build_magnetization,
    build_pauli_atoms,
    compose_transducers,
    down_state,
    dual,
    endo_alphabet,
    endo_symbol,
    expected_value,
    norm_sequence,
    relabel_symbols,
    up_state,
    uniform_state,
)

from conftest import dense

ONE = gaussian(1)
I_UNIT = gaussian(0, 1)


def single_site(expr):
    """Apply a one-site operator expression to each basis configuration:
    returns {input_symbol: {output_symbol: amplitude}}."""
    aut = compile_conv(GAUSSIAN, SPIN_ENDO, expr)
    table = {}
    for src in SPIN.symbols:
        table[src] = {}
        for dst in SPIN.symbols:
            word = FiniteWord(SPIN_ENDO, (endo_symbol(src, dst),))
            amp = converging_weight(aut, word)
            if amp:
                table[src][dst] = amp
    return table


def test_pauli_atom_actions():
    pauli = build_pauli_atoms()
    assert single_site(pauli["Z"]) == {UP: {UP: ONE}, DOWN: {DOWN: -ONE}}
    assert single_site(pauli["X"]) == {UP: {DOWN: ONE}, DOWN: {UP: ONE}}
    assert single_site(pauli["Y"]) == {UP: {DOWN: -I_UNIT}, DOWN: {UP: I_UNIT}}
    assert single_site(pauli["I"]) == {UP: {UP: ONE}, DOWN: {DOWN: ONE}}


def test_endo_alphabet_square():
    assert len(endo_alphabet(SPIN, SPIN).symbols) == len(SPIN.symbols) ** 2


# ---------------------------------------------------------------------------
# transducers and duals

def test_identity_transducer_preserves_behavior():
    identity = Automaton.build(
        GAUSSIAN, SPIN_ENDO, 1, {0: ONE}, {0: ONE},
        [(0, 0, endo_symbol(s, s), ONE) for s in SPIN.symbols])
    state = up_state()
    out = apply_transducer(identity, state)
    assert out.num_states == state.num_states
    word = FiniteWord(SPIN, (UP, UP, UP))
    assert converging_weight(out, word) == converging_weight(state, word)


def test_transducer_state_count():
    out = apply_transducer(build_magnetization(), up_state())
    assert out.num_states == 2 * 1


def test_magnetization_automaton_structure():
    # two states, unit entry/exit, identity on the diagonal and a single
    # signed-Z block in the upper corner
    mag = build_magnetization()
    assert mag.num_states == 2
    assert mag.initial == (ONE, GAUSSIAN.zero)
    assert mag.final == (GAUSSIAN.zero, ONE)
    for symbol, corner in ((endo_symbol(UP, UP), ONE),
                           (endo_symbol(DOWN, DOWN), -ONE)):
        mat = dense(mag, symbol)
        assert mat[0][0] == ONE and mat[1][1] == ONE
        assert mat[0][1] == corner and mat[1][0] == GAUSSIAN.zero
    for symbol in (endo_symbol(UP, DOWN), endo_symbol(DOWN, UP)):
        assert mag.transitions.get(symbol) is None


def test_scalar_sequence_far_jump_matches_incremental():
    from divaut.quantum import ScalarSequence

    ev = expected_value(up_state(), build_magnetization())
    assert ev.numerator.at(600) == gaussian(600)
    assert ev.denominator.at(600) == ONE


def test_magnetization_on_up_matches_counting_automaton():
    # bra-op-ket sandwich collapses to the two-state counting automaton whose
    # transition matrix is all ones except the lower-left corner
    state = up_state()
    sandwich = apply_transducer(dual(state),
                                apply_transducer(build_magnetization(), state))
    mat = dense(sandwich, "0")
    assert mat == ((ONE, ONE), (GAUSSIAN.zero, ONE))


def test_dual_conjugates_and_is_involutive():
    state = Automaton.build(GAUSSIAN, SPIN, 1, {0: ONE}, {0: ONE},
                            [(0, 0, UP, gaussian(Fraction(1, 2), Fraction(1, 3)))])
    bra = dual(state)
    weight = bra.sparse_rows(endo_symbol(UP, "0"))[0][0][1]
    assert weight == gaussian(Fraction(1, 2), -Fraction(1, 3))
    back = relabel_symbols(bra, {endo_symbol(s, "0"): s for s in SPIN.symbols},
                           SPIN)
    twice = dual(back)
    again = relabel_symbols(twice, {endo_symbol(s, "0"): s for s in SPIN.symbols},
                            SPIN)
    assert again == state


def test_dual_real_weights_unchanged():
    state = up_state()
    bra = dual(state)
    assert bra.sparse_rows(endo_symbol(UP, "0"))[0][0][1] == ONE


def test_dual_needs_gaussian():
    from divaut.semiring import NATURAL

    nat = Automaton.build(NATURAL, SPIN, 1, {0: 1}, {0: 1}, [(0, 0, UP, 1)])
    with pytest.raises(SemiringMismatch):
        dual(nat)


def test_compose_transducers_matches_sequential_application():
    mag = build_magnetization()
    state = up_state()
    bra = dual(state)
    composed = compose_transducers(bra, mag)
    oneshot = apply_transducer(composed, state)
    stepwise = apply_transducer(bra, apply_transducer(mag, state))
    seq_a = [converging_weight(oneshot, FiniteWord(Alphabet(("0",)), ("0",) * n))
             for n in range(8)]
    seq_b = [converging_weight(stepwise, FiniteWord(Alphabet(("0",)), ("0",) * n))
             for n in range(8)]
    assert seq_a == seq_b


# ---------------------------------------------------------------------------
# norms and expected values

def test_up_state_norm_is_one():
    assert norm_sequence(up_state()).prefix(8) == [ONE] * 8


def test_norm_scales_quadratically():
    state = up_state()
    scaled = scale_automaton(gaussian(2), state, ONE)
    base = norm_sequence(state)
    bigger = norm_sequence(scaled)
    for n in range(10):
        assert bigger.at(n) == gaussian(4) * base.at(n)


def test_zero_state_norm():
    zero = Automaton.build(GAUSSIAN, SPIN, 1, {0: GAUSSIAN.zero},
                           {0: ONE}, [(0, 0, UP, ONE)])
    assert norm_sequence(zero).prefix(5) == [GAUSSIAN.zero] * 5


def test_magnetization_expected_values():
    ev_up = expected_value(up_state(), build_magnetization())
    assert [ev_up.ratio_at(n) for n in range(33)] == \
        [gaussian(n) for n in range(33)]
    ev_dn = expected_value(down_state(), build_magnetization())
    assert [ev_dn.ratio_at(n) for n in range(13)] == \
        [gaussian(-n) for n in range(13)]


def test_expected_value_of_x_vanishes_on_up():
    pauli = build_pauli_atoms()
    from divaut.series import Conjoin3

    from divaut import kleene

    operator = kleene.compile_bidiv(
        GAUSSIAN, SPIN_ENDO, Conjoin3(pauli["I"], pauli["X"], pauli["I"]))
    ev = expected_value(up_state(), operator)
    for n in range(13):
        assert ev.numerator.at(n) == GAUSSIAN.zero
        assert ev.ratio_at(n) == GAUSSIAN.zero


def test_identity_operator_ratio_is_one():
    identity = Automaton.build(
        GAUSSIAN, SPIN_ENDO, 1, {0: ONE}, {0: ONE},
        [(0, 0, endo_symbol(s, s), ONE) for s in SPIN.symbols])
    ev = expected_value(up_state(), identity)
    for n in range(9):
        assert ev.ratio_at(n) == ONE


def test_expected_value_requires_endomorphism():
    with pytest.raises(AlphabetMismatch):
        expected_value(up_state(), dual(up_state()))


# ---------------------------------------------------------------------------
# correlators

def pair_count_oracle(n, k):
    """Number of placements of two marks separated by k sites in a window of
    n sites."""
    return max(0, n - k - 1)


def test_correlator_matches_pair_counting():
    for k in range(5):
        ev = expected_value(up_state(), build_correlator(k))
        for n in range(33):
            assert ev.ratio_at(n) == gaussian(pair_count_oracle(n, k))


def test_correlator_sign_cancels_on_down():
    for k in (0, 2):
        ev = expected_value(down_state(), build_correlator(k))
        for n in range(13):
            assert ev.ratio_at(n) == gaussian(pair_count_oracle(n, k))


# ---------------------------------------------------------------------------
# decaying-coupling hamiltonian

def hs_oracle(n, terms):
    """Double sum over ordered site pairs inside the window: for separation
    k there are n-1-k pairs, each weighted by amplitude * decay^k."""
    total = GaussianRational(Fraction(0), Fraction(0))
    for amplitude, decay in terms:
        for k in range(max(0, n - 1)):
            total = total + amplitude * gaussian(n - 1 - k) * decay ** k
    return total


def test_hs_single_term_matches_double_sum():
    terms = [(gaussian(1), gaussian(Fraction(1, 2)))]
    ev = expected_value(up_state(), build_hs_hamiltonian(terms))
    for n in range(25):
        assert ev.ratio_at(n) == hs_oracle(n, terms)


def test_hs_single_term_state_count():
    # X, Y and Z each give a 4-state bridge: the coupling P I* P compiles to
    # one state per position plus the initial one, and its two ends merge
    # with the rolled 1-state identity loops
    terms = [(gaussian(1), gaussian(Fraction(1, 2)))]
    assert build_hs_hamiltonian(terms).num_states == 12


def test_hs_evaluator_steps_only_the_live_path_states():
    # on the all-up state only the Z bridge of each term stays on a live
    # path: 4 of its 12 states, each lifted to two integer entries
    for terms, states in (([(ONE, gaussian(Fraction(1, 2)))], 12),
                          ([(ONE, gaussian(Fraction(1, 2))), (ONE, gaussian(Fraction(1, 3)))], 24)):
        numerator = expected_value(up_state(), build_hs_hamiltonian(terms)).numerator
        assert numerator.automaton.num_states == states
        assert {len(row) for row in numerator._behavior._starts} == {2 * states // 3}


def test_far_probe_reduces_only_the_printed_values(monkeypatch, capsys):
    calls = []
    reduce = GAUSSIAN._reduce

    def counting(numerators, scale):
        calls.append(None)
        return reduce(numerators, scale)

    monkeypatch.setattr(GAUSSIAN, "_reduce", counting)
    assert main(["quantum", "hs", "--terms", "3,4/5", "--n", "4", "--rate-at", "300"]) == 0
    assert capsys.readouterr().out.startswith("0\t")
    # numerator and norm, at n = 0..4, 299 and 300
    assert len(calls) == 2 * 7


def test_hs_two_terms_add():
    first = [(gaussian(2), gaussian(Fraction(1, 3)))]
    second = [(gaussian(1), gaussian(Fraction(1, 2)))]
    both = first + second
    ev_first = expected_value(up_state(), build_hs_hamiltonian(first))
    ev_second = expected_value(up_state(), build_hs_hamiltonian(second))
    ev_both = expected_value(up_state(), build_hs_hamiltonian(both))
    for n in range(13):
        assert ev_both.ratio_at(n) == ev_first.ratio_at(n) + ev_second.ratio_at(n)


def test_hs_zero_amplitude_contributes_nothing():
    base = [(gaussian(1), gaussian(Fraction(1, 2)))]
    padded = base + [(GAUSSIAN.zero, gaussian(Fraction(1, 3)))]
    ev_base = expected_value(up_state(), build_hs_hamiltonian(base))
    ev_padded = expected_value(up_state(), build_hs_hamiltonian(padded))
    for n in range(9):
        assert ev_base.ratio_at(n) == ev_padded.ratio_at(n)


def test_hs_requires_terms():
    with pytest.raises(ValueError):
        build_hs_hamiltonian([])


# ---------------------------------------------------------------------------
# structural properties

def test_self_adjointness_surrogate():
    operators = [build_magnetization(), build_correlator(1),
                 build_hs_hamiltonian([(gaussian(1), gaussian(Fraction(1, 2)))])]
    phi = Automaton.build(GAUSSIAN, SPIN, 1, {0: ONE}, {0: ONE},
                          [(0, 0, UP, gaussian(Fraction(1, 2), Fraction(1, 3))),
                           (0, 0, DOWN, gaussian(Fraction(1, 4)))])
    psi = Automaton.build(GAUSSIAN, SPIN, 1, {0: ONE}, {0: ONE},
                          [(0, 0, UP, gaussian(Fraction(1, 5))),
                           (0, 0, DOWN, gaussian(0, Fraction(1, 2)))])
    for operator in operators:
        lhs = apply_transducer(dual(phi), apply_transducer(operator, psi))
        rhs = apply_transducer(dual(psi), apply_transducer(operator, phi))
        from divaut.quantum import ScalarSequence

        left = ScalarSequence(lhs)
        right = ScalarSequence(rhs)
        for n in range(11):
            assert left.at(n) == right.at(n).conjugate()


def test_sandwich_bilinearity():
    mag = build_magnetization()
    psi = up_state()
    factor = gaussian(Fraction(2, 3), Fraction(1, 3))
    scaled_ket = apply_transducer(dual(psi),
                                  apply_transducer(mag,
                                                   scale_automaton(factor, psi, ONE)))
    base = apply_transducer(dual(psi), apply_transducer(mag, psi))
    scaled_bra = apply_transducer(dual(scale_automaton(factor, psi, ONE)),
                                  apply_transducer(mag, psi))
    from divaut.quantum import ScalarSequence

    for n in range(9):
        want = ScalarSequence(base).at(n)
        assert ScalarSequence(scaled_ket).at(n) == factor * want
        assert ScalarSequence(scaled_bra).at(n) == factor.conjugate() * want


def test_uniform_state_alphabet_guard():
    with pytest.raises(Exception):
        uniform_state("sideways")


# ---------------------------------------------------------------------------
# asymptotic rates

def test_rate_of_linear_sequence_is_one():
    ev = expected_value(up_state(), build_magnetization())
    for probe in (2, 10, 40):
        assert asymptotic_rate(lambda n: ev.ratio_at(n), probe) == ONE


def test_rate_of_constant_sequence_is_zero():
    assert asymptotic_rate(norm_sequence(up_state()), 12) == GAUSSIAN.zero


def test_hs_rate_approaches_geometric_sum():
    ev = expected_value(up_state(),
                        build_hs_hamiltonian([(gaussian(1),
                                               gaussian(Fraction(1, 2)))]))
    rate = asymptotic_rate(lambda n: ev.ratio_at(n), 40)
    limit = gaussian(2)
    gap = limit - rate
    assert gap.imag == 0
    assert 0 <= gap.real <= Fraction(1, 2) ** 38


def test_scalar_sequence_rejects_negative_length():
    sequence = norm_sequence(up_state())
    assert sequence.at(5) == ONE
    with pytest.raises(IndexError):
        sequence.at(-1)
