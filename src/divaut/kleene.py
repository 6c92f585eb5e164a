"""Constructive translations between rational expressions and automata.

Expression-to-automaton goes through the characteristic form: conjoin terms
become glued normalized automata, iteration terms become rolled loopback
automata, and the pieces are combined with scaling and disjoint union.  The
reverse direction decomposes an automaton into loopback/bridge parts and
reads each part back through state elimination.
"""
from __future__ import annotations

from .automaton import (
    Automaton,
    advance_col,
    conjoin2 as conjoin2_automata,
    conjoin3 as conjoin3_automata,
    decompose_bidiverging,
    decompose_diverging,
    disjoin2,
    disjoin3,
    dot,
    normalize,
    roll,
    sum_automata,
    scale_automaton,
    trim,
    unroll,
    zero_automaton,
)
from .semiring import Semiring
from .series import (
    Atom,
    Cat,
    Conjoin2,
    Conjoin3,
    EPSILON,
    Expr,
    Omega,
    Scale,
    Star,
    Sum,
    ZERO,
    Zeta,
    make_cat,
    make_scale,
    make_star,
    make_sum,
    push_scalars,
    to_characteristic,
    validate,
)
from .words import Alphabet


# ---------------------------------------------------------------------------
# converging: expressions -> automata

def compile_conv(sr: Semiring, alphabet: Alphabet, e: Expr) -> Automaton:
    """Automaton whose finite-word weights equal the expression's
    coefficients.  No epsilon transitions are ever introduced; empty-word
    weights ride on the initial/final vectors instead."""
    validate(e)
    return _compile(sr, alphabet, push_scalars(sr, e))


def _compile(sr, alphabet, e):
    if isinstance(e, Atom):
        alphabet.require(e.symbol)
        coeff = sr.check(e.coeff)
        return Automaton.build(sr, alphabet, 2, {0: sr.one}, {1: sr.one},
                               [(0, 1, e.symbol, coeff)])
    if isinstance(e, Sum):
        if e.terms and all(isinstance(t, Atom) for t in e.terms):
            # one shared pair of states; parallel edges add up
            for t in e.terms:
                alphabet.require(t.symbol)
            edges = [(0, 1, t.symbol, sr.check(t.coeff)) for t in e.terms]
            return Automaton.build(sr, alphabet, 2, {0: sr.one}, {1: sr.one},
                                   edges)
        return sum_automata(zero_automaton(sr, alphabet),
                            *(_compile(sr, alphabet, t) for t in e.terms))
    if isinstance(e, Scale):
        return scale_automaton(sr.check(e.left_coeff),
                               _compile(sr, alphabet, e.inner),
                               sr.check(e.right_coeff))
    if isinstance(e, Cat):
        return _compile_cat(sr, alphabet,
                            _compile(sr, alphabet, e.left),
                            _compile(sr, alphabet, e.right))
    if isinstance(e, Star):
        inner = _compile(sr, alphabet, e.inner)
        assert sr.is_zero(dot(sr, inner.initial, inner.final)), \
            "proper operand compiled to an empty-word acceptor"
        return roll(normalize(inner))
    raise TypeError(f"not a converging expression: {e!r}")


def _compile_cat(sr, alphabet, a: Automaton, b: Automaton) -> Automaton:
    """Product construction: a path runs through ``a``, hops to ``b`` exactly
    once (folding a's exit weight and b's entry weight into the hop edge),
    so the left block carries no final weight; splits with an empty left
    part ride on the seeded right initial vector instead."""
    na, nb = a.num_states, b.num_states
    a_eps = dot(sr, a.initial, a.final)
    initial = list(a.initial) + [sr.mul(a_eps, w) for w in b.initial]
    final = [sr.zero] * na + list(b.final)
    edges = list(a.edges())
    edges += [(i + na, j + na, s, w) for i, j, s, w in b.edges()]
    for symbol in alphabet:
        if a.transitions.get(symbol) is None:
            continue
        for i, exit_w in enumerate(advance_col(a, a.final, symbol)):
            if sr.is_zero(exit_w):
                continue
            for j in range(nb):
                w = sr.mul(exit_w, b.initial[j])
                if not sr.is_zero(w):
                    edges.append((i, j + na, symbol, w))
    return Automaton.build(sr, alphabet, na + nb, initial, final, edges)


# ---------------------------------------------------------------------------
# converging: automata -> expressions

def extract_conv(aut: Automaton) -> Expr:
    """State elimination in ascending state order.

    The automaton is trimmed first; dead states only pad the elimination.
    R[i][j] accumulates the series of non-empty paths i -> j whose
    intermediate states have already been eliminated; the empty-word weight
    is re-added at the end from the initial/final overlap.  Star only ever
    applies to diagonal entries, which stay proper throughout.
    """
    aut = trim(aut)
    sr = aut.semiring
    n = aut.num_states
    table = [[ZERO] * n for _ in range(n)]
    for i, j, symbol, w in aut.edges():
        table[i][j] = make_sum([table[i][j], Atom(symbol, w)])

    for k in range(n):
        through = make_star(table[k][k])
        row_k = [(j, e) for j, e in enumerate(table[k]) if e != ZERO]
        col_k = [table[i][k] for i in range(n)]
        for i in range(n):
            if col_k[i] == ZERO:
                continue
            via = make_cat(col_k[i], through)
            for j, out in row_k:
                table[i][j] = make_sum([table[i][j], make_cat(via, out)])

    terms = []
    for i in range(n):
        if sr.is_zero(aut.initial[i]):
            continue
        for j in range(n):
            if sr.is_zero(aut.final[j]):
                continue
            terms.append(make_scale(sr, aut.initial[i], table[i][j], aut.final[j]))
    empty_weight = dot(sr, aut.initial, aut.final)
    if not sr.is_zero(empty_weight):
        terms.append(make_scale(sr, empty_weight, EPSILON, sr.one))
    return make_sum(terms)


# ---------------------------------------------------------------------------
# diverging and bidiverging levels

def compile_div(sr: Semiring, alphabet: Alphabet, e: Expr) -> Automaton:
    return _compile_form(sr, alphabet, to_characteristic(sr, e, "div"), conjoin2_automata)


def compile_bidiv(sr: Semiring, alphabet: Alphabet, e: Expr) -> Automaton:
    return _compile_form(sr, alphabet, to_characteristic(sr, e, "bidiv"), conjoin3_automata)


def extract_div(aut: Automaton) -> Expr:
    return _extract_parts(aut, decompose_diverging, Omega, disjoin2, Conjoin2)


def extract_bidiv(aut: Automaton) -> Expr:
    return _extract_parts(aut, decompose_bidiverging, Zeta, disjoin3, Conjoin3)


def _compile_form(sr, alphabet, form, glue) -> Automaton:
    """Sum of the scaled conjoin terms, glued by ``glue`` from their
    normalized operands, and the scaled rolled iteration terms."""
    glued = [(left, glue(*(_normalized(sr, alphabet, x) for x in operands)), right)
             for left, *operands, right in form.conjoin_terms]
    looped = [(left, roll(_normalized(sr, alphabet, inner)), right)
              for left, inner, right in form.iteration_terms]
    return sum_automata(zero_automaton(sr, alphabet),
                        *(scale_automaton(*term) for term in glued + looped))


def _extract_parts(aut, decompose, iteration, disjoin, conjoin) -> Expr:
    """Scaled sum over the decomposition's parts: a loopback part reads back
    as ``iteration`` of its unrolled body, any other part as ``conjoin`` of
    the pieces ``disjoin`` splits it into."""
    sr = aut.semiring
    terms = []
    for left, part, right in decompose(aut).parts:
        if part.initial_states() == part.final_states():
            body = iteration(extract_conv(unroll(part)))
        else:
            body = conjoin(*(extract_conv(piece) for piece in disjoin(part)))
        terms.append(make_scale(sr, left, body, right))
    return make_sum(terms)


# ---------------------------------------------------------------------------
# helpers

def _normalized(sr, alphabet, e) -> Automaton:
    compiled = _compile(sr, alphabet, push_scalars(sr, e))
    # characteristic-form operands are proper, so the empty word is rejected
    assert sr.is_zero(dot(sr, compiled.initial, compiled.final)), \
        "proper operand compiled to an empty-word acceptor"
    return normalize(compiled)
