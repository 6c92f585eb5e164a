"""Constructive translations between rational expressions and automata.

A converging expression compiles to its weighted position automaton.  The
infinite levels go through the characteristic form: conjoin terms become
glued normalized position automata, iteration terms become rolled loopback
automata, and the pieces are combined with scaling and disjoint union.  The
reverse direction decomposes an automaton into loopback/bridge parts and
reads each part back through state elimination.
"""
from __future__ import annotations

from .automaton import (
    Automaton,
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
    to_characteristic,
    validate,
)
from .words import Alphabet


# ---------------------------------------------------------------------------
# converging: expressions -> automata

def compile_conv(sr: Semiring, alphabet: Alphabet, e: Expr) -> Automaton:
    """Weighted position automaton (Glushkov 1961; Caron & Flouret 2000)
    whose finite-word weights equal the expression's coefficients.

    State 0 is the only initial state, and each position (an atom, or a sum
    of atoms) is one more state.  One walk gives every node its empty-word
    weight and its weighted first and last maps, and adds follow weights:
    a product links the last positions of its left operand to the first ones
    of its right one, a star links its operand's to themselves, and a scale
    multiplies first weights on the left and last weights on the right.  An
    edge into a position weighs the follow weight times the atom's
    coefficient; the empty-word weight is state 0's final weight."""
    validate(e)
    labels = [()]  # labels[p]: the (symbol, coefficient) pairs that enter p
    follow = {}    # (p, q) -> weight of stepping from position p to q

    def scaled(left, weights, right):
        out = ((p, sr.mul(sr.mul(left, w), right)) for p, w in weights.items())
        return {p: w for p, w in out if not sr.is_zero(w)}

    def link(last, first):
        for p, u in last.items():
            for q, v in first.items():
                w = sr.mul(u, v)
                follow[p, q] = sr.add(follow[p, q], w) if (p, q) in follow else w

    def walk(node):
        """(empty-word weight, first map, last map) of ``node``."""
        atoms = node.terms if isinstance(node, Sum) else (node,)
        if atoms and all(isinstance(t, Atom) for t in atoms):
            labels.append([(alphabet.require(t.symbol), sr.check(t.coeff)) for t in atoms])
            p = len(labels) - 1
            return sr.zero, {p: sr.one}, {p: sr.one}
        if isinstance(node, Sum):
            eps, first, last = sr.zero, {}, {}
            for t in node.terms:
                t_eps, t_first, t_last = walk(t)
                eps = sr.add(eps, t_eps)
                first.update(t_first)
                last.update(t_last)
            return eps, first, last
        if isinstance(node, Scale):
            left, right = sr.check(node.left_coeff), sr.check(node.right_coeff)
            eps, first, last = walk(node.inner)
            return (sr.mul(sr.mul(left, eps), right), scaled(left, first, sr.one),
                    scaled(sr.one, last, right))
        if isinstance(node, Cat):
            a_eps, a_first, a_last = walk(node.left)
            b_eps, b_first, b_last = walk(node.right)
            link(a_last, b_first)
            return (sr.mul(a_eps, b_eps), {**a_first, **scaled(a_eps, b_first, sr.one)},
                    {**scaled(sr.one, a_last, b_eps), **b_last})
        if isinstance(node, Star):
            eps, first, last = walk(node.inner)
            assert sr.is_zero(eps), "star operand is proper after validate"
            link(last, first)
            return sr.one, first, last
        raise TypeError(f"not a converging expression: {node!r}")

    eps, first, last = walk(e)
    steps = [((0, q), w) for q, w in first.items()] + list(follow.items())
    edges = [(p, q, symbol, sr.mul(w, coeff))
             for (p, q), w in steps for symbol, coeff in labels[q]]
    return Automaton.build(sr, alphabet, len(labels), {0: sr.one}, {**last, 0: eps},
                           edges)


# ---------------------------------------------------------------------------
# converging: automata -> expressions

def extract_conv(aut: Automaton) -> Expr:
    """State elimination in ascending state order.

    The automaton is trimmed first; dead states only pad the elimination.
    R[i][j] accumulates the series of non-empty paths i -> j whose
    intermediate states have already been eliminated; the empty-word weight
    is re-added at the end from the initial/final overlap.  Star only ever
    applies to diagonal entries, which stay proper throughout.

    Once state k is eliminated, later steps read its row only to update
    that row and its column only to update that column, and at the end only
    R[i][j] with i initial and j final is read.  So the rows of eliminated
    non-initial states and the columns of eliminated non-final states are no
    longer updated; on a chain this makes the elimination linear.
    """
    aut = trim(aut)
    sr = aut.semiring
    n = aut.num_states
    table = [[ZERO] * n for _ in range(n)]
    for i, j, symbol, w in aut.edges():
        table[i][j] = make_sum([table[i][j], Atom(symbol, w)])

    initial = [not sr.is_zero(w) for w in aut.initial]
    final = [not sr.is_zero(w) for w in aut.final]
    for k in range(n):
        through = make_star(table[k][k])
        row_k = [(j, e) for j, e in enumerate(table[k]) if (j >= k or final[j]) and e != ZERO]
        col_k = [table[i][k] for i in range(n)]
        for i in range(n):
            if (i < k and not initial[i]) or col_k[i] == ZERO:
                continue
            via = make_cat(col_k[i], through)
            for j, out in row_k:
                table[i][j] = make_sum([table[i][j], make_cat(via, out)])

    terms = [make_scale(sr, aut.initial[i], table[i][j], aut.final[j])
             for i in range(n) if initial[i] for j in range(n) if final[j]]
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
    return make_sum(terms) if terms else iteration(ZERO)  # a zero series keeps its level


# ---------------------------------------------------------------------------
# helpers

def _normalized(sr, alphabet, e) -> Automaton:
    """The normalized position automaton of a proper operand, trimmed; when
    trimming leaves no state (the operand's series is zero), the untrimmed
    one, which stays normalized."""
    compiled = compile_conv(sr, alphabet, e)
    # characteristic-form operands are proper, so the empty word is rejected
    assert sr.is_zero(dot(sr, compiled.initial, compiled.final)), \
        "proper operand compiled to an empty-word acceptor"
    normalized = normalize(compiled)
    trimmed = trim(normalized)
    return trimmed if trimmed.num_states else normalized
