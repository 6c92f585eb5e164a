"""Weighted automata: the (states, initial, final, transitions) tuple, its
converging (finite-word) behavior, and the structural constructions used by
the rational-series translations.

One tuple serves three readings: over finite words it is an ordinary
weighted automaton; over infinite and biinfinite words the same tuple is
evaluated with the activation mask (see :mod:`divaut.activation`).
"""
from __future__ import annotations

import enum

from ._record import Record
from .errors import (
    EmptyWordAccepted,
    NotLoopback,
    NotNormalized,
    UnknownSymbol,
    WrongClass,
)
from .semiring import Semiring, require_same_semiring
from .words import Alphabet, FiniteWord, require_same_alphabet


# ---------------------------------------------------------------------------
# vector helpers over a semiring (plain tuples against the sparse adjacency)

def dot(sr: Semiring, u, v):
    return sr.sum(sr.mul(a, b) for a, b in zip(u, v))


def advance_row(aut, row, symbol):
    """row . M(symbol) using the sparse adjacency; the workhorse behind
    word-weight and behavior evaluation."""
    sr = aut.semiring
    add, mul, is_zero = sr.add, sr.mul, sr.is_zero
    out = [sr.zero] * aut.num_states
    for value, edges in zip(row, aut.sparse_rows(symbol)):
        if is_zero(value):
            continue
        for j, w in edges:
            out[j] = add(out[j], mul(value, w))
    return tuple(out)


class AutomatonClass(enum.Enum):
    GENERAL = "general"
    NORMALIZED = "normalized"
    LOOPBACK = "loopback"
    LOOPBACK_WITH_PRELUDE = "loopback-with-prelude"
    BRIDGE = "bridge"


class Automaton(Record):
    """States are the integers 0..num_states-1.  ``initial`` and ``final``
    are weight vectors; a state counts as initial/final when its weight is
    non-zero.  ``transitions`` maps each symbol to a per-state adjacency
    (tuples of (target, weight) pairs, sorted by target); missing symbols
    mean no transitions.  This is the only matrix representation: read it
    through :func:`advance_row` (row times matrix) and :meth:`edges`."""

    semiring: Semiring
    alphabet: Alphabet
    num_states: int
    initial: tuple
    final: tuple
    transitions: dict
    state_names: tuple = None

    @classmethod
    def build(cls, semiring, alphabet, num_states, initial, final, edges=(),
              state_names=None):
        """Construct from sparse data.

        ``initial``/``final`` may be dicts ``{state: weight}`` or full
        sequences; ``edges`` is an iterable of ``(src, dst, symbol, weight)``.
        Parallel edges on the same (src, dst, symbol) add up.
        """
        def as_vector(given):
            if isinstance(given, dict):
                vec = [semiring.zero] * num_states
                for idx, w in given.items():
                    vec[idx] = semiring.check(w)
                return tuple(vec)
            vec = tuple(semiring.check(w) for w in given)
            if len(vec) != num_states:
                raise ValueError("weight vector length does not match state count")
            return vec

        accum = {}
        for src, dst, symbol, weight in edges:
            alphabet.require(symbol)
            if not (0 <= src < num_states and 0 <= dst < num_states):
                raise ValueError(f"edge ({src},{dst}) outside state range")
            weight = semiring.check(weight)
            if semiring.is_zero(weight):
                continue
            cell = accum.setdefault(symbol, {})
            key = (src, dst)
            cell[key] = semiring.add(cell[key], weight) if key in cell else weight
        frozen = {}
        for symbol, cells in accum.items():
            rows = [[] for _ in range(num_states)]
            for (src, dst), weight in cells.items():
                if not semiring.is_zero(weight):
                    rows[src].append((dst, weight))
            if any(rows):
                frozen[symbol] = tuple(tuple(sorted(row)) for row in rows)
        names = tuple(state_names) if state_names is not None else None
        return cls(semiring, alphabet, num_states, as_vector(initial),
                   as_vector(final), frozen, names)

    def sparse_rows(self, symbol):
        """Per-state adjacency for one symbol: (target, weight) pairs over
        the non-zero entries."""
        if symbol not in self.alphabet:
            raise UnknownSymbol(f"symbol {symbol!r} not in automaton alphabet")
        got = self.transitions.get(symbol)
        if got is None:
            return tuple(() for _ in range(self.num_states))
        return got

    def _lifted(self):
        """``(lifted, scales, end_scale, ends)``, cached: this automaton
        over ``semiring._integers`` (see ``Semiring._clear``),
        with M(s) times scales[s], the least D_s that clears it; its initial
        row and ``ends``, the lifted columns of its final vector, one per
        numerator of a value, are cleared by factors whose product is
        end_scale.  A word's denominator is end_scale . prod D_s."""
        if "_lift" not in self.__dict__:
            sr, scales, transitions = self.semiring, dict.fromkeys(self.alphabet, 1), {}
            first, (initial,) = sr._clear([self.initial])
            last, parts = sr._clear_ends([self.final])
            ends = [columns[0] for columns in parts]
            for symbol, rows in self.transitions.items():
                scales[symbol], transitions[symbol] = sr._clear_rows(rows)
            lifted = self if sr._integers is sr else Automaton(
                sr._integers, self.alphabet, len(initial), initial, ends[0], transitions)
            object.__setattr__(self, "_lift", (lifted, scales, first * last, ends))
        return self.__dict__["_lift"]

    def edges(self):
        """Non-zero transitions as (src, dst, symbol, weight)."""
        for symbol in self.alphabet:
            rows = self.transitions.get(symbol)
            if rows is None:
                continue
            for i, row in enumerate(rows):
                for j, w in row:
                    yield (i, j, symbol, w)

    def initial_states(self):
        return [i for i, w in enumerate(self.initial) if not self.semiring.is_zero(w)]

    def final_states(self):
        return [i for i, w in enumerate(self.final) if not self.semiring.is_zero(w)]

    def name_of(self, state):
        if self.state_names is not None:
            return self.state_names[state]
        return f"q{state}"


def classify(aut: Automaton) -> AutomatonClass:
    """Most specific structural class, computed by inspection."""
    sr = aut.semiring
    ini = aut.initial_states()
    fin = aut.final_states()

    def weight_one(states, vec):
        return all(sr.eq(vec[s], sr.one) for s in states)

    if len(ini) == 1 and ini == fin and weight_one(ini, aut.initial) \
            and weight_one(fin, aut.final):
        return AutomatonClass.LOOPBACK
    if len(ini) == 1 and len(fin) == 1 and ini[0] != fin[0] \
            and weight_one(ini, aut.initial) and weight_one(fin, aut.final):
        edges = list(aut.edges())
        if all(j != ini[0] for _, j, _, _ in edges):
            if all(i != fin[0] for i, _, _, _ in edges):
                return AutomatonClass.NORMALIZED
            return AutomatonClass.LOOPBACK_WITH_PRELUDE
        return AutomatonClass.BRIDGE
    return AutomatonClass.GENERAL


def _require_normalized(aut: Automaton):
    cls = classify(aut)
    if cls is not AutomatonClass.NORMALIZED:
        raise NotNormalized(f"expected a normalized automaton, got {cls.value}")
    return aut.initial_states()[0], aut.final_states()[0]


def _require_loopback(aut: Automaton):
    if classify(aut) is not AutomatonClass.LOOPBACK:
        raise NotLoopback(f"expected a loopback automaton, got {classify(aut).value}")
    return aut.initial_states()[0]


def converging_weight(aut: Automaton, word: FiniteWord):
    """Weight of a finite word: initial . M(w[0]) ... M(w[n-1]) . final."""
    require_same_alphabet(aut.alphabet, word.alphabet)
    lifted, scales, scale, ends = aut._lifted()
    row = lifted.initial
    for symbol in word:
        row = advance_row(lifted, row, symbol)
        scale *= scales[symbol]
    return aut.semiring._reduce([dot(lifted.semiring, row, end) for end in ends], scale)


def zero_automaton(semiring: Semiring, alphabet: Alphabet) -> Automaton:
    return Automaton(semiring, alphabet, 0, (), (), {})


def _on_paths(num_states, edges, initial, final) -> list:
    """The states on some path of ``edges`` from a state in ``initial`` to
    one in ``final``, in increasing order."""
    forward = {i: set() for i in range(num_states)}
    backward = {i: set() for i in range(num_states)}
    for i, j, _, _ in edges:
        forward[i].add(j)
        backward[j].add(i)

    def closure(seeds, neighbors):
        seen = set(seeds)
        queue = list(seeds)
        while queue:
            for nxt in neighbors[queue.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return seen

    return sorted(closure(initial, forward) & closure(final, backward))


def trim(aut: Automaton) -> Automaton:
    """Drop states that cannot lie on any successful path (not reachable
    from an initial state or not co-reachable to a final one).  Behavior is
    unchanged at every level: removed states never contribute to a path sum,
    and activation only looks at path sums."""
    return _restrict(aut, _on_paths(aut.num_states, aut.edges(), aut.initial_states(),
                                    aut.final_states()))


def _restrict(aut: Automaton, keep) -> Automaton:
    """``aut`` on the states ``keep`` (increasing), renumbered in that order,
    with the edges between them; ``aut`` itself when ``keep`` is every
    state, so that its cached lifting is reused."""
    if len(keep) == aut.num_states:
        return aut
    if not keep:
        return zero_automaton(aut.semiring, aut.alphabet)
    remap = {old: new for new, old in enumerate(keep)}
    edges = [(remap[i], remap[j], s, w) for i, j, s, w in aut.edges()
             if i in remap and j in remap]
    names = tuple(aut.name_of(s) for s in keep) if aut.state_names else None
    return Automaton.build(aut.semiring, aut.alphabet, len(keep),
                           [aut.initial[s] for s in keep], [aut.final[s] for s in keep],
                           edges, state_names=names)


def scale_automaton(left, aut: Automaton, right) -> Automaton:
    """Multiply the initial vector by ``left`` and the final one by ``right``."""
    sr = aut.semiring
    left = sr.check(left)
    right = sr.check(right)
    initial = tuple(sr.mul(left, w) for w in aut.initial)
    final = tuple(sr.mul(w, right) for w in aut.final)
    return Automaton(sr, aut.alphabet, aut.num_states, initial, final,
                     dict(aut.transitions), aut.state_names)


# ---------------------------------------------------------------------------
# structural constructions: all but normalize, unroll and the off-diagonal
# decomposition parts glue automata together (``_glue``) or re-point one at
# new endpoints (``_pointed``)

def _glue(parts, initial, final, merge) -> Automaton:
    """Disjoint union of ``parts``, states numbered part after part, with
    each state in ``merge`` identified with its target there.  Merged-away
    states are dropped and the others keep their order.  ``initial`` and
    ``final`` map states of the union to weights."""
    first = parts[0]
    n = sum(part.num_states for part in parts)
    kept = [s for s in range(n) if s not in merge]
    index = [0] * n
    for new, old in enumerate(kept):
        index[old] = new
    for state, target in merge.items():
        index[state] = index[target]
    edges, offset = [], 0
    for part in parts:
        edges += [(index[offset + i], index[offset + j], s, w)
                  for i, j, s, w in part.edges()]
        offset += part.num_states
    return Automaton.build(first.semiring, first.alphabet, len(kept),
                           {index[s]: w for s, w in initial.items()},
                           {index[s]: w for s, w in final.items()}, edges)


def _pointed(aut: Automaton, initial, final, keep=None) -> Automaton:
    """``aut`` with weight-1 endpoints ``initial`` and ``final``, keeping the
    edges (i, j) that ``keep(i, j)`` accepts (all of them when ``keep`` is
    None) and, in their order, the states on some path of those edges
    between the endpoints.  Both endpoints stay even when no path joins them,
    so a zero part keeps its class."""
    sr = aut.semiring
    edges = [e for e in aut.edges() if keep is None or keep(e[0], e[1])]
    on = set(_on_paths(aut.num_states, edges, [initial], [final]))
    remap = {old: new for new, old in enumerate(sorted(on | {initial, final}))}
    return Automaton.build(sr, aut.alphabet, len(remap), {remap[initial]: sr.one},
                           {remap[final]: sr.one},
                           [(remap[i], remap[j], s, w) for i, j, s, w in edges
                            if i in on and j in on])


def sum_automata(first: Automaton, *rest: Automaton) -> Automaton:
    """Disjoint (block-diagonal) union; behaviors add."""
    for other in rest:
        require_same_semiring(first.semiring, other.semiring)
        require_same_alphabet(first.alphabet, other.alphabet)
    parts = (first, *rest)
    return _glue(parts, dict(enumerate(w for part in parts for w in part.initial)),
                 dict(enumerate(w for part in parts for w in part.final)), {})


def normalize(aut: Automaton) -> Automaton:
    """Equivalent automaton with a fresh weight-1 initial state (no incoming
    edges) and a fresh weight-1 final state (no outgoing edges).

    Only defined when the input rejects the empty word; the construction has
    no way to carry an empty-word weight.

    Each edge (i, j, s, w) gives an entry edge of weight initial[i] w, an
    exit edge w final[j] and a corner edge initial[i] w final[j];
    :meth:`Automaton.build` adds them up into initial . M(s), M(s) . final
    and initial . M(s) . final.
    """
    sr = aut.semiring
    eps = dot(sr, aut.initial, aut.final)
    if not sr.is_zero(eps):
        raise EmptyWordAccepted("cannot normalize: the empty word has non-zero weight")
    if classify(aut) is AutomatonClass.NORMALIZED:
        return aut
    n = aut.num_states
    new_initial, new_final = n, n + 1
    edges = list(aut.edges())
    starts, ends = set(aut.initial_states()), set(aut.final_states())
    for i, j, symbol, w in aut.edges():
        if i in starts:
            edges.append((new_initial, j, symbol, sr.mul(aut.initial[i], w)))
        if j in ends:
            edges.append((i, new_final, symbol, sr.mul(w, aut.final[j])))
            if i in starts:
                edges.append((new_initial, new_final, symbol,
                              sr.mul(sr.mul(aut.initial[i], w), aut.final[j])))
    return Automaton.build(sr, aut.alphabet, n + 2, {new_initial: sr.one},
                           {new_final: sr.one}, edges)


def roll(aut: Automaton) -> Automaton:
    """Delete the final state of a normalized automaton, redirecting its
    incoming edges to the initial state, which becomes the loopback state."""
    initial, final = _require_normalized(aut)
    one = {initial: aut.semiring.one}
    return _glue([aut], one, one, {final: initial})


def unroll(aut: Automaton) -> Automaton:
    """Add a fresh final state to a loopback automaton and redirect the
    loopback state's incoming edges to it."""
    loop = _require_loopback(aut)
    sr = aut.semiring
    fresh = aut.num_states
    edges = []
    for i, j, symbol, w in aut.edges():
        edges.append((i, fresh if j == loop else j, symbol, w))
    return Automaton.build(sr, aut.alphabet, aut.num_states + 1,
                           {loop: sr.one}, {fresh: sr.one}, edges)


def conjoin2(x: Automaton, y: Automaton) -> Automaton:
    """Glue two normalized automata into one loopback-with-prelude: the final
    state of ``x`` is merged with the loopback state of the rolled ``y``."""
    sr = require_same_semiring(x.semiring, y.semiring)
    require_same_alphabet(x.alphabet, y.alphabet)
    x_initial, x_final = _require_normalized(x)
    rolled = roll(y)
    loop = x.num_states + rolled.initial_states()[0]
    return _glue([x, rolled], {x_initial: sr.one}, {loop: sr.one}, {x_final: loop})


def disjoin2(aut: Automaton):
    """Split a loopback-with-prelude automaton into the pair of normalized
    automata whose conjoin has the same behavior."""
    cls = classify(aut)
    if cls not in (AutomatonClass.LOOPBACK_WITH_PRELUDE, AutomatonClass.NORMALIZED):
        raise WrongClass(f"disjoin needs a loopback-with-prelude automaton, got {cls.value}")
    initial = aut.initial_states()[0]
    final = aut.final_states()[0]
    prelude = _pointed(aut, initial, final, lambda i, j: i != final)
    return prelude, unroll(_pointed(aut, final, final))


def conjoin3(x: Automaton, middle: Automaton, y: Automaton) -> Automaton:
    """Glue three normalized automata into a bridge automaton: the middle's
    initial state is merged with the rolled ``x``'s loopback state and its
    final state with the rolled ``y``'s loopback state."""
    sr = require_same_semiring(require_same_semiring(x.semiring, middle.semiring),
                               y.semiring)
    require_same_alphabet(x.alphabet, middle.alphabet)
    require_same_alphabet(x.alphabet, y.alphabet)
    left = roll(x)
    m_initial, m_final = _require_normalized(middle)
    right = roll(y)
    offset = left.num_states
    src_loop = left.initial_states()[0]
    dst_loop = offset + middle.num_states + right.initial_states()[0]
    return _glue([left, middle, right], {src_loop: sr.one}, {dst_loop: sr.one},
                 {offset + m_initial: src_loop, offset + m_final: dst_loop})


def disjoin3(aut: Automaton):
    """Split a bridge automaton into three normalized automata whose 3-way
    conjoin has the same behavior.

    Every successful path factors uniquely at its first visit to the final
    state and the last visit to the initial state before that: loops at the
    initial state that avoid the final state entirely, one bridging segment,
    then unrestricted loops at the final state.  The head's loops must
    exclude edges into the final state or paths that bounce back from it
    would be counted once per bounce.
    """
    cls = classify(aut)
    if cls not in (AutomatonClass.BRIDGE, AutomatonClass.LOOPBACK_WITH_PRELUDE,
                   AutomatonClass.NORMALIZED):
        raise WrongClass(f"disjoin3 needs a bridge automaton, got {cls.value}")
    initial = aut.initial_states()[0]
    final = aut.final_states()[0]
    head = _pointed(aut, initial, initial, lambda i, j: j != final)
    middle = _pointed(aut, initial, final, lambda i, j: j != initial and i != final)
    return unroll(head), middle, unroll(_pointed(aut, final, final))


class WeightedSumDecomposition(Record):
    """Finite family (left coefficient, part, right coefficient) whose
    weighted behavior sum equals the behavior of the source automaton."""

    parts: tuple  # of (left, Automaton, right)


def decompose_diverging(aut: Automaton) -> WeightedSumDecomposition:
    """Split into loopback parts (on the diagonal) and loopback-with-prelude
    parts (off-diagonal), one per (initial, final) state pair.  Pairs whose
    initial or final weight is zero contribute nothing and are pruned."""
    sr = aut.semiring
    parts = []
    for p in aut.initial_states():
        for q in aut.final_states():
            left, right = aut.initial[p], aut.final[q]
            if p == q:
                part = _pointed(aut, q, q)
            else:
                fresh = aut.num_states
                edges = list(aut.edges())
                edges += [(fresh, j, s, w) for i, j, s, w in edges if i == p]
                part = Automaton.build(sr, aut.alphabet, aut.num_states + 1,
                                       {fresh: sr.one}, {q: sr.one}, edges)
            parts.append((left, part, right))
    return WeightedSumDecomposition(tuple(parts))


def decompose_bidiverging(aut: Automaton) -> WeightedSumDecomposition:
    """Split into loopback parts (diagonal) and bridge parts (off-diagonal);
    bridges have no edge restrictions so no fresh state is needed."""
    return WeightedSumDecomposition(tuple(
        (aut.initial[p], _pointed(aut, p, q), aut.final[q])
        for p in aut.initial_states() for q in aut.final_states()))


def isomorphic(a: Automaton, b: Automaton) -> bool:
    """True when some state bijection carries one automaton onto the other
    exactly (same weights everywhere).  Each automaton is read once, as a
    ``{(i, j, symbol): weight}`` map of its edges; states pair up by
    signature (end weights and the edges touching them), then by
    backtracking search without recursion.  A candidate that passes its
    check has been compared with every state mapped so far, so even a search
    that never backtracks takes time quadratic in the number of states: a
    600-state chain takes about 0.5 s against itself and 1-2 s against a
    copy with its states in reverse order (CPython 3.11, one core of a
    shared 2-CPU machine)."""
    if a.semiring is not b.semiring or a.alphabet != b.alphabet:
        return False
    if a.num_states != b.num_states:
        return False
    sr = a.semiring
    n = a.num_states

    def read(aut):
        adj = {(i, j, x): w for i, j, x, w in aut.edges()}
        touching = [[] for _ in range(n)]
        for (i, j, x), w in adj.items():
            touching[i].append((x, "out", sr.format(w)))
            touching[j].append((x, "in", sr.format(w)))
        return adj, [repr((aut.initial[s], aut.final[s], sorted(touching[s]))) for s in range(n)]

    (adj_a, sig_a), (adj_b, sig_b) = read(a), read(b)
    if sorted(sig_a) != sorted(sig_b):
        return False
    candidates = [[t for t in range(n) if sig_b[t] == sig_a[s]] for s in range(n)]

    def agree(s, s2, t, t2):
        return all(sr.eq(adj_a.get((s, s2, x), sr.zero), adj_b.get((t, t2, x), sr.zero))
                   for x in a.alphabet)

    def consistent(mapping, s, t):
        """Can state s of ``a`` go to state t of ``b``, given ``mapping``
        (state k of ``a`` to mapping[k])?  The states mapped last, often
        the neighbours of s, are checked first."""
        return sr.eq(a.initial[s], b.initial[t]) and sr.eq(a.final[s], b.final[t]) \
            and agree(s, s, t, t) and all(agree(s, s2, t, mapping[s2])
                                          and agree(s2, s, mapping[s2], t)
                                          for s2 in reversed(range(s)))

    # backtracking with an explicit stack: untried[k] holds the candidates
    # not tried yet for each state k up to s
    mapping, used, untried = [], set(), []
    while len(mapping) < n:
        s = len(mapping)
        if len(untried) == s:
            untried.append(iter(candidates[s]))
        t = next((t for t in untried[s] if t not in used and consistent(mapping, s, t)),
                 None)
        if t is None:  # no place left for state s: undo the choice before it
            if not mapping:
                return False
            untried.pop()
            used.discard(mapping.pop())
        else:
            mapping.append(t)
            used.add(t)
    return True
