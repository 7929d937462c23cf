"""ε-filtered intersection of automata and the self-products A² and A³.

Matching two ε-NFAs naively multiplies ε-interleavings: the same pair of
component paths would be found once per way of shuffling their ε-steps.  The
construction here threads a three-state filter through the product so that
exactly one interleaving survives, which makes path counts multiplicative —
the property the ambiguity tests and all the oracle cross-checks rely on.

Per composite state the generator considers four move kinds:

  * MatchSymbol(x): both sides consume the same symbol x (filter resets).
  * E2E2: the left automaton advances on one of its ε-transitions, the right
    side stays put.
  * E1E1: the right automaton advances on one of its ε-transitions, the left
    side stays put.
  * E2E1: both advance on ε-transitions together (the diagonal move).

The marking that motivates the move names is virtual: no self-loops are ever
materialized and no labels are rewritten.

One worklist kernel, _explore, is under every product: intersect, square
and both steps of cube, which _intersect finishes, and the EDA witness of
analysis, which reads the worklist graph as it is.  It codes the composite
state (q1, q2, f) as the integer (q1·|Q2| + q2)·3 + f, with the filter
state Fk as k, and moves the filter by small integer tables read off
_EPS_NEXT, which stays the one definition of the filter.  Labels are
ranked with ε first and the symbols in sorted order, so each edge carries
one integer sort key (src·#labels + rank)·width + dst, and no Transition
or tuple is built for an edge until _intersect assembles the product, in
one pass that drops the states that cannot reach a final one and sorts
the edges by key.  The order contract of the result: state ids number
the co-accessible states in breadth-first discovery order (initial pairs
first, in sorted order), and transitions are sorted by (src, label, dst)
like those of any FiniteAutomaton, with ``derivations`` in the same order.
Dropping the states that cannot reach a final one renumbers the rest
monotonically, which keeps that sort.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import NamedTuple

from .core import EPSILON, FiniteAutomaton, Transition, has_epsilon_cycle, is_trim
from .errors import EpsilonCycleInput, InternalInvariantViolation, NotTrim
from .graphs import reachable


class FilterState(Enum):
    F0 = 0
    F1 = 1
    F2 = 2


class EpsMove(Enum):
    """The three ε-move kinds of the product construction."""

    E1E1 = "e1:e1"  # right side advances on its ε, left stays
    E2E2 = "e2:e2"  # left side advances on its ε, right stays
    E2E1 = "e2:e1"  # both sides advance on ε (diagonal)


@dataclass(frozen=True)
class MatchSymbol:
    """Move consuming symbol ``symbol`` on both sides."""

    symbol: str


# Transition table of the filter.  Missing entries are blocked: they are
# exactly the continuations that would create a second interleaving of the
# same component ε-steps (move words containing ab, ba, ac or bc, writing
# a = E1E1, b = E2E2, c = E2E1).
_EPS_NEXT: dict[tuple[FilterState, EpsMove], FilterState] = {
    (FilterState.F0, EpsMove.E2E1): FilterState.F0,
    (FilterState.F0, EpsMove.E1E1): FilterState.F1,
    (FilterState.F0, EpsMove.E2E2): FilterState.F2,
    (FilterState.F1, EpsMove.E1E1): FilterState.F1,
    (FilterState.F2, EpsMove.E2E2): FilterState.F2,
}


def _move_table(move: EpsMove) -> tuple[int, ...]:
    """_EPS_NEXT for one move kind as a tuple indexed by filter value; -1 = blocked."""
    return tuple(
        -1 if (after := _EPS_NEXT.get((f, move))) is None else after.value
        for f in FilterState
    )


# The kernel's integer view of the filter: FilterState.Fk is k, and these
# tables are _EPS_NEXT read per move kind.
_F0 = FilterState.F0.value
_LEFT_NEXT = _move_table(EpsMove.E2E2)
_RIGHT_NEXT = _move_table(EpsMove.E1E1)
_BOTH_NEXT = _move_table(EpsMove.E2E1)
_FILTER_COORDS = tuple((f.value,) for f in FilterState)

# Transition(src, label, dst) from a ready (src, label, dst) tuple, without
# the Python-level __new__ of the named tuple
_make_transition = partial(tuple.__new__, Transition)


def filter_step(state: FilterState, move: EpsMove | MatchSymbol) -> FilterState | None:
    """Advance the filter; None means the move is blocked (a value, not an error)."""
    if isinstance(move, MatchSymbol):
        return FilterState.F0
    return _EPS_NEXT.get((state, move))


@dataclass(frozen=True)
class ProductAutomaton:
    """Result of a filtered intersection.

    ``underlying`` is an ordinary automaton over composite states.  For each
    composite state, ``components`` holds the tuple of component state ids
    (a pair for A∩B, a triple for A³) and ``filters`` the filter coordinates.
    ``derivations`` records, per underlying transition, which component
    transition indices produced it (None where a side stayed put) — this is
    what lets witnesses project product cycles back onto component paths.
    """

    underlying: FiniteAutomaton
    arity: int
    components: tuple[tuple[int, ...], ...]
    filters: tuple[tuple[int, ...], ...]
    derivations: tuple[tuple[int | None, ...], ...]


def intersect(a1: FiniteAutomaton, a2: FiniteAutomaton) -> ProductAutomaton:
    """Filtered intersection of two ε-cycle-free automata, trimmed.

    The worklist starts from the initial composite states, so only accessible
    states are ever built; a backward pass then removes non-co-accessible
    ones.  A composite state (q1, q2, f) is final iff q1 and q2 are final —
    the filter coordinate constrains ε-interleavings, not acceptance.
    """
    for a in (a1, a2):
        if has_epsilon_cycle(a):
            raise EpsilonCycleInput("intersection requires ε-cycle-free inputs")
    return _intersect(a1, a2)


class _Worklist(NamedTuple):
    """The accessible part of a product, as _explore's worklist leaves it.

    State s is the s-th composite state discovered, codes[s] its code
    (q1·w1 + q2·3 + f); the first n_initial of them are the initial pairs.
    Edge i has the sort key keys[i] = (src·len(labels) + label rank)·width
    + dst and the component transition indices derivations[i] (None where
    a side stayed put).  Edges leave states in discovery order, so the
    edges out of s are those from ends[s − 1] (0 for s = 0) to ends[s].
    """

    labels: list[str]
    w1: int
    width: int
    codes: list[int]
    n_initial: int
    keys: list[int]
    derivations: list[tuple[int | None, int | None]]
    ends: list[int]


def _explore(a1: FiniteAutomaton, a2: FiniteAutomaton, keep: set[int] | None = None) -> _Worklist:
    """The breadth-first worklist behind every product: its accessible part.

    Composite states are numbered in discovery order, the initial pairs
    first and in sorted order; nothing is trimmed or sorted yet.  keep,
    if given, holds the only states of a1 and a2 that a composite state
    may have: the initial pairs and arcs into other states are left out.
    """
    # labels ranked as the canonical transition order sorts them: ε ("")
    # first, then the symbols in sorted order
    labels = [EPSILON] + sorted({t.label for t in a1.transitions} - {EPSILON})
    rank = {label: r for r, label in enumerate(labels)}
    n_labels = len(labels)
    w1 = 3 * a2.num_states  # code stride of q1; q2's stride is 3
    width = w1 * a1.num_states  # every code, hence every state id, is below it
    symbol1, eps1 = _coded_arcs(a1, rank, w1, keep)
    symbol2, eps2 = _coded_arcs(a2, rank, 3, keep)
    initial1, initial2 = (sorted(a.initial if keep is None else a.initial & keep) for a in (a1, a2))

    ids: dict[int, int] = {}
    codes: list[int] = []
    for i1 in initial1:
        for i2 in initial2:
            code = i1 * w1 + i2 * 3 + _F0
            ids[code] = len(codes)
            codes.append(code)
    n_initial = len(codes)

    # Per edge: its sort key (src·n_labels + label rank)·width + dst, and its
    # derivation.  Edges leave states in discovery order, so ends[s] closes
    # the run of edges out of state s.
    keys: list[int] = []
    derivations: list[tuple[int | None, int | None]] = []
    ends: list[int] = []
    get_id, add_code = ids.get, codes.append
    add_key, add_derivation = keys.append, derivations.append

    def state_id(c: int) -> int:
        d = get_id(c)
        if d is None:
            d = ids[c] = len(codes)
            add_code(c)
        return d

    s = 0
    while s < len(codes):
        code = codes[s]
        q1, rest = divmod(code, w1)
        q2, f = divmod(rest, 3)
        row = s * n_labels
        arcs2_by_rank = symbol2[q2]
        for r, arcs1 in symbol1[q1].items():
            arcs2 = arcs2_by_rank.get(r)
            if arcs2 is None:
                continue
            base = (row + r) * width
            for c1, i1 in arcs1:
                for c2, i2 in arcs2:
                    # symbol matches always reset the filter to F0; state_id
                    # is inlined on this, the kernel's hot path
                    c = c1 + c2 + _F0
                    d = get_id(c)
                    if d is None:
                        d = ids[c] = len(codes)
                        add_code(c)
                    add_key(base + d)
                    add_derivation((i1, i2))
        base = row * width  # ε has rank 0
        g = _LEFT_NEXT[f]
        if g >= 0:
            stay = rest - f + g
            for c1, i1 in eps1[q1]:
                add_key(base + state_id(c1 + stay))
                add_derivation((i1, None))
        g = _RIGHT_NEXT[f]
        if g >= 0:
            stay = code - rest + g
            for c2, i2 in eps2[q2]:
                add_key(base + state_id(stay + c2))
                add_derivation((None, i2))
        g = _BOTH_NEXT[f]
        if g >= 0:
            for c1, i1 in eps1[q1]:
                for c2, i2 in eps2[q2]:
                    add_key(base + state_id(c1 + c2 + g))
                    add_derivation((i1, i2))
        ends.append(len(keys))
        s += 1

    return _Worklist(labels, w1, width, codes, n_initial, keys, derivations, ends)


def _intersect(a1: FiniteAutomaton, a2: FiniteAutomaton) -> ProductAutomaton:
    """intersect() without the input checks, for operands already vetted."""
    labels, w1, width, codes, n_initial, keys, derivations, ends = _explore(a1, a2)
    n_labels = len(labels)

    # keep the co-accessible states; an edge survives iff its target does
    dsts = [k % width for k in keys]
    backward: list[list[int]] = [[] for _ in codes]
    start = 0
    for src, end in enumerate(ends):
        for d in dsts[start:end]:
            backward[d].append(src)
        start = end
    final1, final2 = a1.final, a2.final
    final = [s for s, c in enumerate(codes) if c // w1 in final1 and c % w1 // 3 in final2]
    order = sorted(reachable(final, backward))
    new_id = [-1] * len(codes)
    for new, old in enumerate(order):
        new_id[old] = new

    # the renumbering is monotone, so sorting by the old keys sorts the
    # kept edges by their new (src, label, dst)
    kept = [i for i in sorted(range(len(keys)), key=keys.__getitem__) if new_id[dsts[i]] >= 0]
    kept_keys = [keys[i] for i in kept]
    rows = [k // width for k in kept_keys]
    transitions = tuple(map(_make_transition, zip(
        [new_id[row // n_labels] for row in rows],
        [labels[row % n_labels] for row in rows],
        [new_id[dsts[i]] for i in kept],
    )))
    if len(set(kept_keys)) != len(kept_keys):
        for t1, t2 in zip(transitions, transitions[1:]):
            if t1 == t2:
                raise InternalInvariantViolation(f"duplicate product transition {t1}")
    kept_codes = [codes[old] for old in order]
    alphabet1 = set(a1.alphabet)
    underlying = FiniteAutomaton(
        alphabet=tuple(a1.alphabet) + tuple(x for x in a2.alphabet if x not in alphabet1),
        num_states=len(order),
        initial=frozenset(new_id[s] for s in range(n_initial) if new_id[s] >= 0),
        final=frozenset(new_id[s] for s in final),
        transitions=transitions,
    )
    return ProductAutomaton(
        underlying=underlying,
        arity=2,
        components=tuple([(c // w1, c % w1 // 3) for c in kept_codes]),
        filters=tuple([_FILTER_COORDS[c % 3] for c in kept_codes]),
        derivations=tuple(map(derivations.__getitem__, kept)),
    )


def square(a: FiniteAutomaton) -> ProductAutomaton:
    """A ∩ A with the pair projection exposed; requires a trim input."""
    if not is_trim(a):
        raise NotTrim("square requires a trim automaton")
    if has_epsilon_cycle(a):
        raise EpsilonCycleInput("intersection requires ε-cycle-free inputs")
    return _square(a)


def _square(a: FiniteAutomaton) -> ProductAutomaton:
    """square() without the input checks, for an operand already vetted."""
    product = _intersect(a, a)
    if product.underlying.num_states > 3 * a.num_states * a.num_states:
        raise InternalInvariantViolation("square grew past 3·|Q|² states")
    return product


def cube(a: FiniteAutomaton) -> ProductAutomaton:
    """A ∩ A ∩ A, built as two pairwise intersections (left-associated).

    The intermediate product's ε-labeled transitions are ordinary ε-labels,
    so the second intersection re-marks them on the fly like any other ε.
    Because each pairwise product keeps exactly one interleaving per pair of
    component paths, triple path counts stay multiplicative.  The outer
    step skips the ε-cycle check on the square: every ε-move of a filtered
    product advances at least one side, so a product of ε-cycle-free
    operands has no ε-cycle.
    """
    sq = square(a)
    outer = _intersect(sq.underlying, a)
    pairs, pair_filters, pair_derivations = sq.components, sq.filters, sq.derivations
    stay = (None, None)
    return ProductAutomaton(
        underlying=outer.underlying,
        arity=3,
        components=tuple([pairs[s12] + (q3,) for s12, q3 in outer.components]),
        filters=tuple([
            pair_filters[s12] + f3
            for (s12, _), f3 in zip(outer.components, outer.filters)
        ]),
        derivations=tuple([
            (stay if j is None else pair_derivations[j]) + (i3,)
            for j, i3 in outer.derivations
        ]),
    )


def _coded_arcs(a: FiniteAutomaton, rank: dict[str, int], stride: int, keep: set[int] | None):
    """Per-state arcs of a as (dst·stride, transition index) pairs.

    Returns the symbol arcs, as dicts from label rank to arcs in order of
    first appearance, and the ε-arcs.  Labels without a rank cannot match
    and are dropped, and so are arcs into states outside keep, if given.
    """
    by_rank: list[dict[int, list[tuple[int, int]]]] = [{} for _ in a.states]
    eps: list[list[tuple[int, int]]] = [[] for _ in a.states]
    for i, (src, label, dst) in enumerate(a.transitions):
        if keep is not None and dst not in keep:
            continue
        if label == EPSILON:
            eps[src].append((dst * stride, i))
        elif label in rank:
            by_rank[src].setdefault(rank[label], []).append((dst * stride, i))
    return by_rank, eps
