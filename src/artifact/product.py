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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

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


def _intersect(a1: FiniteAutomaton, a2: FiniteAutomaton) -> ProductAutomaton:
    """intersect() without the input checks, for operands already vetted."""
    by_symbol1, eps1 = _indexed_arcs(a1)
    by_symbol2, eps2 = _indexed_arcs(a2)

    state_ids: dict[tuple[int, int, FilterState], int] = {}
    states: list[tuple[int, int, FilterState]] = []

    def state_id(q1: int, q2: int, f: FilterState) -> int:
        key = (q1, q2, f)
        found = state_ids.get(key)
        if found is None:
            found = len(states)
            state_ids[key] = found
            states.append(key)
        return found

    queue = deque()
    for i1 in sorted(a1.initial):
        for i2 in sorted(a2.initial):
            queue.append(state_id(i1, i2, FilterState.F0))

    edges: list[tuple[int, str, int, tuple[int | None, int | None]]] = []
    while queue:
        s = queue.popleft()
        q1, q2, f = states[s]
        n_before = len(states)

        for label, arcs1 in by_symbol1[q1].items():
            arcs2 = by_symbol2[q2].get(label)
            if not arcs2:
                continue
            for d1, i1 in arcs1:
                for d2, i2 in arcs2:
                    # symbol matches always reset the filter to F0
                    edges.append((s, label, state_id(d1, d2, FilterState.F0), (i1, i2)))

        f_left = _EPS_NEXT.get((f, EpsMove.E2E2))
        if f_left is not None:
            for d1, i1 in eps1[q1]:
                edges.append((s, EPSILON, state_id(d1, q2, f_left), (i1, None)))
        f_right = _EPS_NEXT.get((f, EpsMove.E1E1))
        if f_right is not None:
            for d2, i2 in eps2[q2]:
                edges.append((s, EPSILON, state_id(q1, d2, f_right), (None, i2)))
        if _EPS_NEXT.get((f, EpsMove.E2E1)) is not None:
            for d1, i1 in eps1[q1]:
                for d2, i2 in eps2[q2]:
                    edges.append((s, EPSILON, state_id(d1, d2, FilterState.F0), (i1, i2)))

        for fresh in range(n_before, len(states)):
            queue.append(fresh)

    final_ids = [
        s
        for s, (q1, q2, _) in enumerate(states)
        if q1 in a1.final and q2 in a2.final
    ]
    alphabet = tuple(a1.alphabet) + tuple(
        x for x in a2.alphabet if x not in set(a1.alphabet)
    )
    return _compact(
        alphabet=alphabet,
        arity=2,
        states=[(q1, q2) for q1, q2, _ in states],
        filter_coords=[(f.value,) for _, _, f in states],
        initial=[state_ids[(i1, i2, FilterState.F0)] for i1 in a1.initial for i2 in a2.initial],
        final=final_ids,
        edges=edges,
    )


def square(a: FiniteAutomaton) -> ProductAutomaton:
    """A ∩ A with the pair projection exposed; requires a trim input."""
    if not is_trim(a):
        raise NotTrim("square requires a trim automaton")
    if has_epsilon_cycle(a):
        raise EpsilonCycleInput("intersection requires ε-cycle-free inputs")
    product = _intersect(a, a)
    if product.underlying.num_states > 3 * a.num_states * a.num_states:
        raise InternalInvariantViolation("square grew past 3·|Q|² states")
    return product


def cube(a: FiniteAutomaton) -> ProductAutomaton:
    """A ∩ A ∩ A, built as two pairwise intersections (left-associated).

    The intermediate product's ε-labeled transitions are ordinary ε-labels,
    so the second intersection re-marks them on the fly like any other ε.
    Because each pairwise product keeps exactly one interleaving per pair of
    component paths, triple path counts stay multiplicative.
    """
    return _cube(a, square(a))


def _cube(a: FiniteAutomaton, sq: ProductAutomaton) -> ProductAutomaton:
    """cube(a) on top of sq = square(a).

    No ε-cycle check on sq's underlying automaton: every ε-move of a
    filtered product advances at least one side, so a product of
    ε-cycle-free operands has no ε-cycle.
    """
    outer = _intersect(sq.underlying, a)
    components = []
    filter_coords = []
    for s in range(outer.underlying.num_states):
        s12, q3 = outer.components[s]
        components.append(sq.components[s12] + (q3,))
        filter_coords.append(sq.filters[s12] + outer.filters[s])
    derivations = []
    for j, i3 in outer.derivations:
        left = sq.derivations[j] if j is not None else (None, None)
        derivations.append(left + (i3,))
    return ProductAutomaton(
        underlying=outer.underlying,
        arity=3,
        components=tuple(components),
        filters=tuple(filter_coords),
        derivations=tuple(derivations),
    )


def _indexed_arcs(a: FiniteAutomaton):
    """Per-state arcs split into symbol arcs (grouped by label) and ε-arcs."""
    by_symbol: list[dict[str, list[tuple[int, int]]]] = [{} for _ in a.states]
    eps: list[list[tuple[int, int]]] = [[] for _ in a.states]
    for i, t in enumerate(a.transitions):
        if t.label == EPSILON:
            eps[t.src].append((t.dst, i))
        else:
            by_symbol[t.src].setdefault(t.label, []).append((t.dst, i))
    return by_symbol, eps


def _compact(alphabet, arity, states, filter_coords, initial, final, edges):
    """Keep only co-accessible states, renumber, and assemble the product."""
    backward: list[list[int]] = [[] for _ in states]
    for src, _, dst, _ in edges:
        backward[dst].append(src)
    keep = reachable(final, backward)

    order = sorted(keep)
    remap = {old: new for new, old in enumerate(order)}
    kept_edges = [
        (Transition(remap[src], label, remap[dst]), deriv)
        for src, label, dst, deriv in edges
        if src in keep and dst in keep
    ]
    kept_edges.sort(key=lambda item: item[0])
    for (t1, _), (t2, _) in zip(kept_edges, kept_edges[1:]):
        if t1 == t2:
            raise InternalInvariantViolation(f"duplicate product transition {t1}")

    underlying = FiniteAutomaton(
        alphabet=tuple(alphabet),
        num_states=len(order),
        initial=frozenset(remap[s] for s in initial if s in keep),
        final=frozenset(remap[s] for s in final),
        transitions=tuple(t for t, _ in kept_edges),
    )
    return ProductAutomaton(
        underlying=underlying,
        arity=arity,
        components=tuple(states[old] for old in order),
        filters=tuple(filter_coords[old] for old in order),
        derivations=tuple(deriv for _, deriv in kept_edges),
    )
