"""The dict-and-tuple product kernel that artifact.product replaced, kept
verbatim as a reference for the integer-coded kernel.

Composite states are (q1, q2, FilterState) dict keys, every edge is a tuple,
and _compact sorts Transition objects.  test_product checks that both
kernels return equal ProductAutomaton values.
"""

from __future__ import annotations

from collections import deque

from artifact.core import EPSILON, FiniteAutomaton, Transition
from artifact.errors import InternalInvariantViolation
from artifact.graphs import reachable
from artifact.product import _EPS_NEXT, EpsMove, FilterState, ProductAutomaton


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
