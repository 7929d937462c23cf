"""The full-cube IDA site and witness searches that artifact.analysis
replaced, kept verbatim as references for the searches over SCC-pair
regions.

_ida_sites marks the whole cube of the automaton (every (p, q, q)-projecting
state gets an edge to every (p, p, q)-projecting one) and runs one Tarjan
pass over it.  ida_witness builds the whole cube of the ε-free core and
searches it breadth-first for a path from (p, p, q) to (p, q, q); it
differs from the replaced code only in caching the cube and its indexed
adjacency, so that a test asking for every state pair builds them once
per automaton.
test_analysis checks that both searches agree with the region ones.
"""

from __future__ import annotations

from collections import defaultdict, deque
from functools import lru_cache

from artifact.analysis import (
    IDAWitness,
    _epsilon_core,
    _lift_path,
    _require_analyzable,
    verify_ida_witness,
)
from artifact.core import EPSILON, FiniteAutomaton, path_label
from artifact.errors import InternalInvariantViolation
from artifact.graphs import strongly_connected_components
from artifact.product import ProductAutomaton, cube

from reference_eda import _adjacency


def _ida_sites(cb: ProductAutomaton) -> set[tuple[int, int]]:
    """IDA pairs of a trim, ε-cycle-free automaton, by the marked-cube criterion.

    cb is the automaton's cube.  It is extended with marker edges from every
    (p, q, q)-projecting state to every (p, p, q)-projecting state (p != q).
    A pair (p, q) is a site iff one of its marker edges lies inside a
    strongly connected component that also contains a symbol-labeled cube
    transition.
    """
    fa = cb.underlying
    sources: dict[tuple[int, int], list[int]] = defaultdict(list)
    targets: dict[tuple[int, int], list[int]] = defaultdict(list)
    for s in range(fa.num_states):
        x, y, z = cb.components[s]
        if x != y and y == z:
            sources[(x, y)].append(s)
        elif x == y and y != z:
            targets[(x, z)].append(s)
    full = _adjacency(fa)
    markers: list[tuple[int, int, tuple[int, int]]] = []
    for pair, srcs in sources.items():
        tgts = targets.get(pair)
        if not tgts:
            continue
        for s in srcs:
            for t in tgts:
                markers.append((s, t, pair))
                full[s].append(t)
    comp, count = strongly_connected_components(fa.num_states, full)
    has_symbol = [False] * count
    for tr in fa.transitions:
        if tr.label != EPSILON and comp[tr.src] == comp[tr.dst]:
            has_symbol[comp[tr.src]] = True
    return {
        pair
        for s, t, pair in markers
        if comp[s] == comp[t] and has_symbol[comp[s]]
    }


_cube = lru_cache(maxsize=1)(cube)


@lru_cache(maxsize=1)
def _indexed_arcs(fa: FiniteAutomaton) -> list[list]:
    return _adjacency(fa, indexed=True)


def _site_path(cb: ProductAutomaton, p: int, q: int) -> list[int] | None:
    """Shortest symbol-consuming cube path backing site (p, q), or None.

    The path runs from a (p, p, q)-projecting to a (p, q, q)-projecting
    state of cb.
    """
    fa = cb.underlying
    arcs = _indexed_arcs(fa)
    starts = [s for s, c in enumerate(cb.components) if c == (p, p, q)]
    goals = {s for s, c in enumerate(cb.components) if c == (p, q, q)}
    if not starts or not goals:
        return None
    parents: dict[tuple[int, bool], tuple[tuple[int, bool], int]] = {}
    queue = deque((s, False) for s in starts)
    seen = set(queue)
    hit: tuple[int, bool] | None = None
    while queue and hit is None:
        node, flag = queue.popleft()
        for dst, idx in arcs[node]:
            nxt = (dst, flag or fa.transitions[idx].label != EPSILON)
            if nxt in seen:
                continue
            seen.add(nxt)
            parents[nxt] = ((node, flag), idx)
            if nxt[1] and dst in goals:
                hit = nxt
                break
            queue.append(nxt)
    if hit is None:
        return None
    steps: list[int] = []
    key = hit
    while key in parents:
        key, idx = parents[key]
        steps.append(idx)
    steps.reverse()
    return steps


def ida_witness(a: FiniteAutomaton, p: int, q: int) -> IDAWitness | None:
    """Search the core's cube for the three same-labeled paths backing a site.

    Returns None when no symbol-consuming cube path connects a
    (p, p, q)-projecting state to a (p, q, q)-projecting one, i.e. when the
    pair pumps nothing.
    """
    _require_analyzable(a)
    if p == q or not (0 <= p < a.num_states and 0 <= q < a.num_states):
        return None
    core, lifts, _, back, *_ = _epsilon_core(a)
    if p not in back or q not in back:
        return None
    cb = _cube(core)
    steps = _site_path(cb, back[p], back[q])
    if steps is None:
        return None

    def project(coord: int) -> tuple[int, ...]:
        core_path = tuple(
            cb.derivations[i][coord]
            for i in steps
            if cb.derivations[i][coord] is not None
        )
        return _lift_path(lifts, core_path)

    witness = IDAWitness(
        p=p,
        q=q,
        label=path_label(a, project(1)),
        path_pp=project(0),
        path_pq=project(1),
        path_qq=project(2),
    )
    if not verify_ida_witness(a, witness):
        raise InternalInvariantViolation("extracted site paths failed validation")
    return witness
