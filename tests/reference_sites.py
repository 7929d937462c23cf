"""The full-cube IDA site search that artifact.analysis replaced, kept
verbatim as a reference for the search over SCC-pair regions.

It marks the whole cube of the automaton (every (p, q, q)-projecting state
gets an edge to every (p, p, q)-projecting one) and runs one Tarjan pass
over it.  test_analysis checks that both searches find the same sites.
"""

from __future__ import annotations

from collections import defaultdict

from artifact.analysis import _adjacency
from artifact.core import EPSILON
from artifact.graphs import strongly_connected_components
from artifact.product import ProductAutomaton


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
