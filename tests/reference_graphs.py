"""The Tarjan SCC pass that artifact.graphs replaced, kept verbatim as the
reference for its rewrite.

It keeps one (node, edge position) frame per DFS level and reads each
successor list by index.  test_graphs checks that the rewrite returns the
very same (component id per node, component count) on random digraphs and
on a square of the size that the eda_scale benchmark workload builds.
"""

from __future__ import annotations

from typing import Sequence


def strongly_connected_components(
    num_nodes: int, successors: Sequence[Sequence[int]]
) -> tuple[list[int], int]:
    """Single-pass iterative Tarjan.

    Returns (component id per node, component count).  Component ids are
    assigned in reverse topological order: every edge u -> v between distinct
    components satisfies comp[u] > comp[v].
    """
    UNSEEN = -1
    index = [UNSEEN] * num_nodes
    low = [0] * num_nodes
    on_stack = bytearray(num_nodes)
    comp = [UNSEEN] * num_nodes
    scc_stack: list[int] = []
    next_index = 0
    next_comp = 0

    for root in range(num_nodes):
        if index[root] != UNSEEN:
            continue
        work = [(root, 0)]
        while work:
            node, edge_pos = work[-1]
            if edge_pos == 0:
                index[node] = low[node] = next_index
                next_index += 1
                scc_stack.append(node)
                on_stack[node] = 1
            advanced = False
            succ = successors[node]
            while edge_pos < len(succ):
                nxt = succ[edge_pos]
                edge_pos += 1
                if index[nxt] == UNSEEN:
                    work[-1] = (node, edge_pos)
                    work.append((nxt, 0))
                    advanced = True
                    break
                if on_stack[nxt]:
                    if index[nxt] < low[node]:
                        low[node] = index[nxt]
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                while True:
                    member = scc_stack.pop()
                    on_stack[member] = 0
                    comp[member] = next_comp
                    if member == node:
                        break
                next_comp += 1
            if work:
                parent = work[-1][0]
                if low[node] < low[parent]:
                    low[parent] = low[node]
    return comp, next_comp
