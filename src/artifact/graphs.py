"""Graph helpers: iterative Tarjan SCC, DFS postorder and reachability.

The product graphs can hold on the order of |A|^3 states, so recursion is
off the table; everything here runs on explicit stacks.
"""

from __future__ import annotations

from typing import Iterable, Sequence


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
        index[root] = low[root] = next_index
        next_index += 1
        scc_stack.append(root)
        on_stack[root] = 1
        # one frame per DFS level: the node and the iterator over its
        # successors, which resumes where the descent into a child left it
        work = [(root, iter(successors[root]))]
        while work:
            node, succ = work[-1]
            for nxt in succ:
                if index[nxt] == UNSEEN:
                    index[nxt] = low[nxt] = next_index
                    next_index += 1
                    scc_stack.append(nxt)
                    on_stack[nxt] = 1
                    work.append((nxt, iter(successors[nxt])))
                    break
                if on_stack[nxt]:
                    if index[nxt] < low[node]:
                        low[node] = index[nxt]
            else:
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


def dfs_postorder(
    roots: Iterable[int], successors: Sequence[Sequence[int]]
) -> tuple[list[int], bool]:
    """Depth-first postorder of everything reachable from ``roots``.

    Roots are explored in the order given, successors in list order, and
    each node is emitted once all its descendants are.  Returns (postorder,
    back edge seen); on an acyclic graph the reversed postorder is a
    topological order, and a back edge exists iff some reachable cycle does.
    """
    ACTIVE, DONE = 1, 2
    color: dict[int, int] = {}
    post: list[int] = []
    cyclic = False
    for root in roots:
        if root in color:
            continue
        color[root] = ACTIVE
        stack = [(root, 0)]
        while stack:
            node, pos = stack[-1]
            succ = successors[node]
            if pos < len(succ):
                stack[-1] = (node, pos + 1)
                nxt = succ[pos]
                state = color.get(nxt)
                if state is None:
                    color[nxt] = ACTIVE
                    stack.append((nxt, 0))
                elif state == ACTIVE:
                    cyclic = True
            else:
                color[node] = DONE
                post.append(node)
                stack.pop()
    return post, cyclic


def reachable(starts: Iterable[int], successors: Sequence[Sequence[int]]) -> set[int]:
    """Nodes reachable from ``starts`` (included) along successor lists."""
    seen = set(starts)
    stack = list(starts)
    while stack:
        for nxt in successors[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen
