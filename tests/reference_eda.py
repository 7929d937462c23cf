"""The square-SCC EDA search that artifact.analysis replaced, kept verbatim
as the reference for its merged search.

_find_eda_scc runs one Tarjan pass over the whole square and picks the
first SCC holding both a diagonal and an off-diagonal state; _eda_cycles
builds an indexed adjacency and the set of that SCC's states, and reads
the cycle pair off two breadth-first searches (_bfs_transitions) from the
diagonal state to the off-diagonal one and back.  test_analysis checks
that the merged search returns the very same EDAWitness.  _adjacency,
whose indexed form only these searches used, is kept with them, and
reference_sites shares it.
"""

from __future__ import annotations

from collections import deque

from artifact.analysis import EDAWitness, _require_analyzable, verify_eda_witness
from artifact.core import FiniteAutomaton, path_label
from artifact.errors import InternalInvariantViolation
from artifact.graphs import strongly_connected_components
from artifact.product import ProductAutomaton, _square


def _adjacency(fa: FiniteAutomaton, indexed: bool = False) -> list[list]:
    """Per-state successors; (successor, transition index) pairs if indexed."""
    adj: list[list] = [[] for _ in fa.states]
    if indexed:
        for i, t in enumerate(fa.transitions):
            adj[t.src].append((t.dst, i))
    else:  # the SCC passes over products; keep this loop bare
        for t in fa.transitions:
            adj[t.src].append(t.dst)
    return adj


def eda_witness(a: FiniteAutomaton) -> EDAWitness | None:
    """Extract two distinct same-labeled cycles, or None if there are none."""
    _require_analyzable(a)
    sq = _square(a)
    found = _find_eda_scc(sq)
    return None if found is None else _eda_cycles(a, sq, found)


def _find_eda_scc(sq: ProductAutomaton):
    """Locate an SCC of the square holding a diagonal and an off-diagonal state.

    Returns (comp array, diagonal state, off-diagonal state) or None.
    """
    fa = sq.underlying
    comp, count = strongly_connected_components(fa.num_states, _adjacency(fa))
    diag = [-1] * count
    off = [-1] * count
    for s in range(fa.num_states):
        q1, q2 = sq.components[s]
        if q1 == q2:
            if diag[comp[s]] < 0:
                diag[comp[s]] = s
        elif off[comp[s]] < 0:
            off[comp[s]] = s
    for c in range(count):
        if diag[c] >= 0 and off[c] >= 0:
            return comp, diag[c], off[c]
    return None


def _eda_cycles(a: FiniteAutomaton, sq: ProductAutomaton, found) -> EDAWitness:
    """The cycle pair behind the SCC that _find_eda_scc(sq) found in a's square."""
    comp, diag_state, off_state = found
    fa = sq.underlying
    arcs = _adjacency(fa, indexed=True)
    allowed = {s for s in range(fa.num_states) if comp[s] == comp[diag_state]}
    there = _bfs_transitions(arcs, diag_state, off_state, allowed)
    back = _bfs_transitions(arcs, off_state, diag_state, allowed)
    if there is None or back is None:
        raise InternalInvariantViolation("SCC members not mutually reachable")
    loop = there + back
    cycle_a = tuple(sq.derivations[i][0] for i in loop if sq.derivations[i][0] is not None)
    cycle_b = tuple(sq.derivations[i][1] for i in loop if sq.derivations[i][1] is not None)
    if cycle_a == cycle_b:
        raise InternalInvariantViolation("projected cycles coincide")
    witness = EDAWitness(
        state=sq.components[diag_state][0],
        label=path_label(a, cycle_a),
        cycle_a=cycle_a,
        cycle_b=cycle_b,
    )
    if not verify_eda_witness(a, witness):
        raise InternalInvariantViolation("extracted cycle pair failed validation")
    return witness


def _bfs_transitions(arcs, start: int, goal: int, allowed: set[int]):
    """Shortest transition-index path start -> goal != start inside allowed, or None."""
    parents: dict[int, tuple[int, int]] = {}
    queue = deque([start])
    seen = {start}
    while queue:
        node = queue.popleft()
        for dst, idx in arcs[node]:
            if dst in seen or dst not in allowed:
                continue
            seen.add(dst)
            parents[dst] = (node, idx)
            if dst == goal:
                path = [idx]
                at = node
                while at != start:
                    prev, pidx = parents[at]
                    path.append(pidx)
                    at = prev
                path.reverse()
                return path
            queue.append(dst)
    return None
