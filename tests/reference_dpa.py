"""The longest-chain DP that artifact.analysis used before its condensation
edges were read off the ε-free core's predecessor lists, kept verbatim as
the reference for the DPA degree and the witness chain's tie-break.

_dpa_impl differs from the replaced code only in building the successor
lists it reads from core.fa.transitions, since the core no longer carries
them.  test_analysis checks that dpa_with_witness and classify's DPA
witness agree with it when it is run on the full marked cube's sites.
"""

from __future__ import annotations

from artifact.analysis import DPAWitness, _Core
from artifact.errors import InternalInvariantViolation


def _dpa_impl(core: _Core, pairs: set[tuple[int, int]]) -> tuple[int, DPAWitness | None]:
    """Longest chain of the core's sites `pairs` along one condensation path.

    No EDA is allowed.  The witness names the sites by the states of the
    automaton behind the core.
    """
    if not pairs:
        return 0, None
    forward: list[list[int]] = [[] for _ in range(core.n)]
    for src, _, dst in core.fa.transitions:
        forward[src].append(dst)
    comp, count = core.comp, len(core.members)
    out: list[list[tuple[int, int, tuple[int, int] | None]]] = [[] for _ in range(count)]
    plain: set[tuple[int, int]] = set()
    for src, dsts in enumerate(forward):
        for dst in dsts:
            cu, cv = comp[src], comp[dst]
            if cu != cv and (cu, cv) not in plain:
                plain.add((cu, cv))
                out[cu].append((cv, 0, None))
    for p, q in sorted(pairs):
        cp, cq = comp[p], comp[q]
        if cp <= cq:
            raise InternalInvariantViolation(
                "site ordering contradicts the component order"
            )
        out[cp].append((cq, 1, (p, q)))
    best = [0] * count
    parent: list[tuple[int, tuple[int, int] | None] | None] = [None] * count
    for c in range(count - 1, -1, -1):
        for dst, weight, tag in out[c]:
            if best[c] + weight > best[dst]:
                best[dst] = best[c] + weight
                parent[dst] = (c, tag)
    degree = max(best)
    if degree == 0:
        return degree, None
    node = best.index(degree)
    chain: list[tuple[int, int]] = []
    while parent[node] is not None:
        node, tag = parent[node]
        if tag is not None:
            chain.append(tag)
    chain.reverse()
    if len(chain) != degree:
        raise InternalInvariantViolation("site chain reconstruction mismatch")
    order = core.order
    return degree, DPAWitness(pairs=tuple((order[p], order[q]) for p, q in chain))
