"""The library's Tarjan pass against the one it replaced (reference_graphs).

Component ids feed the analysis, the semiring's topological sweep and the
golden outputs, so the rewrite must return the very same (comp, count),
not merely the same partition.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from artifact.core import has_epsilon_cycle, trim
from artifact.graphs import strongly_connected_components
from artifact.oracle import random_automaton
from artifact.product import square

import reference_graphs


@st.composite
def _digraphs(draw):
    """Successor lists on 0–40 nodes, self-loops and repeated edges allowed."""
    n = draw(st.integers(0, 40))
    succ: list[list[int]] = [[] for _ in range(n)]
    if n:
        node = st.integers(0, n - 1)
        for u, v in draw(st.lists(st.tuples(node, node), max_size=4 * n)):
            succ[u].append(v)
    return n, succ


@settings(max_examples=300, deadline=None)
@given(graph=_digraphs())
def test_tarjan_matches_the_reference_on_random_digraphs(graph):
    n, succ = graph
    assert strongly_connected_components(n, succ) == (
        reference_graphs.strongly_connected_components(n, succ)
    )


def test_tarjan_matches_the_reference_on_a_benchmark_sized_square():
    # 48 trim states; its square has 2,660 states, 9,231 edges and 131
    # SCCs, the size of the eda_scale workload's squares
    a = trim(random_automaton(52, 2, 0.022, 0.01, seed=0))
    assert not has_epsilon_cycle(a)
    sq = square(a).underlying
    succ: list[list[int]] = [[] for _ in range(sq.num_states)]
    for t in sq.transitions:
        succ[t.src].append(t.dst)
    got = strongly_connected_components(sq.num_states, succ)
    assert got == reference_graphs.strongly_connected_components(sq.num_states, succ)
    assert sq.num_states > 2500 and got[1] > 100
