"""Pair semiring and an exact shortest distance over weighted automata.

The pair semiring carries (mass, accumulator) values: ⊕ adds componentwise,
⊗ multiplies masses and cross-multiplies accumulators (a product rule).  Two
weight mappings feed it:

  * entropy: w ↦ (w, −w·ln w), so a path accumulates −W·ln W of its own
    weight W, and summing over paths yields the path entropy;
  * expectation: w ↦ (w, w) on symbol transitions and (w, 0) on ε ones, so a
    path accumulates W·(number of symbols), summing to the expected length.

shortest_distance then ⊕-sums λ ⊗ w[π] ⊗ ρ over all successful paths in
closed form, λ(I − M)⁻¹ρ with the product rule on the second coordinate:
one linear solve per strongly connected component, in topological order.
A component of one state is a scalar division, so an acyclic graph reduces
to back-substitution.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import EPSILON
from .errors import EpsilonCycleInput, NonConvergent, NonPositiveWeight
from .graphs import strongly_connected_components
from .weighted import WeightedAutomaton

_EPS = float(np.finfo(float).eps)


class PairWeight(NamedTuple):
    first: float
    second: float


def _entropy_value(x: float) -> PairWeight:
    if x == 0.0:
        return PairWeight(0.0, 0.0)
    # "+ 0.0" normalizes the -0.0 produced at x == 1
    return PairWeight(x, -(x * math.log(x)) + 0.0)


def _mapped(wa: WeightedAutomaton, on_transition, on_end) -> WeightedAutomaton:
    """wa with its weights sent to pair weights; rejects non-positive weights."""
    weights = []
    for tr, w in zip(wa.skeleton.transitions, wa.weights):
        if w <= 0.0:
            raise NonPositiveWeight(f"transition {tr} has weight {w}")
        weights.append(on_transition(tr, w))
    ends = []
    for pairs in (wa.lam, wa.rho):
        for q, v in pairs:
            if v < 0.0:
                raise NonPositiveWeight(f"end weight of state {q} is {v}")
        ends.append(tuple((q, on_end(v)) for q, v in pairs))
    return WeightedAutomaton(
        skeleton=wa.skeleton, weights=tuple(weights), lam=ends[0], rho=ends[1]
    )


def map_entropy(wa: WeightedAutomaton) -> WeightedAutomaton:
    """Send every weight w to (w, −w·ln w); zero end weights go to (0, 0)."""
    return _mapped(wa, lambda tr, w: _entropy_value(w), _entropy_value)


def map_expectation(wa: WeightedAutomaton) -> WeightedAutomaton:
    """Send symbol weights to (w, w), ε weights to (w, 0); ends to (v, 0)."""
    return _mapped(
        wa,
        lambda tr, w: PairWeight(w, 0.0 if tr.label == EPSILON else w),
        lambda v: PairWeight(v, 0.0),
    )


def _solve_block(
    states: list[int], arcs: list, d1: list[float], d2: list[float], tol: float
) -> None:
    """Replace the inflow d1, d2 on one SCC of several states by its distances.

    With A and B the first and second coordinates of the internal arcs,
    x₁ = (I − A)⁻¹r₁ and x₂ = (I − A)⁻¹(r₂ + B·x₁).  Raises NonConvergent
    unless ρ(A) < 1 is proven and both solves leave a residual of at most
    tol relative to their right-hand side.
    """
    k = len(states)
    at = {q: i for i, q in enumerate(states)}
    a = np.zeros((k, k))
    b = np.zeros((k, k))
    for p, q, (w1, w2) in arcs:
        a[at[q], at[p]] += w1
        b[at[q], at[p]] += w2
    m = np.eye(k) - a
    r1 = np.array([d1[q] for q in states])
    try:
        x1, y = np.linalg.solve(m, np.column_stack((r1, np.ones(k)))).T
    except np.linalg.LinAlgError:
        raise NonConvergent(f"cycle mass 1 in an SCC of {k} states: I − A is singular") from None
    # Collatz–Wielandt: for A ≥ 0, a positive y with (Ay)ᵢ < yᵢ for every
    # i proves ρ(A) < 1, whatever the accuracy of y; the margin covers the
    # rounding of A·y itself
    ay = a @ y
    if not (np.all(y > 0.0) and np.all(y - ay > (k + 2) * _EPS * (y + ay))):
        raise NonConvergent(f"cycle mass ≥ 1 in an SCC of {k} states")
    r2 = np.array([d2[q] for q in states]) + b @ x1
    x2 = np.linalg.solve(m, r2)
    for x, r in ((x1, r1), (x2, r2)):
        residual = float(np.max(np.abs(m @ x - r)))
        bound = tol * float(np.max(np.abs(r)))
        if residual > bound:
            raise NonConvergent(
                f"solve residual {residual:g} exceeds tol·‖r‖∞ = {bound:g}"
                f" in an SCC of {k} states"
            )
    for i, q in enumerate(states):
        d1[q] = float(x1[i])
        d2[q] = float(x2[i])


def shortest_distance(wa: WeightedAutomaton, tol: float = 1e-10) -> PairWeight:
    """⊕ over all successful paths π of λ[p[π]] ⊗ w[π] ⊗ ρ[n[π]], solved exactly.

    The SCCs of the transition graph are visited in topological order; each
    receives the mass flowing in from λ and from earlier SCCs, then solves
    for its own distances.  A cycle mass of 1 or more (spectral radius
    ρ(A) ≥ 1 of an SCC's first coordinates) raises NonConvergent, as does a
    block solve whose residual ‖(I − A)x − r‖∞ exceeds tol·‖r‖∞.
    """
    skel = wa.skeleton
    n = skel.num_states
    if n == 0:
        return PairWeight(0.0, 0.0)

    eps_succ: list[list[int]] = [[] for _ in range(n)]
    for tr in skel.transitions:
        if tr.label == EPSILON:
            eps_succ[tr.src].append(tr.dst)
    ecomp, _ = strongly_connected_components(n, eps_succ)
    for tr, w in zip(skel.transitions, wa.weights):
        if tr.label == EPSILON and ecomp[tr.src] == ecomp[tr.dst] and w != (1.0, 0.0):
            raise EpsilonCycleInput("ε-cycle with non-identity weight")

    succ: list[list[int]] = [[] for _ in range(n)]
    for tr in skel.transitions:
        succ[tr.src].append(tr.dst)
    comp, count = strongly_connected_components(n, succ)
    members: list[list[int]] = [[] for _ in range(count)]
    for q in range(n):
        members[comp[q]].append(q)
    inflow: list[list] = [[] for _ in range(count)]
    internal: list[list] = [[] for _ in range(count)]
    for tr, w in zip(skel.transitions, wa.weights):
        c = comp[tr.dst]
        (internal if comp[tr.src] == c else inflow)[c].append((tr.src, tr.dst, w))

    d1 = [0.0] * n
    d2 = [0.0] * n
    for q, (v1, v2) in wa.lam:
        d1[q], d2[q] = v1, v2
    # component ids are reverse topological: every arc between components
    # runs from a higher id to a lower one
    for c in range(count - 1, -1, -1):
        for p, q, (w1, w2) in inflow[c]:
            d1[q], d2[q] = d1[q] + d1[p] * w1, d2[q] + (d1[p] * w2 + w1 * d2[p])
        if len(members[c]) > 1:
            _solve_block(members[c], internal[c], d1, d2, tol)
        elif internal[c]:
            (q,) = members[c]
            a = sum(w1 for _, _, (w1, _) in internal[c])
            if not a < 1.0:
                raise NonConvergent(f"self-loop mass {a:g} at state {q} is not below 1")
            b = sum(w2 for _, _, (_, w2) in internal[c])
            d1[q] /= 1.0 - a
            d2[q] = (d2[q] + b * d1[q]) / (1.0 - a)

    total1 = total2 = 0.0
    for q, (v1, v2) in wa.rho:
        total1, total2 = total1 + d1[q] * v1, total2 + (d1[q] * v2 + v1 * d2[q])
    return PairWeight(total1, total2)
