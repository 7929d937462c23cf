"""Pair semiring and an exact shortest distance over weighted automata.

The pair semiring carries (mass, accumulator) values: ⊕ adds componentwise,
⊗ multiplies masses and cross-multiplies accumulators (a product rule).  Two
weight mappings feed it:

  * entropy: w ↦ (w, −w·ln w), so a path accumulates −W·ln W of its own
    weight W, and summing over paths yields the path entropy;
  * expectation: w ↦ (w, w) on symbol transitions and (w, 0) on ε ones, so a
    path accumulates W·(number of symbols), summing to the expected length.

The solver, _distances, takes weights (first, acc₁, …, acc_k) with any
number k of accumulators that share the first coordinate, so one sweep
yields the mass and several path sums at once.  It ⊕-sums λ ⊗ w[π] ⊗ ρ over
all successful paths in closed form, λ(I − M)⁻¹ρ with the product rule on
each accumulator, visiting the strongly connected components in
topological order.  A component of one state is a scalar division, so an
acyclic graph reduces to back-substitution.  A larger one solves
(I − A)[x₁, y] = [r₁, 1] once for the first coordinate x₁ and a vector y
that proves the cycle mass below 1, then one single-column system per
accumulator.  The accumulator columns are not stacked into one solve: a
multi-column right-hand side may round a column differently from the same
column solved alone, and solved alone every accumulator is bit-identical
to shortest_distance over the pair mapping that carries only it.
numpy is imported inside _solve_block, on the first SCC of several states,
so importing this module does not load it.
"""

from __future__ import annotations

import math
import sys
from itertools import chain
from typing import NamedTuple

from .core import EPSILON, has_epsilon_cycle
from .errors import EpsilonCycleInput, NonConvergent, NonPositiveWeight
from .graphs import strongly_connected_components
from .weighted import WeightedAutomaton

_EPS = sys.float_info.epsilon


class PairWeight(NamedTuple):
    first: float
    second: float


def _entropy_value(x: float) -> PairWeight:
    if x == 0.0:
        return PairWeight(0.0, 0.0)
    # "+ 0.0" normalizes the -0.0 produced at x == 1
    return PairWeight(x, -(x * math.log(x)) + 0.0)


def _mapped(wa: WeightedAutomaton, on_transition, on_end) -> WeightedAutomaton:
    """wa with its weights sent to tuple weights; rejects non-positive weights."""
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
    states: list[int], arcs: list, d: list[list[float]], tol: float
) -> None:
    """Replace the inflow d on one SCC of several states by its distances.

    With A the first coordinates of the internal arcs and Bⱼ their
    accumulator j, x₁ = (I − A)⁻¹r₁ and xⱼ = (I − A)⁻¹(rⱼ + Bⱼ·x₁), one
    solve per accumulator.  Raises NonConvergent unless ρ(A) < 1 is proven
    and every solve leaves a residual of at most tol relative to its
    right-hand side.
    """
    import numpy as np

    k = len(states)
    at = {q: i for i, q in enumerate(states)}

    def coordinate(j: int) -> np.ndarray:
        mat = np.zeros((k, k))
        for p, q, w in arcs:
            mat[at[q], at[p]] += w[j]
        return mat

    a = coordinate(0)
    m = np.eye(k) - a
    r1 = np.array([d[0][q] for q in states])
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
    columns = [(x1, r1)]
    for j in range(1, len(d)):
        r = np.array([d[j][q] for q in states]) + coordinate(j) @ x1
        columns.append((np.linalg.solve(m, r), r))
    for x, r in columns:
        residual = float(np.max(np.abs(m @ x - r)))
        bound = tol * float(np.max(np.abs(r)))
        if residual > bound:
            raise NonConvergent(
                f"solve residual {residual:g} exceeds tol·‖r‖∞ = {bound:g}"
                f" in an SCC of {k} states"
            )
    for dj, (x, _) in zip(d, columns):
        for i, q in enumerate(states):
            dj[q] = float(x[i])


def _distances(wa: WeightedAutomaton, tol: float) -> tuple[float, ...]:
    """⊕ over all successful paths of λ ⊗ w[π] ⊗ ρ, for (first, acc₁, …, acc_k) weights.

    k is read from the weight tuples; an automaton without any weight has
    no path, and its distance is the pair zero (0.0, 0.0).  The SCCs of the
    transition graph are visited in topological order; each receives the
    mass flowing in from λ and from earlier SCCs, then solves for its own
    distances.  A cycle mass of 1 or more (spectral radius ρ(A) ≥ 1 of an
    SCC's first coordinates) raises NonConvergent, as does a block solve
    whose residual ‖(I − A)x − r‖∞ exceeds tol·‖r‖∞.  Weights on ε-cycles
    are not checked: the caller has ruled them out.
    """
    skel = wa.skeleton
    n = skel.num_states
    values = chain(wa.weights, (v for _, v in wa.lam), (v for _, v in wa.rho))
    width = len(next(values, (0.0, 0.0)))

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

    # d[0] holds the first coordinate of every state's distance, d[j] its
    # accumulator j
    d = [[0.0] * n for _ in range(width)]
    accs = range(1, width)
    for q, v in wa.lam:
        for dj, vj in zip(d, v):
            dj[q] = vj
    d1 = d[0]
    # component ids are reverse topological: every arc between components
    # runs from a higher id to a lower one
    for c in range(count - 1, -1, -1):
        for p, q, w in inflow[c]:
            w1, x = w[0], d1[p]
            for j in accs:
                d[j][q] += x * w[j] + w1 * d[j][p]
            d1[q] += x * w1
        if len(members[c]) > 1:
            _solve_block(members[c], internal[c], d, tol)
        elif internal[c]:
            (q,) = members[c]
            a = sum(w[0] for _, _, w in internal[c])
            if not a < 1.0:
                raise NonConvergent(f"self-loop mass {a:g} at state {q} is not below 1")
            d1[q] /= 1.0 - a
            for j in accs:
                b = sum(w[j] for _, _, w in internal[c])
                d[j][q] = (d[j][q] + b * d1[q]) / (1.0 - a)

    totals = [0.0] * width
    for q, v in wa.rho:
        v1, x = v[0], d1[q]
        for j in accs:
            totals[j] += x * v[j] + v1 * d[j][q]
        totals[0] += x * v1
    return tuple(totals)


def shortest_distance(wa: WeightedAutomaton, tol: float = 1e-10) -> PairWeight:
    """⊕ over all successful paths π of λ[p[π]] ⊗ w[π] ⊗ ρ[n[π]], solved exactly.

    Rejects an ε-cycle with EpsilonCycleInput, then solves as _distances
    does: NonConvergent when a cycle mass reaches 1 or a block solve's
    residual ‖(I − A)x − r‖∞ exceeds tol·‖r‖∞.
    """
    if has_epsilon_cycle(wa.skeleton):
        raise EpsilonCycleInput("ε-cycle in the transition graph")
    return PairWeight(*_distances(wa, tol))
