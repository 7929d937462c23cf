"""Pair-weight semiring laws and the exact distance solver."""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from artifact.core import EPSILON, validate
from artifact.errors import EpsilonCycleInput, NonConvergent
from artifact.fixtures import EX_GEO
from artifact.semiring import (
    PairWeight,
    map_entropy,
    map_expectation,
    shortest_distance,
)
from artifact.weighted import WeightedAutomaton, validate_weighted

import pytest

PROPERTY_SETTINGS = settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ZERO = PairWeight(0.0, 0.0)
ONE = PairWeight(1.0, 0.0)

_COORD = st.floats(min_value=1e-3, max_value=10.0, allow_nan=False, allow_infinity=False)
_PAIR = st.builds(PairWeight, _COORD, _COORD)


def _close(x: PairWeight, y: PairWeight, tol: float = 1e-9) -> bool:
    return math.isclose(x.first, y.first, rel_tol=tol, abs_tol=tol) and math.isclose(
        x.second, y.second, rel_tol=tol, abs_tol=tol
    )


def _plus(x: PairWeight, y: PairWeight) -> PairWeight:
    return PairWeight(x.first + y.first, x.second + y.second)


def _times(x: PairWeight, y: PairWeight) -> PairWeight:
    return PairWeight(x.first * y.first, x.first * y.second + y.first * x.second)


def _distance(n: int, arcs, rho: PairWeight = ONE) -> PairWeight:
    """shortest_distance from state 0 (λ = one) to state n − 1 over pair-weighted arcs."""
    skel = validate(("a", "b", "c"), n, [0], [n - 1], [arc[:3] for arc in arcs])
    by_arc = {arc[:3]: arc[3] for arc in arcs}
    weights = tuple(by_arc[tuple(t)] for t in skel.transitions)
    return shortest_distance(WeightedAutomaton(skel, weights, ((0, ONE),), ((n - 1, rho),)))


class TestSemiringLaws:
    """The laws hold for the sums and products the solver forms along paths."""

    @PROPERTY_SETTINGS
    @given(x=_PAIR, y=_PAIR, z=_PAIR)
    def test_plus_is_associative_and_commutative(self, x, y, z):
        # parallel arcs are ⊕-summed, in whatever order they are listed
        d = _distance(2, [(0, "a", 1, x), (0, "b", 1, y), (0, "c", 1, z)])
        assert _close(d, _plus(_plus(x, y), z))
        assert _close(d, _plus(x, _plus(y, z)))
        assert _close(d, _distance(2, [(0, "a", 1, z), (0, "b", 1, x), (0, "c", 1, y)]))

    @PROPERTY_SETTINGS
    @given(x=_PAIR)
    def test_zero_and_one_are_identities(self, x):
        assert _distance(2, [(0, "a", 1, x)]) == x
        assert _distance(2, [(0, "a", 1, x)], rho=ZERO) == ZERO

    @PROPERTY_SETTINGS
    @given(x=_PAIR, y=_PAIR, z=_PAIR)
    def test_times_is_associative(self, x, y, z):
        d = _distance(4, [(0, "a", 1, x), (1, "a", 2, y), (2, "a", 3, z)])
        assert _close(d, _times(x, _times(y, z)))
        assert _close(d, _times(_times(x, y), z))

    @PROPERTY_SETTINGS
    @given(x=_PAIR, y=_PAIR, z=_PAIR)
    def test_times_distributes_over_plus(self, x, y, z):
        left = _distance(3, [(0, "a", 1, x), (1, "a", 2, y), (1, "b", 2, z)])
        assert _close(left, _plus(_times(x, y), _times(x, z)))
        right = _distance(3, [(0, "a", 1, y), (0, "b", 1, z), (1, "a", 2, x)])
        assert _close(right, _plus(_times(y, x), _times(z, x)))

    @PROPERTY_SETTINGS
    @given(x=_PAIR, y=_PAIR)
    def test_times_tracks_the_product_rule(self, x, y):
        # second coordinate behaves like a derivative of the first
        out = _distance(3, [(0, "a", 1, x), (1, "a", 2, y)])
        assert math.isclose(out.first, x.first * y.first, rel_tol=1e-12)
        assert math.isclose(out.second, x.first * y.second + y.first * x.second, rel_tol=1e-9, abs_tol=1e-12)


def test_map_entropy_sends_weights_to_w_minus_w_log_w():
    mapped = map_entropy(EX_GEO)
    (w,) = mapped.weights
    assert w.first == 0.5
    assert math.isclose(w.second, -0.5 * math.log(0.5), rel_tol=1e-12)


def test_map_expectation_counts_symbols_not_epsilons():
    wa = validate_weighted(
        ("a",), 3, {0: 1.0}, {2: 1.0},
        [(0, "a", 1, 0.5), (0, EPSILON, 1, 0.5), (1, "a", 2, 1.0)],
    )
    mapped = map_expectation(wa)
    by_label = {wa.skeleton.transitions[i].label: w for i, w in enumerate(mapped.weights)}
    assert by_label["a"].second == by_label["a"].first  # symbol step counts 1
    assert by_label[EPSILON].second == 0.0  # ε contributes no length


def test_distance_on_the_geometric_fixture_matches_the_series():
    # Σ (n+1)·ln2 · 2^-(n+1) over path lengths n sums to 2·ln2
    d = shortest_distance(map_entropy(EX_GEO))
    assert math.isclose(d.first, 1.0, abs_tol=1e-9)
    assert math.isclose(d.second, 2 * math.log(2), abs_tol=1e-9)
    series = sum((n + 1) * math.log(2) * 2 ** -(n + 1) for n in range(60))
    assert math.isclose(d.second, series, abs_tol=1e-9)


def _h(*probs: float) -> float:
    return -sum(p * math.log(p) for p in probs)


def test_cyclic_inputs_match_their_closed_forms():
    # EX_GEO, a one-state loop: mass 1, S = Σ (n+1)·ln2·2^-(n+1) = 2·ln2, L = 1
    assert _close(shortest_distance(map_entropy(EX_GEO)), PairWeight(1.0, 2 * math.log(2)), 1e-14)
    assert _close(shortest_distance(map_expectation(EX_GEO)), PairWeight(1.0, 1.0), 1e-14)
    # a two-state cycle 0 -a-> 1 -b-> 0 with stops: state 0 is visited
    # 1/(1 − pq) times on average and state 1 p/(1 − pq) times
    p, q = 0.6, 0.3
    wa = validate_weighted(
        ("a", "b"), 2, {0: 1.0}, {0: 1 - p, 1: 1 - q}, [(0, "a", 1, p), (1, "b", 0, q)]
    )
    v0, v1 = 1 / (1 - p * q), p / (1 - p * q)
    s = v0 * _h(p, 1 - p) + v1 * _h(q, 1 - q)
    length = v0 * p + v1 * q
    assert _close(shortest_distance(map_entropy(wa)), PairWeight(1.0, s), 1e-14)
    assert _close(shortest_distance(map_expectation(wa)), PairWeight(1.0, length), 1e-14)


def test_weighted_epsilon_cycles_are_rejected():
    for arcs in (
        [(0, EPSILON, 1, 0.5), (1, EPSILON, 0, 1.0), (0, "a", 1, 0.5)],
        # every weight the semiring one: mass 1 on the cycle
        [(0, EPSILON, 1, 1.0), (1, EPSILON, 0, 1.0)],
    ):
        wa = validate_weighted(("a",), 2, {0: 1.0}, {1: 1.0}, arcs)
        with pytest.raises(EpsilonCycleInput):
            shortest_distance(map_entropy(wa))


def test_divergent_mass_reports_nonconvergence():
    divergent = [
        # a weight-1 loop never drains (one state: the scalar solve)
        (1, [(0, "a", 0, 1.0)]),
        # two parallel loops whose mass adds up past 1
        (1, [(0, "a", 0, 0.6), (0, "b", 0, 0.6)]),
        # a two-state cycle of mass exactly 1: I − A is singular
        (2, [(0, "a", 1, 1.0), (1, "a", 0, 1.0)]),
        # parallel arcs lift the cycle mass to 1.6; I − A is invertible,
        # but its inverse is not positive
        (2, [(0, "a", 1, 0.8), (0, "b", 1, 0.8), (1, "a", 0, 1.0)]),
    ]
    for n, arcs in divergent:
        wa = validate_weighted(("a", "b"), n, {0: 1.0}, {n - 1: 1.0}, arcs)
        for mapped in (map_entropy(wa), map_expectation(wa)):
            with pytest.raises(NonConvergent):
                shortest_distance(mapped)
