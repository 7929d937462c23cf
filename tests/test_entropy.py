"""Entropy estimates, error brackets, and the brute-force cross-check."""

import math
import time
from collections import Counter

import numpy as np
import pytest

from artifact.analysis import AmbiguityClass
from artifact.cli import main
from artifact.entropy import (
    brute_entropy,
    entropy_report,
    entropy_semiring_estimate,
    expected_length,
    total_mass,
    validate_probabilistic,
)
from artifact.errors import MassNotOne
from artifact.fileformat import serialize
from artifact.fixtures import (
    EX_FIN2U,
    EX_GEO,
    EX_POLY1P,
    EX_POLY2P,
    EX_UNIF,
)
from artifact.semiring import map_entropy, map_expectation, shortest_distance
from artifact.weighted import validate_weighted

from conftest import block_chain, ladder, ring

LN2 = math.log(2)


def test_uniform_coin_has_entropy_ln2():
    assert math.isclose(entropy_semiring_estimate(EX_UNIF), LN2, abs_tol=1e-12)
    assert math.isclose(expected_length(EX_UNIF), 1.0, abs_tol=1e-12)
    assert math.isclose(total_mass(EX_UNIF), 1.0, abs_tol=1e-12)


def test_geometric_fixture_closed_forms():
    assert math.isclose(entropy_semiring_estimate(EX_GEO), 2 * LN2, abs_tol=1e-6)
    assert math.isclose(expected_length(EX_GEO), 1.0, abs_tol=1e-6)
    h, residual = brute_entropy(EX_GEO, 40)
    assert math.isclose(h, 2 * LN2, abs_tol=1e-6)
    assert residual < 1e-11


def test_polynomial_fixtures_closed_forms():
    assert math.isclose(entropy_semiring_estimate(EX_POLY1P), 4 * LN2, abs_tol=1e-9)
    assert math.isclose(expected_length(EX_POLY1P), 3.0, abs_tol=1e-9)
    assert math.isclose(entropy_semiring_estimate(EX_POLY2P), 6 * LN2, abs_tol=1e-9)
    assert math.isclose(expected_length(EX_POLY2P), 5.0, abs_tol=1e-9)


def test_path_entropy_dominates_string_entropy():
    # S−H is exactly ln 2 when two weight-½ paths always carry one string
    r = entropy_report(EX_FIN2U, want_brute=True)
    assert math.isclose(r.s, LN2, abs_tol=1e-12)
    assert r.h_brute == 0.0
    assert r.residual_mass == 0.0
    assert math.isclose(r.s - r.h_brute, LN2, abs_tol=1e-12)


def test_finite_report_brackets_use_the_observed_count():
    r = entropy_report(EX_FIN2U)
    assert r.ambiguity == AmbiguityClass.FINITE
    assert r.dpa == 0
    assert r.k_observed == 2
    assert math.isclose(r.bound_low, 0.0, abs_tol=1e-12)
    assert r.bound_high == r.s
    assert not r.vacuous_bound

    r = entropy_report(EX_UNIF)
    assert r.k_observed == 1
    assert r.bound_low == r.bound_high == r.s  # unambiguous: zero-width bracket


def test_polynomial_report_brackets_scale_with_degree_and_length():
    r = entropy_report(EX_POLY1P)
    assert r.ambiguity == AmbiguityClass.POLYNOMIAL
    assert r.dpa == 1
    assert r.k_observed is None
    assert math.isclose(r.bound_low, r.s - 1 * math.log(3.0), rel_tol=1e-9)
    assert r.bound_high == r.s

    r = entropy_report(EX_POLY2P)
    assert r.dpa == 2
    assert math.isclose(r.bound_low, r.s - 2 * math.log(5.0), rel_tol=1e-7)


def test_short_expected_length_makes_the_bracket_vacuous():
    # mass 1, polynomial skeleton, but strings are typically empty:
    # dpa·ln L would be negative, so the bracket degenerates to [S, S]
    wa = validate_weighted(
        ("a",), 2, {0: 1.0}, {0: 0.9, 1: 0.8},
        [(0, "a", 0, 0.04), (0, "a", 1, 0.06), (1, "a", 1, 0.2)],
    )
    r = entropy_report(validate_probabilistic(wa))
    assert r.ambiguity == AmbiguityClass.POLYNOMIAL
    assert r.l < 1.0
    assert r.vacuous_bound
    assert r.bound_low == r.bound_high == r.s


def test_exponential_skeleton_has_no_brackets():
    wa = validate_weighted(
        ("a",), 2, {0: 1.0}, {0: 0.5},
        [(0, "a", 0, 0.25), (0, "a", 1, 0.25), (1, "a", 0, 0.5), (1, "a", 1, 0.5)],
    )
    r = entropy_report(wa, want_brute=True)
    assert r.ambiguity == AmbiguityClass.EXPONENTIAL
    assert r.bound_low is None and r.bound_high is None
    assert r.h_brute <= r.s  # string entropy never exceeds path entropy


def test_brute_entropy_converges_from_below_through_lengths():
    prev = -1.0
    for n in (2, 4, 8, 12):
        h, residual = brute_entropy(EX_POLY1P, n)
        assert h >= prev - 1e-12
        prev = h
    assert residual < 1e-2
    assert prev <= entropy_semiring_estimate(EX_POLY1P)


def test_leaky_distribution_is_rejected():
    leaky = validate_weighted(("a",), 1, {0: 1.0}, {0: 0.3}, [(0, "a", 0, 0.5)])
    with pytest.raises(MassNotOne):
        validate_probabilistic(leaky)


def test_validate_probabilistic_returns_the_automaton_unchanged():
    assert validate_probabilistic(EX_UNIF) is EX_UNIF


def test_brute_enumeration_budget_is_enforced():
    with pytest.raises(ValueError):
        brute_entropy(EX_UNIF, 30)


def test_report_on_random_probabilistic_corpus_respects_bounds(prob50):
    for _, wa, h_brute, _ in prob50[:15]:
        r = entropy_report(wa)
        assert r.ambiguity == AmbiguityClass.FINITE
        assert h_brute - 1e-9 <= r.s
        assert r.s <= h_brute + math.log(r.k_observed) + 1e-6


def test_400_state_ring_matches_its_closed_form():
    # state i stops with 0.05 and moves on to i + 1 (mod n) on a or b, with
    # a/b shares alternating 0.6/0.4 and 0.3/0.7; deterministic, so H = S.
    # State i is visited g^i/(1 − g^n) times on average, g = 0.95.
    n, stop = 400, 0.05
    g = 1 - stop
    shares = [(0.6, 0.4) if i % 2 == 0 else (0.3, 0.7) for i in range(n)]
    edges = []
    for i, (pa, pb) in enumerate(shares):
        edges += [(i, "a", (i + 1) % n, g * pa), (i, "b", (i + 1) % n, g * pb)]
    wa = validate_weighted(("a", "b"), n, {0: 1.0}, {i: stop for i in range(n)}, edges)
    visits = [g**i / (1 - g**n) for i in range(n)]
    local_h = [-sum(p * math.log(p) for p in (stop, g * pa, g * pb)) for pa, pb in shares]
    s = math.fsum(v * h for v, h in zip(visits, local_h))
    length = math.fsum(v * g for v in visits)
    r = entropy_report(wa)
    assert abs(r.s - s) <= 1e-12
    assert abs(r.l - length) <= 1e-12
    assert r.bound_low - 1e-12 <= s <= r.bound_high + 1e-12


def _evenly_weighted(a, stop=0.4):
    """a with each state's mass split evenly over its transitions, where a
    final state first stops with `stop`."""
    out = Counter(t.src for t in a.transitions)
    quads = [
        (src, label, dst, (1.0 - stop if src in a.final else 1.0) / out[src])
        for src, label, dst in a.transitions
    ]
    return validate_weighted(
        a.alphabet, a.num_states, dict.fromkeys(a.initial, 1.0), dict.fromkeys(a.final, stop), quads
    )


@pytest.mark.parametrize(
    "a, degree", [(ladder(500), 499), (block_chain(250), 249)], ids=["ladder500", "chain250"]
)
def test_entropy_report_at_the_documented_scale_runs_in_time(a, degree):
    """999 transitions; the bracket is not gated, since the POLYNOMIAL rule
    S − d·ln L gives a low far below 0 here."""
    assert a.num_transitions == 999
    wa = _evenly_weighted(a)
    start = time.perf_counter()
    r = entropy_report(wa)
    elapsed = time.perf_counter() - start
    assert (r.ambiguity, r.dpa) == (AmbiguityClass.POLYNOMIAL, degree)
    assert elapsed < 10.0, f"entropy_report took {elapsed:.1f} s"


@pytest.fixture
def sweep_work(monkeypatch):
    """SCC passes of the semiring module and numpy.linalg.solve calls, counted."""
    from artifact import semiring

    work = {"scc": 0, "solve": 0}
    tarjan, solve = semiring.strongly_connected_components, np.linalg.solve

    def counting_tarjan(*args):
        work["scc"] += 1
        return tarjan(*args)

    def counting_solve(*args):
        work["solve"] += 1
        return solve(*args)

    monkeypatch.setattr(semiring, "strongly_connected_components", counting_tarjan)
    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    return work


def test_report_is_one_sweep_with_one_solve_per_column(sweep_work):
    # [x₁, y] in one solve, then one solve each for L and S
    entropy_report(ring(5))
    assert sweep_work == {"scc": 1, "solve": 3}


def test_entropy_command_is_one_sweep_with_one_solve_per_column(sweep_work, tmp_path, capsys):
    path = tmp_path / "ring.fa"
    path.write_text(serialize(ring(5)))
    assert main(["entropy", str(path)]) == 0
    assert capsys.readouterr().out.startswith("s ")
    assert sweep_work == {"scc": 1, "solve": 2}


@pytest.mark.parametrize(
    "wa",
    [EX_UNIF, EX_GEO, EX_FIN2U, EX_POLY1P, EX_POLY2P, ring(2), ring(7)],
    ids=["unif", "geo", "fin2u", "poly1p", "poly2p", "ring2", "ring7"],
)
def test_report_matches_the_pair_distances_exactly(wa):
    r = entropy_report(wa)
    assert r.s == shortest_distance(map_entropy(wa)).second
    assert r.l == shortest_distance(map_expectation(wa)).second


def test_report_on_an_automaton_without_states_is_all_zero():
    empty = validate_weighted(("a",), 0, {}, {}, [])
    with pytest.raises(MassNotOne):
        entropy_report(empty)
    r = entropy_report(empty, mass_tol=2.0)
    assert (r.s, r.l, r.ambiguity) == (0.0, 0.0, AmbiguityClass.FINITE)
