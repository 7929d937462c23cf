"""Filtered products: path counts multiply, squares and cubes stay honest."""

import itertools

from artifact import product
from artifact.core import EPSILON, trim, validate
from artifact.errors import EpsilonCycleInput, NotTrim
from artifact.fixtures import EX_EPS, EX_EXP, EX_FIN2, EX_POLY1, EX_POLY2
from artifact.oracle import count_paths
from artifact.product import cube, intersect, square

import pytest

import reference_product
from conftest import build_corpus100, build_pairs200, semantic_count


def test_intersection_counts_multiply_on_seeded_pairs():
    for a1, a2 in build_pairs200()[:40]:
        sigma = sorted(set(a1.alphabet) | set(a2.alphabet))
        prod = intersect(a1, a2).underlying
        for n in range(5):
            for x in itertools.product(sigma, repeat=n):
                assert semantic_count(prod, x) == semantic_count(a1, x) * semantic_count(a2, x)


def test_self_intersection_squares_linear_growth():
    prod = intersect(EX_POLY1, EX_POLY1).underlying
    for n in range(1, 8):
        assert count_paths(prod, ("a",) * n) == n * n


def test_epsilon_interleavings_do_not_inflate_counts():
    prod = intersect(EX_EPS, EX_EPS).underlying
    for n in range(1, 8):
        assert count_paths(prod, ("a",) * n) == n * n


def test_disjoint_languages_intersect_to_the_empty_automaton():
    prod = intersect(EX_FIN2, EX_POLY1).underlying
    assert prod.num_states == 0


def test_intersection_output_is_trim():
    for a1, a2 in build_pairs200()[:40]:
        from artifact.core import is_trim

        assert is_trim(intersect(a1, a2).underlying)


def test_square_counts_are_exact_squares():
    sq = square(EX_FIN2)
    assert sq.arity == 2
    assert count_paths(sq.underlying, ("a", "b")) == 4
    sq = square(EX_EXP)
    for n in range(1, 7):
        assert count_paths(sq.underlying, ("a",) * n) == (2 ** (n - 1)) ** 2


def test_square_respects_its_state_budget():
    for a in (EX_FIN2, EX_POLY1, EX_EPS, EX_EXP):
        sq = square(a)
        assert sq.underlying.num_states <= 3 * a.num_states**2


def test_square_components_pair_up_states():
    sq = square(EX_FIN2)
    for pair in sq.components:
        assert len(pair) == 2
        assert all(0 <= q < EX_FIN2.num_states for q in pair)


def test_square_rejects_untrimmed_input():
    leaky = validate(("a",), 2, [0], [0], [(0, "a", 0), (0, "a", 1)])
    with pytest.raises(NotTrim):
        square(leaky)


def test_products_reject_epsilon_cycles():
    cyc = validate(("a",), 2, [0], [1], [(0, EPSILON, 1), (1, EPSILON, 0), (0, "a", 1)])
    with pytest.raises(EpsilonCycleInput):
        intersect(cyc, EX_POLY1)
    with pytest.raises(EpsilonCycleInput):
        square(cyc)


def test_cube_counts_are_exact_cubes():
    cb = cube(EX_FIN2)
    assert cb.arity == 3
    assert count_paths(cb.underlying, ("a", "b")) == 8
    cb = cube(EX_POLY1)
    for n in range(1, 7):
        assert count_paths(cb.underlying, ("a",) * n) == n**3


def test_cube_derivations_project_to_component_transitions():
    a = EX_EPS
    cb = cube(a)
    for t, deriv in zip(cb.underlying.transitions, cb.derivations):
        assert len(deriv) == 3
        active = [i for i in deriv if i is not None]
        assert active, "every product transition moves some component"
        for i in active:
            assert 0 <= i < a.num_transitions
        if t.label == EPSILON:
            assert all(a.transitions[i].label == EPSILON for i in active)
        else:
            # symbol moves advance all three components on that symbol
            assert len(active) == 3
            assert all(a.transitions[i].label == t.label for i in active)


def test_cube_components_track_source_and_destination():
    a = EX_POLY1
    cb = cube(a)
    for t, deriv in zip(cb.underlying.transitions, cb.derivations):
        src = cb.components[t.src]
        dst = cb.components[t.dst]
        for coord in range(3):
            i = deriv[coord]
            if i is None:
                assert src[coord] == dst[coord]
            else:
                assert a.transitions[i].src == src[coord]
                assert a.transitions[i].dst == dst[coord]


def _kernel_inputs():
    """Operand pairs for the kernel comparison: every kind of product built."""
    yield from build_pairs200()
    members = [trim(a) for a in build_corpus100()]
    for a in [EX_FIN2, EX_POLY1, EX_POLY2, EX_EXP, EX_EPS] + members:
        yield a, a
    for a in members:
        if a.num_states <= 8:
            yield square(a).underlying, a  # the outer step of cube(a)
    # ε-heavy, several initial states: every filter move, several roots
    eps_heavy = validate(
        ("a", "b"), 4, [0, 1, 2], [2, 3],
        [(0, EPSILON, 1), (0, EPSILON, 2), (1, EPSILON, 2), (1, EPSILON, 3),
         (2, EPSILON, 3), (0, "a", 0), (1, "b", 1), (2, "a", 3), (3, "b", 0)],
    )
    yield eps_heavy, eps_heavy
    yield eps_heavy, EX_EPS
    yield EX_FIN2, EX_POLY1  # disjoint languages: the product is empty


def test_kernel_matches_reference_kernel():
    cases = 0
    for a1, a2 in _kernel_inputs():
        got = product._intersect(a1, a2)
        want = reference_product._intersect(a1, a2)
        assert got.underlying == want.underlying
        assert got.arity == want.arity
        assert got.components == want.components
        assert got.filters == want.filters
        assert got.derivations == want.derivations
        cases += 1
    assert cases > 300
    assert product._intersect(EX_FIN2, EX_POLY1).underlying.num_states == 0
