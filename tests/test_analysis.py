"""Ambiguity classification, degree computation, and witness machinery."""

import itertools

import pytest

from artifact.analysis import (
    AmbiguityClass,
    classify,
    dpa,
    dpa_with_witness,
    eda_witness,
    ida_pairs,
    ida_witness,
    verify_dpa_witness,
    verify_eda_witness,
    verify_ida_witness,
    verify_witness,
)
from artifact.analysis import test_eda as eda_criterion
from artifact.analysis import test_ida as ida_criterion
from artifact.core import EPSILON, validate
from artifact.errors import EpsilonCycleInput, ExponentiallyAmbiguousInput, NotTrim
from artifact.fixtures import EX_EPS, EX_EXP, EX_FIN2, EX_POLY1, EX_POLY2
from artifact.oracle import (
    count_paths,
    eliminate_epsilon_transition,
    growth_table,
    relabel_states,
    reverse,
)

from conftest import build_corpus100, running_max

F = AmbiguityClass.FINITE
P = AmbiguityClass.POLYNOMIAL
E = AmbiguityClass.EXPONENTIAL


def test_fixture_classifications():
    assert classify(EX_FIN2).kind == F
    assert classify(EX_POLY1).kind == P and classify(EX_POLY1).degree == 1
    assert classify(EX_POLY2).kind == P and classify(EX_POLY2).degree == 2
    assert classify(EX_EXP).kind == E
    assert classify(EX_EPS).kind == P and classify(EX_EPS).degree == 1


def test_report_lines_are_human_readable():
    assert classify(EX_POLY2).line() == "POLYNOMIAL degree=2"
    assert "EXPONENTIAL" in classify(EX_EXP).line()
    assert "FINITE" in classify(EX_FIN2).line()


def test_eda_flags_only_the_exponential_fixture():
    assert not eda_criterion(EX_FIN2)
    assert not eda_criterion(EX_POLY1)
    assert not eda_criterion(EX_POLY2)
    assert not eda_criterion(EX_EPS)
    assert eda_criterion(EX_EXP)


def test_ida_flags_unbounded_fixtures():
    assert not ida_criterion(EX_FIN2)
    assert ida_criterion(EX_POLY1)
    assert ida_criterion(EX_POLY2)
    assert ida_criterion(EX_EPS)
    assert ida_criterion(EX_EXP)


def test_ida_pairs_fixture_values():
    assert ida_pairs(EX_FIN2) == frozenset()
    assert ida_pairs(EX_POLY1) == frozenset({(0, 1)})
    assert ida_pairs(EX_POLY2) == frozenset({(0, 1), (0, 2), (1, 2)})
    assert ida_pairs(EX_EPS) == frozenset({(0, 1)})
    assert ida_pairs(EX_EXP) == frozenset({(0, 1), (1, 0)})


def test_dpa_fixture_values():
    assert dpa(EX_FIN2) == 0
    assert dpa(EX_POLY1) == 1
    assert dpa(EX_POLY2) == 2
    assert dpa(EX_EPS) == 1


def test_dpa_refuses_exponential_input():
    with pytest.raises(ExponentiallyAmbiguousInput):
        dpa(EX_EXP)
    with pytest.raises(ExponentiallyAmbiguousInput):
        dpa_with_witness(EX_EXP)


def test_eda_witness_is_two_distinct_cycles_on_one_label():
    w = eda_witness(EX_EXP)
    assert w is not None
    assert w.cycle_a != w.cycle_b
    assert verify_eda_witness(EX_EXP, w)
    assert eda_witness(EX_POLY2) is None


def test_ida_witness_pumps_through_an_epsilon_edge_when_needed():
    w = ida_witness(EX_EPS, 0, 1)
    assert w is not None
    assert (w.p, w.q) == (0, 1)
    assert w.label == ("a",)
    # the connecting path slides through the ε-edge: (0,ε,2) then (2,a,1)
    assert w.path_pq == (0, 3)
    assert verify_ida_witness(EX_EPS, w)


def test_ida_witness_returns_none_for_unpumpable_pairs():
    assert ida_witness(EX_FIN2, 0, 3) is None
    assert ida_witness(EX_POLY1, 1, 0) is None  # wrong orientation


def test_dpa_witness_chains_have_degree_many_links():
    degree, w = dpa_with_witness(EX_POLY2)
    assert degree == 2
    assert w.pairs == ((0, 1), (1, 2))
    assert verify_dpa_witness(EX_POLY2, w)
    degree, w = dpa_with_witness(EX_FIN2)
    assert degree == 0
    assert w is None


def test_classify_witnesses_verify_on_fixtures():
    for a in (EX_FIN2, EX_POLY1, EX_POLY2, EX_EXP, EX_EPS):
        r = classify(a, want_witness=True)
        if r.kind == F:
            assert r.witness is None
        else:
            assert r.witness is not None
            assert verify_witness(a, r.witness)


def test_classify_trims_internally_but_low_level_probes_do_not():
    # state 2 is a dead end; the useful part is exactly the linear fixture
    loose = validate(
        ("a",), 3, [0], [1],
        [(0, "a", 0), (0, "a", 1), (1, "a", 1), (0, "a", 2)],
    )
    r = classify(loose, want_witness=True)
    assert (r.kind, r.degree) == (P, 1)
    assert r.witness.pairs == ((0, 1),)
    for probe in (dpa, ida_pairs, eda_criterion, ida_criterion):
        with pytest.raises(NotTrim):
            probe(loose)


def test_epsilon_cycles_are_rejected_at_the_door():
    cyc = validate(("a",), 2, [0], [1], [(0, EPSILON, 1), (1, EPSILON, 0), (0, "a", 1)])
    for fn in (classify, dpa, eda_criterion, ida_criterion, ida_pairs):
        with pytest.raises(EpsilonCycleInput):
            fn(cyc)


def test_empty_automaton_is_finite():
    empty = validate((), 0, [], [], [])
    r = classify(empty)
    assert (r.kind, r.degree) == (F, 0)


def test_epsilon_slide_configurations_are_not_infinitely_ambiguous():
    """Cycle/path/cycle patterns that only shuffle an ε-run stay bounded.

    Both 'cycles' below pump the same transitions once the ε-hop is slid
    across the symbol edge, so the path count never grows: the analysis
    must not mistake the pattern for genuine unbounded ambiguity.
    """
    a = validate(
        ("a",), 5, [2], [4],
        [
            (0, EPSILON, 1),
            (0, EPSILON, 3),
            (0, "a", 4),
            (1, EPSILON, 4),
            (2, "a", 0),
            (2, "a", 3),
            (3, "a", 0),
        ],
    )
    r = classify(a)
    assert r.kind == F
    assert ida_pairs(a) == frozenset()
    g = running_max(growth_table(a, 12))
    assert g[12] == g[6] == 4
    # still bounded after splicing out any one of the ε-edges
    for t in a.transitions:
        if t.label == EPSILON:
            assert classify(eliminate_epsilon_transition(a, t)).kind == F


def test_folded_epsilon_runs_can_hide_exponential_growth():
    """Two parallel routes over one symbol edge double paths per letter.

    Collapsing the ε-run onto its symbol successor folds both routes onto
    a single self-loop, so cycle-level inspection alone would undercount;
    the classifier still must answer EXPONENTIAL, with no pumpable state
    pair to show for it.
    """
    a = validate(("a",), 2, [0], [0], [(0, EPSILON, 1), (0, "a", 0), (1, "a", 0)])
    assert count_paths(a, ("a",) * 3) == 8
    r = classify(a)
    assert r.kind == E
    assert ida_criterion(a)
    assert ida_pairs(a) == frozenset()
    with pytest.raises(ExponentiallyAmbiguousInput):
        dpa(a)


def test_classification_matches_growth_on_a_corpus_slice():
    for a in build_corpus100()[:30]:
        r = classify(a)
        run = running_max(growth_table(a, 12))
        if r.kind == F:
            assert run[12] == run[8]
        elif r.kind == E:
            assert run[10] >= 2 * run[5]
        else:
            assert run[12] <= 13**r.degree * max(run[4], 1)


def test_renaming_and_reversal_do_not_move_the_class():
    for a in build_corpus100()[:20]:
        base = classify(a)
        perm = list(range(1, a.num_states)) + [0]
        for variant in (relabel_states(a, perm), reverse(a)):
            r = classify(variant)
            assert (r.kind, r.degree) == (base.kind, base.degree)


def test_witnesses_survive_renaming():
    perm = [2, 0, 1]
    b = relabel_states(EX_POLY2, perm)
    r = classify(b, want_witness=True)
    assert r.witness is not None
    assert verify_witness(b, r.witness)


def test_witness_dicts_are_json_shaped():
    w = classify(EX_EXP, want_witness=True).witness.as_dict()
    assert w["kind"] == "eda"
    assert set(w) == {"kind", "state", "label", "cycles"}
    w = classify(EX_POLY2, want_witness=True).witness.as_dict()
    assert w["kind"] == "dpa"
    assert w["pairs"] == [[0, 1], [1, 2]]


@pytest.fixture
def product_builds(monkeypatch):
    """Every filtered intersection built, as 'square' (A ∩ A) or 'outer' (A² ∩ A)."""
    from artifact import product

    builds = []
    build = product._intersect

    def counting(a1, a2):
        builds.append("square" if a1 is a2 else "outer")
        return build(a1, a2)

    monkeypatch.setattr(product, "_intersect", counting)
    return builds


def _ladder(k):
    edges = [(i, "a", i) for i in range(k)] + [(i, "a", i + 1) for i in range(k - 1)]
    return validate(("a",), k, [0], [k - 1], edges)


def test_classify_builds_one_square_and_reuses_it_for_the_cube(product_builds):
    assert classify(EX_EXP, want_witness=True).witness is not None
    assert product_builds == ["square"]
    product_builds.clear()
    assert classify(EX_POLY2, want_witness=True).degree == 2
    assert product_builds == ["square", "outer"]


@pytest.mark.parametrize("a", [EX_POLY2, _ladder(5)], ids=["poly2", "ladder5"])
def test_chain_verification_builds_one_cube(product_builds, a):
    degree, witness = dpa_with_witness(a)
    assert degree == a.num_states - 1
    product_builds.clear()
    assert verify_dpa_witness(a, witness, degree)
    assert product_builds == ["square", "outer"]
