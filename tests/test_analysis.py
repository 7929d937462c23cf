"""Ambiguity classification, degree computation, and witness machinery."""

import itertools
import time
from dataclasses import replace
from functools import partial

import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st

from artifact.analysis import (
    AmbiguityClass,
    DPAWitness,
    EDAWitness,
    _closures,
    _epsilon_core,
    _find_eda_scc,
    _ida_sites,
    classify,
    dpa,
    dpa_with_witness,
    eda_criterion,
    eda_witness,
    ida_criterion,
    ida_pairs,
    ida_witness,
    verify_dpa_witness,
    verify_eda_witness,
    verify_ida_witness,
    verify_witness,
)
from artifact.core import EPSILON, _trim, trim, validate
from artifact.entropy import entropy_report
from artifact.errors import EpsilonCycleInput, ExponentiallyAmbiguousInput, NotTrim
from artifact.fixtures import EX_EPS, EX_EXP, EX_FIN2, EX_POLY1, EX_POLY2, EX_POLY2P
from artifact.oracle import (
    count_paths,
    eliminate_epsilon_transition,
    growth_table,
    relabel_states,
    reverse,
)
from artifact.product import cube

import reference_dpa
import reference_eda
import reference_sites
from conftest import (
    DEAD_EDA,
    TIE_OF_SITES,
    TIE_WITH_A_PLAIN_EDGE,
    block_chain,
    build_corpus100,
    build_scale_instance,
    ladder,
    running_max,
)

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
    with pytest.raises(ExponentiallyAmbiguousInput):
        ida_pairs(EX_EXP)


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


def _with_dead_states(a):
    """a plus three useless states n, n + 1 and n + 2, with a's ids kept:
    an ε-arc from 0 reaches n, which leads on to n + 2 by ε and by symbol,
    n + 1 reaches 0 and n − 1, and n − 1 has a symbol arc into n + 2."""
    n, x = a.num_states, a.alphabet[0]
    edges = [
        *a.transitions,
        (0, EPSILON, n), (n, x, n + 2), (n, EPSILON, n + 2),
        (n + 1, EPSILON, 0), (n + 1, x, n - 1), (n - 1, x, n + 2),
    ]
    return validate(a.alphabet, n + 3, a.initial, a.final, edges)


def test_useless_states_on_epsilon_arcs_move_no_answer():
    """The core build folds the ε-runs of untrimmed input and trims once:
    useless states, also on ε-runs from useful ones, change neither the
    class nor a witness, and the witnesses verify on the untrimmed input."""
    kinds = []
    for a in [EX_FIN2, EX_POLY1, EX_POLY2, EX_EXP, EX_EPS, *build_corpus100()[::2]]:
        b = _with_dead_states(a)
        want, got = classify(a, want_witness=True), classify(b, want_witness=True)
        assert (got.kind, got.degree) == (want.kind, want.degree)
        if isinstance(want.witness, EDAWitness):
            # the new ε-arc out of 0 moves transition ids: compare the transitions
            assert got.witness.state == want.witness.state
            for cycle_a, cycle_b in ((want.witness.cycle_a, got.witness.cycle_a),
                                     (want.witness.cycle_b, got.witness.cycle_b)):
                assert [b.transitions[i] for i in cycle_b] == [a.transitions[i] for i in cycle_a]
        else:
            assert got.witness == want.witness
        if got.witness is not None:
            assert verify_witness(b, got.witness)
        kinds.append(got.kind)
    assert [kinds.count(kind) for kind in (F, P, E)] == [18, 24, 13]


def test_epsilon_cycles_are_rejected_at_the_door():
    cyc = validate(("a",), 2, [0], [1], [(0, EPSILON, 1), (1, EPSILON, 0), (0, "a", 1)])
    for fn in (classify, dpa, eda_criterion, ida_criterion, ida_pairs):
        with pytest.raises(EpsilonCycleInput):
            fn(cyc)
    # the linear fixture behind a dead end 2 whose ε-cycle is useless
    loose = validate(
        ("a",), 4, [0], [1],
        [(0, "a", 0), (0, "a", 1), (1, "a", 1), (0, "a", 2), (2, EPSILON, 3), (3, EPSILON, 2)],
    )
    with pytest.raises(EpsilonCycleInput):
        classify(loose)
    with pytest.raises(EpsilonCycleInput):
        verify_dpa_witness(loose, DPAWitness(pairs=((0, 1),)))


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
    pair to show for it, and ida_pairs refuses it as dpa does.
    """
    a = validate(("a",), 2, [0], [0], [(0, EPSILON, 1), (0, "a", 0), (1, "a", 0)])
    assert count_paths(a, ("a",) * 3) == 8
    r = classify(a)
    assert r.kind == E
    assert ida_criterion(a)
    assert reference_sites._ida_sites(cube(_epsilon_core(a).fa)) == set()
    for probe in (ida_pairs, dpa):
        with pytest.raises(ExponentiallyAmbiguousInput):
            probe(a)


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
    """Every run of the product worklist, the kernel under every filtered
    intersection, as 'square' (A ∩ A) or 'outer' (A² ∩ A)."""
    from artifact import analysis, product

    builds = []
    build = product._explore

    def counting(a1, a2, *keep):
        builds.append("square" if a1 is a2 else "outer")
        return build(a1, a2, *keep)

    for module in (analysis, product):
        monkeypatch.setattr(module, "_explore", counting)
    return builds


@pytest.mark.parametrize(
    "probe, a",
    [
        *(
            pytest.param(probe, EX_POLY2, id=probe.__name__)
            for probe in (classify, dpa, eda_criterion, eda_witness, ida_criterion, ida_pairs)
        ),
        pytest.param(partial(classify, want_witness=True), EX_EXP, id="classify_eda_witness"),
    ],
)
def test_entry_points_validate_their_input_once(monkeypatch, probe, a):
    """The core build is the input check: one useful_states pass per call,
    the core's trim, and a second one only when the core has fewer states
    than the input.  An EDA witness is searched on the input as given."""
    from artifact import core

    passes = []
    useful = core.useful_states
    monkeypatch.setattr(core, "useful_states", lambda a: passes.append(a) or useful(a))
    probe(a)
    assert len(passes) == 1


@pytest.fixture
def tarjan_passes(monkeypatch):
    """The node count of every SCC pass that artifact.analysis runs."""
    from artifact import analysis

    passes = []
    tarjan = analysis.strongly_connected_components

    def counting(n, succ):
        passes.append(n)
        return tarjan(n, succ)

    monkeypatch.setattr(analysis, "strongly_connected_components", counting)
    return passes


def test_classify_runs_one_tarjan_pass_over_the_core(tarjan_passes):
    assert classify(EX_POLY2, want_witness=True).degree == 2
    # the core (3 states), then the two SCC-pair regions of the chain; the
    # pruned DP never walks the third, (top, bottom)
    assert tarjan_passes == [3, 2, 2]


def test_folded_multiplicity_comes_from_the_core_pass(tarjan_passes):
    """An ε-diamond folds two runs onto the core edge 0 -a-> 4, off every
    cycle; its weight is read off the trimmed core's SCCs, not a pass over
    the untrimmed fold."""
    a = validate(
        ("a",), 5, [0], [4],
        [(0, EPSILON, 1), (0, EPSILON, 2), (1, EPSILON, 3), (2, EPSILON, 3),
         (3, "a", 4), (4, "a", 4)],
    )
    assert count_paths(a, ("a",) * 3) == 2
    assert (classify(a).kind, _epsilon_core(a).multiplicity) == (F, False)
    # the core (2 states), once per call
    assert tarjan_passes == [2, 2]


def test_classify_builds_a_square_only_for_an_eda_witness(product_builds):
    assert classify(EX_EXP, want_witness=True).witness is not None
    assert product_builds == ["square"]
    product_builds.clear()
    assert classify(EX_POLY2, want_witness=True).degree == 2
    assert product_builds == []


def test_polynomial_growth_is_decided_without_a_product(product_builds):
    a = EX_POLY2P.skeleton
    assert dpa(a) == 2
    assert ida_criterion(a) and ida_pairs(a)
    report = entropy_report(EX_POLY2P)
    assert (report.ambiguity, report.dpa) == (P, 2)
    assert product_builds == []


def test_exponential_growth_is_decided_without_a_product(product_builds):
    assert classify(EX_EXP).kind == E
    assert eda_criterion(EX_EXP)
    with pytest.raises(ExponentiallyAmbiguousInput):
        dpa_with_witness(EX_EXP)
    # acceptance 9's instance, whose square holds ≈105k states
    assert classify(build_scale_instance()).kind == E
    assert product_builds == []


@pytest.fixture
def region_walks(monkeypatch):
    """The starts of every _region_cube walk that artifact.analysis makes."""
    from artifact import analysis

    walks = []
    walk = analysis._region_cube

    def counting(core, mid, starts):
        walks.append(starts)
        return walk(core, mid, starts)

    monkeypatch.setattr(analysis, "_region_cube", counting)
    return walks


def test_ida_criterion_walks_no_region_on_exponential_growth(region_walks):
    """Exponential growth is unbounded, so ida_criterion stops where the
    diagonal closures find it, as classify does, and walks no region."""
    a = next(
        a for a in build_corpus100()
        if classify(a).kind == E and not _epsilon_core(a).multiplicity
    )
    assert reference_sites._ida_sites(cube(_epsilon_core(a).fa))  # what it skips
    assert ida_criterion(a)
    assert region_walks == []


def test_ida_pairs_refuses_the_scale_instance_without_a_region_walk(region_walks):
    """ida_pairs refuses exponential input before any region walk: on
    acceptance 9's instance one cyclic core SCC holds 326 states, and a
    same-SCC region would span up to 326³ triples."""
    a = trim(build_scale_instance())
    start = time.perf_counter()
    with pytest.raises(ExponentiallyAmbiguousInput):
        ida_pairs(a)
    elapsed = time.perf_counter() - start
    assert region_walks == []
    assert elapsed < 1.0, f"ida_pairs took {elapsed:.2f} s"


@pytest.mark.parametrize("a", [EX_POLY2, ladder(5)], ids=["poly2", "ladder5"])
def test_chain_verification_builds_no_product(product_builds, a):
    degree, witness = dpa_with_witness(a)
    assert degree == a.num_states - 1
    product_builds.clear()
    assert verify_dpa_witness(a, witness, degree)
    assert product_builds == []


@pytest.mark.parametrize("a", [EX_POLY2, EX_EPS], ids=["poly2", "eps"])
def test_ida_witness_builds_no_product(product_builds, a):
    assert ida_witness(a, 0, 1) is not None
    assert product_builds == []


@pytest.mark.parametrize("blocks", [3, 4])
def test_block_chain_degree_matches_the_oracle(blocks):
    a = block_chain(blocks)
    degree = blocks - 1
    assert (classify(a).kind, dpa(a)) == (P, degree)
    # a^(3m + blocks − 1) has C(m + degree, degree) paths: a polynomial of
    # exact degree `degree` in m, so its degree-th differences are constant
    counts = [count_paths(a, ("a",) * (3 * m + degree)) for m in range(degree + 3)]
    diffs = counts
    for _ in range(degree):
        diffs = [y - x for x, y in zip(diffs, diffs[1:])]
    assert len(set(diffs)) == 1 and diffs[0] > 0


def test_polynomial_chain_of_300_states_classifies_in_time():
    a = block_chain(100)
    assert (a.num_states, a.num_transitions) == (300, 399)
    start = time.perf_counter()
    r = classify(a, want_witness=True)
    elapsed = time.perf_counter() - start
    assert (r.kind, r.degree) == (P, 99)
    assert elapsed < 30.0, f"classify took {elapsed:.1f} s"
    assert verify_witness(a, r.witness)


@pytest.mark.parametrize(
    "a, degree", [(ladder(500), 499), (block_chain(250), 249)], ids=["ladder500", "chain250"]
)
def test_polynomial_input_at_the_documented_scale_classifies_in_time(a, degree):
    assert a.num_transitions == 999
    start = time.perf_counter()
    r = classify(a, want_witness=True)
    verified = verify_witness(a, r.witness)
    elapsed = time.perf_counter() - start
    assert (r.kind, r.degree, verified) == (P, degree, True)
    assert elapsed < 10.0, f"classify and verify_witness took {elapsed:.1f} s"
    assert dpa(a) == degree


def test_ida_criterion_stops_at_the_first_region_with_a_site(region_walks):
    """On a chain of 250 blocks the full site search walks 250·249/2
    regions; ida_criterion needs the first one that has a site."""
    a = block_chain(250)
    start = time.perf_counter()
    assert ida_criterion(a)
    elapsed = time.perf_counter() - start
    assert len(region_walks) == 1
    assert elapsed < 10.0, f"ida_criterion took {elapsed:.1f} s"


def test_degree_walks_one_region_per_settled_scc(region_walks):
    """The pruned chain DP settles each SCC of a ladder below the top with
    the first region it tries, (the SCC just above, this SCC): 7 regions
    on ladder(8), where the full site search walks all 28 pairs."""
    a = ladder(8)
    assert classify(a, want_witness=True).degree == 7
    assert len(region_walks) == 7
    region_walks.clear()
    assert len(_ida_sites(_epsilon_core(a))) == 28
    assert len(region_walks) == 28


def _bridged_cycles(k):
    """k cycles u -a-> v -b-> u, each u bridged to the next by a: FINITE.

    After an a from u the next symbol tells the cycle from the bridge, so
    every string has at most one path; yet each cycle's diagonal closure
    reaches the next cycle, so k − 1 regions have starts."""
    edges = []
    for i in range(k):
        u, v = 2 * i, 2 * i + 1
        edges += [(u, "a", v), (v, "b", u)]
        if i + 1 < k:
            edges.append((u, "a", u + 2))
    return validate(("a", "b"), 2 * k, [0], [2 * (k - 1)], edges)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_bridged_cycles_are_finite_by_the_oracle(k):
    a = _bridged_cycles(k)
    assert classify(a).kind == F
    assert max(running_max(growth_table(a, 14))) == 1


def test_finite_input_at_the_documented_scale_walks_its_regions_in_time():
    """333 cyclic SCCs, 998 transitions: the region walks run and find no
    site, for every entry point that searches them."""
    a = _bridged_cycles(333)
    assert a.num_transitions == 998
    assert sum(map(len, _closures(_epsilon_core(a)).values())) >= 250
    for probe, want in [
        (lambda: classify(a, want_witness=True).kind, F),
        (lambda: ida_criterion(a), False),
        (lambda: ida_pairs(a), frozenset()),
    ]:
        start = time.perf_counter()
        assert probe() == want
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"took {elapsed:.2f} s"


def test_ida_witness_across_a_999_transition_chain_runs_in_time():
    a = block_chain(250)
    start = time.perf_counter()
    w = ida_witness(a, 0, 747)
    elapsed = time.perf_counter() - start
    assert w is not None and verify_ida_witness(a, w)
    assert elapsed < 2.0, f"ida_witness took {elapsed:.2f} s"


def test_ida_pairs_on_a_100_rung_ladder_runs_in_time():
    """Every ordered pair of the ladder's loops is a site: the full search
    walks all k(k − 1)/2 regions."""
    a = ladder(100)
    start = time.perf_counter()
    sites = ida_pairs(a)
    elapsed = time.perf_counter() - start
    assert sites == {(p, q) for q in range(100) for p in range(q)}
    assert elapsed < 5.0, f"ida_pairs took {elapsed:.2f} s"


def test_ida_witness_on_a_240_state_chain_runs_in_time():
    a = block_chain(80)
    start = time.perf_counter()
    w = ida_witness(a, 0, 9)
    elapsed = time.perf_counter() - start
    assert w is not None and verify_ida_witness(a, w)
    assert elapsed < 2.0, f"ida_witness took {elapsed:.1f} s"


@pytest.fixture
def reach_passes(monkeypatch):
    """The start states of every reach pass that artifact.analysis makes."""
    from artifact import analysis

    passes = []
    reach = analysis.reachable

    def counting(starts, successors):
        passes.append(starts)
        return reach(starts, successors)

    monkeypatch.setattr(analysis, "reachable", counting)
    return passes


def test_site_search_makes_one_coreach_pass_per_cyclic_scc(reach_passes):
    """A region's middle coordinate is bounded by coreach(C₃) alone: the
    site search makes one pass per cyclic SCC that some region has as C₃,
    which on a ladder is every SCC but the top one, and a single site
    walk makes one."""
    a = ladder(8)
    r = classify(a, want_witness=True)
    assert r.degree == 7
    assert len(reach_passes) == 7
    reach_passes.clear()
    assert ida_witness(a, 0, 7) is not None
    assert len(reach_passes) == 1
    reach_passes.clear()
    # one per site walk, then one per link between consecutive sites
    assert verify_dpa_witness(a, r.witness, 7)
    assert len(reach_passes) == 7 + 6


def _sites_match_the_reference(a, exponential):
    """ida_criterion, which stops on exponential growth, agrees with the
    full marked cube's sites.  Without exponential growth the region
    search, started from the per-SCC diagonal closures, finds those sites,
    each site (p, q) with its start (p, p, q) among the starts of region
    (SCC(p), SCC(q)); with it the search returns None.  Returns how many of
    the compared sites join two SCCs."""
    core = _epsilon_core(trim(a))
    want = reference_sites._ida_sites(cube(core.fa))
    assert ida_criterion(trim(a)) == (core.multiplicity or bool(want))
    if exponential:
        assert _ida_sites(core) is None
        return 0
    assert _ida_sites(core) == want
    n, comp = core.n, core.comp
    starts = {
        (c1, c3): set(bucket) for c3, sources in _closures(core).items() for c1, bucket in sources
    }
    assert all((p * n + p) * n + q in starts.get((comp[p], comp[q]), ()) for p, q in want)
    return sum(comp[p] != comp[q] for p, q in want)


def test_region_sites_match_the_full_cube_sites():
    fixtures = [EX_FIN2, EX_POLY1, EX_POLY2, EX_EXP, EX_EPS]
    joining = sum(_sites_match_the_reference(a, classify(a).kind == E) for a in fixtures)
    corpus = build_corpus100()
    joining += sum(_sites_match_the_reference(a, classify(a).kind == E) for a in corpus)
    assert len(fixtures) + len(corpus) == 105 and joining > 0


@st.composite
def _small_epsilon_nfas(draw, max_states=5, diamonds=False, rungs=False, spines=False):
    n = draw(st.integers(1, max_states))
    state = st.integers(0, n - 1)
    edges = draw(st.sets(st.tuples(state, st.sampled_from(["a", "b", EPSILON]), state), max_size=10))
    if diamonds and n >= 4 and draw(st.booleans()):
        # two ε-runs s0 → s3 fold onto every symbol edge leaving s3, and the
        # edge back to s0 may put one of them on a cycle (see _Core)
        s0, s1, s2, s3 = sorted(draw(st.lists(state, min_size=4, max_size=4, unique=True)))
        edges |= {(s0, EPSILON, s1), (s0, EPSILON, s2), (s1, EPSILON, s3), (s2, EPSILON, s3)}
        if draw(st.booleans()):
            edges.add((s3, "a", s0))
    if rungs and n >= 3 and draw(st.booleans()):
        # a-loops at s0 and s2 joined by an a-path through s1: a site whose
        # middle path passes a third SCC, unless other edges merge them
        s0, s1, s2 = draw(st.lists(state, min_size=3, max_size=3, unique=True))
        edges |= {(s0, "a", s0), (s0, "a", s1), (s1, "a", s2), (s2, "a", s2)}
    spine = []
    if spines and n >= 3 and draw(st.booleans()):
        # looped states on a path from an initial to a final one: a chain of
        # cyclic SCCs, unless other edges merge them, whose sources other
        # edges may make tie for a link (see _site_ties)
        spine = draw(st.lists(state, min_size=3, max_size=n, unique=True))
        symbol = st.sampled_from(["a", "b"])
        edges |= {(s, draw(symbol), s) for s in spine}
        edges |= {(s, draw(symbol), d) for s, d in zip(spine, spine[1:])}
    # ε-edges only run upward, so there is no ε-cycle
    edges = [(s, x, d) for s, x, d in edges if x != EPSILON or s < d]
    initial = draw(st.sets(state, min_size=1, max_size=2)) | set(spine[:1])
    final = draw(st.sets(state, min_size=1, max_size=2)) | set(spine[-1:])
    return trim(validate(("a", "b"), n, initial, final, edges))


@settings(max_examples=150, deadline=None)
@given(a=_small_epsilon_nfas())
def test_region_sites_match_the_full_cube_sites_on_random_inputs(a):
    # few small automata have a site joining two SCCs; steer towards them
    target(float(_sites_match_the_reference(a, eda_criterion(a))))


@settings(max_examples=300, deadline=None)
@given(a=_small_epsilon_nfas(max_states=6, diamonds=True))
def test_region_sites_match_the_full_cube_sites_on_random_diamond_inputs(a):
    # few small automata have a site joining two SCCs; steer towards them
    target(float(_sites_match_the_reference(a, eda_criterion(a))))


def _witnesses_match_the_reference(a, identical):
    """ida_witness answers every state pair as the full-cube search does:
    a witness for the same pairs, each verified and of the same length;
    with identical set, the very same witnesses.  Returns the pair count,
    how many witnessed pairs join two SCCs of the ε-free core, and for how
    many the reference's middle path leaves SCC(p) ∪ SCC(q)."""
    pairs = list(itertools.product(a.states, repeat=2))
    core = _epsilon_core(a)
    joining = leaving = 0
    for p, q in pairs:
        want = reference_sites.ida_witness(a, p, q)
        got = ida_witness(a, p, q)
        assert (got is None) == (want is None)
        if got is not None:
            assert len(got.label) == len(want.label)
            assert verify_ida_witness(a, got)
            if identical:
                assert got == want
            ends = {core.comp[core.back[p]], core.comp[core.back[q]]}
            joining += len(ends) == 2
            # symbol steps end on core states; ε-steps may end off the core
            middle = {core.comp[core.back[a.transitions[i].dst]]
                      for i in want.path_pq if not a.is_epsilon(i)}
            leaving += not middle <= ends
    return len(pairs), joining, leaving


def test_ida_witnesses_match_the_full_cube_search():
    fixtures = [EX_FIN2, EX_POLY1, EX_POLY2, EX_EXP, EX_EPS]
    checked = sum(_witnesses_match_the_reference(a, True)[0] for a in fixtures)
    checked += sum(_witnesses_match_the_reference(a, False)[0] for a in build_corpus100())
    assert checked == 1699


@pytest.mark.parametrize(
    "a", [ladder(16), block_chain(3), block_chain(4)], ids=["ladder16", "chain3", "chain4"]
)
def test_ida_witnesses_on_ladders_and_chains_are_the_full_cube_ones(a):
    _witnesses_match_the_reference(a, True)


@settings(max_examples=300, deadline=None)
@given(a=_small_epsilon_nfas(max_states=6, diamonds=True, rungs=True))
def test_ida_witnesses_match_the_full_cube_search_on_random_inputs(a):
    # few small automata have a witness joining two SCCs, and fewer still
    # one whose middle path passes a third SCC unless rungs are planted;
    # steer towards them, and towards cores with several cyclic SCCs
    core = _epsilon_core(a)
    target(float(sum(bool(core.inner[s[0]]) for s in core.members)), label="cyclic SCCs")
    _, joining, leaving = _witnesses_match_the_reference(a, False)
    target(float(joining))
    target(float(leaving), label="middle leaves")


def _chains_match_the_reference(a):
    """dpa_with_witness of trim(a) and classify(a)'s DPA witness are the
    reference DP's degree and chain over the full marked cube's sites,
    the chain carried back to a's ids."""
    t, maps = _trim(a)
    core = _epsilon_core(t)
    degree, chain = reference_dpa._dpa_impl(core, reference_sites._ida_sites(cube(core.fa)))
    assert dpa_with_witness(t) == (degree, chain)
    if chain is not None and maps is not None:
        order = maps[0]
        chain = DPAWitness(pairs=tuple((order[p], order[q]) for p, q in chain.pairs))
    assert classify(a, want_witness=True).witness == chain
    return degree


def test_dpa_witnesses_are_the_reference_chains():
    fixtures = [EX_FIN2, EX_POLY1, EX_POLY2, EX_EPS]
    corpus = [a for a in build_corpus100() if classify(a).kind is not E]
    chains = [ladder(16), block_chain(3), block_chain(4)]
    degrees = [_chains_match_the_reference(a) for a in fixtures + corpus + chains]
    assert len(corpus) == 78 and degrees[-3:] == [15, 2, 3]


def test_dpa_witnesses_under_ties_are_the_reference_chains():
    """Where sources tie for an SCC, the reference DP keeps the first one:
    sources in descending component id, plain edges before sites."""
    a = TIE_OF_SITES
    high = max(0, 1, key=_epsilon_core(a).comp.__getitem__)
    assert _chains_match_the_reference(a) == 1
    assert classify(a, want_witness=True).witness.pairs == ((high, 2),)
    b = TIE_WITH_A_PLAIN_EDGE
    comp = _epsilon_core(b).comp
    assert comp[3] > comp[1]
    assert _chains_match_the_reference(b) == 1
    assert classify(b, want_witness=True).witness.pairs == ((3, 2),)


@settings(max_examples=300, deadline=None)
@given(a=_small_epsilon_nfas(max_states=6, diamonds=True, rungs=True, spines=True))
def test_dpa_witnesses_are_the_reference_chains_on_random_inputs(a):
    # chains, and ties between their sources, need several cyclic SCCs;
    # steer towards them and towards ties that a site takes part in
    core = _epsilon_core(a)
    target(float(sum(bool(core.inner[s[0]]) for s in core.members)), label="cyclic SCCs")
    if not eda_criterion(a):
        _chains_match_the_reference(a)
        tied, won = _site_ties(core, _ida_sites(core))
        target(float(tied), label="ties with a site")
        target(float(won), label="ties a site wins")


def _site_ties(core, sites):
    """(tied, won): how many SCCs have two sources of their best, at least
    one of them a site, and how many of those take a site as parent, in
    the longest-chain DP over the core's sites.  A source is a plain
    predecessor SCC, with its best, or the SCC of a site's p, with its
    best plus one; the parent is the highest-id source, plain before site."""
    comp, count = core.comp, len(core.members)
    into = [set() for _ in range(count)]
    for dst, srcs in enumerate(core.backward):
        into[comp[dst]].update((comp[src], 0) for src in srcs if comp[src] != comp[dst])
    for p, q in sites:
        into[comp[q]].add((comp[p], 1))
    best, tied, won = [0] * count, 0, 0
    for c in range(count - 1, -1, -1):
        best[c] = max((best[s] + w for s, w in into[c]), default=0)
        top = [(s, -w) for s, w in into[c] if best[s] + w == best[c] > 0]
        if len(top) > 1 and any(w for _, w in top):
            tied += 1
            won += max(top)[1] < 0
    return tied, won


def _eda_verdicts_match_the_square_scc_search(a):
    """eda_criterion, eda_witness and classify (the diagonal closures on the
    ε-free core) answer as the SCC search over the whole square does."""
    found = _find_eda_scc(a)
    exponential = found is not None
    assert eda_witness(a) == found
    assert eda_criterion(a) == exponential
    assert (classify(a).kind is E) == exponential


def test_eda_verdicts_match_the_square_scc_search():
    for a in [EX_FIN2, EX_POLY1, EX_POLY2, EX_EXP, EX_EPS, *build_corpus100()]:
        _eda_verdicts_match_the_square_scc_search(a)


@settings(max_examples=300, deadline=None)
@given(a=_small_epsilon_nfas(max_states=6, diamonds=True))
def test_eda_verdicts_match_the_square_scc_search_on_random_inputs(a):
    _eda_verdicts_match_the_square_scc_search(a)


def test_eda_below_a_second_cyclic_scc_is_found():
    """The EDA SCC {1, 2} (1 -a-> 1 and 1 -a-> 2 -a-> 1) lies below the
    cyclic SCC {0}, so _closures closes its diagonal first, not last, and
    no ε-run folds: the closure alone must stop on it."""
    a = validate(
        ("a", "b"), 3, [0], [1],
        [(0, "b", 0), (0, "a", 1), (1, "a", 1), (1, "a", 2), (2, "a", 1)],
    )
    core = _epsilon_core(a)
    cyclic = [c for c, states in enumerate(core.members) if core.inner[states[0]]]
    assert not core.multiplicity
    assert cyclic == [core.comp[1], core.comp[0]]
    assert classify(a).kind is E
    assert eda_criterion(a)
    want = reference_eda.eda_witness(a)
    assert want is not None
    assert classify(a, want_witness=True).witness == want
    assert eda_witness(a) == want


def _shifted(w):
    """w's ids in _with_dead_state(a)."""
    return EDAWitness(
        state=w.state + 1,
        label=w.label,
        cycle_a=tuple(i + 1 for i in w.cycle_a),
        cycle_b=tuple(i + 1 for i in w.cycle_b),
    )


def _with_dead_state(a):
    """a behind an unreachable state 0, which moves every state and transition id up by one."""
    edges = [(0, a.alphabet[0], 1)] + [(s + 1, x, d + 1) for s, x, d in a.transitions]
    return validate(
        a.alphabet, a.num_states + 1, [s + 1 for s in a.initial], [s + 1 for s in a.final], edges
    )


def test_eda_witnesses_are_the_square_scc_search_ones():
    witnessed = 0
    for a in [EX_FIN2, EX_POLY1, EX_POLY2, EX_EXP, EX_EPS, *build_corpus100()]:
        want = reference_eda.eda_witness(a)
        assert eda_witness(a) == want
        if want is not None:
            assert classify(a, want_witness=True).witness == want
            assert classify(_with_dead_state(a), want_witness=True).witness == _shifted(want)
            witnessed += 1
    assert witnessed == 23


def test_an_eda_witness_explores_no_pair_of_useless_states(monkeypatch):
    """classify's EDA witness reads the square of the input as given, but
    its worklist enters only pairs of useful states: DEAD_EDA's useless
    {2, 3} hold same-labeled b-cycles, and its square would otherwise also
    hold their pairs."""
    from artifact import analysis, product

    worklists = []

    def recording(*args):
        worklists.append(product._explore(*args))
        return worklists[-1]

    monkeypatch.setattr(analysis, "_explore", recording)
    classify(DEAD_EDA, want_witness=True)
    (w,) = worklists
    assert {q for code in w.codes for q in (code // w.w1, code % w.w1 // 3)} == {0, 1}


def _eda():
    return eda_witness(EX_EXP)


def _ida():
    return ida_witness(EX_EPS, 0, 1)


@pytest.mark.parametrize(
    "a, find, tamper",
    [
        pytest.param(EX_EXP, _eda, lambda w: replace(w, cycle_b=w.cycle_a), id="eda-equal-cycles"),
        pytest.param(EX_EXP, _eda, lambda w: replace(w, label=()), id="eda-empty-label"),
        pytest.param(EX_EXP, _eda, lambda w: replace(w, label=w.label[:-1]), id="eda-short-label"),
        # (1,a,0)(0,a,1): a valid aa-cycle, at 1
        pytest.param(EX_EXP, _eda, lambda w: replace(w, cycle_b=(2, 1)), id="eda-other-endpoints"),
        pytest.param(EX_EXP, _eda, lambda w: replace(w, cycle_a=()), id="eda-empty-cycle"),
        pytest.param(EX_EXP, _eda, lambda w: replace(w, cycle_a=(0, 4)), id="eda-index-out-of-range"),
        # (0,a,1)(0,a,0): 0 → 0 on aa, but 1 ≠ 0 between the steps
        pytest.param(EX_EXP, _eda, lambda w: replace(w, cycle_b=(1, 0)), id="eda-broken-path"),
        # three valid a-cycles at 0
        pytest.param(
            EX_EPS, _ida, lambda w: replace(w, q=w.p, path_pq=w.path_pp, path_qq=w.path_pp),
            id="ida-p-equals-q",
        ),
        pytest.param(EX_EPS, _ida, lambda w: replace(w, label=()), id="ida-empty-label"),
        pytest.param(EX_EPS, _ida, lambda w: replace(w, label=w.label + w.label), id="ida-long-label"),
        pytest.param(EX_EPS, _ida, lambda w: replace(w, p=w.q, q=w.p), id="ida-swapped-endpoints"),
        pytest.param(EX_EPS, _ida, lambda w: replace(w, path_qq=()), id="ida-empty-leg"),
        pytest.param(EX_EPS, _ida, lambda w: replace(w, path_pq=(0, 4)), id="ida-index-out-of-range"),
        # (0,ε,2)(1,a,1): 0 → 1 on a, but 2 ≠ 1 between the steps
        pytest.param(EX_EPS, _ida, lambda w: replace(w, path_pq=(0, 2)), id="ida-broken-path"),
    ],
)
def test_path_verifiers_reject_tampered_witnesses(a, find, tamper):
    w = find()
    assert verify_witness(a, w)
    assert not verify_witness(a, tamper(w))


def test_eda_witness_of_the_scale_instance_is_the_square_scc_search_one():
    a = build_scale_instance()
    assert classify(a, want_witness=True).witness == reference_eda.eda_witness(a)
