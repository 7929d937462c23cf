"""Acceptance gate: the nine go/no-go checks, one printed line each.

Each test prints `acceptance N <name>: PASS` (or FAIL) past the capture so
the gate is readable straight off a full `pytest` run.  Tolerances and
corpus sizes are the contract; nothing here is tunable.
"""

import gc
import itertools
import math
import time

from artifact.analysis import AmbiguityClass, classify, verify_witness
from artifact.analysis import test_eda as eda_criterion
from artifact.core import EPSILON, validate
from artifact.entropy import brute_entropy, entropy_semiring_estimate, expected_length
from artifact.fixtures import (
    EX_EPS,
    EX_EXP,
    EX_FIN2,
    EX_FIN2U,
    EX_GEO,
    EX_POLY1,
    EX_POLY1P,
    EX_POLY2,
    EX_POLY2P,
    EX_UNIF,
)
from artifact.oracle import (
    count_paths,
    eliminate_epsilon_transition,
    growth_table,
    random_automaton,
    relabel_states,
    reverse,
    split_transition,
)
from artifact.product import EpsMove, FilterState, intersect, square, filter_step
from artifact.semiring import map_entropy, shortest_distance

from conftest import (
    build_corpus100,
    build_pairs200,
    build_prob50,
    running_max,
    semantic_count,
)

F = AmbiguityClass.FINITE
P = AmbiguityClass.POLYNOMIAL
E = AmbiguityClass.EXPONENTIAL

SCALE_SEED = 810_008  # ≈1000 transitions after trimming
RING_SIZE = 80


def _report(capsys, number: int, name: str, ok: bool) -> None:
    with capsys.disabled():
        print(f"acceptance {number} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def test_acceptance_1_fixture_classification(capsys):
    expected = [
        (EX_FIN2, F, 0),
        (EX_POLY1, P, 1),
        (EX_POLY2, P, 2),
        (EX_EXP, E, None),
        (EX_EPS, P, 1),
    ]
    ok = True
    for a, kind, degree in expected:
        t0 = time.perf_counter()
        r = classify(a)
        elapsed = time.perf_counter() - t0
        ok &= (r.kind, r.degree) == (kind, degree) and elapsed < 1.0
    _report(capsys, 1, "fixture classification", ok)


def test_acceptance_2_product_counting(capsys):
    ok = True
    for a1, a2 in build_pairs200():
        sigma = sorted(set(a1.alphabet) | set(a2.alphabet))
        prod = intersect(a1, a2).underlying
        for n in range(7):
            for x in itertools.product(sigma, repeat=n):
                if semantic_count(prod, x) != semantic_count(a1, x) * semantic_count(a2, x):
                    ok = False
    _report(capsys, 2, "intersection counts multiply", ok)


def test_acceptance_3_filter_uniqueness(capsys):
    moves = {"a": EpsMove.E1E1, "b": EpsMove.E2E2, "c": EpsMove.E2E1}
    disp = {"a": (0, 1), "b": (1, 0), "c": (1, 1)}
    seen = {}
    ok = True
    for n in range(7):
        for chars in itertools.product("abc", repeat=n):
            state = FilterState.F0
            for ch in chars:
                state = filter_step(state, moves[ch])
                if state is None:
                    break
            if state is None:
                continue
            key = (
                sum(disp[ch][0] for ch in chars),
                sum(disp[ch][1] for ch in chars),
            )
            if key in seen:
                ok = False  # duplicate surviving interleaving
            seen[key] = chars
    ok &= set(seen) == {(i, j) for i in range(7) for j in range(7)}
    _report(capsys, 3, "one surviving ε-interleaving per displacement", ok)


def test_acceptance_4_metamorphic_invariance(capsys):
    ok = True
    for a in build_corpus100():
        base = classify(a)
        signature = (base.kind, base.degree)
        perm = list(range(1, a.num_states)) + [0]
        variants = [relabel_states(a, perm), reverse(a)]
        variants += [split_transition(a, t) for t in a.transitions if t.label != EPSILON]
        variants += [
            eliminate_epsilon_transition(a, t) for t in a.transitions if t.label == EPSILON
        ]
        for v in variants:
            r = classify(v)
            if (r.kind, r.degree) != signature:
                ok = False
    _report(capsys, 4, "classification and dpa are representation-invariant", ok)


def test_acceptance_5_witness_validity(capsys):
    ok = True
    emitted = 0
    for a in (EX_FIN2, EX_POLY1, EX_POLY2, EX_EXP, EX_EPS) + build_corpus100():
        r = classify(a, want_witness=True)
        if r.witness is None:
            ok &= r.kind == F
            continue
        emitted += 1
        if not verify_witness(a, r.witness):
            ok = False
    ok &= emitted > 0
    _report(capsys, 5, f"all {emitted} emitted witnesses re-validate", ok)


def test_acceptance_6_growth_consistency(capsys):
    ok = True
    for a in build_corpus100():
        r = classify(a)
        run = running_max(growth_table(a, 12))
        if r.kind == F:
            good = run[12] == run[8]
        elif r.kind == E:
            good = run[10] >= 2 * run[5]
        else:
            good = run[12] <= 13**r.degree * max(run[4], 1)
        ok &= good
    _report(capsys, 6, "classes match observed growth", ok)


def test_acceptance_7_entropy_exact_values(capsys):
    ok = abs(entropy_semiring_estimate(EX_UNIF) - math.log(2)) <= 1e-9
    s_geo = entropy_semiring_estimate(EX_GEO, tol=1e-10)
    l_geo = expected_length(EX_GEO, tol=1e-10)
    ok &= abs(s_geo - 2 * math.log(2)) <= 1e-6
    ok &= abs(l_geo - 1.0) <= 1e-6
    h, residual = brute_entropy(EX_GEO, 40)
    ok &= abs(h - s_geo) <= 1e-6
    ok &= residual < 1e-11
    _report(capsys, 7, "entropy closed forms", ok)


def test_acceptance_8_entropy_brackets(capsys):
    ok = True
    # the finite-ambiguity gap saturates exactly on the uniform double path
    s = entropy_semiring_estimate(EX_FIN2U)
    h, _ = brute_entropy(EX_FIN2U, 12)
    ok &= abs((s - h) - math.log(2)) <= 1e-9
    for skel, wa, h_brute, _ in build_prob50():
        s = entropy_semiring_estimate(wa)
        k_obs = growth_table(skel, 12).max_count()
        ok &= h_brute - 1e-9 <= s <= h_brute + math.log(k_obs) + 1e-6
    for wa in (EX_POLY1P, EX_POLY2P):
        r_kind = classify(wa.skeleton)
        length = expected_length(wa)
        if length > 1.0:
            s = entropy_semiring_estimate(wa)
            h_brute, _ = brute_entropy(wa, 12)
            ok &= s <= h_brute + r_kind.degree * math.log(length) + 1e-6
    _report(capsys, 8, "entropy brackets hold across 50 + fixtures", ok)


def test_acceptance_9_scale_and_timing(capsys):
    a = random_automaton(400, 3, 2.23e-3, 1.25e-3, seed=SCALE_SEED)
    ok = 900 <= a.num_transitions <= 1100
    t0 = time.perf_counter()
    classify(a)
    ok &= time.perf_counter() - t0 < 30.0
    # the square's state budget is asserted inside the construction; check
    # the strict bound here once more on the large instance
    sq = square(a)
    ok &= sq.underlying.num_states <= 3 * a.num_states**2

    def ring(n):
        edges = [(i, "a", i) for i in range(n)] + [(i, "a", (i + 1) % n) for i in range(n)]
        return validate(("a",), n, [0], [0], edges)

    def best_of(f, reps=5):
        best = float("inf")
        gc.disable()
        try:
            for _ in range(reps):
                start = time.perf_counter()
                f()
                best = min(best, time.perf_counter() - start)
        finally:
            gc.enable()
        return best

    small, large = ring(RING_SIZE), ring(2 * RING_SIZE)
    assert large.num_transitions == 2 * small.num_transitions
    eda_criterion(small)
    eda_criterion(large)  # warm both paths before timing
    t_small = best_of(lambda: eda_criterion(small))
    t_large = best_of(lambda: eda_criterion(large))
    ok &= t_large / t_small <= 5.0
    _report(capsys, 9, "scales to ≈1000 transitions, ≈quadratic doubling", ok)
