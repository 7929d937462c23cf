"""Shared corpora for the test suite.

Everything here is seed-deterministic: the corpora are rebuilt identically on
every run, so tests that quantify over them ("zero failures over the corpus")
are reproducible without shipping pickled automata.

Three corpora are exposed as session fixtures:

  * corpus100 — 100 random automata with a forced mix of ambiguity classes
    (quota-sampled, plus a handful of automata with polynomial degree >= 2,
    which are too rare to hit by quota alone).
  * pairs200 — 200 pairs of small automata for product/counting checks.
  * prob50 — 50 probabilistic automata over finitely ambiguous skeletons,
    weighted per-state stochastic with a bias toward stopping at final
    states so that the brute-force entropy truncation error is negligible.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import lru_cache

import pytest

from artifact.analysis import AmbiguityClass, classify
from artifact.core import validate
from artifact.entropy import brute_entropy, validate_probabilistic
from artifact.errors import MassNotOne, NonConvergent
from artifact.oracle import random_automaton
from artifact.weighted import WeightedAutomaton, validate_weighted

CORPUS_QUOTA = {
    AmbiguityClass.FINITE: 36,
    AmbiguityClass.POLYNOMIAL: 30,
    AmbiguityClass.EXPONENTIAL: 22,
}
DEEP_POLY_COUNT = 12  # members with dpa >= 2, drawn from a unary family

PAIR_SEED_BASE = 300_000
PROB_SKELETON_SEED_BASE = 400_000
PROB_WEIGHT_SEED_BASE = 500_000
DEEP_POLY_SEED_BASE = 700_000

# truncation length / residual cap used when accepting a probabilistic
# automaton into prob50; keeps brute-force entropy good to ~1e-8 nats
PROB_BRUTE_LEN = 12
PROB_RESIDUAL_CAP = 1e-9

# draws each corpus loop may make before it fails instead of hanging; the
# loops fill their quotas after 1,609 (corpus100), 2,900 (its deep members)
# and 595 (prob50) draws
MAX_DRAWS = 10_000


@lru_cache(maxsize=None)
def build_corpus100():
    picked = []
    counts: Counter = Counter()
    s = 0
    while len(picked) < 100 - DEEP_POLY_COUNT:
        if s == MAX_DRAWS:
            unfilled = {
                k.value: f"{counts[k]} of {q}" for k, q in CORPUS_QUOTA.items() if counts[k] < q
            }
            raise RuntimeError(f"corpus100: {MAX_DRAWS} draws left quotas unfilled: {unfilled}")
        states = 3 + s % 6
        symbols = 1 + s % 2
        density = (1.2 + 0.3 * (s % 3)) / states
        eps = (0.0, 0.12, 0.22)[s % 3]
        a = random_automaton(states, symbols, density, eps, seed=s)
        s += 1
        if a.num_states == 0:
            continue
        kind = classify(a).kind
        if counts[kind] < CORPUS_QUOTA[kind]:
            counts[kind] += 1
            picked.append(a)
    s = 0
    deep = 0
    while deep < DEEP_POLY_COUNT:
        if s == MAX_DRAWS:
            raise RuntimeError(
                f"corpus100: {MAX_DRAWS} draws found {deep} of {DEEP_POLY_COUNT} "
                "members of degree >= 2"
            )
        states = 5 + s % 4
        a = random_automaton(states, 1, 1.25 / states, 0.0, seed=DEEP_POLY_SEED_BASE + s)
        s += 1
        if a.num_states == 0:
            continue
        r = classify(a)
        if r.kind == AmbiguityClass.POLYNOMIAL and r.degree >= 2:
            picked.append(a)
            deep += 1
    return tuple(picked)


@lru_cache(maxsize=None)
def build_pairs200():
    pairs = []
    s = 0
    while len(pairs) < 200:
        n1 = 2 + s % 5
        n2 = 2 + (s + 3) % 5
        a1 = random_automaton(
            n1, 1 + s % 2, (0.9 + 0.25 * (s % 3)) / n1,
            (0.0, 0.1, 0.2)[s % 3], seed=PAIR_SEED_BASE + s,
        )
        a2 = random_automaton(
            n2, 1 + (s + 1) % 2, (0.9 + 0.25 * ((s + 1) % 3)) / n2,
            (0.0, 0.1, 0.2)[(s + 1) % 3], seed=PAIR_SEED_BASE + 1 + s,
        )
        s += 1
        if a1.num_states == 0 or a2.num_states == 0:
            continue
        pairs.append((a1, a2))
    return tuple(pairs)


def _stochastic_over(skel, seed: int) -> WeightedAutomaton:
    """Per-state stochastic weighting of a skeleton, biased to stop early."""
    rng = random.Random(seed)
    lam_raw = {q: rng.uniform(0.5, 1.0) for q in skel.initial}
    z = sum(lam_raw.values())
    lam = {q: w / z for q, w in lam_raw.items()}
    quads = []
    rho = {}
    for q in range(skel.num_states):
        outs = [t for t in skel.transitions if t.src == q]
        raw = [rng.uniform(0.05, 0.2) for _ in outs]
        stop = rng.uniform(5.0, 9.0) if q in skel.final else 0.0
        total = sum(raw) + stop
        for t, w in zip(outs, raw):
            quads.append((t.src, t.label, t.dst, w / total))
        if stop:
            rho[q] = stop / total
    return validate_weighted(skel.alphabet, skel.num_states, lam, rho, quads)


@lru_cache(maxsize=None)
def build_prob50():
    """(skeleton, weighted automaton, brute entropy, residual) quadruples."""
    corpus = []
    s = 0
    while len(corpus) < 50:
        if s == MAX_DRAWS:
            raise RuntimeError(f"prob50: {MAX_DRAWS} draws found {len(corpus)} of 50 members")
        states = 3 + s % 5
        skel = random_automaton(
            states, 1 + s % 2, (1.0 + 0.2 * (s % 3)) / states,
            (0.0, 0.1)[s % 2], seed=PROB_SKELETON_SEED_BASE + s,
        )
        s += 1
        if skel.num_states == 0 or classify(skel).kind != AmbiguityClass.FINITE:
            continue
        try:
            wa = validate_probabilistic(_stochastic_over(skel, PROB_WEIGHT_SEED_BASE + s))
        except (MassNotOne, NonConvergent):
            continue
        h, residual = brute_entropy(wa, PROB_BRUTE_LEN)
        if residual >= PROB_RESIDUAL_CAP:
            continue
        corpus.append((skel, wa, h, residual))
    return tuple(corpus)


@lru_cache(maxsize=None)
def build_scale_instance():
    """The ≈1000-transition exponential instance of acceptance 9 (354 states)."""
    return random_automaton(400, 3, 2.23e-3, 1.25e-3, seed=810_008)


#: the chain DP's ties: two top SCCs of equal best 0, each with a site into {2}
TIE_OF_SITES = validate(
    ("a",), 3, [0, 1], [2],
    [(0, "a", 0), (1, "a", 1), (2, "a", 2), (0, "a", 2), (1, "a", 2)],
)
#: {1} reaches {2} by a plain c-edge with best 1, from its own site (0, 1)
#: on c; the site (3, 2) on b gives 0 + 1 as well, from a higher id
TIE_WITH_A_PLAIN_EDGE = validate(
    ("a", "b", "c"), 4, [0, 3], [2],
    [(0, "c", 0), (1, "c", 1), (2, "a", 2), (2, "b", 2), (3, "b", 3),
     (0, "c", 1), (1, "c", 2), (3, "b", 2)],
)
#: EDA at the useful state 0 (a-loop and a-cycle through 1), and two
#: same-labeled b-cycles at 2 behind a dead end {2, 3}: the square SCC of
#: (2, 2) holds an off-diagonal state too, and its component id is lower.
#: The golden file's dead_eda keys pin the witness at 0: cycles (0, 0) and (1, 3)
DEAD_EDA = validate(
    ("a", "b"), 4, [0], [1],
    [(0, "a", 0), (0, "a", 1), (1, "a", 0), (1, "a", 1),
     (0, "b", 2), (2, "b", 2), (2, "b", 3), (3, "b", 2)],
)


def ladder(k):
    """k a-loops joined by a-edges into a chain: degree k − 1."""
    edges = [(i, "a", i) for i in range(k)] + [(i, "a", i + 1) for i in range(k - 1)]
    return validate(("a",), k, [0], [k - 1], edges)


def block_chain(blocks):
    """3-cycles on 'a' whose entries are chained by 'a'-edges: degree blocks − 1."""
    edges = []
    for b in range(blocks):
        e = 3 * b
        edges += [(e, "a", e + 1), (e + 1, "a", e + 2), (e + 2, "a", e)]
        if b + 1 < blocks:
            edges.append((e, "a", e + 3))
    return validate(("a",), 3 * blocks, [0], [3 * (blocks - 1)], edges)


def ring(n):
    """An a/b cycle through n states that stops with 0.1 at each: one SCC, mass 1."""
    edges = [(q, "ab"[q % 2], (q + 1) % n, 0.9) for q in range(n)]
    return validate_weighted(("a", "b"), n, {0: 1.0}, {q: 0.1 for q in range(n)}, edges)


@pytest.fixture(scope="session")
def corpus100():
    return build_corpus100()


@pytest.fixture(scope="session")
def pairs200():
    return build_pairs200()


@pytest.fixture(scope="session")
def prob50():
    return build_prob50()


def semantic_count(a, x) -> int:
    """da(A, x) extended to strings over any alphabet: 0 off-alphabet."""
    from artifact.oracle import count_paths

    if not set(x) <= set(a.alphabet):
        return 0
    return count_paths(a, x)


def running_max(table) -> list[int]:
    """Running maximum of growth-table counts: entry n covers lengths <= n."""
    out = []
    m = 0
    for row in table.rows:
        m = max(m, row.count)
        out.append(m)
    return out
