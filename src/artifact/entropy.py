"""Entropy of probabilistic automata.

The headline quantity is H(A) = −Σ_x ⟦A⟧(x)·ln ⟦A⟧(x).  Summing the same
expression per accepting path instead of per string gives S(A), which the
pair semiring computes in one shortest-distance pass.  S(A) equals H(A)
exactly when no string has two accepting paths; otherwise it overshoots by
at most the log of the number of paths per string, which the ambiguity
classification turns into explicit brackets:

    finitely ambiguous:      S − ln k      ≤ H ≤ S
    polynomially ambiguous:  S − d·ln L    ≤ H ≤ S   (for expected length L > 1)

with k the largest path count actually observed and d the degree of
polynomial growth.  A truncated brute-force enumeration provides ground
truth for small instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import AmbiguityClass, classify
from .core import EPSILON, has_epsilon_cycle, is_trim
from .errors import AlphabetTooLarge, EpsilonCycleInput, MassNotOne, NotTrim
from .oracle import growth_table
from .semiring import (
    PairWeight,
    entropy_semiring,
    map_entropy,
    map_expectation,
    shortest_distance,
)
from .weighted import WeightedAutomaton

LN2 = math.log(2.0)

# brute_entropy enumerates strings; refuse anything past this many leaves
_BRUTE_CAP = 4_194_304


def _check_analyzable(wa: WeightedAutomaton) -> None:
    if not is_trim(wa.skeleton):
        raise NotTrim("probabilistic analysis expects a trim automaton")
    if has_epsilon_cycle(wa.skeleton):
        raise EpsilonCycleInput("ε-cycle in the transition graph")


def _expectation(wa: WeightedAutomaton, tol: float, max_iter: int) -> PairWeight:
    """(total mass, mass-weighted length) in one shortest-distance pass."""
    return shortest_distance(map_expectation(wa), entropy_semiring(), tol, max_iter)


def _check_mass(mass: float, mass_tol: float) -> None:
    if abs(mass - 1.0) > mass_tol:
        raise MassNotOne(mass, mass_tol)


def total_mass(
    wa: WeightedAutomaton, *, tol: float = 1e-10, max_iter: int = 1_000_000
) -> float:
    """Σ_x ⟦A⟧(x), the total weight the automaton assigns to all strings."""
    _check_analyzable(wa)
    return _expectation(wa, tol, max_iter).first


def validate_probabilistic(
    wa: WeightedAutomaton,
    mass_tol: float = 1e-6,
    *,
    tol: float = 1e-10,
    max_iter: int = 1_000_000,
) -> WeightedAutomaton:
    """Check that the automaton defines a probability distribution on strings."""
    _check_mass(total_mass(wa, tol=tol, max_iter=max_iter), mass_tol)
    return wa


def entropy_semiring_estimate(
    wa: WeightedAutomaton, *, tol: float = 1e-10, max_iter: int = 1_000_000
) -> float:
    """S(A) = −Σ over accepting paths π of p(π)·ln p(π)."""
    _check_analyzable(wa)
    return shortest_distance(map_entropy(wa), entropy_semiring(), tol, max_iter).second


def expected_length(
    wa: WeightedAutomaton, *, tol: float = 1e-10, max_iter: int = 1_000_000
) -> float:
    """Expected number of symbols of a string drawn from the automaton."""
    _check_analyzable(wa)
    return _expectation(wa, tol, max_iter).second


def brute_entropy(wa: WeightedAutomaton, max_len: int) -> tuple[float, float]:
    """Truncated ground truth: (−Σ_{|x|≤max_len} p(x)·ln p(x), 1 − Σ p(x)).

    Enumerates every string up to max_len, propagating the state
    distribution with ε-closed transition matrices and pruning branches
    whose distribution has died out.
    """
    _check_analyzable(wa)
    skel = wa.skeleton
    k = len(skel.alphabet)
    if k > 4:
        raise AlphabetTooLarge(
            f"brute-force enumeration supports at most 4 symbols, got {k}"
        )
    if max_len < 0:
        raise ValueError(f"max_len must be non-negative, got {max_len}")
    if k ** max_len > _BRUTE_CAP:
        raise ValueError(
            f"{k} symbols at length {max_len} is past the enumeration cap"
        )
    n = skel.num_states
    lam = np.zeros(n)
    for q, v in wa.lam:
        lam[q] = v
    rho = np.zeros(n)
    for q, v in wa.rho:
        rho[q] = v
    eps = np.zeros((n, n))
    mats = {s: np.zeros((n, n)) for s in skel.alphabet}
    for tr, w in zip(skel.transitions, wa.weights):
        if tr.label == EPSILON:
            eps[tr.src, tr.dst] += w
        else:
            mats[tr.label][tr.src, tr.dst] += w
    # ε-edges form a DAG, so the closure series terminates
    closure = np.eye(n)
    term = np.eye(n)
    for _ in range(n):
        term = term @ eps
        if not term.any():
            break
        closure = closure + term
    step = {s: m @ closure for s, m in mats.items()}

    h = 0.0
    mass = 0.0
    stack: list[tuple[np.ndarray, int]] = [(lam @ closure, 0)]
    while stack:
        vec, depth = stack.pop()
        p = float(vec @ rho)
        if p > 0.0:
            mass += p
            h -= p * math.log(p)
        if depth < max_len:
            for s in skel.alphabet:
                nxt = vec @ step[s]
                if nxt.any():
                    stack.append((nxt, depth + 1))
    return h, 1.0 - mass


@dataclass(frozen=True)
class EntropyReport:
    """S(A), expected length, ambiguity, and the resulting brackets on H(A).

    bound_low/bound_high enclose the true entropy; both are None when the
    automaton is exponentially ambiguous (no bracket exists), and
    vacuous_bound flags the polynomial case with expected length ≤ 1,
    where the generic bracket degenerates to the point S.
    """

    s: float
    l: float
    ambiguity: AmbiguityClass
    dpa: int | None
    bound_low: float | None
    bound_high: float | None
    h_brute: float | None = None
    residual_mass: float | None = None
    k_observed: int | None = None
    vacuous_bound: bool = False

    def as_dict(self, base: str = "e") -> dict:
        """JSON-ready mapping; base \"2\" rescales the entropy-like fields."""
        if base not in ("e", "2"):
            raise ValueError(f"base must be 'e' or '2', got {base!r}")
        conv = LN2 if base == "2" else 1.0

        def scaled(x: float | None) -> float | None:
            return None if x is None else x / conv

        return {
            "s": self.s / conv,
            "h_brute": scaled(self.h_brute),
            "residual_mass": self.residual_mass,
            "l": self.l,
            "ambiguity": self.ambiguity.name,
            "dpa": self.dpa,
            "bound_low": scaled(self.bound_low),
            "bound_high": scaled(self.bound_high),
            "log_base": base,
        }


def entropy_report(
    wa: WeightedAutomaton,
    *,
    mass_tol: float = 1e-6,
    tol: float = 1e-10,
    max_iter: int = 1_000_000,
    want_brute: bool = False,
    brute_max_len: int = 12,
    table_max_len: int = 10,
) -> EntropyReport:
    """One-stop analysis: mass check, S, L, ambiguity, entropy brackets."""
    _check_analyzable(wa)
    expectation = _expectation(wa, tol, max_iter)
    _check_mass(expectation.first, mass_tol)
    s = shortest_distance(map_entropy(wa), entropy_semiring(), tol, max_iter).second
    length = expectation.second
    ambiguity = classify(wa.skeleton)

    k_observed: int | None = None
    vacuous = False
    low: float | None
    high: float | None
    if ambiguity.kind is AmbiguityClass.EXPONENTIAL:
        low = high = None
    elif ambiguity.kind is AmbiguityClass.FINITE:
        if len(wa.skeleton.alphabet) <= 4:
            k_observed = max(1, growth_table(wa.skeleton, table_max_len).max_count())
            low, high = s - math.log(k_observed), s
        else:
            # growth scan unavailable at this alphabet size; keep the
            # one-sided bound
            low, high = None, s
    else:
        degree = ambiguity.degree or 0
        if length > 1.0:
            low, high = s - degree * math.log(length), s
        else:
            low, high = s, s
            vacuous = True

    h_brute = residual = None
    if want_brute:
        h_brute, residual = brute_entropy(wa, brute_max_len)

    return EntropyReport(
        s=s,
        l=length,
        ambiguity=ambiguity.kind,
        dpa=ambiguity.degree,
        bound_low=low,
        bound_high=high,
        h_brute=h_brute,
        residual_mass=residual,
        k_observed=k_observed,
        vacuous_bound=vacuous,
    )
