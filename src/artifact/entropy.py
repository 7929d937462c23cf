"""Entropy of probabilistic automata.

The headline quantity is H(A) = −Σ_x ⟦A⟧(x)·ln ⟦A⟧(x).  Summing the same
expression per accepting path instead of per string gives S(A), which the
pair semiring computes in one shortest-distance pass.  S(A) equals H(A)
exactly when no string has two accepting paths; otherwise it overshoots,
and H ≤ S always holds.  The lower ends that the ambiguity classification
adds are estimates, not proven bounds:

    finitely ambiguous:      S − ln k      (k observed on strings of at most 10 symbols)
    polynomially ambiguous:  S − d·ln L    (for expected length L > 1)

with d the degree of polynomial growth.  A longer string can carry more
than k paths, and S − d·ln L drops the constant C of the path-count growth
C·nᵈ; when L ≤ 1 the report gives [S, S] and sets vacuous_bound.  A
truncated brute-force enumeration provides ground truth for small
instances.  numpy is imported only by a linear solve or by that
enumeration, so importing this module does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .analysis import AmbiguityClass, classify
from .core import EPSILON, has_epsilon_cycle, is_trim
from .errors import AlphabetTooLarge, EpsilonCycleInput, MassNotOne, NotTrim
from .oracle import GROWTH_MAX_SYMBOLS, growth_table
from .semiring import _distances, _entropy_value, _mapped, map_entropy, map_expectation
from .weighted import WeightedAutomaton

LN2 = math.log(2.0)

# default largest accepted |total mass − 1|
_MASS_TOL = 1e-6

# brute_entropy enumerates strings; refuse anything past this many leaves
_BRUTE_CAP = 4_194_304

# entropy_report reads k, the largest observed path count, off a growth
# table of strings up to this length
_TABLE_MAX_LEN = 10


def _check_analyzable(wa: WeightedAutomaton) -> None:
    if not is_trim(wa.skeleton):
        raise NotTrim("probabilistic analysis expects a trim automaton")
    if has_epsilon_cycle(wa.skeleton):
        raise EpsilonCycleInput("ε-cycle in the transition graph")


def _sweep(
    wa: WeightedAutomaton, mapping, tol: float, mass_tol: float | None = None
) -> tuple[float, ...]:
    """The distances of mapping(wa), for an analyzable wa, in one sweep.

    Every mapping keeps the probability as its first coordinate, so the
    first total is the mass; with mass_tol given it must be 1 within it.
    """
    _check_analyzable(wa)
    totals = _distances(mapping(wa), tol)
    if mass_tol is not None and abs(totals[0] - 1.0) > mass_tol:
        raise MassNotOne(totals[0], mass_tol)
    return totals


def _map_report(wa: WeightedAutomaton) -> WeightedAutomaton:
    """w ↦ (w, w·[label ≠ ε], −w·ln w) and v ↦ (v, 0, −v·ln v): mass, L and S."""
    return _mapped(
        wa,
        lambda tr, w: (w, 0.0 if tr.label == EPSILON else w, _entropy_value(w).second),
        lambda v: (v, 0.0, _entropy_value(v).second),
    )


def total_mass(wa: WeightedAutomaton, *, tol: float = 1e-10) -> float:
    """Σ_x ⟦A⟧(x), the total weight the automaton assigns to all strings."""
    return _sweep(wa, map_expectation, tol)[0]


def validate_probabilistic(
    wa: WeightedAutomaton,
    mass_tol: float = _MASS_TOL,
    *,
    tol: float = 1e-10,
) -> WeightedAutomaton:
    """Check that the automaton defines a probability distribution on strings."""
    _sweep(wa, map_expectation, tol, mass_tol)
    return wa


def entropy_semiring_estimate(wa: WeightedAutomaton, *, tol: float = 1e-10) -> float:
    """S(A) = −Σ over accepting paths π of p(π)·ln p(π)."""
    return _sweep(wa, map_entropy, tol)[1]


def expected_length(wa: WeightedAutomaton, *, tol: float = 1e-10) -> float:
    """Expected number of symbols of a string drawn from the automaton."""
    return _sweep(wa, map_expectation, tol)[1]


def brute_entropy(wa: WeightedAutomaton, max_len: int) -> tuple[float, float]:
    """Truncated ground truth: (−Σ_{|x|≤max_len} p(x)·ln p(x), 1 − Σ p(x)).

    Enumerates every string up to max_len, propagating the state
    distribution with ε-closed transition matrices and pruning branches
    whose distribution has died out.
    """
    _check_analyzable(wa)
    return _brute_entropy(wa, max_len)


def _brute_entropy(wa: WeightedAutomaton, max_len: int) -> tuple[float, float]:
    """brute_entropy() of a wa that has passed _check_analyzable."""
    import numpy as np

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
    mass_tol: float = _MASS_TOL,
    tol: float = 1e-10,
    want_brute: bool = False,
    brute_max_len: int = 12,
) -> EntropyReport:
    """One-stop analysis: mass check, S, L, ambiguity, entropy brackets.

    tol is the largest relative residual accepted from any linear solve
    behind S and L; a larger one raises NonConvergent.
    """
    totals = _sweep(wa, _map_report, tol, mass_tol)
    # a zero-state automaton has no weight to read k from: its zero
    # distances come back as the pair (0.0, 0.0)
    length, s = totals[1:] if len(totals) == 3 else (0.0, 0.0)
    ambiguity = classify(wa.skeleton)

    k_observed: int | None = None
    vacuous = False
    low: float | None
    high: float | None
    if ambiguity.kind is AmbiguityClass.EXPONENTIAL:
        low = high = None
    elif ambiguity.kind is AmbiguityClass.FINITE:
        if len(wa.skeleton.alphabet) <= GROWTH_MAX_SYMBOLS:
            k_observed = max(1, growth_table(wa.skeleton, _TABLE_MAX_LEN).max_count())
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
        h_brute, residual = _brute_entropy(wa, brute_max_len)

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
