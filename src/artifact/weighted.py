"""Weighted automata: a skeleton plus values on transitions and end states."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .core import FiniteAutomaton, _trim, validate
from .errors import NonPositiveWeight, WeightOutOfRange


@dataclass(frozen=True)
class WeightedAutomaton:
    """Automaton whose transitions and end states carry semiring values.

    ``weights[i]`` belongs to ``skeleton.transitions[i]``.  ``lam`` and
    ``rho`` are sorted (state, value) pairs covering exactly the initial and
    final states.  The value type is whatever semiring the caller works in:
    plain probabilities on construction, pairs after mapping.
    """

    skeleton: FiniteAutomaton
    weights: tuple
    lam: tuple
    rho: tuple


def _check_probability(value: float, what: str, allow_zero: bool) -> float:
    value = float(value)
    if value < 0.0 or (value == 0.0 and not allow_zero):
        raise NonPositiveWeight(f"{what} must be positive, got {value}")
    if not value <= 1.0:  # also catches NaN, for which every comparison is false
        raise WeightOutOfRange(f"{what} must be at most 1, got {value}")
    return value


def validate_weighted(
    alphabet: Iterable[str],
    num_states: int,
    initial: Mapping[int, float],
    final: Mapping[int, float],
    transitions: Iterable[tuple[int, str, int, float]],
) -> WeightedAutomaton:
    """Build a probability-weighted automaton.

    Transition weights live in (0, 1]; initial and final weights in [0, 1].
    The skeleton is validated as usual, with transitions given as
    (src, label, dst, weight) quadruples.
    """
    quads = sorted(transitions, key=lambda t: (t[0], t[1], t[2]))
    skeleton = validate(
        alphabet,
        num_states,
        initial.keys(),
        final.keys(),
        [(src, label, dst) for src, label, dst, _ in quads],
    )
    weights = tuple(
        _check_probability(w, f"weight of ({src}, {label or 'ε'}, {dst})", False)
        for src, label, dst, w in quads
    )
    lam = tuple(
        (q, _check_probability(v, f"initial weight of {q}", True))
        for q, v in sorted(initial.items())
    )
    rho = tuple(
        (q, _check_probability(v, f"final weight of {q}", True))
        for q, v in sorted(final.items())
    )
    return WeightedAutomaton(skeleton=skeleton, weights=weights, lam=lam, rho=rho)


def trim_weighted(wa: WeightedAutomaton) -> WeightedAutomaton:
    """Drop useless states, carrying the weights along."""
    skeleton, maps = _trim(wa.skeleton)
    if maps is None:
        return wa
    order, tmap = maps
    remap = {old: new for new, old in enumerate(order)}
    return WeightedAutomaton(
        skeleton=skeleton,
        weights=tuple(wa.weights[i] for i in tmap),
        lam=tuple((remap[q], v) for q, v in wa.lam if q in remap),
        rho=tuple((remap[q], v) for q, v in wa.rho if q in remap),
    )
