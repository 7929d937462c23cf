"""Exception types shared across the library.

Every error raised on purpose derives from AutomatonError so callers (and the
CLI) can distinguish expected failures from genuine bugs.
"""


class AutomatonError(Exception):
    """Base class for all errors raised by this library."""


class DuplicateTransition(AutomatonError):
    """The same (source, label, target) transition was given twice."""


class DanglingStateId(AutomatonError):
    """A transition endpoint or initial/final id is not a valid state."""


class ReservedLabelInAlphabet(AutomatonError):
    """The alphabet contains a token reserved for the empty label."""


class SymbolNotInAlphabet(AutomatonError):
    """A label or query symbol is not part of the automaton's alphabet."""


class EpsilonCycleInput(AutomatonError):
    """The input automaton has a cycle of ε-transitions."""


class NotTrim(AutomatonError):
    """The operation requires a trim automaton (run trim() first)."""


class ExponentiallyAmbiguousInput(AutomatonError):
    """dpa and ida_pairs are undefined: the automaton is exponentially ambiguous."""


class NotEpsilon(AutomatonError):
    """The named transition is absent or does not carry the ε label."""


class EpsilonInput(AutomatonError):
    """The named transition carries the ε label where a symbol is required."""


class NonConvergent(AutomatonError):
    """A weighted distance diverges (cycle mass ≥ 1) or its solve is inaccurate."""


class NonPositiveWeight(AutomatonError):
    """A transition weight outside (0, 1] cannot be mapped."""


class WeightOutOfRange(AutomatonError):
    """A weight lies outside the range allowed for probabilities."""


class MassNotOne(AutomatonError):
    """Total probability mass of the automaton differs from 1."""

    def __init__(self, mass: float, tol: float = 0.0):
        super().__init__(f"total probability mass is {mass!r}, expected 1")
        self.mass = mass
        self.tol = tol


class AlphabetTooLarge(AutomatonError):
    """Exhaustive enumeration is capped to small alphabets."""


class ParseError(AutomatonError):
    """A line of an automaton file could not be parsed."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class MixedWeightedness(AutomatonError):
    """An automaton file mixes weighted and unweighted directives."""


class InternalInvariantViolation(AutomatonError):
    """An internal consistency check failed; this indicates a bug."""
