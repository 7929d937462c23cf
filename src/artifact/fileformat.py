"""Line-oriented text format for automata.

    # comment
    initial <id> [<weight>]
    final <id> [<weight>]
    trans <src> <dst> <label> [<weight>]

The label token ``<eps>`` denotes ε.  States are declared implicitly by
mention; the alphabet is the sorted set of labels that occur.  A file is
either fully weighted (every directive carries a weight) or fully
unweighted — mixing the two is an error.
"""

from __future__ import annotations

from .core import EPSILON, EPSILON_TOKEN, FiniteAutomaton, validate
from .errors import MixedWeightedness, ParseError
from .product import ProductAutomaton
from .weighted import WeightedAutomaton, validate_weighted


def _parse_id(token: str, lineno: int) -> int:
    # isdigit() alone admits non-ASCII digits such as '²', which int() rejects
    if not (token.isascii() and token.isdigit()):
        raise ParseError(lineno, f"state id must be a non-negative integer, got {token!r}")
    return int(token)


def _parse_weight(token: str, lineno: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(lineno, f"weight must be a decimal real, got {token!r}") from None


def parse(text: str) -> FiniteAutomaton | WeightedAutomaton:
    """Parse the text format; empty input gives the empty unweighted automaton."""
    initial: dict[int, float | None] = {}
    final: dict[int, float | None] = {}
    triples: list[tuple[int, str, int, float | None]] = []
    weighted: bool | None = None
    max_id = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind in ("initial", "final"):
            if len(tokens) not in (2, 3):
                raise ParseError(lineno, f"{kind} takes a state id and an optional weight")
            q = _parse_id(tokens[1], lineno)
            w = _parse_weight(tokens[2], lineno) if len(tokens) == 3 else None
            store = initial if kind == "initial" else final
            if q in store:
                raise ParseError(lineno, f"duplicate {kind} declaration for state {q}")
            store[q] = w
            max_id = max(max_id, q)
        elif kind == "trans":
            if len(tokens) not in (4, 5):
                raise ParseError(
                    lineno, "trans takes src, dst, label, and an optional weight"
                )
            src = _parse_id(tokens[1], lineno)
            dst = _parse_id(tokens[2], lineno)
            label = EPSILON if tokens[3] == EPSILON_TOKEN else tokens[3]
            w = _parse_weight(tokens[4], lineno) if len(tokens) == 5 else None
            triples.append((src, label, dst, w))
            max_id = max(max_id, src, dst)
        else:
            raise ParseError(lineno, f"unknown directive {kind!r}")
        has_weight = w is not None
        if weighted is None:
            weighted = has_weight
        elif weighted != has_weight:
            raise MixedWeightedness(
                f"line {lineno} mixes weighted and unweighted directives"
            )
    num_states = max_id + 1
    alphabet = sorted({label for _, label, _, _ in triples if label != EPSILON})
    if weighted:
        return validate_weighted(
            alphabet,
            num_states,
            {q: w for q, w in initial.items()},
            {q: w for q, w in final.items()},
            triples,
        )
    return validate(
        alphabet,
        num_states,
        initial.keys(),
        final.keys(),
        [(src, label, dst) for src, label, dst, _ in triples],
    )


def _label_token(label: str) -> str:
    return EPSILON_TOKEN if label == EPSILON else label


def serialize(a: FiniteAutomaton | WeightedAutomaton | ProductAutomaton) -> str:
    """Canonical text form: initial lines, final lines, sorted transitions.

    parse(serialize(a)) reproduces `a` structurally whenever every symbol of
    the alphabet is actually used (the format has nowhere to record unused
    symbols or states).  Products serialize their underlying automaton,
    preceded by a comment header mapping each composite state id to its
    component states and filter coordinates.
    """
    lines: list[str] = []
    if isinstance(a, ProductAutomaton):
        for s in range(a.underlying.num_states):
            comps = ",".join(map(str, a.components[s]))
            filt = ",".join(map(str, a.filters[s]))
            lines.append(f"# state {s} = ({comps}) filter ({filt})")
        a = a.underlying
    if isinstance(a, WeightedAutomaton):
        for q, w in a.lam:
            lines.append(f"initial {q} {w!r}")
        for q, w in a.rho:
            lines.append(f"final {q} {w!r}")
        for t, w in zip(a.skeleton.transitions, a.weights):
            lines.append(f"trans {t.src} {t.dst} {_label_token(t.label)} {w!r}")
    else:
        for q in sorted(a.initial):
            lines.append(f"initial {q}")
        for q in sorted(a.final):
            lines.append(f"final {q}")
        for t in a.transitions:
            lines.append(f"trans {t.src} {t.dst} {_label_token(t.label)}")
    return "".join(line + "\n" for line in lines)
