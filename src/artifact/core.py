"""Core ε-NFA representation: validation, trimming, ε-cycle detection.

States are dense integers 0..n-1 so that the quadratic and cubic product
constructions can use plain index arrays instead of hash lookups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    DanglingStateId,
    DuplicateTransition,
    ReservedLabelInAlphabet,
    SymbolNotInAlphabet,
)
from .graphs import dfs_postorder, reachable

#: Label of transitions that consume no input.
EPSILON = ""

#: File-format spelling of EPSILON; rejected as an ordinary symbol so that
#: serialization stays unambiguous.
EPSILON_TOKEN = "<eps>"


class Transition(NamedTuple):
    src: int
    label: str
    dst: int


@dataclass(frozen=True)
class FiniteAutomaton:
    """Immutable nondeterministic finite automaton with ε-transitions.

    ``transitions`` is kept sorted by (src, label, dst); a transition index —
    used by paths and witnesses — therefore identifies the same transition in
    any two structurally equal automata.  Instances are hashable and safe to
    share between threads.
    """

    alphabet: tuple[str, ...]
    num_states: int
    initial: frozenset[int]
    final: frozenset[int]
    transitions: tuple[Transition, ...]

    @property
    def states(self) -> range:
        return range(self.num_states)

    @property
    def num_transitions(self) -> int:
        return len(self.transitions)

    def is_epsilon(self, index: int) -> bool:
        return self.transitions[index].label == EPSILON


def validate(
    alphabet: Iterable[str],
    num_states: int,
    initial: Iterable[int],
    final: Iterable[int],
    transitions: Iterable[tuple[int, str, int]],
) -> FiniteAutomaton:
    """Check a raw description and build a FiniteAutomaton from it.

    Raises ReservedLabelInAlphabet, DanglingStateId, DuplicateTransition or
    SymbolNotInAlphabet when the description breaks a type invariant.
    """
    seen: set[str] = set()
    sigma: list[str] = []
    for token in alphabet:
        if token in (EPSILON, EPSILON_TOKEN):
            raise ReservedLabelInAlphabet(f"alphabet may not contain {token!r}")
        if token not in seen:
            seen.add(token)
            sigma.append(token)

    if num_states < 0:
        raise DanglingStateId(f"negative state count {num_states}")

    def check_state(q: int, what: str) -> int:
        if not isinstance(q, int) or q < 0 or q >= num_states:
            raise DanglingStateId(f"{what} {q!r} outside 0..{num_states - 1}")
        return q

    init = frozenset(check_state(q, "initial state") for q in initial)
    fin = frozenset(check_state(q, "final state") for q in final)

    edges = []
    for src, label, dst in transitions:
        check_state(src, "transition source")
        check_state(dst, "transition target")
        if label != EPSILON and label not in seen:
            raise SymbolNotInAlphabet(f"transition label {label!r} not in alphabet")
        edges.append(Transition(src, label, dst))
    edges.sort()
    for a, b in zip(edges, edges[1:]):
        if a == b:
            raise DuplicateTransition(f"transition {a} given more than once")

    return FiniteAutomaton(tuple(sigma), num_states, init, fin, tuple(edges))


def useful_states(a: FiniteAutomaton) -> set[int]:
    """States both reachable from an initial state and co-reachable to a final one."""
    forward = [[] for _ in a.states]
    backward = [[] for _ in a.states]
    for t in a.transitions:
        forward[t.src].append(t.dst)
        backward[t.dst].append(t.src)
    return reachable(a.initial, forward) & reachable(a.final, backward)


def is_trim(a: FiniteAutomaton) -> bool:
    return len(useful_states(a)) == a.num_states


def trim(a: FiniteAutomaton) -> FiniteAutomaton:
    """Restrict to states on some successful path, compacting ids.

    The accepted language and the number of accepting paths per string are
    unchanged: discarded states cannot occur on a successful path.
    """
    return _trim(a)[0]


def _trim(
    a: FiniteAutomaton,
) -> tuple[FiniteAutomaton, tuple[list[int], list[int]] | None]:
    """trim(a) with the maps from its ids back to a's.

    The maps are (order, tmap): order[s] is the a-state behind state s and
    tmap[i] the a-transition behind transition i.  They are None, and a
    itself is returned, when every state is useful.
    """
    keep = useful_states(a)
    if len(keep) == a.num_states:
        return a, None
    order = sorted(keep)
    remap = {old: new for new, old in enumerate(order)}
    tmap: list[int] = []
    edges: list[Transition] = []
    for i, t in enumerate(a.transitions):
        if t.src in keep and t.dst in keep:
            tmap.append(i)
            edges.append(Transition(remap[t.src], t.label, remap[t.dst]))
    trimmed = FiniteAutomaton(
        alphabet=a.alphabet,
        num_states=len(order),
        initial=frozenset(remap[q] for q in a.initial if q in keep),
        final=frozenset(remap[q] for q in a.final if q in keep),
        transitions=tuple(edges),
    )
    return trimmed, (order, tmap)


def has_epsilon_cycle(a: FiniteAutomaton) -> bool:
    """True iff some cycle uses only ε-transitions."""
    eps_succ: list[list[int]] = [[] for _ in a.states]
    for t in a.transitions:
        if t.label == EPSILON:
            eps_succ[t.src].append(t.dst)
    return dfs_postorder(a.states, eps_succ)[1]


# --- paths ------------------------------------------------------------------
#
# A path is a sequence of transition indices.  These helpers are the "derived
# views" used by witness checking; they deliberately do no caching.


def is_valid_path(a: FiniteAutomaton, path: Sequence[int]) -> bool:
    """True iff consecutive transitions are adjacent and all indices exist."""
    prev_dst = None
    for i in path:
        if not 0 <= i < len(a.transitions):
            return False
        t = a.transitions[i]
        if prev_dst is not None and t.src != prev_dst:
            return False
        prev_dst = t.dst
    return True


def path_source(a: FiniteAutomaton, path: Sequence[int]) -> int:
    return a.transitions[path[0]].src


def path_target(a: FiniteAutomaton, path: Sequence[int]) -> int:
    return a.transitions[path[-1]].dst


def path_label(a: FiniteAutomaton, path: Sequence[int]) -> tuple[str, ...]:
    """Concatenation of the non-ε labels along the path."""
    return tuple(
        a.transitions[i].label for i in path if a.transitions[i].label != EPSILON
    )
