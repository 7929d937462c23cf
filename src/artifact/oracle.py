"""Brute-force ground truth and test plumbing.

Exact path counting by dynamic programming, exhaustive growth tables, the
metamorphic transforms used to cross-check the structural analyses, and a
deterministic random-automaton generator.  Everything here favors obvious
correctness over speed and is meant for desk-scale inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import (
    EPSILON,
    FiniteAutomaton,
    Transition,
    trim,
    validate,
)
from .errors import (
    AlphabetTooLarge,
    EpsilonCycleInput,
    EpsilonInput,
    NotEpsilon,
    SymbolNotInAlphabet,
)
from .graphs import dfs_postorder

GROWTH_MAX_LEN = 14
GROWTH_MAX_SYMBOLS = 4


def _as_tokens(a: FiniteAutomaton, x: Sequence[str]) -> tuple[str, ...]:
    tokens = tuple(x)
    for sym in tokens:
        if sym not in a.alphabet:
            raise SymbolNotInAlphabet(f"symbol {sym!r} not in alphabet {a.alphabet}")
    return tokens


def count_paths_between(
    a: FiniteAutomaton,
    sources: Iterable[int],
    x: Sequence[str],
    targets: Iterable[int],
) -> int:
    """Exact number of paths from `sources` to `targets` labeled x.

    ε-transitions take part in path identity: two paths differing only in
    ε-steps are counted separately.
    """
    eps_arcs: list[list[int]] = [[] for _ in a.states]
    sym_arcs: list[list[tuple[str, int]]] = [[] for _ in a.states]
    for t in a.transitions:
        if t.label == EPSILON:
            eps_arcs[t.src].append(t.dst)
        else:
            sym_arcs[t.src].append((t.label, t.dst))
    # postorder: every ε-successor comes before its source
    order, cyclic = dfs_postorder(a.states, eps_arcs)
    if cyclic:
        raise EpsilonCycleInput("path counts diverge on ε-cycles")
    tokens = _as_tokens(a, x)
    target_set = set(targets)
    # cur[q] = number of paths from q consuming tokens[k:]; ε-moves stay at
    # position k, so within one k states are filled ε-successors first.
    prev: list[int] = []
    for k in range(len(tokens), -1, -1):
        cur = [0] * a.num_states
        for q in order:
            total = 1 if (k == len(tokens) and q in target_set) else 0
            for dst in eps_arcs[q]:
                total += cur[dst]
            if k < len(tokens):
                tok = tokens[k]
                for label, dst in sym_arcs[q]:
                    if label == tok:
                        total += prev[dst]
            cur[q] = total
        prev = cur
    return sum(prev[q] for q in set(sources))


def count_paths(a: FiniteAutomaton, x: Sequence[str]) -> int:
    """da(A, x): the number of successful paths labeled x."""
    return count_paths_between(a, a.initial, x, a.final)


@dataclass(frozen=True)
class GrowthRow:
    length: int
    count: int
    string: tuple[str, ...]  # a witness string reaching `count`; () if none


@dataclass(frozen=True)
class GrowthTable:
    """Per-length maxima of da(A, x), with a lexicographically-first argmax."""

    rows: tuple[GrowthRow, ...]

    def max_count(self) -> int:
        return max(r.count for r in self.rows)


def growth_table(a: FiniteAutomaton, max_len: int) -> GrowthTable:
    """Exhaustive table of max_{|x|=n} da(A, x) for n in 0..max_len.

    Strings with identical path-count vectors are merged as they are
    extended, so the sweep handles the full desk-scale envelope (alphabet
    of at most 4, lengths up to 14 — both hard caps).
    """
    if len(a.alphabet) > GROWTH_MAX_SYMBOLS:
        raise AlphabetTooLarge(
            f"growth tables support at most {GROWTH_MAX_SYMBOLS} symbols, "
            f"got {len(a.alphabet)}"
        )
    if not 0 <= max_len <= GROWTH_MAX_LEN:
        raise ValueError(f"max_len must lie in 0..{GROWTH_MAX_LEN}, got {max_len}")
    n = a.num_states
    eps_pred: list[list[int]] = [[] for _ in range(n)]
    sym_pred: dict[str, list[list[int]]] = {s: [[] for _ in range(n)] for s in a.alphabet}
    for t in a.transitions:
        if t.label == EPSILON:
            eps_pred[t.dst].append(t.src)
        else:
            sym_pred[t.label][t.dst].append(t.src)
    # postorder over ε-predecessors: every state after all its ε-predecessors
    forward, cyclic = dfs_postorder(range(n), eps_pred)
    if cyclic:
        raise EpsilonCycleInput("path counts diverge on ε-cycles")

    def close(vec: list[int]) -> list[int]:
        out = [0] * n
        for q in forward:
            total = vec[q]
            for r in eps_pred[q]:
                total += out[r]
            out[q] = total
        return out

    frontier: dict[tuple[int, ...], tuple[str, ...]] = {
        tuple(close([1 if q in a.initial else 0 for q in range(n)])): ()
    }
    rows = []
    for length in range(max_len + 1):
        if length:
            grown: dict[tuple[int, ...], tuple[str, ...]] = {}
            for vec, s in frontier.items():
                for sym in a.alphabet:
                    raw = [0] * n
                    preds = sym_pred[sym]
                    for q in range(n):
                        for r in preds[q]:
                            raw[q] += vec[r]
                    nv = tuple(close(raw))
                    if any(nv) and nv not in grown:
                        grown[nv] = s + (sym,)
            frontier = grown
        best = -1
        arg: tuple[str, ...] = ()
        for vec, s in frontier.items():
            c = sum(vec[q] for q in a.final)
            if c > best:
                best, arg = c, s
        if best < 0:
            best, arg = 0, ()
        rows.append(GrowthRow(length=length, count=best, string=arg))
    return GrowthTable(rows=tuple(rows))


def eliminate_epsilon_transition(
    a: FiniteAutomaton, e0: Transition | tuple[int, str, int]
) -> FiniteAutomaton:
    """Remove one ε-transition, rerouting the paths that used it.

    The removed edge (p, ε, q) is compensated by a copy (p, l, n) of every
    edge (q, l, n); when that copy already exists, the copy is routed through
    a fresh intermediate state instead so the rerouted path stays distinct
    from the pre-existing one.  If q is final, p becomes final.
    """
    e0 = Transition(*e0)
    if e0 not in a.transitions:
        raise NotEpsilon(f"{e0} is not a transition of the automaton")
    if e0.label != EPSILON:
        raise NotEpsilon(f"{e0} is not an ε-transition")
    edges = [t for t in a.transitions if t != e0]
    taken = set(edges)
    num_states = a.num_states
    for t in a.transitions:
        if t.src != e0.dst:
            continue
        copy = Transition(e0.src, t.label, t.dst)
        if copy in taken:
            mid = num_states
            num_states += 1
            edges.append(Transition(e0.src, t.label, mid))
            edges.append(Transition(mid, EPSILON, t.dst))
        else:
            taken.add(copy)
            edges.append(copy)
    final = set(a.final)
    if e0.dst in a.final:
        final.add(e0.src)
    return validate(a.alphabet, num_states, a.initial, final, edges)


def split_transition(
    a: FiniteAutomaton, e: Transition | tuple[int, str, int]
) -> FiniteAutomaton:
    """Replace a symbol edge (p, l, q) by (p, ε, r), (r, l, q) with fresh r."""
    e = Transition(*e)
    if e.label == EPSILON:
        raise EpsilonInput("only symbol transitions can be split")
    if e not in a.transitions:
        raise ValueError(f"{e} is not a transition of the automaton")
    mid = a.num_states
    edges = [t for t in a.transitions if t != e]
    edges.append(Transition(e.src, EPSILON, mid))
    edges.append(Transition(mid, e.label, e.dst))
    return validate(a.alphabet, a.num_states + 1, a.initial, a.final, edges)


def relabel_states(a: FiniteAutomaton, perm: Sequence[int]) -> FiniteAutomaton:
    """Rename states through a permutation: state q becomes perm[q]."""
    if sorted(perm) != list(range(a.num_states)):
        raise ValueError("perm must be a permutation of the state range")
    return validate(
        a.alphabet,
        a.num_states,
        (perm[q] for q in a.initial),
        (perm[q] for q in a.final),
        ((perm[t.src], t.label, perm[t.dst]) for t in a.transitions),
    )


def reverse(a: FiniteAutomaton) -> FiniteAutomaton:
    """Swap initial and final sets and flip every transition."""
    return validate(
        a.alphabet,
        a.num_states,
        a.final,
        a.initial,
        ((t.dst, t.label, t.src) for t in a.transitions),
    )


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def random_automaton(
    states: int,
    symbols: int,
    density: float,
    eps_density: float = 0.0,
    seed: int = 0,
) -> FiniteAutomaton:
    """Seed-deterministic random automaton, trimmed and free of ε-cycles.

    Initial and final states are drawn disjoint, so accepting anything takes
    at least one transition and density 0 collapses to the empty automaton.
    ε-edges only ever point from lower to higher ids.  The alphabet of the
    result is the set of symbols actually used, so serialization round-trips.
    """
    if states < 1 or symbols < 1:
        raise ValueError("states and symbols must be positive")
    if not 0.0 <= eps_density < 1.0:
        raise ValueError("eps_density must lie in [0, 1)")
    if symbols > len(_LETTERS):
        raise AlphabetTooLarge(f"at most {len(_LETTERS)} symbols supported")
    rng = random.Random(seed)
    alphabet = tuple(_LETTERS[:symbols])
    cap = max(1, states // 3)
    n_init = min(1 + rng.randrange(cap), max(1, states - 1))
    initial = sorted(rng.sample(range(states), n_init))
    rest = sorted(set(range(states)) - set(initial))
    final: list[int] = []
    if rest:
        n_final = min(1 + rng.randrange(cap), len(rest))
        final = sorted(rng.sample(rest, n_final))
    edges = []
    for src in range(states):
        for dst in range(states):
            for sym in alphabet:
                if rng.random() < density:
                    edges.append((src, sym, dst))
    for src in range(states):
        for dst in range(src + 1, states):
            if rng.random() < eps_density:
                edges.append((src, EPSILON, dst))
    a = trim(validate(alphabet, states, initial, final, edges))
    used = tuple(sorted({t.label for t in a.transitions if t.label != EPSILON}))
    if used != a.alphabet:
        a = validate(used, a.num_states, a.initial, a.final, a.transitions)
    return a
