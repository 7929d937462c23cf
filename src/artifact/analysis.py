"""Ambiguity analysis: growth regime of path counts and its degree.

The number of accepting paths per string either stays bounded (FINITE), grows
polynomially (POLYNOMIAL of some degree d ≥ 1), or exponentially
(EXPONENTIAL).  The three regimes are decided structurally:

  * EXPONENTIAL iff some state carries two distinct cycles with the same
    label, i.e. the square A ∩ A has a strongly connected component
    containing both a diagonal state (p, p) and an off-diagonal (q, q').
    It is decided on the ε-free core of A (see below): either two ε-runs
    fold onto one core transition on a cycle, or, per cyclic SCC C of the
    core, the closure of C's diagonal steps from an off-diagonal pair back
    into the diagonal (see _pair_closure).  The closure stops at the first
    such step, and deciding EXPONENTIAL builds no product.  _closures makes
    this decision for every entry point; the IDA and DPA tests below are
    defined only without exponential growth, and ida_pairs and dpa refuse
    it.  Only an EDA witness reads the square: the SCCs of its accessible
    part over the co-reachable states of the input as given, as the
    product worklist leaves it, untrimmed (see _find_eda_scc).
  * Unbounded (infinite) ambiguity iff two states p ≠ q have same-labeled
    cycles joined by a same-labeled path that cannot be slid into one
    another.  Paths that differ only in how an ε-run is split around a
    symbol pump a single path per string, not a growing family, so the test
    runs on an ε-free core of A where every remaining cycle/path/cycle
    configuration genuinely pumps.  _epsilon_core builds that core, with
    its SCCs and id maps, once per entry point; the build trims its input
    and rejects ε-cycles, so classify, witness verification and the
    low-level probes prepare their input in that one pass (see _Core and
    _require_analyzable).  Growth is detected on the core's cube extended
    with marker transitions from (p, q, q)-states to (p, p, q)-states.  The
    site search builds only the part of that marked cube between the SCCs
    of p and of q, a region: the first coordinate stays in SCC(p), the
    third in SCC(q), and the second starts in SCC(p) and moves only to
    states that reach SCC(q) (see _ida_sites).
    Without exponential growth p and q lie in different SCCs, so a region
    is an ordered pair of distinct cyclic SCCs, and no region exists when
    fewer than two SCCs are cyclic.  ida_pairs walks every region,
    ida_criterion stops at the first one with a site.  The walks start from
    the region starts those same closures emit, so only an EDA witness
    explores a square.  The same region walk, started from one (p, p, q),
    is the point query behind witness verification, which only asks
    whether it reaches (p, q, q), and behind ida_witness, which alone reads
    the path back (see _site_walk); the full cube is never built.
  * The polynomial degree is the longest chain of such (p, q) sites along a
    path of the core's condensation.  A DP visits the SCCs in topological
    order and walks a region only while its site could lengthen the chain
    into the region's lower SCC, which the first region with a site
    settles (see _dpa_impl): on a ladder of k cyclic SCCs that is k − 1
    region walks, not the k(k − 1)/2 of the full site search.

Every positive answer can be backed by a witness that re-validates against
the original automaton by direct path checks; core paths are expanded back
to original transition indices first.  An IDA witness is a shortest cube
path (p, p, q) → (p, q, q); among several, the first one met by the
breadth-first region walk, whose successors go by label, then x′, y′, z′,
each in the order of the core's transitions.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, NamedTuple, Sequence

from .core import (
    EPSILON,
    FiniteAutomaton,
    Transition,
    _trim,
    is_trim,
    is_valid_path,
    path_label,
    path_source,
    path_target,
)
from .errors import (
    EpsilonCycleInput,
    ExponentiallyAmbiguousInput,
    InternalInvariantViolation,
    NotTrim,
)
from .graphs import dfs_postorder, reachable, strongly_connected_components
from .product import _explore


class AmbiguityClass(Enum):
    FINITE = "FINITE"
    POLYNOMIAL = "POLYNOMIAL"
    EXPONENTIAL = "EXPONENTIAL"


@dataclass(frozen=True)
class EDAWitness:
    """Two distinct same-labeled cycles at one state."""

    state: int
    label: tuple[str, ...]
    cycle_a: tuple[int, ...]
    cycle_b: tuple[int, ...]

    def as_dict(self) -> dict:
        return {
            "kind": "eda",
            "state": self.state,
            "label": list(self.label),
            "cycles": [list(self.cycle_a), list(self.cycle_b)],
        }


@dataclass(frozen=True)
class IDAWitness:
    """Same-labeled cycles at p and q plus a same-labeled path p -> q."""

    p: int
    q: int
    label: tuple[str, ...]
    path_pp: tuple[int, ...]
    path_pq: tuple[int, ...]
    path_qq: tuple[int, ...]

    def as_dict(self) -> dict:
        return {
            "kind": "ida",
            "p": self.p,
            "q": self.q,
            "label": list(self.label),
            "paths": [list(self.path_pp), list(self.path_pq), list(self.path_qq)],
        }


@dataclass(frozen=True)
class DPAWitness:
    """Ordered chain of IDA sites; consecutive sites are connected in A."""

    pairs: tuple[tuple[int, int], ...]

    def as_dict(self) -> dict:
        return {"kind": "dpa", "pairs": [list(pair) for pair in self.pairs]}


Witness = EDAWitness | IDAWitness | DPAWitness

#: The start map of _closures: region starts as (C₁, starts) lists keyed by C₃.
_Starts = dict[int, list[tuple[int, list[int]]]]


@dataclass(frozen=True)
class AmbiguityReport:
    kind: AmbiguityClass
    degree: int | None  # 0 for FINITE, d >= 1 for POLYNOMIAL, None otherwise
    witness: Witness | None

    def line(self) -> str:
        if self.kind is AmbiguityClass.POLYNOMIAL:
            return f"POLYNOMIAL degree={self.degree}"
        return self.kind.value

    def as_dict(self) -> dict:
        doc: dict = {"class": self.kind.value}
        if self.degree is not None:
            doc["dpa"] = self.degree
        if self.witness is not None:
            doc["witness"] = self.witness.as_dict()
        return doc


class _Core(NamedTuple):
    """The trimmed ε-free core of an automaton t, as the site search walks it.

    fa folds every ε-run of t into the symbol step that follows it: it has
    a transition (q, σ, s) whenever t has an ε-run from q followed by a
    symbol transition (r, σ, s), and q is final whenever an ε-run from q
    reaches a final state; it is then trimmed, which also drops the states
    that t reaches only through ε-runs.  An ε-free t is only trimmed.
    Per-string path counts of the core and of t agree within a factor
    that does not depend on the string, so both sit in the same growth
    regime with the same polynomial degree — except when two distinct runs
    fold onto one core transition whose endpoints are strongly connected.
    Repeating that transition's cycle doubles the number of t's paths per
    turn, so `multiplicity`, which reports this, decides EXPONENTIAL by
    itself; without it t grows exponentially iff the core does (see
    _pair_closure).  It is read off the core's own SCCs, with no pass over
    the untrimmed fold: every state on a cycle of the fold of trim(t) is
    reachable there (a t-path to it, continued along the cycle's first
    step, folds into a path onto the cycle) and co-reachable (any t-path to
    a final state folds into one), so trimming keeps every cycle, and with
    it every transition inside an SCC.

    t need not be trim: the trimmed fold of t is the trimmed fold of
    trim(t), with ids carried through the trim maps, so useless states of
    t move no id, run or witness:
      * a path of t between useful states, such as an ε-run followed by a
        symbol step, visits only useful states;
      * from a reachable state, the depth-first subtree of a useless state
        holds only useless states, which reach no final state; dropping
        them leaves the reversed postorder of the useful states, the first
        ε-run to each of them and the multiplicity counts as in trim(t);
      * a final state that an ε-run from a reachable state reaches is
        useful, so the useful states keep their folded finals.

    lifts[i] expands core transition i into the t-transition indices
    (ε-run, then symbol) it stands for, order[s] names the t-state behind
    core state s, and back maps t-states to core states.  succ[s] maps
    each label to s's successors on it, and inner[s] keeps those that lie
    in s's own SCC (labels without one are dropped).  backward holds plain
    predecessor lists, comp the SCC ids of
    graphs.strongly_connected_components and members their states.
    """

    fa: FiniteAutomaton
    lifts: tuple[tuple[int, ...], ...]
    order: Sequence[int]
    back: dict[int, int]
    n: int
    succ: list[dict[str, list[int]]]
    inner: list[dict[str, list[int]]]
    backward: list[list[int]]
    comp: list[int]
    members: list[list[int]]
    multiplicity: bool


def _epsilon_core(t: FiniteAutomaton) -> _Core:
    """The _Core of any automaton t, which also trims it.

    Raises EpsilonCycleInput when t has an ε-cycle, useful or not: the
    ε-run DFS from every state with an ε-arc meets each ε-cycle, since
    every state on one has an ε-arc.
    """
    eps_arcs: list[list[tuple[int, int]]] = [[] for _ in t.states]
    sym_arcs: list[list[int]] = [[] for _ in t.states]
    for i, tr in enumerate(t.transitions):
        if tr.label == EPSILON:
            eps_arcs[tr.src].append((tr.dst, i))
        else:
            sym_arcs[tr.src].append(i)
    heavy: list[tuple[int, str, int]] = []
    if not any(eps_arcs):
        fold, steps = t, [(i,) for i in range(t.num_transitions)]
    else:
        eps_succ = [[dst for dst, _ in arcs] for arcs in eps_arcs]
        combo: dict[tuple[int, str, int], tuple[int, ...]] = {}
        weight: dict[tuple[int, str, int], int] = {}
        finals: set[int] = set()
        for q in t.states:
            run: dict[int, tuple[int, ...]] = {q: ()}
            count: dict[int, int] = {q: 1}
            if eps_arcs[q]:
                # Reversed depth-first postorder of the ε-run DAG rooted at q,
                # so every state is relaxed after all its ε-predecessors.
                post, cyclic = dfs_postorder((q,), eps_succ)
                if cyclic:
                    raise EpsilonCycleInput("classification requires an ε-cycle-free automaton")
                for r in reversed(post):
                    for dst, i in eps_arcs[r]:
                        count[dst] = min(2, count.get(dst, 0) + count[r])
                        if dst not in run:
                            run[dst] = run[r] + (i,)
            if any(r in t.final for r in run):
                finals.add(q)
            for r in run:
                for i in sym_arcs[r]:
                    tr = t.transitions[i]
                    key = (q, tr.label, tr.dst)
                    if key in weight:
                        weight[key] = min(2, weight[key] + count[r])
                    else:
                        weight[key] = min(2, count[r])
                        combo[key] = run[r] + (i,)
        keys = sorted(combo)
        heavy = [key for key in keys if weight[key] >= 2]
        fold = FiniteAutomaton(
            alphabet=t.alphabet,
            num_states=t.num_states,
            initial=t.initial,
            final=frozenset(finals),
            transitions=tuple(Transition(*key) for key in keys),
        )
        steps = [combo[key] for key in keys]
    fa, maps = _trim(fold)
    order, tmap = maps if maps is not None else (range(t.num_states), range(len(steps)))
    lifts = tuple(steps[i] for i in tmap)
    back = {s: c for c, s in enumerate(order)}
    n = fa.num_states
    succ: list[dict[str, list[int]]] = [{} for _ in range(n)]
    forward: list[list[int]] = [[] for _ in range(n)]
    backward: list[list[int]] = [[] for _ in range(n)]
    for src, label, dst in fa.transitions:
        succ[src].setdefault(label, []).append(dst)
        forward[src].append(dst)
        backward[dst].append(src)
    comp, sccs = strongly_connected_components(n, forward)
    members: list[list[int]] = [[] for _ in range(sccs)]
    for s in range(n):
        members[comp[s]].append(s)
    inner = [
        {
            label: kept
            for label, dsts in succ[s].items()
            if (kept := [d for d in dsts if comp[d] == comp[s]])
        }
        for s in range(n)
    ]
    multiplicity = any(
        q in back and s in back and comp[back[q]] == comp[back[s]] for q, _, s in heavy
    )
    return _Core(
        fa, lifts, order, back, n, succ, inner, backward, comp, members, multiplicity
    )


def _require_analyzable(a: FiniteAutomaton) -> _Core:
    """The _Core of a, which the low-level probes need trim and ε-cycle-free.

    The core build is the input check, in one pass: it rejects every
    ε-cycle, reported here with the probes' own text, and every core state
    is useful in a, so a core as large as a proves a trim.  Only a smaller
    core costs a second useful-states pass, is_trim's.
    """
    try:
        core = _epsilon_core(a)
    except EpsilonCycleInput:
        raise EpsilonCycleInput("analysis requires an ε-cycle-free automaton") from None
    if core.n < a.num_states and not is_trim(a):
        raise NotTrim("analysis requires a trim automaton")
    return core


def _lift_path(lifts: tuple[tuple[int, ...], ...], path: Iterable[int]) -> tuple[int, ...]:
    """Expand a core path back into the t-transition indices it stands for."""
    return tuple(i for step in path for i in lifts[step])


def eda_criterion(a: FiniteAutomaton) -> bool:
    """True iff one state carries two distinct cycles sharing a label."""
    return _closures(_require_analyzable(a)) is None


def eda_witness(a: FiniteAutomaton) -> EDAWitness | None:
    """Extract two distinct same-labeled cycles, or None if there are none.

    _closures decides whether there are any, so only exponential input
    gets a square.
    """
    if _closures(_require_analyzable(a)) is not None:
        return None
    return _find_eda_scc(a)


def _find_eda_scc(t: FiniteAutomaton) -> EDAWitness | None:
    """The cycle pair of an SCC of t's square holding a diagonal and an
    off-diagonal state, or None when there is no such SCC.

    The SCC is the one with the lowest component id, and in it the lowest
    diagonal and off-diagonal state, with trim(t)'s square trimmed and its
    transitions sorted as product.square builds it; t need not be trim, and
    the witness is in t's ids.  Two breadth-first searches inside that
    SCC, from the diagonal state to the off-diagonal one and back, each
    state's successors by label, then target, close a cycle through (p, p)
    whose projections are two distinct same-labeled cycles at p.

    The search runs on the accessible square of t's co-reachable states
    (product._explore's keep, from one co-reach pass over t): trim(t)'s
    worklist in t's ids, since trim renumbers the useful states
    monotonically and keeps their transitions in order.  Without keep, up
    to 3·|useless|² pairs of useless states would be explored, and
    same-labeled cycles behind a dead end put a diagonal and an
    off-diagonal one in one SCC.  One Tarjan pass reads the square untrimmed;
    a square state is dead when it cannot reach a final one.  The dead
    states leave the witness unchanged:
      * a dead state reaches no live one, so the depth-first walk
        completes every dead SCC before it returns to a live state, and no
        dead state is on Tarjan's stack when a live low-link is updated;
        the live DFS order and the completion order of the live SCCs,
        which sets their component ids, stay as in the trimmed square;
      * trimming renumbers monotonically, so it keeps the order of the live
        states and, by the sort key (label rank, target), of each state's
        successors, which is all the breadth-first searches read;
      * no dead state shares an SCC with both a diagonal and an
        off-diagonal state: (p, p, F0) is live, since both sides can run
        along one path from p to a final state, and in a dead (p, p, F1)
        or (p, p, F2) p has no symbol transition (both sides could take it
        to a live (p′, p′, F0)), so one side stays at p while the other
        takes ε-steps, which never return, and it lies on no cycle.
    """
    pred: list[list[int]] = [[] for _ in t.states]
    for tr in t.transitions:
        pred[tr.dst].append(tr.src)
    labels, w1, width, codes, _, keys, derivations, ends = _explore(t, t, reachable(t.final, pred))
    n = len(codes)
    if n > 3 * t.num_states * t.num_states:
        raise InternalInvariantViolation("square grew past 3·|Q|² states")
    # one sort orders every state's run of edges by (label rank, target),
    # and the runs stay where they were: the edges out of s sit from
    # first[s] to ends[s] in ranked as in keys.  Successor tuples of ints
    # leave the cyclic GC's lists at their first collection; lists would
    # stay there and make it walk the whole graph again and again.
    ranked = sorted(keys)
    first = [0, *ends[:-1]]
    dsts = tuple([k % width for k in ranked])
    succ = [dsts[start:end] for start, end in zip(first, ends)]
    comp, count = strongly_connected_components(n, succ)
    diag = [-1] * count
    off = [-1] * count
    for s, code in enumerate(codes):
        if code // w1 == code % w1 // 3:
            if diag[comp[s]] < 0:
                diag[comp[s]] = s
        elif off[comp[s]] < 0:
            off[comp[s]] = s
    found = next((c for c in range(count) if diag[c] >= 0 and off[c] >= 0), None)
    if found is None:
        return None
    there = _bfs_transitions(succ, first, comp, diag[found], off[found])
    back = _bfs_transitions(succ, first, comp, off[found], diag[found])
    if there is None or back is None:
        raise InternalInvariantViolation("SCC members not mutually reachable")
    # an edge's derivation sits where its key sits in its source's run
    loop = []
    for i in there + back:
        k = ranked[i]
        src = k // width // len(labels)
        loop.append(derivations[keys.index(k, first[src], ends[src])])
    cycle_a = tuple(i1 for i1, _ in loop if i1 is not None)
    cycle_b = tuple(i2 for _, i2 in loop if i2 is not None)
    if cycle_a == cycle_b:
        raise InternalInvariantViolation("projected cycles coincide")
    witness = EDAWitness(
        state=codes[diag[found]] // w1,
        label=path_label(t, cycle_a),
        cycle_a=cycle_a,
        cycle_b=cycle_b,
    )
    if not verify_eda_witness(t, witness):
        raise InternalInvariantViolation("extracted cycle pair failed validation")
    return witness


def _bfs_transitions(
    succ: Sequence[Sequence[int]], first: list[int], comp: list[int], start: int, goal: int
) -> list[int] | None:
    """Shortest path start -> goal != start inside start's SCC, or None.

    The path lists its edges as positions first[s] + k, for the k-th
    successor of s.
    """
    c = comp[start]
    parents: dict[int, tuple[int, int]] = {}
    queue = deque([start])
    seen = {start}
    while queue:
        node = queue.popleft()
        for k, dst in enumerate(succ[node]):
            if dst in seen or comp[dst] != c:
                continue
            seen.add(dst)
            parents[dst] = (node, first[node] + k)
            if dst == goal:
                path = [first[node] + k]
                at = node
                while at != start:
                    prev, pidx = parents[at]
                    path.append(pidx)
                    at = prev
                path.reverse()
                return path
            queue.append(dst)
    return None


def _region_cube(
    core: _Core, mid: set[int], starts: list[int]
) -> tuple[
    dict[int, int],
    list[list[int]],
    list[tuple[int, int, int]],
    list[tuple[int, str] | None],
]:
    """Breadth-first closure of starts in the core's cube over C₁ × mid × C₃.

    A triple (x, y, z) is coded (x·n + y)·n + z.  Every cube move reads one
    symbol on all three coordinates (the core is ε-free, so there is no
    filter coordinate): x and z move inside their own SCCs, C₁ and C₃ of
    the starts, and y only to states in mid; a start's y need not lie in
    mid.  A y's successors in mid are filtered when the walk first visits
    it.  Nodes are numbered in discovery order; a node's successors are
    walked by label, then x′, y′, z′, each in the order of the core's
    transitions.  Returns the node id of each code, the successor nodes of each node,
    (node, x, y) for every node (x, y, y) with x != y, where a marker edge
    starts, and for each node the code and label of the move that
    discovered it (None for the starts): a breadth-first tree.
    """
    n = core.n
    nn = n * n
    succ, inner = core.succ, core.inner
    between: dict[int, dict[str, list[int]]] = {}
    ids = {code: node for node, code in enumerate(starts)}
    codes = list(starts)
    parents: list[tuple[int, str] | None] = [None] * len(starts)
    arcs: list[list[int]] = []
    marked: list[tuple[int, int, int]] = []
    for node, code in enumerate(codes):  # codes grows while it is walked
        x, rest = divmod(code, nn)
        y, z = divmod(rest, n)
        if y == z and x != y:
            marked.append((node, x, y))
        if (ys := between.get(y)) is None:
            ys = between[y] = {
                label: kept
                for label, dsts in succ[y].items()
                if (kept := [d * n for d in dsts if d in mid])
            }
        zs = inner[z]
        out: list[int] = []
        for label, xs in inner[x].items():
            y2s = ys.get(label)
            z2s = zs.get(label)
            if y2s is None or z2s is None:
                continue
            for x2 in xs:
                for y2 in y2s:
                    base = x2 * nn + y2
                    for z2 in z2s:
                        c = base + z2
                        d = ids.get(c)
                        if d is None:
                            d = ids[c] = len(codes)
                            codes.append(c)
                            parents.append((code, label))
                        out.append(d)
        arcs.append(out)
    return ids, arcs, marked, parents


def _pair_closure(core: _Core, scc: int, cyclic: Sequence[bool]) -> dict[int, list[int]] | None:
    """The closure of the diagonal {(p, p) : p ∈ C} of a cyclic SCC C, as region starts.

    A pair (x, y) is coded x·n + y.  A move reads one symbol on both
    coordinates: x along the inner arcs of C, y along any arc of the core,
    so x stays in C and y in reach(C); the core is ε-free, so no filter
    coordinate is needed.  A depth-first walk discovers the pairs, and each
    pair (x, y) with y in another cyclic SCC C₃ gives the start (x, x, y)
    of region (C, C₃) (see _ida_sites); the starts are returned bucketed
    by C₃, in discovery order.  The walk returns None at the first move
    from an off-diagonal pair into the diagonal; without exponential
    growth there is none, and the closure is complete.

    The automaton t behind the core grows exponentially (EDA) iff
    multiplicity is set (see _Core) or such a move exists for some C,
    i.e. iff the core's square has an SCC holding a diagonal and an
    off-diagonal state; that square is neither built nor Tarjan-ed:
      * the closure restricted to C × C is the closure of the diagonal
        under same-labeled pairs of C's inner arcs, because a y-path that
        leaves C never comes back;
      * every move from an off-diagonal pair into the diagonal has y ∈ C,
        because y is reached from C and steps into C;
      * all of C's diagonal lies in one SCC of the square, since the
        diagonal of a path inside C links any two of its states;
      * an EDA SCC holding (p, p) lies in C × C for the C ∋ p, since its
        cycles project onto cycles through p, so the closure reaches its
        states, and on its path from an off-diagonal state back to (p, p)
        the last off-diagonal state steps into the diagonal;
      * conversely, a move from (x, y), reached from some (p, p), into
        (d, d) closes the cycle (p, p) → (x, y) → (d, d) → (p, p), whose
        states are useful in the square because the core is trim.
    """
    n, inner, succ, comp = core.n, core.inner, core.succ, core.comp
    stack = [p * n + p for p in core.members[scc]]
    seen = set(stack)
    starts: dict[int, list[int]] = {}
    while stack:
        x, y = divmod(stack.pop(), n)
        ys = succ[y]
        for label, x2s in inner[x].items():
            y2s = ys.get(label)
            if y2s is None:
                continue
            for x2 in x2s:
                base = x2 * n
                for y2 in y2s:
                    if (c := base + y2) not in seen:
                        seen.add(c)
                        stack.append(c)
                        if (c3 := comp[y2]) != scc and cyclic[c3]:
                            starts.setdefault(c3, []).append((base + x2) * n + y2)
                    elif x2 == y2 and x != y:
                        return None
    return starts


def _closures(core: _Core) -> _Starts | None:
    """The start map: the walk starts of every region (C₁, C₃), keyed by C₃.

    They are what the _pair_closure of each cyclic SCC C₁ yields, as
    (C₁, starts) lists in ascending C₁, the order the closures run in.  q
    is reached from C₁ in a start (p, p, q), so C₃ < C₁.  The map is empty
    when fewer than two SCCs are cyclic.

    None when the automaton behind the core grows exponentially: when
    multiplicity is set or some closure steps back into the diagonal (see
    _pair_closure).  This is the one place that decides EXPONENTIAL.
    """
    if core.multiplicity:
        return None
    cyclic = [bool(core.inner[states[0]]) for states in core.members]
    into: _Starts = {}
    for c1, is_cyclic in enumerate(cyclic):
        if is_cyclic:
            if (starts := _pair_closure(core, c1, cyclic)) is None:
                return None
            for c3, bucket in starts.items():
                into.setdefault(c3, []).append((c1, bucket))
    return into


def _region_sites(core: _Core, mid: set[int], starts: list[int]) -> list[tuple[int, int]]:
    """The sites of one region, by a _region_cube walk and one Tarjan pass.

    The walk's marker sources (x, y, y) get their edge to (x, x, y), which
    is a start (see _ida_sites), and (x, y) is a site iff the marker lies
    inside an SCC of the region.
    """
    ids, arcs, marked, _ = _region_cube(core, mid, starts)
    n = core.n
    markers = []
    for node, x, y in marked:
        target = ids[(x * n + x) * n + y]
        arcs[node].append(target)
        markers.append((node, target, (x, y)))
    scc, _ = strongly_connected_components(len(arcs), arcs)
    return [pair for s, t, pair in markers if scc[s] == scc[t]]


def _each_region_sites(core: _Core, into: _Starts) -> Iterator[list[tuple[int, int]]]:
    """The _region_sites of every region of a start map, with one coreach pass per C₃."""
    for c3, sources in into.items():
        mid = reachable(core.members[c3], core.backward)
        for _, starts in sources:
            yield _region_sites(core, mid, starts)


def _ida_sites(core: _Core) -> set[tuple[int, int]] | None:
    """IDA pairs of the ε-free core, in its own ids, by the marked-cube criterion.

    The marked cube adds a marker edge from every (p, q, q) to (p, p, q),
    p != q, and (p, q) is a site iff that marker lies inside a strongly
    connected component.  The whole cube is never built.  On a cycle
    through a marker the first coordinate returns to p and the third to q,
    so they stay in the SCCs C₁ ∋ p and C₃ ∋ q, which are cyclic because
    every cube move reads a symbol; each middle coordinate precedes the
    next marker, so it reaches C₃.  The search therefore runs once per
    ordered pair (C₁, C₃) of cyclic SCCs, on the region C₁ × coreach(C₃) ×
    C₃, with one Tarjan pass over the region and its markers
    (_region_sites); coreach(C₃) is computed once per C₃ that some region
    has, so an SCC that no closure reaches, such as the top one, gets
    none.  Each middle coordinate also follows a marker, so it lies in
    reach(C₁), but that bound needs no filter: every walk starts with
    y ∈ C₁ and y only moves forward, so each y the walk visits is in
    reach(C₁) already.

    Returns None when growth is exponential (see _closures); without it
    no site joins two states of one SCC, so only pairs C₁ ≠ C₃ are
    searched.  The region walks start from the start map of _closures,
    which the _pair_closure of C₁'s diagonal fills, so no square is built.
    These starts are exact:
      * every site's start is among them: the site's word w leads p → p
        and p → q, so (p, p) → (p, q) in the closure;
      * every marker target is a start, as the Tarjan pass needs: a region
        move takes (x, y, z) to (x′, y′, z′) by a closure move from (x, z)
        to (x′, z′), so a marker source (x, y, y) reached from a start has
        (x, y) in the closure, and its target (x, x, y) is a start;
      * extra starts are harmless: a marker (p, q, q) → (p, p, q) inside
        an SCC of the region is a site whichever start led there, since
        around its cycle, on the word w read, the first and third
        coordinates loop at p and q, and the first coordinate's path up to
        the last marker, continued by the middle coordinate's last leg,
        leads p → q.
    Every start is accessible in the cube, since (p, p) → (x, y) on w gives
    (p, p, p) → (x, x, y), and every path (p, p, q) → (p, q, q) lies in the
    region, which is why _site_walk finds the witness paths there.

    This is the full site search, for ida_pairs; the degree needs far fewer
    regions (see _dpa_impl), and ida_criterion stops at the first site.
    """
    if (into := _closures(core)) is None:
        return None
    return {site for sites in _each_region_sites(core, into) for site in sites}


def ida_criterion(a: FiniteAutomaton) -> bool:
    """True iff path counts grow without bound (polynomially or worse).

    Decided as _growth decides it: exponential growth is unbounded, and
    below it a site is what makes growth unbounded, so the region search
    stops at the first region that has one.
    """
    core = _require_analyzable(a)
    into = _closures(core)
    return into is None or any(_each_region_sites(core, into))


def ida_pairs(a: FiniteAutomaton) -> frozenset[tuple[int, int]]:
    """All (p, q) sites found by the marked-cube criterion on the ε-free core.

    Each site contributes a same-labeled cycle/path/cycle configuration
    genuinely pumping the path count (configurations that merely slide an
    ε-run around a symbol are not sites — they pump one path per string).
    Sites are defined only below exponential growth: on exponential input
    this raises ExponentiallyAmbiguousInput, as dpa does.
    """
    core = _require_analyzable(a)
    if (sites := _ida_sites(core)) is None:
        raise ExponentiallyAmbiguousInput("growth is exponential; sites are undefined")
    order = core.order
    return frozenset((order[p], order[q]) for p, q in sites)


def _site_walk(
    core: _Core, p: int, q: int
) -> tuple[dict[int, int], list[tuple[int, str] | None]] | None:
    """The breadth-first region walk from (p, p, q), p != q, in the core's cube.

    Every path (p, p, q) → (p, q, q) lies in the region of _ida_sites for
    SCC(p), SCC(q), so the walk runs there, with one reach pass for
    coreach(SCC(q)).  When SCC(q) is out of p's reach, p has no successor
    in it and the walk ends at its start.  Returns the node ids and the
    tree of _region_cube, or None when the walk misses (p, q, q).
    """
    n = core.n
    mid = reachable(core.members[core.comp[q]], core.backward)
    ids, _, _, parents = _region_cube(core, mid, [(p * n + p) * n + q])
    return (ids, parents) if (p * n + q) * n + q in ids else None


def ida_witness(a: FiniteAutomaton, p: int, q: int) -> IDAWitness | None:
    """The three same-labeled paths p → p, p → q, q → q backing a site.

    They are the projections of a shortest cube path (p, p, q) → (p, q, q)
    of the ε-free core, read off the tree of _site_walk and lifted back to
    a's transitions.  Among several shortest paths the first one
    breadth-first search meets is taken, with each triple's successors in
    the order of _region_cube.  Returns None when there is no such path,
    i.e. when the pair pumps nothing.
    """
    core = _require_analyzable(a)
    if p == q:
        return None
    cp, cq = core.back.get(p), core.back.get(q)
    if cp is None or cq is None or (tree := _site_walk(core, cp, cq)) is None:
        return None
    ids, parents = tree
    n = core.n
    # sorted, ε-free transitions: (src, label, dst) names one, found by bisection
    trs = core.fa.transitions
    steps: list[tuple[int, ...]] = []
    code, here = (cp * n + cq) * n + cq, (cp, cq, cq)
    while (link := parents[ids[code]]) is not None:
        code, label = link
        prev = (code // (n * n), code // n % n, code % n)
        steps.append(tuple(bisect_left(trs, (s, label, d)) for s, d in zip(prev, here)))
        here = prev
    path_pp, path_pq, path_qq = (
        _lift_path(core.lifts, reversed(leg)) for leg in zip(*steps)
    )
    witness = IDAWitness(
        p=p,
        q=q,
        label=path_label(a, path_pq),
        path_pp=path_pp,
        path_pq=path_pq,
        path_qq=path_qq,
    )
    if not verify_ida_witness(a, witness):
        raise InternalInvariantViolation("extracted site paths failed validation")
    return witness


def _dpa_impl(core: _Core, into: _Starts) -> tuple[int, DPAWitness | None]:
    """Longest chain of the core's sites along one condensation path.

    into is the core's start map (see _closures), so no EDA is allowed.
    best(C) is the longest chain ending in SCC C.  The SCCs are visited in
    descending component id, a topological order, and best(C₃) starts at
    the highest best over C₃'s condensation predecessors, read off
    `backward`.  Then the cyclic C₁ with starts into C₃ are tried in descending
    (best(C₁), C₁), and region (C₁, C₃) is walked (_region_sites) only
    while it could improve on C₃'s parent; the first region with a site
    settles C₃.  This is exact: C₁ > C₃, so best(C₁) is final before C₃ is
    visited, and a region without a site only lets the next one be tried.
    So most regions are never walked: on a ladder of k cyclic SCCs, k − 1
    of the k(k − 1)/2 that _ida_sites walks.

    The chain is the one a relaxation of every plain condensation edge and
    every site would give, with its tie-break: sources in descending id,
    plain edges before sites, sites in sorted (p, q) order, and only a
    strict gain replaces a parent.  So a site of C₁
    replaces C₃'s parent iff (best(C₁) + 1, C₁) exceeds (best, source) of
    the parent, also on a tie with a plain parent of lower id, and the
    smallest site of the region is the link.  The witness names the sites
    by the states of the automaton behind the core.
    """
    if not into:
        return 0, None
    comp, members, backward = core.comp, core.members, core.backward
    count = len(members)
    best = [0] * count
    parent: list[tuple[int, tuple[int, int] | None] | None] = [None] * count
    for c3 in range(count - 1, -1, -1):
        # the highest-id predecessor of the highest best; only a gain over 0 is a parent
        top = (0, -1)
        for s in members[c3]:
            for src in backward[s]:
                if (c := comp[src]) != c3 and (best[c], c) > top:
                    top = (best[c], c)
        if top[0]:
            parent[c3] = (top[1], None)
        mid = None
        sources = into.get(c3, ())
        for c1, starts in sorted(sources, key=lambda src: (best[src[0]], src[0]), reverse=True):
            if (best[c1] + 1, c1) <= top:
                break
            if mid is None:
                mid = reachable(members[c3], backward)
            if sites := _region_sites(core, mid, starts):
                top = (best[c1] + 1, c1)
                parent[c3] = (c1, min(sites))
                break
        best[c3] = top[0]
    degree = max(best)
    if degree == 0:
        return degree, None
    node = best.index(degree)
    chain: list[tuple[int, int]] = []
    while parent[node] is not None:
        node, tag = parent[node]
        if tag is not None:
            chain.append(tag)
    chain.reverse()
    if len(chain) != degree:
        raise InternalInvariantViolation("site chain reconstruction mismatch")
    order = core.order
    return degree, DPAWitness(pairs=tuple((order[p], order[q]) for p, q in chain))


def _growth(core: _Core) -> tuple[int | None, DPAWitness | None]:
    """Growth of an automaton from its ε-free core (see _epsilon_core).

    Returns (None, None) when growth is exponential, which _closures
    decides on the core alone; else (degree, DPA witness) of the pruned
    chain DP, whose sites, all between two distinct SCCs once EDA is
    excluded, come from the SCC-pair regions of the core's cube (see
    _ida_sites for why their starts are exact), so this path builds no
    product.
    """
    if (into := _closures(core)) is None:
        return None, None
    return _dpa_impl(core, into)


def dpa(a: FiniteAutomaton) -> int:
    """Degree of polynomial growth: 0 = bounded, d >= 1 = Θ(n^d) path counts."""
    return dpa_with_witness(a)[0]


def dpa_with_witness(a: FiniteAutomaton) -> tuple[int, DPAWitness | None]:
    """Like dpa(), also returning the chain of sites realizing the degree."""
    degree, witness = _growth(_require_analyzable(a))
    if degree is None:
        raise ExponentiallyAmbiguousInput("growth is exponential; no polynomial degree")
    return degree, witness


def classify(a: FiniteAutomaton, want_witness: bool = False) -> AmbiguityReport:
    """Full ambiguity classification; accepts untrimmed input.

    The ε-free core build trims a and rejects its ε-cycles, also those
    among useless states (see _epsilon_core).  Witnesses refer to the
    states and transition indices of the automaton as passed in, not of
    its trimmed core; an EDA witness is searched on a as given.
    """
    degree, witness = _growth(_epsilon_core(a))
    if degree is None:
        if not want_witness:
            return AmbiguityReport(AmbiguityClass.EXPONENTIAL, None, None)
        if (eda := _find_eda_scc(a)) is None:
            raise InternalInvariantViolation("exponential growth without an EDA SCC")
        return AmbiguityReport(AmbiguityClass.EXPONENTIAL, None, eda)
    if degree == 0:
        return AmbiguityReport(AmbiguityClass.FINITE, 0, None)
    return AmbiguityReport(AmbiguityClass.POLYNOMIAL, degree, witness if want_witness else None)


def _legs_ok(a: FiniteAutomaton, label: tuple[str, ...], legs: Iterable[tuple]) -> bool:
    """True iff label is nonempty and each (path, src, dst) leg is a
    nonempty valid path src → dst of a that reads label."""
    return bool(label) and all(
        path and is_valid_path(a, path) and path_label(a, path) == label
        and (path_source(a, path), path_target(a, path)) == (src, dst)
        for path, src, dst in legs
    )


def verify_eda_witness(a: FiniteAutomaton, w: EDAWitness) -> bool:
    """Check the two cycles directly against the automaton."""
    return w.cycle_a != w.cycle_b and _legs_ok(
        a, w.label, ((w.cycle_a, w.state, w.state), (w.cycle_b, w.state, w.state))
    )


def verify_ida_witness(a: FiniteAutomaton, w: IDAWitness) -> bool:
    """Check the cycle/path/cycle triple directly against the automaton."""
    return w.p != w.q and _legs_ok(
        a, w.label, ((w.path_pp, w.p, w.p), (w.path_pq, w.p, w.q), (w.path_qq, w.q, w.q))
    )


def verify_dpa_witness(
    a: FiniteAutomaton, w: DPAWitness, degree: int | None = None
) -> bool:
    """Re-derive every site of the chain and check the links between them.

    Each site is searched in its SCC-pair region of the cube of a's ε-free
    core (see _ida_sites), which also trims a and rejects its ε-cycles.
    """
    if not w.pairs or (degree is not None and len(w.pairs) != degree):
        return False
    core = _epsilon_core(a)
    for p, q in w.pairs:
        cp, cq = core.back.get(p), core.back.get(q)
        if p == q or cp is None or cq is None or _site_walk(core, cp, cq) is None:
            return False
    # the sites' states are useful, and so is every state of a path between two
    succ: list[list[int]] = [[] for _ in a.states]
    for tr in a.transitions:
        succ[tr.src].append(tr.dst)
    for (_, q1), (p2, _) in zip(w.pairs, w.pairs[1:]):
        if p2 not in reachable([q1], succ):
            return False
    return True


def verify_witness(a: FiniteAutomaton, w: Witness) -> bool:
    """Dispatch to the checker matching the witness kind."""
    if isinstance(w, EDAWitness):
        return verify_eda_witness(a, w)
    if isinstance(w, IDAWitness):
        return verify_ida_witness(a, w)
    if isinstance(w, DPAWitness):
        return verify_dpa_witness(a, w)
    raise TypeError(f"not a witness: {w!r}")


# Deprecated names of eda_criterion and ida_criterion: pytest collects any
# module-level test_* function imported into a test module.
test_eda = eda_criterion
test_ida = ida_criterion
