"""Ambiguity analysis: growth regime of path counts and its degree.

The number of accepting paths per string either stays bounded (FINITE), grows
polynomially (POLYNOMIAL of some degree d ≥ 1), or exponentially
(EXPONENTIAL).  The three regimes are decided structurally:

  * EXPONENTIAL iff some state carries two distinct cycles with the same
    label — detected on the square A ∩ A as a strongly connected component
    containing both a diagonal state (p, p) and an off-diagonal (q, q').
  * Unbounded (infinite) ambiguity iff two states p ≠ q have same-labeled
    cycles joined by a same-labeled path that cannot be slid into one
    another.  Paths that differ only in how an ε-run is split around a
    symbol pump a single path per string, not a growing family, so the test
    runs on an ε-free core of A (see _epsilon_core) where every remaining
    cycle/path/cycle configuration genuinely pumps: it is detected on the
    core's cube extended with marker transitions from (p, q, q)-states to
    (p, p, q)-states.  The site search builds only the part of that
    marked cube between the SCCs of p and of q: the first coordinate stays
    in SCC(p), the third in SCC(q), and the second runs from one to the
    other (see _ida_sites), so it runs once per ordered pair of cyclic SCCs.
    Without exponential growth p and q lie in different SCCs, so
    classification needs no cube at all when fewer than two SCCs are
    cyclic.  The same region walk, started from one (p, p, q), is the
    point query behind witness verification and ida_witness (see
    _site_path); the full cube is never built.
  * The polynomial degree is the longest chain of such (p, q) sites along a
    path of the core's condensation.

Every positive answer can be backed by a witness that re-validates against
the original automaton by direct path checks; core paths are expanded back
to original transition indices first.  An IDA witness is a shortest cube
path (p, p, q) → (p, q, q); among several, the first one met by the
breadth-first region walk, whose successors go by label, then x′, y′, z′,
each in the order of the core's transitions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple

from .core import (
    EPSILON,
    FiniteAutomaton,
    Transition,
    _trim,
    has_epsilon_cycle,
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
from .product import ProductAutomaton, _square


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


def _require_analyzable(a: FiniteAutomaton) -> None:
    if has_epsilon_cycle(a):
        raise EpsilonCycleInput("analysis requires an ε-cycle-free automaton")
    if not is_trim(a):
        raise NotTrim("analysis requires a trim automaton")


def _adjacency(fa: FiniteAutomaton, indexed: bool = False) -> list[list]:
    """Per-state successors; (successor, transition index) pairs if indexed."""
    adj: list[list] = [[] for _ in fa.states]
    if indexed:
        for i, t in enumerate(fa.transitions):
            adj[t.src].append((t.dst, i))
    else:  # the SCC passes over products; keep this loop bare
        for t in fa.transitions:
            adj[t.src].append(t.dst)
    return adj


def _epsilon_core(
    a: FiniteAutomaton,
) -> tuple[
    FiniteAutomaton,
    tuple[tuple[int, ...], ...] | None,
    list[int] | None,
    bool,
]:
    """Fold ε-runs into the symbol step that follows them.

    Returns (core, lifts, order, cycle_multiplicity).  The core is ε-free
    and trim: it has a transition (q, σ, s) whenever a has an ε-run from q
    followed by a symbol transition (r, σ, s), and q is final whenever an
    ε-run from q reaches a final state.  Per-string path counts of the core
    and of a agree within a factor that does not depend on the string, so
    both automata sit in the same growth regime with the same polynomial
    degree — except when two distinct runs fold onto one core transition
    whose endpoints are strongly connected.  Repeating that transition's
    cycle doubles the number of original paths per turn, so the flag
    `cycle_multiplicity` reporting this situation implies exponential growth
    (always caught by the square test as two distinct same-labeled cycles).

    When a is already ε-free it is returned unchanged with lifts and order
    None.  Otherwise lifts[i] expands core transition i into the
    a-transition indices (ε-run, then symbol) it stands for, and order[s]
    names the a-state behind core state s; order is None when the core
    keeps every state.
    """
    eps_arcs: list[list[tuple[int, int]]] = [[] for _ in a.states]
    sym_arcs: list[list[int]] = [[] for _ in a.states]
    for i, t in enumerate(a.transitions):
        if t.label == EPSILON:
            eps_arcs[t.src].append((t.dst, i))
        else:
            sym_arcs[t.src].append(i)
    if not any(eps_arcs):
        return a, None, None, False
    eps_succ = [[dst for dst, _ in arcs] for arcs in eps_arcs]

    combo: dict[tuple[int, str, int], tuple[int, ...]] = {}
    weight: dict[tuple[int, str, int], int] = {}
    finals: set[int] = set()
    for q in a.states:
        # Reversed depth-first postorder of the ε-run DAG rooted at q, so
        # every state is relaxed after all its ε-predecessors in the run.
        post, _ = dfs_postorder((q,), eps_succ)
        run: dict[int, tuple[int, ...]] = {q: ()}
        count: dict[int, int] = {q: 1}
        for r in reversed(post):
            for dst, i in eps_arcs[r]:
                count[dst] = min(2, count.get(dst, 0) + count[r])
                if dst not in run:
                    run[dst] = run[r] + (i,)
        if any(r in a.final for r in run):
            finals.add(q)
        for r in run:
            for i in sym_arcs[r]:
                t = a.transitions[i]
                key = (q, t.label, t.dst)
                if key in weight:
                    weight[key] = min(2, weight[key] + count[r])
                else:
                    weight[key] = min(2, count[r])
                    combo[key] = run[r] + (i,)

    keys = sorted(combo)
    full = FiniteAutomaton(
        alphabet=a.alphabet,
        num_states=a.num_states,
        initial=a.initial,
        final=frozenset(finals),
        transitions=tuple(Transition(*key) for key in keys),
    )
    cycle_multiplicity = False
    if any(weight[key] >= 2 for key in keys):
        comp, _ = strongly_connected_components(full.num_states, _adjacency(full))
        cycle_multiplicity = any(
            weight[key] >= 2 and comp[key[0]] == comp[key[2]] for key in keys
        )
    # The cube machinery needs a trim automaton; states that a reaches only
    # through ε-runs have no core transition into them and must go.
    core, maps = _trim(full)
    order, tmap = maps if maps is not None else (None, range(len(keys)))
    lifts = tuple(combo[keys[i]] for i in tmap)
    return core, lifts, order, cycle_multiplicity


def _lift_path(
    lifts: tuple[tuple[int, ...], ...] | None, path: tuple[int, ...]
) -> tuple[int, ...]:
    """Expand a core path back into original transition indices."""
    if lifts is None:
        return path
    out: list[int] = []
    for i in path:
        out.extend(lifts[i])
    return tuple(out)


def eda_criterion(a: FiniteAutomaton) -> bool:
    """True iff one state carries two distinct cycles sharing a label."""
    _require_analyzable(a)
    return _find_eda_scc(_square(a)) is not None


def _find_eda_scc(sq: ProductAutomaton):
    """Locate an SCC of the square holding a diagonal and an off-diagonal state.

    Returns (comp array, diagonal state, off-diagonal state) or None.
    """
    fa = sq.underlying
    comp, count = strongly_connected_components(fa.num_states, _adjacency(fa))
    diag = [-1] * count
    off = [-1] * count
    for s in range(fa.num_states):
        q1, q2 = sq.components[s]
        if q1 == q2:
            if diag[comp[s]] < 0:
                diag[comp[s]] = s
        elif off[comp[s]] < 0:
            off[comp[s]] = s
    for c in range(count):
        if diag[c] >= 0 and off[c] >= 0:
            return comp, diag[c], off[c]
    return None


def eda_witness(a: FiniteAutomaton) -> EDAWitness | None:
    """Extract two distinct same-labeled cycles, or None if there are none."""
    _require_analyzable(a)
    sq = _square(a)
    found = _find_eda_scc(sq)
    return None if found is None else _eda_cycles(a, sq, found)


def _eda_cycles(a: FiniteAutomaton, sq: ProductAutomaton, found) -> EDAWitness:
    """The cycle pair behind the SCC that _find_eda_scc(sq) found in a's square."""
    comp, diag_state, off_state = found
    fa = sq.underlying
    arcs = _adjacency(fa, indexed=True)
    allowed = {s for s in range(fa.num_states) if comp[s] == comp[diag_state]}
    there = _bfs_transitions(arcs, diag_state, off_state, allowed)
    back = _bfs_transitions(arcs, off_state, diag_state, allowed)
    if there is None or back is None:
        raise InternalInvariantViolation("SCC members not mutually reachable")
    loop = there + back
    cycle_a = tuple(sq.derivations[i][0] for i in loop if sq.derivations[i][0] is not None)
    cycle_b = tuple(sq.derivations[i][1] for i in loop if sq.derivations[i][1] is not None)
    if cycle_a == cycle_b:
        raise InternalInvariantViolation("projected cycles coincide")
    witness = EDAWitness(
        state=sq.components[diag_state][0],
        label=path_label(a, cycle_a),
        cycle_a=cycle_a,
        cycle_b=cycle_b,
    )
    if not verify_eda_witness(a, witness):
        raise InternalInvariantViolation("extracted cycle pair failed validation")
    return witness


def _bfs_transitions(arcs, start: int, goal: int, allowed: set[int] | None = None):
    """Shortest transition-index path start -> goal with >= 1 edge, or None.

    With start == goal this finds a shortest non-empty cycle through start.
    """
    parents: dict[int, tuple[int, int]] = {}
    queue = deque([start])
    # Never mark `goal` as seen up front, so a cycle back to start is found.
    seen = {start} - {goal}
    while queue:
        node = queue.popleft()
        for dst, idx in arcs[node]:
            if dst in seen or (allowed is not None and dst not in allowed):
                continue
            seen.add(dst)
            parents[dst] = (node, idx)
            if dst == goal:
                path = [idx]
                at = node
                while at != start:
                    prev, pidx = parents[at]
                    path.append(pidx)
                    at = prev
                path.reverse()
                return path
            queue.append(dst)
    return None


class _CoreGraph(NamedTuple):
    """The ε-free core as the site search walks it.

    succ[s] maps each label to s's successors on it, and inner[s] keeps
    those that lie in s's own SCC (labels without one are dropped).
    forward/backward are plain successor/predecessor lists, comp the SCC
    ids of graphs.strongly_connected_components and members their states.
    index maps each core transition to its index; the core is ε-free, so
    (src, label, dst) names one transition.
    """

    n: int
    succ: list[dict[str, list[int]]]
    inner: list[dict[str, list[int]]]
    forward: list[list[int]]
    backward: list[list[int]]
    comp: list[int]
    members: list[list[int]]
    index: dict[Transition, int]


def _core_graph(core: FiniteAutomaton) -> _CoreGraph:
    n = core.num_states
    succ: list[dict[str, list[int]]] = [{} for _ in range(n)]
    forward: list[list[int]] = [[] for _ in range(n)]
    backward: list[list[int]] = [[] for _ in range(n)]
    for src, label, dst in core.transitions:
        succ[src].setdefault(label, []).append(dst)
        forward[src].append(dst)
        backward[dst].append(src)
    comp, count = strongly_connected_components(n, forward)
    members: list[list[int]] = [[] for _ in range(count)]
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
    index = dict(zip(core.transitions, range(core.num_transitions)))
    return _CoreGraph(n, succ, inner, forward, backward, comp, members, index)


def _region_cube(
    g: _CoreGraph, mid: set[int], starts: list[int]
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
    the starts, and y moves inside mid, which must hold every start's y.
    Nodes are numbered in discovery order; a node's successors are walked
    by label, then x′, y′, z′, each in the order of the core's transitions.
    Returns the node id of each code, the successor nodes of each node,
    (node, x, y) for every node (x, y, y) with x != y, where a marker edge
    starts, and for each node the code and label of the move that
    discovered it (None for the starts): a breadth-first tree.
    """
    n = g.n
    nn = n * n
    inner = g.inner
    between = {
        y: {
            label: kept
            for label, dsts in g.succ[y].items()
            if (kept := [d * n for d in dsts if d in mid])
        }
        for y in mid
    }
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
        ys, zs = between[y], inner[z]
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


def _ida_sites(
    g: _CoreGraph, pairs: Iterable[tuple[int, int]], same_scc: bool
) -> set[tuple[int, int]]:
    """IDA pairs of an ε-free trim automaton's _core_graph g, by the marked-cube criterion.

    The marked cube adds a marker edge from every (p, q, q) to (p, p, q),
    p != q, and (p, q) is a site iff that marker lies inside a strongly
    connected component.  The whole cube is never built.  On a cycle
    through a marker the first coordinate returns to p and the third to q,
    so they stay in the SCCs C₁ ∋ p and C₃ ∋ q, which are cyclic because
    every cube move reads a symbol; each middle coordinate follows a marker
    (so it is reachable from C₁) and precedes the next one (so it reaches
    C₃).  The search therefore runs once per ordered pair (C₁, C₃) of
    cyclic SCCs, on the region C₁ × (reach(C₁) ∩ coreach(C₃)) × C₃
    explored from (p, p, q), with one Tarjan pass over the region and its
    markers.  Its sites are exactly those of the trimmed marked cube: a
    cube path (p, p, q) → (p, q, q) reads a word w with p → p, p → q and
    q → q, so (p, p, q) is reached from an initial triple by u·w and
    (p, q, q) reaches a final one by w·v, where u leads from an initial
    state to p and v from q to a final one.  So the exploration starts
    only from the (p, p, q) of the trimmed cube, which are those whose
    (p, q) is a state pair of the core's trimmed square: pairs must hold
    at least these, and then the closure holds only triples of the
    trimmed cube's accessible part (a deterministic core, whose square is
    its diagonal, needs no exploration at all).  The same argument puts
    every path (p, p, q) → (p, q, q) in the trimmed cube and in the region,
    which is why _site_path finds the witness paths there.

    Same-SCC pairs (C₁ = C₃) are searched only when same_scc is true;
    without exponential growth no site joins two states of one SCC.
    """
    n, members = g.n, g.members
    cyclic = [c for c, states in enumerate(members) if g.inner[states[0]]]
    if len(cyclic) < (1 if same_scc else 2):
        return set()
    down = {c: reachable(members[c], g.forward) for c in cyclic}
    up = {c: reachable(members[c], g.backward) for c in cyclic}
    paired = {p * n + q for p, q in pairs if p != q}
    sites: set[tuple[int, int]] = set()
    for c1 in cyclic:
        for c3 in cyclic:
            if (c3 == c1 and not same_scc) or members[c3][0] not in down[c1]:
                continue
            starts = [
                (p * n + p) * n + q
                for p in members[c1]
                for q in members[c3]
                if p * n + q in paired
            ]
            if not starts:
                continue
            ids, arcs, marked, _ = _region_cube(g, down[c1] & up[c3], starts)
            markers = []
            for node, x, y in marked:
                target = ids[(x * n + x) * n + y]  # (x, x, y) is a start
                arcs[node].append(target)
                markers.append((node, target, (x, y)))
            comp, _ = strongly_connected_components(len(arcs), arcs)
            sites.update(pair for s, t, pair in markers if comp[s] == comp[t])
    return sites


def ida_criterion(a: FiniteAutomaton) -> bool:
    """True iff path counts grow without bound (polynomially or worse)."""
    _require_analyzable(a)
    core, _, _, cycle_multiplicity = _epsilon_core(a)
    return cycle_multiplicity or bool(
        _ida_sites(_core_graph(core), _square(core).components, True)
    )


def ida_pairs(a: FiniteAutomaton) -> frozenset[tuple[int, int]]:
    """All (p, q) sites found by the marked-cube criterion on the ε-free core.

    Meaningful when growth is not exponential; each site then contributes a
    same-labeled cycle/path/cycle configuration genuinely pumping the path
    count (configurations that merely slide an ε-run around a symbol are not
    sites — they pump one path per string).
    """
    _require_analyzable(a)
    core, _, order, _ = _epsilon_core(a)
    sites = _ida_sites(_core_graph(core), _square(core).components, True)
    if order is None:
        return frozenset(sites)
    return frozenset((order[p], order[q]) for p, q in sites)


def _inverse(order: list[int] | None, n: int) -> dict[int, int]:
    """Original id -> compacted id; the identity on range(n) when order is None."""
    if order is None:
        return {s: s for s in range(n)}
    return {old: new for new, old in enumerate(order)}


def _site_path(g: _CoreGraph, p: int, q: int) -> list[tuple[int, int, int]] | None:
    """Shortest path (p, p, q) → (p, q, q), p != q, in the cube of g's core, or None.

    Every such path lies in the region of _ida_sites for SCC(p), SCC(q), so
    the path is read off the breadth-first tree that _region_cube grows
    there from (p, p, q).  Each step is given as the three core transition
    indices (x, y, z) that it moves along.
    """
    n = g.n
    down = reachable(g.members[g.comp[p]], g.forward)
    if q not in down:
        return None
    mid = down & reachable(g.members[g.comp[q]], g.backward)
    ids, _, _, parents = _region_cube(g, mid, [(p * n + p) * n + q])
    code = (p * n + q) * n + q
    if code not in ids:
        return None
    index = g.index
    steps: list[tuple[int, int, int]] = []
    x, y, z = p, q, q
    while (link := parents[ids[code]]) is not None:
        code, label = link
        x0, y0, z0 = code // (n * n), code // n % n, code % n
        steps.append((index[x0, label, x], index[y0, label, y], index[z0, label, z]))
        x, y, z = x0, y0, z0
    steps.reverse()
    return steps


def ida_witness(a: FiniteAutomaton, p: int, q: int) -> IDAWitness | None:
    """The three same-labeled paths p → p, p → q, q → q backing a site.

    They are the projections of a shortest cube path (p, p, q) → (p, q, q)
    of the ε-free core (see _site_path), lifted back to a's transitions.
    Among several shortest paths the first one breadth-first search meets
    is taken, with each triple's successors in the order of _region_cube.
    Returns None when there is no such path, i.e. when the pair pumps
    nothing.
    """
    _require_analyzable(a)
    if p == q or not (0 <= p < a.num_states and 0 <= q < a.num_states):
        return None
    core, lifts, order, _ = _epsilon_core(a)
    back = _inverse(order, core.num_states)
    if p not in back or q not in back:
        return None
    steps = _site_path(_core_graph(core), back[p], back[q])
    if steps is None:
        return None
    path_pp, path_pq, path_qq = (_lift_path(lifts, leg) for leg in zip(*steps))
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


def _dpa_impl(
    g: _CoreGraph, pairs: set[tuple[int, int]], want_witness: bool
) -> tuple[int, DPAWitness | None]:
    """Longest chain of the sites `pairs` along one condensation path of g (no EDA allowed)."""
    if not pairs:
        return 0, None
    comp, count = g.comp, len(g.members)
    out: list[list[tuple[int, int, tuple[int, int] | None]]] = [[] for _ in range(count)]
    plain: set[tuple[int, int]] = set()
    for src, dsts in enumerate(g.forward):
        for dst in dsts:
            cu, cv = comp[src], comp[dst]
            if cu != cv and (cu, cv) not in plain:
                plain.add((cu, cv))
                out[cu].append((cv, 0, None))
    for p, q in sorted(pairs):
        cp, cq = comp[p], comp[q]
        if cp <= cq:
            raise InternalInvariantViolation(
                "site ordering contradicts the component order"
            )
        out[cp].append((cq, 1, (p, q)))
    best = [0] * count
    parent: list[tuple[int, tuple[int, int] | None] | None] = [None] * count
    for c in range(count - 1, -1, -1):
        for dst, weight, tag in out[c]:
            if best[c] + weight > best[dst]:
                best[dst] = best[c] + weight
                parent[dst] = (c, tag)
    degree = max(best)
    if degree == 0 or not want_witness:
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
    return degree, DPAWitness(pairs=tuple(chain))


def _order_dpa_pairs(w: DPAWitness | None, order: list[int] | None):
    if w is None or order is None:
        return w
    return DPAWitness(pairs=tuple((order[p], order[q]) for p, q in w.pairs))


def _growth(
    t: FiniteAutomaton, want_cycles: bool, want_chain: bool
) -> tuple[int | None, Witness | None]:
    """Growth of a trim, ε-cycle-free automaton from its square and its core.

    Returns (None, EDA witness if want_cycles) when growth is exponential,
    else (degree, DPA witness if want_chain).  The square decides EDA; the
    sites, all between two distinct SCCs once EDA is excluded, come from
    the SCC-pair regions of the ε-free core's cube.
    """
    sq = _square(t)
    found = _find_eda_scc(sq)
    if found is not None:
        return None, _eda_cycles(t, sq, found) if want_cycles else None
    core, _, order, cycle_multiplicity = _epsilon_core(t)
    if cycle_multiplicity:
        raise InternalInvariantViolation(
            "folded run multiplicity without detected exponential growth"
        )
    # t's square pairs hold the core's: the core's states are t-states, and
    # a word leading to two of them, or from both to final states, in the
    # core does so in t
    to_core = _inverse(order, core.num_states)
    pairs = [
        (to_core[x], to_core[y]) for x, y in sq.components if x in to_core and y in to_core
    ]
    del sq
    g = _core_graph(core)
    sites = _ida_sites(g, pairs, False)
    degree, witness = _dpa_impl(g, sites, want_chain)
    return degree, _order_dpa_pairs(witness, order)


def dpa(a: FiniteAutomaton) -> int:
    """Degree of polynomial growth: 0 = bounded, d >= 1 = Θ(n^d) path counts."""
    _require_analyzable(a)
    degree, _ = _growth(a, False, False)
    if degree is None:
        raise ExponentiallyAmbiguousInput("growth is exponential; no polynomial degree")
    return degree


def dpa_with_witness(a: FiniteAutomaton) -> tuple[int, DPAWitness | None]:
    """Like dpa(), also returning the chain of sites realizing the degree."""
    _require_analyzable(a)
    degree, witness = _growth(a, False, True)
    if degree is None:
        raise ExponentiallyAmbiguousInput("growth is exponential; no polynomial degree")
    return degree, witness


def _remap_witness(w: Witness | None, maps) -> Witness | None:
    """Carry a classify() witness (EDA or DPA) from the trimmed ids back to a's."""
    if w is None or maps is None:
        return w
    order, tmap = maps
    if isinstance(w, EDAWitness):
        return EDAWitness(
            state=order[w.state],
            label=w.label,
            cycle_a=tuple(tmap[i] for i in w.cycle_a),
            cycle_b=tuple(tmap[i] for i in w.cycle_b),
        )
    return DPAWitness(pairs=tuple((order[p], order[q]) for p, q in w.pairs))


def classify(a: FiniteAutomaton, want_witness: bool = False) -> AmbiguityReport:
    """Full ambiguity classification; accepts untrimmed input and trims first.

    Witnesses refer to the states and transition indices of the automaton as
    passed in, not of its trimmed core.
    """
    if has_epsilon_cycle(a):
        raise EpsilonCycleInput("classification requires an ε-cycle-free automaton")
    t, maps = _trim(a)
    return _classify_trim(t, want_witness, maps)


def _classify_trim(
    t: FiniteAutomaton, want_witness: bool = False, maps=None
) -> AmbiguityReport:
    """classify() of a trim, ε-cycle-free automaton, without checking either.

    maps, as returned by core._trim, carry the witness back to the ids of
    the automaton that t was trimmed from.
    """
    if t.num_states == 0 or t.num_transitions == 0:
        return AmbiguityReport(AmbiguityClass.FINITE, 0, None)
    degree, witness = _growth(t, want_witness, want_witness)
    witness = _remap_witness(witness, maps)
    if degree is None:
        return AmbiguityReport(AmbiguityClass.EXPONENTIAL, None, witness)
    if degree == 0:
        return AmbiguityReport(AmbiguityClass.FINITE, 0, None)
    return AmbiguityReport(AmbiguityClass.POLYNOMIAL, degree, witness)


def verify_eda_witness(a: FiniteAutomaton, w: EDAWitness) -> bool:
    """Check the two cycles directly against the automaton."""
    if not w.label or w.cycle_a == w.cycle_b:
        return False
    for cyc in (w.cycle_a, w.cycle_b):
        if not cyc or not is_valid_path(a, cyc):
            return False
        if path_source(a, cyc) != w.state or path_target(a, cyc) != w.state:
            return False
        if path_label(a, cyc) != w.label:
            return False
    return True


def verify_ida_witness(a: FiniteAutomaton, w: IDAWitness) -> bool:
    """Check the cycle/path/cycle triple directly against the automaton."""
    if w.p == w.q or not w.label:
        return False
    legs = (
        (w.path_pp, w.p, w.p),
        (w.path_pq, w.p, w.q),
        (w.path_qq, w.q, w.q),
    )
    for path, src, dst in legs:
        if not path or not is_valid_path(a, path):
            return False
        if path_source(a, path) != src or path_target(a, path) != dst:
            return False
        if path_label(a, path) != w.label:
            return False
    return True


def verify_dpa_witness(
    a: FiniteAutomaton, w: DPAWitness, degree: int | None = None
) -> bool:
    """Re-derive every site of the chain and check the links between them.

    Each site is searched in its SCC-pair region of the cube of the trimmed
    automaton's ε-free core (see _ida_sites).
    """
    if not w.pairs or (degree is not None and len(w.pairs) != degree):
        return False
    t, maps = _trim(a)
    if t.num_states == 0:
        return False
    if has_epsilon_cycle(t):
        raise EpsilonCycleInput("analysis requires an ε-cycle-free automaton")
    to_t = _inverse(maps[0] if maps else None, t.num_states)
    if any(p not in to_t or q not in to_t for p, q in w.pairs):
        return False
    core, _, order, _ = _epsilon_core(t)
    to_core = _inverse(order, core.num_states)
    g = _core_graph(core)
    for p, q in w.pairs:
        cp, cq = to_core.get(to_t[p]), to_core.get(to_t[q])
        if p == q or cp is None or cq is None or _site_path(g, cp, cq) is None:
            return False
    succ = _adjacency(t)
    for (_, q1), (p2, _) in zip(w.pairs, w.pairs[1:]):
        if to_t[p2] not in reachable([to_t[q1]], succ):
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
