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
    (p, p, q)-states.
  * The polynomial degree is the longest chain of such (p, q) sites along a
    path of the core's condensation.

Every positive answer can be backed by a witness that re-validates against
the original automaton by direct path checks; core paths are expanded back
to original transition indices first.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from enum import Enum

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
from .product import ProductAutomaton, _cube, cube, square


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


def test_eda(a: FiniteAutomaton) -> bool:
    """True iff one state carries two distinct cycles sharing a label."""
    _require_analyzable(a)
    return _find_eda_scc(square(a)) is not None


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
    sq = square(a)
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


def _ida_sites(cb: ProductAutomaton) -> set[tuple[int, int]]:
    """IDA pairs of a trim, ε-cycle-free automaton, by the marked-cube criterion.

    cb is the automaton's cube.  It is extended with marker edges from every
    (p, q, q)-projecting state to every (p, p, q)-projecting state (p != q).
    A pair (p, q) is a site iff one of its marker edges lies inside a
    strongly connected component that also contains a symbol-labeled cube
    transition.
    """
    fa = cb.underlying
    sources: dict[tuple[int, int], list[int]] = defaultdict(list)
    targets: dict[tuple[int, int], list[int]] = defaultdict(list)
    for s in range(fa.num_states):
        x, y, z = cb.components[s]
        if x != y and y == z:
            sources[(x, y)].append(s)
        elif x == y and y != z:
            targets[(x, z)].append(s)
    full = _adjacency(fa)
    markers: list[tuple[int, int, tuple[int, int]]] = []
    for pair, srcs in sources.items():
        tgts = targets.get(pair)
        if not tgts:
            continue
        for s in srcs:
            for t in tgts:
                markers.append((s, t, pair))
                full[s].append(t)
    comp, count = strongly_connected_components(fa.num_states, full)
    has_symbol = [False] * count
    for tr in fa.transitions:
        if tr.label != EPSILON and comp[tr.src] == comp[tr.dst]:
            has_symbol[comp[tr.src]] = True
    return {
        pair
        for s, t, pair in markers
        if comp[s] == comp[t] and has_symbol[comp[s]]
    }


def test_ida(a: FiniteAutomaton) -> bool:
    """True iff path counts grow without bound (polynomially or worse)."""
    _require_analyzable(a)
    core, _, _, cycle_multiplicity = _epsilon_core(a)
    return cycle_multiplicity or bool(_ida_sites(cube(core)))


def ida_pairs(a: FiniteAutomaton) -> frozenset[tuple[int, int]]:
    """All (p, q) sites found by the marked-cube criterion on the ε-free core.

    Meaningful when growth is not exponential; each site then contributes a
    same-labeled cycle/path/cycle configuration genuinely pumping the path
    count (configurations that merely slide an ε-run around a symbol are not
    sites — they pump one path per string).
    """
    _require_analyzable(a)
    core, _, order, _ = _epsilon_core(a)
    sites = _ida_sites(cube(core))
    if order is None:
        return frozenset(sites)
    return frozenset((order[p], order[q]) for p, q in sites)


def _inverse(order: list[int] | None, n: int) -> dict[int, int]:
    """Original id -> compacted id; the identity on range(n) when order is None."""
    if order is None:
        return {s: s for s in range(n)}
    return {old: new for new, old in enumerate(order)}


def _site_path(cb: ProductAutomaton, arcs, p: int, q: int) -> list[int] | None:
    """Shortest symbol-consuming cube path backing site (p, q), or None.

    The path runs from a (p, p, q)-projecting to a (p, q, q)-projecting
    state of cb; arcs is cb's indexed adjacency.
    """
    fa = cb.underlying
    starts = [s for s, c in enumerate(cb.components) if c == (p, p, q)]
    goals = {s for s, c in enumerate(cb.components) if c == (p, q, q)}
    if not starts or not goals:
        return None
    parents: dict[tuple[int, bool], tuple[tuple[int, bool], int]] = {}
    queue = deque((s, False) for s in starts)
    seen = set(queue)
    hit: tuple[int, bool] | None = None
    while queue and hit is None:
        node, flag = queue.popleft()
        for dst, idx in arcs[node]:
            nxt = (dst, flag or fa.transitions[idx].label != EPSILON)
            if nxt in seen:
                continue
            seen.add(nxt)
            parents[nxt] = ((node, flag), idx)
            if nxt[1] and dst in goals:
                hit = nxt
                break
            queue.append(nxt)
    if hit is None:
        return None
    steps: list[int] = []
    key = hit
    while key in parents:
        key, idx = parents[key]
        steps.append(idx)
    steps.reverse()
    return steps


def ida_witness(a: FiniteAutomaton, p: int, q: int) -> IDAWitness | None:
    """Search the core's cube for the three same-labeled paths backing a site.

    Returns None when no symbol-consuming cube path connects a
    (p, p, q)-projecting state to a (p, q, q)-projecting one, i.e. when the
    pair pumps nothing.
    """
    _require_analyzable(a)
    if p == q or not (0 <= p < a.num_states and 0 <= q < a.num_states):
        return None
    core, lifts, order, _ = _epsilon_core(a)
    back = _inverse(order, core.num_states)
    if p not in back or q not in back:
        return None
    cb = cube(core)
    steps = _site_path(cb, _adjacency(cb.underlying, indexed=True), back[p], back[q])
    if steps is None:
        return None

    def project(coord: int) -> tuple[int, ...]:
        core_path = tuple(
            cb.derivations[i][coord]
            for i in steps
            if cb.derivations[i][coord] is not None
        )
        return _lift_path(lifts, core_path)

    witness = IDAWitness(
        p=p,
        q=q,
        label=path_label(a, project(1)),
        path_pp=project(0),
        path_pq=project(1),
        path_qq=project(2),
    )
    if not verify_ida_witness(a, witness):
        raise InternalInvariantViolation("extracted site paths failed validation")
    return witness


def _dpa_impl(
    a: FiniteAutomaton, pairs: set[tuple[int, int]], want_witness: bool
) -> tuple[int, DPAWitness | None]:
    """Longest chain of the sites `pairs` along one condensation path (no EDA allowed)."""
    if not pairs:
        return 0, None
    comp, count = strongly_connected_components(a.num_states, _adjacency(a))
    out: list[list[tuple[int, int, tuple[int, int] | None]]] = [[] for _ in range(count)]
    plain: set[tuple[int, int]] = set()
    for tr in a.transitions:
        cu, cv = comp[tr.src], comp[tr.dst]
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
    """Growth of a trim, ε-cycle-free automaton from one square and one cube.

    Returns (None, EDA witness if want_cycles) when growth is exponential,
    else (degree, DPA witness if want_chain).  When t is its own ε-free
    core, t's square is the cube's left factor; each product is dropped
    after its last use.
    """
    sq = square(t)
    found = _find_eda_scc(sq)
    if found is not None:
        return None, _eda_cycles(t, sq, found) if want_cycles else None
    core, _, order, cycle_multiplicity = _epsilon_core(t)
    if cycle_multiplicity:
        raise InternalInvariantViolation(
            "folded run multiplicity without detected exponential growth"
        )
    if core is t:
        cb = _cube(t, sq)
        del sq
    else:
        del sq
        cb = cube(core)
    sites = _ida_sites(cb)
    del cb
    degree, witness = _dpa_impl(core, sites, want_chain)
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

    All sites are searched on one cube of the trimmed automaton's ε-free core.
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
    cb = cube(core)
    arcs = _adjacency(cb.underlying, indexed=True)
    for p, q in w.pairs:
        cp, cq = to_core.get(to_t[p]), to_core.get(to_t[q])
        if p == q or cp is None or cq is None or _site_path(cb, arcs, cp, cq) is None:
            return False
    del cb, arcs
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
