"""Reference answers that do not use the code under test.

Every function here works on plain descriptions — ``Raw`` for automata,
``RawWeighted`` for probabilistic ones — and never imports ``artifact``.
The benchmark checks the library's outputs against these: witness paths are
re-walked edge by edge, path counts come from a separate dynamic program,
and entropies come from exact linear solves instead of relaxation sweeps.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from dataclasses import dataclass, field

import numpy as np

EPS = ""


@dataclass(frozen=True)
class Raw:
    """An ε-NFA as the library's ``validate`` takes it.

    ``edges`` is sorted by (src, label, dst), the order the library keeps its
    transitions in, so a transition index means the same edge on both sides.
    """

    alphabet: tuple[str, ...]
    n: int
    initial: tuple[int, ...]
    final: tuple[int, ...]
    edges: tuple[tuple[int, str, int], ...]

    @staticmethod
    def make(n, initial, final, edges) -> "Raw":
        edges = tuple(sorted(set(edges)))
        alphabet = tuple(sorted({lab for _, lab, _ in edges if lab != EPS}))
        return Raw(alphabet, n, tuple(sorted(set(initial))), tuple(sorted(set(final))), edges)


@dataclass(frozen=True)
class RawWeighted:
    """A probabilistic automaton: skeleton plus per-edge and end weights."""

    skeleton: Raw
    weights: tuple[float, ...]  # aligned with skeleton.edges
    lam: dict = field(hash=False)
    rho: dict = field(hash=False)


# --- graph helpers ------------------------------------------------------------


def successors(raw: Raw) -> list[list[int]]:
    succ = [[] for _ in range(raw.n)]
    for s, _, d in raw.edges:
        succ[s].append(d)
    return succ


def reach(starts, succ) -> set[int]:
    seen = set(starts)
    stack = list(starts)
    while stack:
        for nxt in succ[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def trim(raw: Raw) -> Raw:
    """Keep the states on some initial-to-final path, renumbered in order."""
    fwd = successors(raw)
    back = [[] for _ in range(raw.n)]
    for s, _, d in raw.edges:
        back[d].append(s)
    keep = sorted(reach(raw.initial, fwd) & reach(raw.final, back))
    new = {q: i for i, q in enumerate(keep)}
    return Raw.make(
        len(keep),
        [new[q] for q in raw.initial if q in new],
        [new[q] for q in raw.final if q in new],
        [(new[s], lab, new[d]) for s, lab, d in raw.edges if s in new and d in new],
    )


def scc(n: int, succ) -> list[int]:
    """Component id per node (Kosaraju, iterative)."""
    order, seen = [], [False] * n
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(succ[root]))]
        while stack:
            node, it = stack[-1]
            for nxt in it:
                if not seen[nxt]:
                    seen[nxt] = True
                    stack.append((nxt, iter(succ[nxt])))
                    break
            else:
                order.append(node)
                stack.pop()
    pred = [[] for _ in range(n)]
    for u in range(n):
        for v in succ[u]:
            pred[v].append(u)
    comp = [-1] * n
    c = 0
    for root in reversed(order):
        if comp[root] >= 0:
            continue
        comp[root] = c
        stack = [root]
        while stack:
            for prev in pred[stack.pop()]:
                if comp[prev] < 0:
                    comp[prev] = c
                    stack.append(prev)
        c += 1
    return comp


def condensation_degree_bound(raw: Raw) -> int:
    """Cyclic components on the longest condensation chain, minus one.

    A polynomial degree counts sites between distinct cyclic components on
    one chain, so it can never exceed this.
    """
    succ = successors(raw)
    comp = scc(raw.n, succ)
    count = max(comp) + 1
    cyclic = [False] * count
    dag = [set() for _ in range(count)]
    for s, _, d in raw.edges:
        if comp[s] == comp[d]:
            cyclic[comp[s]] = True
        else:
            dag[comp[s]].add(comp[d])
    best: dict[int, int] = {}

    def longest(c: int) -> int:
        if c not in best:
            best[c] = int(cyclic[c]) + max((longest(d) for d in dag[c]), default=0)
        return best[c]

    return max(0, max(longest(c) for c in range(count)) - 1)


# --- paths and witnesses ----------------------------------------------------------


def _walk(raw: Raw, path) -> tuple[int, int, tuple[str, ...]] | None:
    """(source, target, label) of a transition-index path, or None if broken."""
    if not path:
        return None
    at = None
    label = []
    for i in path:
        if not 0 <= i < len(raw.edges):
            return None
        s, lab, d = raw.edges[i]
        if at is not None and s != at:
            return None
        if at is None:
            first = s
        at = d
        if lab != EPS:
            label.append(lab)
    return first, at, tuple(label)


def eda_witness_ok(raw: Raw, state, label, cycle_a, cycle_b) -> bool:
    """Two distinct cycles at one state with one nonempty label."""
    if tuple(cycle_a) == tuple(cycle_b):
        return False
    for cyc in (cycle_a, cycle_b):
        walked = _walk(raw, cyc)
        if walked is None or walked != (state, state, tuple(label)) or not label:
            return False
    return True


def is_site(raw: Raw, p: int, q: int, comp: list[int]) -> bool:
    """Some nonempty word labels paths p→p, p→q and q→q.

    Breadth-first search over state triples started at (p, p, q) and aimed at
    (p, q, q); all three coordinates read a symbol together, and any one of
    them may take an ε step alone.  The p→p and q→q coordinates never leave
    their components.
    """
    if p == q:
        return False
    sym: list[dict[str, list[int]]] = [{} for _ in range(raw.n)]
    eps: list[list[int]] = [[] for _ in range(raw.n)]
    for s, lab, d in raw.edges:
        if lab == EPS:
            eps[s].append(d)
        else:
            sym[s].setdefault(lab, []).append(d)
    cp, cq = comp[p], comp[q]
    start = (p, p, q, False)
    seen = {start}
    queue = deque([start])
    while queue:
        x, y, z, moved = queue.popleft()
        if moved and (x, y, z) == (p, q, q):
            return True
        nexts = []
        for lab, xs in sym[x].items():
            ys, zs = sym[y].get(lab), sym[z].get(lab)
            if ys and zs:
                nexts += [(x2, y2, z2, True) for x2 in xs for y2 in ys for z2 in zs]
        nexts += [(x2, y, z, moved) for x2 in eps[x]]
        nexts += [(x, y2, z, moved) for y2 in eps[y]]
        nexts += [(x, y, z2, moved) for z2 in eps[z]]
        for nxt in nexts:
            if comp[nxt[0]] == cp and comp[nxt[2]] == cq and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return False


def dpa_witness_ok(raw: Raw, pairs, degree: int) -> bool:
    """A chain of `degree` sites, each reachable from the one before."""
    if len(pairs) != degree or degree < 1:
        return False
    succ = successors(raw)
    comp = scc(raw.n, succ)
    for p, q in pairs:
        if not (0 <= p < raw.n and 0 <= q < raw.n) or not is_site(raw, p, q, comp):
            return False
    return all(p2 in reach([q1], succ) for (_, q1), (p2, _) in zip(pairs, pairs[1:]))


def witness_ok(raw: Raw, kind: str, degree, witness: dict | None) -> bool:
    """Check a classification against its witness (as ``as_dict`` gives it)."""
    if kind == "FINITE":
        return witness is None and degree == 0
    if witness is None:
        return False
    if kind == "EXPONENTIAL":
        return witness.get("kind") == "eda" and eda_witness_ok(
            raw, witness["state"], witness["label"], *witness["cycles"]
        )
    if kind == "POLYNOMIAL":
        return witness.get("kind") == "dpa" and dpa_witness_ok(
            raw, [tuple(p) for p in witness["pairs"]], degree
        )
    return False


# --- path counting ---------------------------------------------------------------


def _eps_order(raw: Raw) -> list[int]:
    """States ordered so each ε-successor precedes its source."""
    eps = [[] for _ in range(raw.n)]
    indeg = [0] * raw.n
    for s, lab, d in raw.edges:
        if lab == EPS:
            eps[d].append(s)  # reversed: pop successors first
            indeg[s] += 1
    ready = [q for q in range(raw.n) if indeg[q] == 0]
    order = []
    while ready:
        q = ready.pop()
        order.append(q)
        for s in eps[q]:
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
    if len(order) != raw.n:
        raise ValueError("ε-cycle")
    return order


def count_paths(raw: Raw, word) -> int:
    """Number of accepting paths labeled `word`, ε-steps included."""
    order = _eps_order(raw)
    fin = set(raw.final)
    after = [1 if q in fin else 0 for q in range(raw.n)]  # paths from q reading nothing more
    out = [[] for _ in range(raw.n)]
    for s, lab, d in raw.edges:
        out[s].append((lab, d))
    for k in range(len(word), -1, -1):
        cur = [0] * raw.n
        for q in order:
            total = 1 if (k == len(word) and q in fin) else 0
            for lab, d in out[q]:
                if lab == EPS:
                    total += cur[d]
                elif k < len(word) and lab == word[k]:
                    total += after[d]
            cur[q] = total
        after = cur
    return sum(after[q] for q in raw.initial)


def growth_maxima(raw: Raw, max_len: int) -> list[int]:
    """max over strings of length n of the path count, for n = 0..max_len."""
    order = list(reversed(_eps_order(raw)))  # ε-predecessors first
    eps_in = [[] for _ in range(raw.n)]
    sym_in: dict[str, list[list[int]]] = {a: [[] for _ in range(raw.n)] for a in raw.alphabet}
    for s, lab, d in raw.edges:
        (eps_in[d] if lab == EPS else sym_in[lab][d]).append(s)

    def close(vec):
        out = [0] * raw.n
        for q in order:
            out[q] = vec[q] + sum(out[r] for r in eps_in[q])
        return tuple(out)

    frontier = {close([1 if q in raw.initial else 0 for q in range(raw.n)])}
    maxima = []
    for length in range(max_len + 1):
        if length:
            frontier = {
                v
                for vec in frontier
                for a in raw.alphabet
                for v in [close([sum(vec[r] for r in sym_in[a][q]) for q in range(raw.n)])]
                if any(v)
            }
        maxima.append(max((sum(v[q] for q in raw.final) for v in frontier), default=0))
    return maxima


def _closure_graph(raw: Raw) -> tuple[list[dict[tuple[str, int], int]], list[int]]:
    """An ε-free multigraph with the same path count for every word.

    Each ε-run is folded into the symbol edge after it, and the one after
    the last symbol into a final multiplicity; ``edges[p][(a, s)]`` counts
    the paths ``p ε* -a-> s`` and ``fin[p]`` the ε-paths from p to a final
    state.  Restricted to the states that lie on an accepting path.
    """
    runs: list[dict[int, int]] = [{} for _ in range(raw.n)]  # p -> {r: ε-paths p⇝r}
    eps_out = [[] for _ in range(raw.n)]
    sym_out = [[] for _ in range(raw.n)]
    for s, lab, d in raw.edges:
        (eps_out if lab == EPS else sym_out)[s].append((lab, d))
    for p in _eps_order(raw):
        run = {p: 1}
        for _, d in eps_out[p]:
            for r, c in runs[d].items():
                run[r] = run.get(r, 0) + c
        runs[p] = run
    finals = set(raw.final)
    edges: list[dict[tuple[str, int], int]] = [{} for _ in range(raw.n)]
    fin = [0] * raw.n
    for p in range(raw.n):
        for r, c in runs[p].items():
            fin[p] += c if r in finals else 0
            for key in sym_out[r]:
                edges[p][key] = edges[p].get(key, 0) + c
    fwd = [[d for _, d in edges[p]] for p in range(raw.n)]
    back = [[] for _ in range(raw.n)]
    for p in range(raw.n):
        for d in fwd[p]:
            back[d].append(p)
    useful = reach(raw.initial, fwd) & reach([q for q in range(raw.n) if fin[q]], back)
    edges = [
        {key: c for key, c in edges[p].items() if key[1] in useful} if p in useful else {}
        for p in range(raw.n)
    ]
    return edges, [c if p in useful else 0 for p, c in enumerate(fin)]


def ambiguity(raw: Raw) -> tuple[str, int | None]:
    """(class, degree) from the structure alone; for the small corpus inputs.

    Works on ``_closure_graph``, which counts paths exactly as ``raw`` does.
    EXPONENTIAL iff a component of the square holds a diagonal pair and
    either an off-diagonal pair or a parallel edge; otherwise the degree is
    the longest chain of sites (``p ≠ q`` with one word labeling p→p, p→q
    and q→q), each reachable from the one before.
    """
    edges, fin = _closure_graph(raw)
    n = raw.n
    live = [p for p in range(n) if edges[p] or fin[p]]
    by_sym = [defaultdict(list) for _ in range(n)]
    for p in live:
        for (a, d), c in edges[p].items():
            by_sym[p][a].append((d, c))
    index = {(x, y): i for i, (x, y) in enumerate((x, y) for x in live for y in live)}
    pairs = list(index)
    succ: list[list[int]] = [[] for _ in pairs]
    parallel = []  # diagonal moves along an edge of multiplicity ≥ 2
    for i, (x, y) in enumerate(pairs):
        for a, xs in by_sym[x].items():
            for d1, c1 in xs:
                for d2, _ in by_sym[y].get(a, ()):
                    j = index[(d1, d2)]
                    succ[i].append(j)
                    if x == y and d1 == d2 and c1 > 1:
                        parallel.append((i, j))
    comp = scc(len(pairs), succ)
    diagonal = {comp[index[(p, p)]] for p in live}
    if any(x != y and comp[i] in diagonal for i, (x, y) in enumerate(pairs)):
        return "EXPONENTIAL", None
    if any(comp[i] == comp[j] for i, j in parallel):
        return "EXPONENTIAL", None

    fwd = [[d for _, d in edges[p]] for p in range(n)]
    sites = [(p, q) for p in live for q in live if _site(by_sym, p, q)]
    if not sites:
        return "FINITE", 0
    reachable = {p: reach([p], fwd) for p in live}
    best: dict[tuple[int, int], int] = {}

    def chain(site: tuple[int, int]) -> int:  # longest chain of sites starting here
        if site not in best:
            best[site] = 0  # in progress: meeting it again means a cycle of sites, which no EDA rules out
            best[site] = 1 + max(
                (chain(nxt) for nxt in sites if nxt[0] in reachable[site[1]] and nxt != site),
                default=0,
            )
        elif best[site] == 0:
            raise ValueError(f"site {site} lies on a cycle of sites")
        return best[site]

    return "POLYNOMIAL", max(chain(s) for s in sites)


def _site(by_sym, p: int, q: int) -> bool:
    """Some nonempty word labels paths p→p, p→q and q→q (ε-free graph)."""
    if p == q:
        return False
    seen = set()
    frontier = [(p, p, q)]
    while frontier:
        nxt = []
        for x, y, z in frontier:
            for a, xs in by_sym[x].items():
                ys, zs = by_sym[y].get(a), by_sym[z].get(a)
                if not (ys and zs):
                    continue
                for x2, _ in xs:
                    for y2, _ in ys:
                        for z2, _ in zs:
                            t = (x2, y2, z2)
                            if t == (p, q, q):
                                return True
                            if t not in seen:
                                seen.add(t)
                                nxt.append(t)
        frontier = nxt
    return False


def growth_envelope_ok(kind: str, degree, maxima: list[int]) -> bool:
    """The class-specific growth envelope of the library's acceptance test 6."""
    run, m = [], 0
    for c in maxima:
        m = max(m, c)
        run.append(m)
    if kind == "FINITE":
        return run[12] == run[8]
    if kind == "EXPONENTIAL":
        return run[10] >= 2 * run[5]
    return run[12] <= 13**degree * max(run[4], 1)


# --- entropy closed forms ----------------------------------------------------------


def closed_forms(wa: RawWeighted) -> tuple[float, float, float]:
    """(mass, path entropy S, expected length L) by exact linear solves.

    With M the summed transition matrix, u = λ(I−M)⁻¹ and v = (I−M)⁻¹ρ give
    the mass reaching and leaving each state, so every edge contributes its
    −w·ln w (for S) or w (for L, symbols only) weighted by u[src]·v[dst].
    """
    skel = wa.skeleton
    n = skel.n
    src = np.array([s for s, _, _ in skel.edges], dtype=np.intp)
    dst = np.array([d for _, _, d in skel.edges], dtype=np.intp)
    w = np.array(wa.weights, dtype=float)
    sym = np.array([lab != EPS for _, lab, _ in skel.edges])
    m = np.zeros((n, n))
    np.add.at(m, (src, dst), w)
    lam = np.zeros(n)
    rho = np.zeros(n)
    for q, x in wa.lam.items():
        lam[q] = x
    for q, x in wa.rho.items():
        rho[q] = x
    a = np.eye(n) - m
    u = np.linalg.solve(a.T, lam)
    v = np.linalg.solve(a, rho)

    def entropy_term(x):  # −x·ln x, with 0 at x = 0
        return np.where(x > 0, -x * np.log(np.where(x > 0, x, 1.0)), 0.0)

    flow = u[src] * v[dst]
    s = entropy_term(lam) @ v + flow @ entropy_term(w) + u @ entropy_term(rho)
    length = float((flow * w)[sym].sum())
    return float(lam @ v), float(s), length


def unary_string_entropy(wa: RawWeighted, tail: float = 1e-15) -> float:
    """H over strings aⁿ of a one-symbol automaton, summed until the tail is below `tail`.

    Each length is one string, so p(aⁿ) is the mass of all accepting paths
    reading n symbols; ε-runs are folded in with an exact closure.
    """
    skel = wa.skeleton
    n = skel.n
    eps = np.zeros((n, n))
    step = np.zeros((n, n))
    for (s, lab, d), w in zip(skel.edges, wa.weights):
        (eps if lab == EPS else step)[s, d] += w
    closure = np.linalg.inv(np.eye(n) - eps)
    step = step @ closure
    rho = np.zeros(n)
    for q, x in wa.rho.items():
        rho[q] = x
    vec = np.zeros(n)
    for q, x in wa.lam.items():
        vec[q] = x
    vec = vec @ closure
    h, mass = 0.0, 0.0
    for _ in range(1_000_000):
        p = float(vec @ rho)
        if p > 0:
            h -= p * math.log(p)
            mass += p
        if 1.0 - mass < tail and vec.sum() < tail:
            break
        vec = vec @ step
    return h


# --- text format ----------------------------------------------------------------------


def to_text(raw: Raw | RawWeighted) -> str:
    """The library's documented text format, written without the library."""
    def tok(label: str) -> str:
        return "<eps>" if label == EPS else label

    lines = []
    if isinstance(raw, RawWeighted):
        lines += [f"initial {q} {w!r}" for q, w in sorted(raw.lam.items())]
        lines += [f"final {q} {w!r}" for q, w in sorted(raw.rho.items())]
        lines += [
            f"trans {s} {d} {tok(lab)} {w!r}"
            for (s, lab, d), w in zip(raw.skeleton.edges, raw.weights)
        ]
    else:
        lines += [f"initial {q}" for q in raw.initial]
        lines += [f"final {q}" for q in raw.final]
        lines += [f"trans {s} {d} {tok(lab)}" for s, lab, d in raw.edges]
    return "".join(line + "\n" for line in lines)


def from_text(text: str) -> Raw:
    """Parse an unweighted file in the text format (comments skipped)."""
    initial, final, edges, top = [], [], [], -1
    for line in text.splitlines():
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if tokens[0] == "trans":
            s, d = int(tokens[1]), int(tokens[2])
            edges.append((s, EPS if tokens[3] == "<eps>" else tokens[3], d))
            top = max(top, s, d)
        else:
            q = int(tokens[1])
            (initial if tokens[0] == "initial" else final).append(q)
            top = max(top, q)
    return Raw.make(top + 1, initial, final, edges)
