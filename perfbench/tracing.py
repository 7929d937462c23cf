"""Spans and per-layer metrics for the traced run (``--trace 1``).

The library is not instrumented.  Instead, inside the benchmark process
only, the module-level names through which one ``artifact`` module calls
another are rebound to wrappers that record a span per call: for example
``artifact.analysis.square`` and ``artifact.entropy.shortest_distance``.
The analysis stages that ``classify`` reaches only through its own module
(``eda_witness``, ``_ida_sites``, ...) are rebound in ``artifact.analysis``
itself, and the benchmark's own calls into public functions go through
wrapped copies.  Calls a module makes to its own functions otherwise stay
inside the caller's span: a cube's inner square counts as cube time.

A span is (name, start, end, parent, info); spans live in memory and are
written out when the run ends.  A span's self time is its duration minus
the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict

#: defining module -> traced functions; span names drop a leading underscore
TRACED = {
    "core": ("trim", "is_trim", "has_epsilon_cycle", "useful_states"),
    "product": ("intersect", "square", "cube"),
    "graphs": ("strongly_connected_components", "reachable"),
    "analysis": ("classify", "verify_witness"),
    "semiring": ("shortest_distance",),
    "entropy": ("entropy_report",),
    "oracle": ("growth_table", "count_paths"),
    "fileformat": ("parse", "serialize"),
    "cli": ("main",),
}

#: analysis stages rebound inside artifact.analysis, where classify finds them
ANALYSIS_STAGES = (
    "eda_witness", "_find_eda_scc", "_epsilon_core", "_ida_sites", "_dpa_impl", "ida_witness",
)


def _product_size(result):
    return result.underlying.num_states, result.underlying.num_transitions


INFO = {
    "product.square": _product_size,
    "product.cube": _product_size,
    "graphs.strongly_connected_components": lambda result: result[1],
}


def span_name(module: str, fn: str) -> str:
    return f"{module}.{fn.lstrip('_')}"


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index, info]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.bound: set[str] = set()

    def wrap(self, name: str, fn):
        info = INFO.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if info is not None:
                rec[4] = info(result)
            return result

        return traced

    def install(self, lib) -> None:
        """Rebind the traced names and point ``lib``'s modules at wrapped copies."""
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name == "artifact" or name.startswith("artifact.")
        }
        for modname, fns in TRACED.items():
            home = modules.get(f"artifact.{modname}")
            for fn in fns:
                original = getattr(home, fn, None) if home else None
                if original is None:
                    continue
                name = span_name(modname, fn)
                wrapper = self.wrap(name, original)
                self.bound.add(name)
                for other, mod in modules.items():
                    if mod is home:
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                lib.replace(modname, fn, wrapper)
        analysis = modules.get("artifact.analysis")
        for fn in ANALYSIS_STAGES:
            original = getattr(analysis, fn, None)
            if original is not None:
                name = span_name("analysis", fn)
                setattr(analysis, fn, self.wrap(name, original))
                self.bound.add(name)

    def open(self, name: str) -> int:
        """Start a span the benchmark closes itself (rounds and ops)."""
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "info"], "spans": self.spans}, fh)


# --- per-layer metrics -----------------------------------------------------------------

SCC = "graphs.strongly_connected_components"

#: metric -> (unit, spans it needs, per-round function of a RoundView);
#: "count" metrics must come out identical in every round
LAYER_METRICS: dict[str, tuple] = {}


def _metric(name, unit, needs, fn):
    LAYER_METRICS[name] = (unit, tuple(needs), fn)


class RoundView:
    """Self times, counts and call details of the spans in one round.

    Times are in reference seconds: a span takes the factor of the op span
    (``bench.<kind>``) it runs under.
    """

    def __init__(self, spans: list[list], lo: int, hi: int, op_factors: dict[int, float]) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        # per span name: (parent's name, info, duration) of every call
        self.rows: dict[str, list] = defaultdict(list)
        child_s: dict[int, float] = defaultdict(float)
        factor: dict[int, float] = {}
        for i in range(lo, hi):
            name, start, end, parent, _ = spans[i]
            child_s[parent] += end - start
            factor[i] = op_factors.get(i) or factor.get(parent, 1.0)
        for i in range(lo, hi):
            name, start, end, parent, info = spans[i]
            self.self_s[name] += ((end - start) - child_s[i]) * factor[i]
            self.calls[name] += 1
            pname = spans[parent][0] if parent >= 0 else ""
            self.rows[name].append((pname, info, (end - start) * factor[i]))

    def scc_under(self, parent: str, what: str) -> float:
        rows = [(info, dur) for pname, info, dur in self.rows[SCC] if pname == parent]
        return sum(info if what == "count" else dur for info, dur in rows)

    def classify_in_entropy_s(self) -> float:
        return sum(dur for pname, _, dur in self.rows["analysis.classify"] if pname == "entropy.entropy_report")


for _name, _span in (
    ("core.trim_s", "core.trim"),
    ("core.has_epsilon_cycle_s", "core.has_epsilon_cycle"),
    ("core.is_trim_s", "core.is_trim"),
    ("core.useful_states_s", "core.useful_states"),
    ("product.square_s", "product.square"),
    ("product.cube_s", "product.cube"),
    ("product.intersect_s", "product.intersect"),
    ("graphs.scc_s", SCC),
    ("graphs.reachable_s", "graphs.reachable"),
    ("analysis.classify_s", "analysis.classify"),
    ("analysis.eda_witness_s", "analysis.eda_witness"),
    ("analysis.epsilon_core_s", "analysis.epsilon_core"),
    ("analysis.ida_pairs_s", "analysis.ida_sites"),
    ("analysis.dpa_s", "analysis.dpa_impl"),
    ("analysis.verify_witness_s", "analysis.verify_witness"),
    ("analysis.ida_witness_s", "analysis.ida_witness"),
    ("analysis.find_eda_scc_s", "analysis.find_eda_scc"),
    ("semiring.shortest_distance_s", "semiring.shortest_distance"),
    ("entropy.entropy_report_s", "entropy.entropy_report"),
    ("oracle.growth_table_s", "oracle.growth_table"),
    ("oracle.count_paths_s", "oracle.count_paths"),
    ("fileformat.parse_s", "fileformat.parse"),
    ("fileformat.serialize_s", "fileformat.serialize"),
    ("cli.main_s", "cli.main"),
):
    _metric(_name, "s", [_span], lambda v, s=_span: v.self_s[s])

for _name, _span in (
    ("core.has_epsilon_cycle_calls", "core.has_epsilon_cycle"),
    ("core.is_trim_calls", "core.is_trim"),
    ("product.square_builds", "product.square"),
    ("product.cube_builds", "product.cube"),
    ("graphs.scc_calls", SCC),
    ("analysis.classify_calls", "analysis.classify"),
    ("semiring.calls", "semiring.shortest_distance"),
    ("oracle.growth_table_calls", "oracle.growth_table"),
):
    _metric(_name, "count", [_span], lambda v, s=_span: v.calls[s])

for _name, _span, _k in (
    ("product.square_states", "product.square", 0),
    ("product.square_transitions", "product.square", 1),
    ("product.cube_states", "product.cube", 0),
    ("product.cube_transitions", "product.cube", 1),
):
    _metric(_name, "count", [_span], lambda v, s=_span, k=_k: sum(info[k] for _, info, _ in v.rows[s]))

for _name, _parent, _what in (
    ("graphs.square_scc_s", "analysis.find_eda_scc", "s"),
    ("graphs.square_scc_count", "analysis.find_eda_scc", "count"),
    ("graphs.cube_scc_s", "analysis.ida_sites", "s"),
    ("graphs.cube_scc_count", "analysis.ida_sites", "count"),
):
    _metric(_name, "count" if _what == "count" else "s", [SCC, _parent],
            lambda v, p=_parent, w=_what: v.scc_under(p, w))

_metric("entropy.classify_s", "s", ["analysis.classify", "entropy.entropy_report"],
        lambda v: v.classify_in_entropy_s())


def layer_metrics(
    tracer: Tracer, rounds: list[tuple[int, int]], op_factors: dict[int, float]
) -> tuple[dict, list[str], list[str]]:
    """(metrics, absent names, counters that moved between rounds).

    Times are medians over rounds of the per-round sums, in reference
    seconds; counts are the value of one round, and every round must agree
    on them.
    """
    views = [RoundView(tracer.spans, lo, hi, op_factors) for lo, hi in rounds]
    metrics, absent, unsteady = {}, [], []
    for name, (unit, needs, fn) in LAYER_METRICS.items():
        if not all(n in tracer.bound for n in needs):
            absent.append(name)
            continue
        values = [fn(v) for v in views]
        if unit == "count":
            if len(set(values)) > 1:
                unsteady.append(name)
            value = values[0]
        else:
            value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, absent, unsteady
