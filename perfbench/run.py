"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload eda_scale --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The library is imported from ``src/`` of
that checkout and nowhere else; without it the run fails before printing a
result.  A run sets up its inputs several times (``setup_s`` is the median),
then repeats one fixed round of calls — a single caller, closed loop, no
threads — until the rounds have taken ``--seconds`` in total, then checks
every output against references computed without the library.

Every time is reported in reference seconds: each call is scaled by how
fast the calibration kernel of ``calibrate.py`` ran just before and just
after the ~0.1 s slice of calls it belongs to (see there).  Host seconds
are printed too.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of ``tracing.py`` with ``--trace 1``.
The lines before it print every metric by name and unit, each timing as a
median with the highest percentile that has at least ten samples beyond it,
and the sample count.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import types
from collections import defaultdict
from dataclasses import dataclass, field

import calibrate

# numpy, which the library imports, starts a BLAS worker thread per core
# unless told otherwise.  The benchmark is one caller on one thread, and on a
# busy host that thread's start-up spin made the fresh-interpreter imports of
# setup_s jump between two levels, ~0.1 s apart.  The import probes inherit
# this environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 5
#: host seconds of library calls between two runs of the calibration kernel
SLICE_S = 0.1
#: rounds stop starting once this much wall time has passed, whatever --seconds says
WALL_CAP_S = 140.0
OP_KINDS = ("classify", "witness", "entropy", "cli")
#: the keys of workloads.WORKLOADS, named here so the library is imported first
WORKLOADS = ("eda_scale", "poly_chain", "entropy_cyclic", "corpus_small")
#: the library modules the benchmark calls
MODULES = (
    "core", "product", "graphs", "analysis", "semiring",
    "entropy", "weighted", "oracle", "fileformat", "cli",
)


class Lib:
    """The library modules the benchmark calls; the tracer swaps in wrapped copies."""

    def __init__(self) -> None:
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"artifact.{name}"))

    def replace(self, module: str, fn: str, wrapper) -> None:
        current = getattr(self, module)
        if isinstance(current, types.ModuleType):
            current = types.SimpleNamespace(**vars(current))
            setattr(self, module, current)
        setattr(current, fn, wrapper)


def import_library() -> Lib:
    if not os.path.isfile(os.path.join(SRC, "artifact", "__init__.py")):
        sys.exit(f"error: no library source under {SRC}")
    sys.path.insert(0, SRC)
    lib = Lib()
    origin = os.path.realpath(lib.core.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"error: artifact imported from {origin}, not from {SRC}")
    return lib


def import_seconds() -> float:
    """Import time of the library in a fresh interpreter, which is waited for.

    The interpreter scales the time itself, by the calibration kernel timed
    just before and after the import on whichever CPU it runs on.
    """
    probe = (
        "import sys, time; sys.path[:0] = sys.argv[1:]; import calibrate; "
        "scaler = calibrate.Scaler(); start = time.perf_counter(); "
        f"import {', '.join(f'artifact.{m}' for m in MODULES)}; "
        "print((time.perf_counter() - start) * scaler.close())"
    )
    proc = subprocess.run([sys.executable, "-c", probe, SRC, HERE],
                          capture_output=True, text=True, check=True, timeout=60)
    return float(proc.stdout.split()[-1])


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    for pct in (99, 95, 90, 75):
        if len(values) * (100 - pct) / 100 >= 10:
            return pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return None


def describe(values: list[float], scale: float = 1.0) -> str:
    line = f"median={statistics.median(values) * scale:.6g}"
    tail = tail_percentile(values)
    if tail is not None:
        line += f" p{tail[0]}={tail[1] * scale:.6g}"
    return line + f" n={len(values)}"


@dataclass
class Setup:
    """The inputs of the run and what setting them up took, in reference seconds."""

    cases: list
    seconds: float
    imports: list[float]
    builds: list[float]


def setup(workload: str, seed: int, lib: Lib, tmpdir: str) -> Setup:
    """Import the library and build the inputs SETUP_REPEATS times each; keep the last build.

    ``setup_s`` is the median fresh-interpreter import plus the median build
    (generation, references, library objects, files), each import and build
    scaled to reference seconds on its own.
    """
    import workloads

    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    gc.collect()
    scaler = calibrate.Scaler()
    builds = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        cases = workloads.WORKLOADS[workload](random.Random(seed))
        workloads.attach(cases, lib, tmpdir)
        elapsed = time.perf_counter() - start
        builds.append(elapsed * scaler.close())
    return Setup(cases, statistics.median(imports) + statistics.median(builds), imports, builds)


@dataclass
class Rounds:
    """What the timed loop saw, in reference seconds: per-round and per-call times, verdicts."""

    walls: list[float] = field(default_factory=list)  # summed call times of each round
    raw_walls: list[float] = field(default_factory=list)  # the same in host seconds
    factors: list[float] = field(default_factory=list)  # reference seconds per host second, per slice
    per_kind: dict[str, list[float]] = field(default_factory=lambda: {k: [] for k in OP_KINDS})
    op_times: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    spans: list[tuple[int, int]] = field(default_factory=list)  # span index range of each round
    op_factors: dict[int, float] = field(default_factory=dict)  # op span index -> its factor
    attempted: int = 0
    failed: int = 0


def time_rounds(ops, seconds: float, tracer) -> Rounds:
    """Repeat the round until its summed call time reaches `seconds`; check every output.

    After every SLICE_S host seconds of calls, and at the end of each round,
    the calibration kernel runs; the calls of that slice are scaled by the
    factor it gives.  Kernel runs and ``gc.collect()`` fall outside every
    timed call.
    """
    seen = Rounds()
    reported: set[str] = set()
    measured = 0.0
    wall_start = time.perf_counter()
    gc.collect()
    scaler = calibrate.Scaler()
    while measured < seconds and time.perf_counter() - wall_start < WALL_CAP_S:
        results, pending, slice_s = [], [], 0.0
        mark = tracer.open("bench.round") if tracer else None
        for i, op in enumerate(ops):
            span = tracer.open(f"bench.{op.kind}") if tracer else None
            t0 = time.perf_counter()
            try:
                out, err = op.run(), None
            except Exception as exc:  # a raising op counts as failed
                out, err = None, exc
            elapsed = time.perf_counter() - t0
            if tracer:
                tracer.close(span)
            pending.append((op, elapsed, out, err, span))
            slice_s += elapsed
            last = i == len(ops) - 1
            if slice_s >= SLICE_S or last:
                if last:
                    if tracer:
                        tracer.close(mark)
                        seen.spans.append((mark, len(tracer.spans)))
                    gc.collect()
                factor = scaler.close()
                seen.factors.append(factor)
                results += [(*item, factor) for item in pending]
                pending, slice_s = [], 0.0
        raw = sum(elapsed for _, elapsed, _, _, _, _ in results)
        measured += raw
        seen.raw_walls.append(raw)
        seen.walls.append(sum(elapsed * factor for _, elapsed, _, _, _, factor in results))
        sums = dict.fromkeys(OP_KINDS, 0.0)
        for op, elapsed, out, err, span, factor in results:
            seen.attempted += 1
            seen.op_times[op.kind].append(elapsed * factor)
            if span is not None:
                seen.op_factors[span] = factor
            if op.kind in sums:
                sums[op.kind] += elapsed * factor
            try:
                ok = err is None and op.check(out)
            except Exception as exc:  # a check that cannot read the output fails it
                ok, err = False, exc
            if not ok:
                seen.failed += 1
                key = f"{op.kind}:{op.case.name}"
                if key not in reported:
                    reported.add(key)
                    print(f"FAILED {key}: {err!r}" if err else f"FAILED {key}: wrong output", file=sys.stderr)
                    if err is not None:
                        traceback.print_exception(err, file=sys.stderr)
        for kind in OP_KINDS:
            seen.per_kind[kind].append(sums[kind])
    return seen


def end_to_end(seen: Rounds, prep: Setup) -> dict:
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"  setup_s {prep.seconds:.6g} s  (median import {statistics.median(prep.imports):.6g} s"
          f" + median build {statistics.median(prep.builds):.6g} s, n={SETUP_REPEATS} each)")
    print(f"  run_s {describe(seen.walls)} s  (calls of one round; in host s {describe(seen.raw_walls)})")
    for kind in OP_KINDS:
        print(f"  {kind}_s {describe(seen.per_kind[kind])} s"
              f"  (per round; per call {describe(seen.op_times[kind], 1e3)} ms)")
    classify_ms = [t * 1e3 for t in seen.op_times["classify"]]
    if len(classify_ms) >= 100:  # p90 then has ten samples beyond it
        p50, p90 = (statistics.quantiles(classify_ms, n=10, method="inclusive")[i] for i in (4, 8))
        print(f"  classify_p50_ms {p50:.6g} ms  classify_p90_ms {p90:.6g} ms  (n={len(classify_ms)})")
    print(f"  peak_rss_mb {peak_rss_mb:.6g} MB")
    return {
        "setup_s": (prep.seconds, "s"),
        "run_s": (statistics.median(seen.walls), "s"),
        **{f"{kind}_s": (statistics.median(seen.per_kind[kind]), "s") for kind in OP_KINDS},
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(seen: Rounds, tracer, checker) -> tuple[dict, bool]:
    """(metrics, whether every exact counter agreed between rounds)."""
    from tracing import layer_metrics

    layer, absent, unsteady = layer_metrics(tracer, seen.spans, seen.op_factors)
    metrics = {name: (m["value"], m["unit"]) for name, m in layer.items()}
    metrics["semiring.s_abs_err"] = (max(checker.s_err.values(), default=0.0), "nats")
    metrics["semiring.l_abs_err"] = (max(checker.l_err.values(), default=0.0), "symbols")
    metrics["entropy.bracket_misses"] = (sum(checker.bracket_misses.values()), "count")
    metrics["bench.traced_run_s"] = (statistics.median(seen.walls), "s")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    misses = sorted(name for name, miss in checker.bracket_misses.items() if miss)
    print(f"  bracket misses: {', '.join(misses) or 'none'} "
          f"(of {len(checker.bracket_misses)} instances with a reference H)")
    if absent:
        print(f"  absent (binding missing): {', '.join(absent)}")
    if unsteady:
        print(f"  counters that differ between rounds: {', '.join(unsteady)}", file=sys.stderr)
    return metrics, not unsteady


def run(args) -> int:
    lib = import_library()
    import workloads

    tmproot = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmproot, exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=tmproot)
    try:
        prep = setup(args.workload, args.seed, lib, tmpdir)
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install(lib)
        checker = workloads.Checker()
        ops = workloads.round_ops(prep.cases, lib, checker)
        seen = time_rounds(ops, args.seconds, tracer)

        print(f"workload {args.workload} seed {args.seed}: {len(seen.walls)} rounds, "
              f"{len(ops)} calls per round, one caller, closed loop")
        print(f"inputs: {workloads.summary(prep.cases)}")
        print(f"host speed: {describe(seen.factors)} reference s per host s, one per slice"
              f" (calibration kernel at {calibrate.REF_S * 1e3:g} ms = 1)")
        print(f"fail_ratio {seen.failed / seen.attempted:.6g} "
              f"({seen.failed} of {seen.attempted} calls raised or mismatched)")
        correct = seen.failed == 0
        if tracer is None:
            metrics = end_to_end(seen, prep)
        else:
            metrics, steady = per_layer(seen, tracer, checker)
            correct = correct and steady
            os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
            tracer.dump(os.path.join(ROOT, ".perfbench_out", f"spans-{args.workload}-{args.seed}.json"))

        print(json.dumps({
            "correct": correct,
            "attempted": seen.attempted,
            "failed": seen.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }))
        return 0 if correct else 1
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            os.rmdir(tmproot)
        except OSError:
            pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not math.isfinite(args.seconds) or args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
