"""Run workloads over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py --workloads eda_scale,corpus_small --seeds 1-10
    python3 perfbench/collect.py --workloads eda_scale,corpus_small --seeds 1,1,1,1,1

Each run is a separate ``run.py`` process, run one after another; the
workloads alternate within each seed, so a slow stretch of the host hits
them alike.  A seed named twice is run twice, which measures host noise
alone.  ``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``.
For every workload and metric this prints the median over runs, the
quartiles as ``statistics.quantiles(values, n=4)`` gives them, and the
spread — the distance between the quartiles as a share of the median —
then one JSON object with the same numbers as its last line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma-separated, e.g. eda_scale,corpus_small")
    parser.add_argument("--seeds", type=seed_list, required=True, help="e.g. 1-10 or 3,5,8 or 1,1,1")
    parser.add_argument("--seconds", help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()
    if args.seconds is None:
        with open(BENCHMARK, encoding="utf-8") as fh:
            args.seconds = str(json.load(fh)["run_seconds"])
    workloads = args.workloads.split(",")

    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    units: dict[str, str] = {}
    bad = 0
    for seed in args.seeds:
        for workload in workloads:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
                capture_output=True, text=True, check=False,
            )
            lines = proc.stdout.strip().splitlines()
            doc = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if proc.returncode or doc is None or not doc["correct"]:
                bad += 1
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                if doc is None:
                    continue
            for name, metric in doc["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            inputs = next((line for line in lines if line.startswith("inputs: ")), "")
            shown = " ".join(f"{name}={m['value']:.4g}" for name, m in doc["metrics"].items())
            print(f"{workload} seed {seed}: attempted {doc['attempted']} failed {doc['failed']} {shown}"
                  f"\n    {inputs}", flush=True)

    summary: dict[str, dict] = {w: {} for w in workloads}
    for workload in workloads:
        print(workload)
        for name, vals in values[workload].items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else None
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                       "unit": units[name], "n": len(vals)}
            shown = "n/a" if spread is None else f"{spread:.3f}"
            print(f"  {name:32s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {shown} {units[name]}")
    print(json.dumps({"seeds": args.seeds, "failed_runs": bad, "metrics": summary}))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
