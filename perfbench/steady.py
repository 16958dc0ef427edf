#!/usr/bin/env python3
"""Steadiness of the benchmark: run each workload in two sets of ten runs,
one seed per run, and print every end-to-end metric's median, quartiles,
spread and shift per set.

    python3 perfbench/steady.py                      # every workload
    python3 perfbench/steady.py --workloads saddle --seconds 5
    python3 perfbench/steady.py --counts             # traced-count determinism

Spread is (q3 - q1) / median with statistics.quantiles(values, n=4); shift
is how much worse the second set's median is than the first's.  Each is
marked OVER where it exceeds the metric's bound in BENCHMARK.json.  --counts
runs each workload traced under two PYTHONHASHSEED values and reports any
per-layer count that differs.  Results go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
COUNTS = ("calls", "nodes", "unknowns", "max_n", "max_bits", "classes",
          "distinct_classes", "cases")
SETS = 2
RUNS = 10
# Seeds SEED0 .. SEED0 + SETS * RUNS - 1, one per run.
SEED0 = 1


def run(workload: str, seed: int, seconds: int, trace: int, env=None) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, env=env, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def steadiness(config: dict, workloads: list[str], seconds: int) -> dict:
    metrics = {m["name"]: m for m in config["end_to_end"]}
    results = {w: [[] for _ in range(SETS)] for w in workloads}
    for k in range(SETS):
        for i in range(RUNS):
            seed = SEED0 + k * RUNS + i
            for w in workloads:          # interleaved, so drift hits all alike
                results[w][k].append(run(w, seed, seconds, 0))
                print(f"set {k} run {i} {w} done", file=sys.stderr, flush=True)
    report = {}
    for w in workloads:
        report[w] = {"failed_share": [
            sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
            for rs in results[w]]}
        for name, m in metrics.items():
            per_set = [summarize([r["metrics"][name]["value"] for r in rs])
                       for rs in results[w]]
            a, b = per_set[0]["median"], per_set[1]["median"]
            shift = (b - a) / a if m["better"] == "lower" else (a - b) / a
            report[w][name] = {"sets": per_set, "bound": m["bound"], "shift": shift}
    return report


def print_report(report: dict) -> None:
    for w, entries in report.items():
        print(f"\n{w}  failed share per set: {entries['failed_share']}")
        for name, e in entries.items():
            if name == "failed_share":
                continue
            sets = "  ".join(f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] "
                             f"spread {s['spread']:.3f}{_over(s['spread'], e)}"
                             for s in e["sets"])
            print(f"  {name:12s} bound {e['bound']:.2f}  {sets}  "
                  f"shift {e['shift']:+.3f}{_over(e['shift'], e)}")


def _over(x: float, entry: dict) -> str:
    return " OVER" if x > entry["bound"] else ""


def count_check(workloads: list[str], seconds: int, seed: int) -> dict:
    """Per-layer counts of two traced runs under different hash seeds."""
    report = {}
    for w in workloads:
        runs = [run(w, seed, seconds, 1, dict(os.environ, PYTHONHASHSEED=h))
                for h in ("1", "2")]
        a, b = ({n: m["value"] for n, m in r["metrics"].items()
                 if n.rsplit(".", 1)[-1] in COUNTS} for r in runs)
        report[w] = {"counts": len(a),
                     "differ": {n: [a[n], b[n]] for n in a if a[n] != b[n]},
                     "metrics": [r["metrics"] for r in runs]}
        print(f"{w}: {len(a)} counts, differing: {report[w]['differ'] or 'none'}")
    return report


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seconds", type=int, default=config["run_seconds"])
    ap.add_argument("--counts", action="store_true")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    OUT.mkdir(exist_ok=True)
    if args.counts:
        report = count_check(workloads, args.seconds, SEED0)
        (OUT / "counts.json").write_text(json.dumps(report, indent=1))
        return 1 if any(r["differ"] for r in report.values()) else 0
    report = steadiness(config, workloads, args.seconds)
    (OUT / "steady.json").write_text(json.dumps(report, indent=1))
    print_report(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
