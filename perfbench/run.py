#!/usr/bin/env python3
"""Run one benchmark workload once and print its metrics.

    python3 perfbench/run.py --workload saddle --seed 1 --seconds 10 --trace 0

Run it from the repository root.  The program is imported from ./src.  One
process, one operation at a time (a closed loop with one client), numpy held
to one thread.  Times are wall times scaled to the reference speed of the
box (see speed.py).  The last line of standard output is a JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  Spans of a traced run are
written to perfbench/out/.
"""

from __future__ import annotations

import os

# Before numpy is imported: its thread pools read these once.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

# numpy is imported here, outside every set-up, so that each set-up does the
# same work; its import is not part of setup_s.
import numpy  # noqa: E402,F401

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
MODULES = ("arena", "payoff", "chain", "solve", "strategy", "verify", "cli")
# Set-ups per run; setup_s is their median.
SETUPS = 5
# Operations beyond the op_ms_tail percentile.
TAIL_BEYOND = 10

END_TO_END = (("ops_per_s", "1/s"), ("op_ms_p50", "ms"), ("op_ms_tail", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


def import_program() -> SimpleNamespace:
    """Import stochgame afresh from ./src, dropping any earlier import."""
    for name in [n for n in sys.modules
                 if n == "stochgame" or n.startswith("stochgame.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"stochgame.{m}") for m in MODULES}
    if not Path(mods["cli"].__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"stochgame imported from {mods['cli'].__file__}, not {SRC}")
    return SimpleNamespace(**mods)


def set_up(name: str, plans, warmup):
    """Everything before the first timed operation: importing stochgame,
    building the inputs, and a warm-up on inputs outside the measured set.
    Returns the program, the inputs, and the set-up's scaled time."""
    before = speed.calibrate()
    started = time.perf_counter()
    sg = import_program()
    wl = workloads.WORKLOADS[name]
    inputs = [wl.build(sg, p) for p in plans]
    for p in warmup:
        built = wl.build(sg, p)
        problem = wl.check(sg, built, wl.run(sg, built))
        if problem:
            raise RuntimeError(f"warm-up {name} {p}: {problem}")
    elapsed = time.perf_counter() - started
    return sg, inputs, speed.scaled(elapsed, before, speed.calibrate())


def timed_pass(sg, name: str, inputs) -> tuple[list, list]:
    """Run every operation once, with a calibration slice before the first
    and after each one.  Returns each operation's scaled time and output."""
    run = workloads.WORKLOADS[name].run
    latencies, outputs = [], []
    clock = time.perf_counter
    before = speed.calibrate()
    for op in inputs:
        t0 = clock()
        try:
            out = run(sg, op)
        except Exception as e:  # a failed operation is counted, not fatal
            out = e
        elapsed = clock() - t0
        after = speed.calibrate()
        latencies.append(speed.scaled(elapsed, before, after))
        outputs.append(out)
        before = after
    return latencies, outputs


def check_outputs(sg, name: str, plans, inputs, outputs) -> int:
    """Failed operations: those that raised or whose output fails its check.
    Each failure is described on stderr."""
    check = workloads.WORKLOADS[name].check
    failed = 0
    for plan, op, out in zip(plans, inputs, outputs):
        if isinstance(out, Exception):
            problem = "".join(traceback.format_exception(out)).strip()
        else:
            problem = check(sg, op, out)
        if problem is not None:
            failed += 1
            if failed <= 5:
                print(f"FAILED {name} {plan}: {problem}", file=sys.stderr)
    return failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(SRC))

    # Choosing the inputs (rejection sampling of arena seeds) is the
    # benchmark's own work: it runs once, before and outside the set-ups.
    sg = import_program()
    plans = workloads.plan(sg, args.workload, args.seed, args.seconds)
    warmup = workloads.warmup_plan(sg, args.workload)
    setup_times = []
    for _ in range(SETUPS):
        sg, ops, elapsed = set_up(args.workload, plans, warmup)
        setup_times.append(elapsed)

    latencies, outputs = timed_pass(sg, args.workload, ops)
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(sg)
        try:
            traced, outputs = timed_pass(sg, args.workload, ops)
        finally:
            tracer.remove()
        values = tracer.metrics() | {tracing.OVERHEAD: sum(traced) - sum(latencies)}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in tracing.metric_specs()}
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    failed = check_outputs(sg, args.workload, plans, ops, outputs)

    if not args.trace:
        n = len(latencies)
        ordered = sorted(latencies)
        values = ((n - failed) / sum(latencies), statistics.median(latencies) * 1e3,
                  ordered[n - TAIL_BEYOND - 1] * 1e3,
                  statistics.median(setup_times),
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        metrics = {name: {"value": v, "unit": unit}
                   for (name, unit), v in zip(END_TO_END, values)}
        print(f"{args.workload}: {n} ops, tail = p{100 * (n - TAIL_BEYOND) / n:.1f}, "
              f"{sum(latencies):.2f} s scaled", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
