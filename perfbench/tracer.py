"""Traced runs: wrap each layer's public functions from outside the program,
keep one span per call in memory, and derive per-layer metrics from them.

A span is (function, start, end, parent span).  A function's self time is
its spans' time minus the time of their child spans; the work the tracer
does to count sizes is recorded as a child span of its own, so it lands in
no layer's self time.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

# (module, function) of every traced function.
TRACED = (
    ("arena", "sample_play"), ("payoff", "class_value"),
    ("payoff", "evaluate_lasso"), ("payoff", "check_submixing"),
    ("payoff", "check_shift_invariance"),
    ("chain", "induce_chain"), ("chain", "bottom_sccs"),
    ("chain", "absorption_from"), ("chain", "discounted_values"),
    ("chain", "solve_linear"),
    ("solve", "node_values"), ("solve", "GridSolver.pair_values"),
    ("solve", "brute_force_value"), ("solve", "best_response_min"),
    ("solve", "stopped_value_mc"), ("verify", "verify_halfpos"),
    ("verify", "search_submixing_violation"),
    ("verify", "search_shift_invariance_violation"), ("verify", "doob_suite"),
    ("cli", "run"),
)
# Workload entry points also report inclusive time.
ENTRY_POINTS = ("solve.brute_force_value", "solve.best_response_min",
                "verify.verify_halfpos", "verify.search_submixing_violation",
                "verify.search_shift_invariance_violation", "verify.doob_suite",
                "cli.run")
COUNTERS = {
    "chain.solve_linear": (("unknowns", "lower"), ("max_n", "lower"),
                           ("max_bits", "lower")),
    "chain.bottom_sccs": (("classes", "lower"), ("distinct_classes", "lower")),
    "chain.induce_chain": (("nodes", "lower"),),
    "verify.search_submixing_violation": (("cases", "lower"),),
    "verify.search_shift_invariance_violation": (("cases", "lower"),),
}
OVERHEAD = "trace.overhead_s"
_COUNTING = "trace.counting"


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in print order."""
    out = []
    for module, func in TRACED:
        name = f"{module}.{func}"
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
        if name in ENTRY_POINTS:
            out.append((f"{name}.incl_s", "s", "lower"))
        out += [(f"{name}.{c}", "count", better) for c, better in COUNTERS.get(name, ())]
    out.append((OVERHEAD, "s", "lower"))
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._func = array("q")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)
        self.class_keys: set = set()
        self._undo: list = []
        self._counting = self._name(_COUNTING)

    def _name(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def install(self, sg) -> None:
        """Replace every traced function in every stochgame module that binds
        it: solve and verify take chain's functions by `from .chain import`,
        so patching chain alone would miss their calls."""
        package = [m for n, m in sorted(sys.modules.items())
                   if n == "stochgame" or n.startswith("stochgame.")]
        for module, func in TRACED:
            owner = getattr(sg, module)
            if "." in func:
                cls_name, attr = func.split(".")
                holders = [getattr(owner, cls_name)]
                original = vars(holders[0])[attr]
            else:
                holders, original = package, getattr(owner, func)
            wrapper = self._wrap(f"{module}.{func}", original)
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, attr, original))
                        setattr(holder, attr, wrapper)

    def remove(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        func = self._name(name)
        count = _COUNT.get(name)
        clock = time.perf_counter
        starts, ends, funcs, parents = self._start, self._end, self._func, self._parent
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(starts)
            parent = stack[-1]
            funcs.append(func)
            parents.append(parent)
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end = ends[span] = clock()
                stack.pop()
            if count is not None:
                count(self, args, kwargs, result)
                funcs.append(self._counting)
                parents.append(parent)
                starts.append(end)
                ends.append(clock())
            return result

        return traced

    def metrics(self) -> dict[str, float]:
        funcs = np.array(self._func, dtype=np.int64)
        parents = np.array(self._parent, dtype=np.int64)
        duration = (np.array(self._end, dtype=np.float64)
                    - np.array(self._start, dtype=np.float64))
        child = np.zeros(len(duration))
        nested = parents >= 0
        np.add.at(child, parents[nested], duration[nested])
        k = len(self.names)
        calls = np.bincount(funcs, minlength=k)
        incl = np.bincount(funcs, weights=duration, minlength=k)
        own = np.bincount(funcs, weights=duration - child, minlength=k)
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            if name == _COUNTING:
                continue
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(own[i])
            if name in ENTRY_POINTS:
                out[f"{name}.incl_s"] = float(incl[i])
            for counter, _ in COUNTERS.get(name, ()):
                out[f"{name}.{counter}"] = self.counts[f"{name}.{counter}"]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names),
            func=np.array(self._func, dtype=np.int64),
            start=np.array(self._start, dtype=np.float64),
            end=np.array(self._end, dtype=np.float64),
            parent=np.array(self._parent, dtype=np.int64))


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _count_solve_linear(tracer, args, kwargs, result) -> None:
    c = tracer.counts
    n = len(args[0] if args else kwargs["matrix"])
    c["chain.solve_linear.unknowns"] += n
    c["chain.solve_linear.max_n"] = max(c["chain.solve_linear.max_n"], n)
    c["chain.solve_linear.max_bits"] = max(
        [c["chain.solve_linear.max_bits"]] + [_bits(x) for x in result])


def _count_bottom_sccs(tracer, args, kwargs, result) -> None:
    """A class's structural key is its member count plus its rows restricted
    to the class and renumbered in member order; colours are ignored."""
    chain = args[0] if args else kwargs["chain"]
    rows = chain.rows()
    tracer.counts["chain.bottom_sccs.classes"] += len(result)
    for cls in result:
        pos = {node: k for k, node in enumerate(cls.nodes)}
        tracer.class_keys.add((len(cls.nodes), tuple(
            tuple(sorted((pos[j], p) for j, p in rows[i].items()))
            for i in cls.nodes)))
    tracer.counts["chain.bottom_sccs.distinct_classes"] = len(tracer.class_keys)


def _count_induce_chain(tracer, args, kwargs, result) -> None:
    tracer.counts["chain.induce_chain.nodes"] += len(result)


def _count_cases(name: str):
    def count(tracer, args, kwargs, result) -> None:
        tracer.counts[f"{name}.cases"] += result.quantities["cases"]
    return count


_COUNT = {
    "chain.solve_linear": _count_solve_linear,
    "chain.bottom_sccs": _count_bottom_sccs,
    "chain.induce_chain": _count_induce_chain,
} | {name: _count_cases(name) for name in ("verify.search_submixing_violation",
                                           "verify.search_shift_invariance_violation")}
