"""Command-line surface: solve, best-response, classify, martingale,
simulate, check, verify, reproduce, doob.

Exit codes: 0 confirmed/success, 2 refuted (witness printed), 3 inconclusive,
1 usage or validation error, or standard output closed before all of it
was written.  All randomness is seeded (fixed default) and
identical invocations produce byte-identical structured output.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

from . import solve, verify
from .arena import Arena, ArenaError, parse_arena, random_arena, sample_play
from .payoff import PayoffError, parse_payoff_spec
from .strategy import (
    PureStationaryStrategy, StrategyError, as_finite_memory,
    strategy_from_json,
)

DEFAULT_SEED = 2024

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REFUTED = 2
EXIT_INCONCLUSIVE = 3


RANDOM_KEYS = ("states", "actions", "lo", "hi", "density", "seed", "kind")


def _load_arena(spec: str) -> Arena:
    if spec.startswith("random:"):
        params = {}
        for part in spec[len("random:"):].split(","):
            if part:
                k, _, v = part.partition("=")
                if k not in RANDOM_KEYS:
                    raise ArenaError(f"unknown random: key {k!r}; accepted: "
                                     + ", ".join(RANDOM_KEYS))
                params[k] = v
        return random_arena(
            num_states=int(params.get("states", 4)),
            max_actions=int(params.get("actions", 3)),
            colour_lo=int(params.get("lo", -2)),
            colour_hi=int(params.get("hi", 2)),
            density=Fraction(params.get("density", "1/2")),
            seed=int(params.get("seed", DEFAULT_SEED)),
            kind=params.get("kind", "reward"),
        )
    return parse_arena(Path(spec).read_text())


def _load_strategy(path: str, player: int, arena: Arena):
    strategy = strategy_from_json(Path(path).read_text(), player)
    strategy.check_in(arena)
    return strategy


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "structured":
        print(json.dumps(doc, indent=1, sort_keys=True, default=str))
    else:
        for line in _human_lines(doc, indent=0):
            print(line)


def _human_lines(doc, indent: int):
    pad = "  " * indent
    if isinstance(doc, dict):
        for k, v in doc.items():
            if isinstance(v, (dict, list)) and v:
                yield f"{pad}{k}:"
                yield from _human_lines(v, indent + 1)
            else:
                yield f"{pad}{k}: {v}"
    elif isinstance(doc, list):
        for v in doc:
            if isinstance(v, (dict, list)):
                yield from _human_lines(v, indent + 1)
            else:
                yield f"{pad}- {v}"
    else:
        yield f"{pad}{doc}"


def _report_exit(report: verify.VerificationReport, fmt: str) -> int:
    doc = json.loads(report.to_json(structured=True))
    if fmt == "human":
        doc["wall_clock"] = f"{report.wall_clock:.3f}s"
    _emit(doc, fmt)
    return {"confirmed": EXIT_OK, "refuted": EXIT_REFUTED,
            "inconclusive": EXIT_INCONCLUSIVE}[report.verdict]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="stochgame",
        description="Workbench for finite zero-sum stochastic games: exact "
                    "values, strategy constructions, and theorem checks.")
    ap.add_argument("--format", choices=("human", "structured"),
                    default="human", dest="fmt")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, payoff=True, game=True):
        if game:
            p.add_argument("game", help="game file or random:states=..,seed=..")
        if payoff:
            p.add_argument("--payoff", required=True)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--budget", type=int, default=solve.DEFAULT_BUDGET)
        # accepted after the subcommand too; SUPPRESS keeps the global value
        p.add_argument("--format", choices=("human", "structured"),
                       default=argparse.SUPPRESS, dest="fmt")

    p = sub.add_parser("solve", help="brute-force values with certificates")
    common(p)

    p = sub.add_parser("best-response", help="minimize against a fixed strategy")
    common(p)
    p.add_argument("--sigma", required=True)

    p = sub.add_parser("classify", help="value-preserving / stable actions")
    common(p)

    p = sub.add_parser("martingale", help="exact one-step value checks")
    common(p)
    p.add_argument("--sigma", required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--source", default="")

    p = sub.add_parser("simulate", help="sample plays under two strategies")
    common(p, payoff=False)
    p.add_argument("--sigma", required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--source", default="")
    p.add_argument("--horizon", type=int, default=50)
    p.add_argument("--trials", type=int, default=1000)

    p = sub.add_parser("check", help="submixing / shift-invariance refuters")
    p.add_argument("property", choices=("submixing", "shift-invariance"))
    p.add_argument("--payoff", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--max-cycle", type=int, default=4)
    p.add_argument("--cases", type=int, default=2000)
    p.add_argument("--format", choices=("human", "structured"),
                   default=argparse.SUPPRESS, dest="fmt")

    p = sub.add_parser("verify", help="theorem harness")
    vsub = p.add_subparsers(dest="claim", required=True)
    ph = vsub.add_parser("halfpos")
    common(ph)
    ph.add_argument("--memory", type=int, default=2)
    ph.add_argument("--candidates", type=int, default=12)
    ps = vsub.add_parser("subgame")
    common(ps)
    ps.add_argument("--sigma", required=True)
    ps.add_argument("--epsilon", default="1/4")

    p = sub.add_parser("reproduce", help="the letter-game counter-example")
    p.add_argument("what", choices=("fig1",))
    p.add_argument("--format", choices=("human", "structured"),
                   default=argparse.SUPPRESS, dest="fmt")

    p = sub.add_parser("doob", help="stopped-value Monte Carlo suite")
    common(p)
    p.add_argument("--trials", type=int, default=10_000)

    return ap


def run(argv) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code else EXIT_OK
    try:
        return _dispatch(args)
    except (ArenaError, PayoffError, StrategyError, solve.SolveError,
            verify.FlagGateError, FileNotFoundError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def _dispatch(args) -> int:
    fmt = args.fmt
    cmd = args.command

    if cmd == "solve":
        arena = _load_arena(args.game)
        spec = parse_payoff_spec(args.payoff)
        values = solve.brute_force_value(arena, spec, args.budget)
        _emit({
            "values": {s: str(values.values[s]) for s in arena.states},
            "sigma_star": values.sigma_star.choice,
            "certificates": {
                s: {"tau": tau.choice, "expectation": str(v)}
                for s, (tau, v) in values.best_response.items()},
            "spec": spec.format(),
            "arena": values.arena_fingerprint,
        }, fmt)
        return EXIT_OK

    if cmd == "best-response":
        arena = _load_arena(args.game)
        spec = parse_payoff_spec(args.payoff)
        sigma = _load_strategy(args.sigma, 1, arena)
        if not isinstance(sigma, PureStationaryStrategy):
            raise StrategyError("best-response needs a pure stationary sigma")
        response = solve.best_response_min(arena, spec, sigma, args.budget)
        _emit({
            "values": {s: str(v) for s, v in response.values.items()},
            "uniform_minimizer": response.uniform.choice
            if response.uniform else None,
            "per_state_minimizers": {s: t.choice
                                     for s, t in response.minimizers.items()},
            "uniform": response.has_uniform,
        }, fmt)
        return EXIT_OK

    if cmd == "classify":
        arena = _load_arena(args.game)
        spec = parse_payoff_spec(args.payoff)
        values = solve.brute_force_value(arena, spec, args.budget)
        cls = solve.classify_actions(arena, values)
        _emit({
            "values": {s: str(values.values[s]) for s in arena.states},
            "actions": {
                f"{s}|{a}": {
                    "value_preserving": facts.value_preserving,
                    "stable": facts.stable,
                    "one_step_value": str(facts.one_step_value),
                }
                for (s, a), facts in sorted(cls.table.items())},
            "all_value_preserving": cls.all_preserving,
        }, fmt)
        return EXIT_OK

    if cmd == "martingale":
        arena = _load_arena(args.game)
        spec = parse_payoff_spec(args.payoff)
        values = solve.brute_force_value(arena, spec, args.budget)
        sigma = _load_strategy(args.sigma, 1, arena)
        tau = _load_strategy(args.tau, 2, arena)
        source = args.source or arena.states[0]
        report = solve.martingale_check(arena, values, sigma, tau, source)
        _emit({
            "verdict": report.verdict,
            "nodes_checked": report.nodes_checked,
            "strict_nodes": [str(n) for n in report.strict_nodes],
        }, fmt)
        return EXIT_OK

    if cmd == "simulate":
        if args.trials < 1:
            raise ValueError("--trials must be >= 1")
        arena = _load_arena(args.game)
        sigma = as_finite_memory(_load_strategy(args.sigma, 1, arena))
        tau = as_finite_memory(_load_strategy(args.tau, 2, arena))
        source = args.source or arena.states[0]
        rng = random.Random(args.seed)
        terminal: dict[str, int] = {}
        for _ in range(args.trials):
            play = sample_play(arena, sigma, tau, source, args.horizon, rng)
            terminal[play.target] = terminal.get(play.target, 0) + 1
        _emit({
            "source": source, "horizon": args.horizon, "trials": args.trials,
            "seed": args.seed,
            "terminal_frequencies": {
                s: terminal.get(s, 0) / args.trials for s in arena.states},
        }, fmt)
        return EXIT_OK

    if cmd == "check":
        spec = parse_payoff_spec(args.payoff)
        bounds = verify.SearchBounds(max_cycle=args.max_cycle,
                                     random_cases=args.cases)
        if args.property == "submixing":
            report = verify.search_submixing_violation(spec, bounds, args.seed)
        else:
            report = verify.search_shift_invariance_violation(
                spec, bounds, args.seed)
        return _report_exit(report, fmt)

    if cmd == "verify":
        arena = _load_arena(args.game)
        spec = parse_payoff_spec(args.payoff)
        if args.claim == "halfpos":
            report = verify.verify_halfpos(
                arena, spec, args.budget, args.memory, args.candidates,
                args.seed)
        else:
            sigma = _load_strategy(args.sigma, 1, arena)
            report = verify.verify_subgame_perfect(
                arena, spec, sigma, Fraction(args.epsilon), args.budget)
        return _report_exit(report, fmt)

    if cmd == "reproduce":
        report = verify.reproduce_counterexample()
        return _report_exit(report, fmt)

    if cmd == "doob":
        arena = _load_arena(args.game)
        spec = parse_payoff_spec(args.payoff)
        report = verify.doob_suite(arena, spec, args.trials, args.seed,
                                   args.budget)
        return _report_exit(report, fmt)

    raise ValueError(f"unknown command {cmd}")


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (e.g. `| head`).  Point stdout at devnull so
        # the interpreter's own flush at exit cannot fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_USAGE
    sys.exit(code)


if __name__ == "__main__":
    main()
