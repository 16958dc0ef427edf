"""Command-line surface: solve, best-response, classify, martingale,
simulate, check, verify, reproduce, doob.

Exit codes: 0 confirmed/success, 2 refuted (witness printed), 3 inconclusive,
1 usage or validation error, or standard output closed before all of it
was written.  All randomness is seeded (fixed default) and
identical invocations produce byte-identical structured output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import solve, verify
from .arena import Arena, ArenaError, parse_arena, random_arena, sample_play
from .payoff import parse_payoff_spec
from .strategy import (
    PureStationaryStrategy, StrategyError, strategy_from_json,
)

DEFAULT_SEED = 2024

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REFUTED = 2
EXIT_INCONCLUSIVE = 3


RANDOM_KEYS = ("states", "actions", "lo", "hi", "density", "seed", "kind")


def _rational(text: str, what: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{what} is not a rational: {text!r}") from None


def _integer(text: str | int, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{what} is not an integer: {text!r}") from None


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
            num_states=_integer(params.get("states", 4), "random: states"),
            max_actions=_integer(params.get("actions", 3), "random: actions"),
            colour_lo=_integer(params.get("lo", -2), "random: lo"),
            colour_hi=_integer(params.get("hi", 2), "random: hi"),
            density=_rational(params.get("density", "1/2"), "random: density"),
            seed=_integer(params.get("seed", DEFAULT_SEED), "random: seed"),
            kind=params.get("kind", "reward"),
        )
    return parse_arena(_read(spec))


def _read(path: str) -> str:
    """The text of the file at `path`; a path that cannot be read (missing,
    a directory, not permitted) is a usage error."""
    try:
        return Path(path).read_text()
    except OSError as e:
        raise ValueError(f"cannot read {path}: {e.strerror or e}") from None


def _load_strategy(path: str, player: int, arena: Arena):
    strategy = strategy_from_json(_read(path), player)
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


def _report_exit(fmt: str, check, *args) -> int:
    """Run the library check `check(*args)` and print its report; human
    output ends with the wall clock of the call."""
    started = time.perf_counter()
    report = check(*args)
    doc = json.loads(report.to_json())
    if fmt == "human":
        doc["wall_clock"] = f"{time.perf_counter() - started:.3f}s"
    _emit(doc, fmt)
    return {"confirmed": EXIT_OK, "refuted": EXIT_REFUTED,
            "inconclusive": EXIT_INCONCLUSIVE}[report.verdict]


class _Parser(argparse.ArgumentParser):
    """Hands a usage error to `run` as one `error:` line; subparsers inherit
    the class."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
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
            # bounds the strategy enumeration behind every payoff evaluation
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
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--sigma", required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--source", default="")
    p.add_argument("--horizon", type=int, default=50)
    p.add_argument("--trials", type=int, default=1000)

    p = sub.add_parser("check", help="submixing / shift-invariance refuters")
    p.add_argument("property", choices=("submixing", "shift-invariance"))
    p.add_argument("--payoff", required=True)
    seeded = ("discounted, geomfirstone and suffixtarget only: a "
              "class-determined payoff's search draws nothing")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="seed of the seeded cases; " + seeded)
    p.add_argument("--max-cycle", type=int, default=4)
    p.add_argument("--cases", type=int, default=2000,
                   help="seeded cases per search; " + seeded)
    common(p, payoff=False, game=False)

    p = sub.add_parser("verify", help="theorem harness")
    vsub = p.add_subparsers(dest="claim", required=True)
    ph = vsub.add_parser("halfpos")
    common(ph)
    ph.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ph.add_argument("--memory", type=int, default=2)
    ph.add_argument("--candidates", type=int, default=12)
    ps = vsub.add_parser("subgame")
    common(ps)
    ps.add_argument("--sigma", required=True)
    ps.add_argument("--epsilon", default="1/4")

    p = sub.add_parser("reproduce", help="the letter-game counter-example")
    p.add_argument("what", choices=("fig1",))
    common(p, payoff=False, game=False)

    p = sub.add_parser(
        "doob", help="optional-stopping checks decided from exact stopped "
        "values; Monte Carlo estimates only report")
    common(p)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--trials", type=int, default=10_000,
                   help="seeded runs behind each reported estimate")

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `run` reuses: parsing leaves no state in it."""
    return build_parser()


def run(argv) -> int:
    try:
        return _dispatch(_parser().parse_args(argv))
    except SystemExit as e:  # -h printed the help
        return EXIT_USAGE if e.code else EXIT_OK
    except ValueError as e:  # every library error is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def _dispatch(args) -> int:
    fmt = args.fmt
    cmd = args.command
    arena = _load_arena(args.game) if "game" in args else None
    spec = parse_payoff_spec(args.payoff) if "payoff" in args else None

    if cmd == "solve":
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
        sigma = _load_strategy(args.sigma, 1, arena)
        tau = _load_strategy(args.tau, 2, arena)
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
        bounds = verify.SearchBounds(max_cycle=args.max_cycle,
                                     random_cases=args.cases)
        search = (verify.search_submixing_violation
                  if args.property == "submixing"
                  else verify.search_shift_invariance_violation)
        return _report_exit(fmt, search, spec, bounds, args.seed)

    if cmd == "verify":
        if args.claim == "halfpos":
            return _report_exit(fmt, verify.verify_halfpos, arena, spec,
                                args.budget, args.memory, args.candidates,
                                args.seed)
        sigma = _load_strategy(args.sigma, 1, arena)
        return _report_exit(fmt, verify.verify_subgame_perfect, arena, spec,
                            sigma, _rational(args.epsilon, "--epsilon"),
                            args.budget)

    if cmd == "reproduce":
        return _report_exit(fmt, verify.reproduce_counterexample)

    if cmd == "doob":
        return _report_exit(fmt, verify.doob_suite, arena, spec, args.trials,
                            args.seed, args.budget)

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
