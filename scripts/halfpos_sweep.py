#!/usr/bin/env python3
"""Half-positionality sweep over a seeded random-arena corpus.

Example:
    python scripts/halfpos_sweep.py --payoff posavg --arenas 50 --candidates 8

One progress line per arena (seed, verdict, seconds) goes to stderr; the
report on stdout is unchanged by it.
"""

import argparse
import sys
import time

from stochgame.arena import random_arena
from stochgame.payoff import PayoffError, parse_payoff_spec
from stochgame.verify import verify_halfpos

KINDS = {"mean": "reward", "limsup": "reward", "liminf": "reward",
         "posavg": "reward", "parity": "priority", "discounted": "discounted",
         "optgenmean": "vector2", "meancobuchi": "cobuchi",
         "counter+inf": "increment", "counter-inf": "increment",
         "genmean": "vector2"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--payoff", default="posavg")
    ap.add_argument("--arenas", type=int, default=50)
    ap.add_argument("--states", type=int, default=4)
    ap.add_argument("--actions", type=int, default=3)
    ap.add_argument("--memory", type=int, default=2)
    ap.add_argument("--candidates", type=int, default=12)
    ap.add_argument("--seed0", type=int, default=0)
    args = ap.parse_args()

    for flag, value in (("--memory", args.memory),
                        ("--candidates", args.candidates)):
        if value < 1:
            sys.exit(f"error: {flag} must be >= 1, not {value}")
    try:
        spec = parse_payoff_spec(args.payoff)
    except PayoffError as e:
        sys.exit(f"error: {e}")
    if spec.name not in KINDS:
        sys.exit(f"error: no random arena kind for payoff {spec.name!r}; "
                 f"sweepable: {', '.join(KINDS)}")
    kind = KINDS[spec.name]
    verdicts = {"confirmed": 0, "refuted": 0, "inconclusive": 0}
    for i in range(args.arenas):
        seed = args.seed0 + i
        started = time.perf_counter()
        arena = random_arena(args.states, args.actions, seed=seed, kind=kind)
        report = verify_halfpos(arena, spec, memory_bound=args.memory,
                                candidates=args.candidates, seed=seed)
        verdicts[report.verdict] += 1
        print(f"seed {seed}: {report.verdict} "
              f"{time.perf_counter() - started:.2f}s", file=sys.stderr)
        if report.verdict != "confirmed":
            print(f"seed {seed}: {report.verdict}")
            print(report.to_json(structured=False))
    print(f"{spec.format()}: {verdicts}")
    return 0 if verdicts["refuted"] == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
