#!/usr/bin/env python3
"""Search for submixing or shift-invariance violations of a payoff.

Example:
    python scripts/submixing_search.py genmean:2
    python scripts/submixing_search.py geomfirstone --property shift-invariance
"""

import argparse
import sys

from stochgame.payoff import parse_payoff_spec
from stochgame.verify import (
    SearchBounds, search_shift_invariance_violation,
    search_submixing_violation,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("payoff")
    ap.add_argument("--property", choices=("submixing", "shift-invariance"),
                    default="submixing")
    ap.add_argument("--max-cycle", type=int, default=4)
    ap.add_argument("--cases", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    try:
        spec = parse_payoff_spec(args.payoff)
        bounds = SearchBounds(max_cycle=args.max_cycle, random_cases=args.cases)
    except ValueError as e:
        sys.exit(f"error: {e}")
    search = (search_submixing_violation if args.property == "submixing"
              else search_shift_invariance_violation)
    report = search(spec, bounds, args.seed)
    print(report.to_json(structured=False))
    return {"confirmed": 0, "refuted": 2, "inconclusive": 3}[report.verdict]


if __name__ == "__main__":
    raise SystemExit(main())
