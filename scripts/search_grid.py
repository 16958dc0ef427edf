#!/usr/bin/env python3
"""Print the refutation searches' identity grid: the `to_json()` report of
both searches on 14 payoffs (every catalog payoff, the vector ones in two
dimensions), at max_cycle 1-4, random_cases 0, 300 and 2000 and seeds 0-5,
2,016 reports joined by newlines, with no newline after the last.

Example:
    PYTHONPATH=src python scripts/search_grid.py \
        | sha256sum -c tests/golden/search_grid.sha256

The digest under tests/golden/ pins the grid: a change that means to change
a search's reports updates it.
"""

import sys

from stochgame.payoff import parse_payoff_spec
from stochgame.verify import (
    SearchBounds, search_shift_invariance_violation,
    search_submixing_violation,
)

PAYOFFS = ("mean", "discounted", "parity", "limsup", "liminf", "posavg",
           "counter+inf", "counter-inf", "genmean:2", "genmean:3",
           "optgenmean:2", "meancobuchi:100", "suffixtarget:ab",
           "geomfirstone")


def reports():
    for name in PAYOFFS:
        spec = parse_payoff_spec(name)
        for max_cycle in range(1, 5):
            for random_cases in (0, 300, 2000):
                bounds = SearchBounds(max_cycle, random_cases)
                for seed in range(6):
                    for search in (search_submixing_violation,
                                   search_shift_invariance_violation):
                        yield search(spec, bounds, seed).to_json()


def main() -> int:
    sys.stdout.write("\n".join(reports()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
