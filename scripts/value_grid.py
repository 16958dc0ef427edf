#!/usr/bin/env python3
"""Print the chain layer's identity grid, one JSON report per line, with no
newline after the last:

- `brute_force_value` and `best_response_min` (against the value's
  sigma*) for mean, limsup, liminf, parity and discounted on
  `random_arena(n, 3, seed=s)`, n 3-5 and s 0-19, each payoff on the
  colour kind it reads: 300 reports.  Each arena's `GridSolver` is kept
  live through both calls, so the best response reads sigma*'s row of
  the grid that certified it;
- `verify_halfpos(...).to_json()` for posavg, meancobuchi:100 and
  optgenmean:2 on `random_arena(4, 3, seed=s)`, s 0-19: 60 reports;
- `product_values` for mean and discounted of a stationary maximizer
  strategy that weighs the first two actions of each of its states 1/3 and
  2/3, on `random_arena(4, 3, seed=s)`, s 0-19: 40 reports, which go
  through the mixed-law rows.

Example:
    PYTHONPATH=src python scripts/value_grid.py \
        | sha256sum -c tests/golden/value_grid.sha256

The digest under tests/golden/ pins the grid: a change that means to change
a value, a certificate or a report updates it.
"""

import json
import sys
from fractions import Fraction

from stochgame.arena import P1, random_arena
from stochgame.payoff import parse_payoff_spec
from stochgame.solve import (
    GridSolver, best_response_min, brute_force_value, product_values,
)
from stochgame.strategy import FiniteMemoryStrategy
from stochgame.verify import verify_halfpos

POSITIONAL = (("mean", "reward"), ("limsup", "reward"), ("liminf", "reward"),
              ("parity", "priority"), ("discounted", "discounted"))
HALFPOS = (("posavg", "reward"), ("meancobuchi:100", "cobuchi"),
           ("optgenmean:2", "vector2"))
MIXED = (("mean", "reward"), ("discounted", "discounted"))
SEEDS = range(20)


def _strings(values: dict) -> dict:
    return {str(key): str(v) for key, v in values.items()}


def _value_reports():
    for name, kind in POSITIONAL:
        spec = parse_payoff_spec(name)
        for n in (3, 4, 5):
            for seed in SEEDS:
                arena = random_arena(n, 3, seed=seed, kind=kind)
                grid = GridSolver(arena)
                value = brute_force_value(arena, spec, grid=grid)
                response = best_response_min(arena, spec, value.sigma_star)
                yield json.dumps({
                    "payoff": name, "states": n, "seed": seed,
                    "values": _strings(value.values),
                    "sigma_star": value.sigma_star.choice,
                    "certificates": {s: [tau.choice, str(v)] for s, (tau, v)
                                     in value.best_response.items()},
                    "response_values": _strings(response.values),
                    "minimizers": {s: tau.choice for s, tau
                                   in response.minimizers.items()},
                    "uniform": response.uniform and response.uniform.choice,
                }, sort_keys=True)


def _halfpos_reports():
    for name, kind in HALFPOS:
        spec = parse_payoff_spec(name)
        for seed in SEEDS:
            arena = random_arena(4, 3, seed=seed, kind=kind)
            yield verify_halfpos(arena, spec, seed=seed).to_json()


def _mixed_strategy(arena) -> FiniteMemoryStrategy:
    choices = {}
    for s in arena.player_states(P1):
        acts = arena.available[s]
        choices[("m0", s)] = ({acts[0]: Fraction(1, 3),
                               acts[1]: Fraction(2, 3)}
                              if len(acts) > 1 else {acts[0]: Fraction(1)})
    return FiniteMemoryStrategy(P1, ("m0",), "m0", {}, choices)


def _mixed_reports():
    for name, kind in MIXED:
        spec = parse_payoff_spec(name)
        for seed in SEEDS:
            arena = random_arena(4, 3, seed=seed, kind=kind)
            values = product_values(arena, spec, _mixed_strategy(arena))
            yield json.dumps({"payoff": name, "seed": seed,
                              "values": _strings(values)}, sort_keys=True)


def reports():
    yield from _value_reports()
    yield from _halfpos_reports()
    yield from _mixed_reports()


def main() -> int:
    sys.stdout.write("\n".join(reports()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
