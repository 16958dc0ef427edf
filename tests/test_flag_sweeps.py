"""Corpus sweeps backing the declared payoff classification: no flagged
property ever produces a witness over the seeded corpora, and the class
value agrees with lasso evaluation on stationary-aligned cycles."""

import dataclasses
import math
from fractions import Fraction

import pytest

from stochgame.arena import P1, random_arena
from stochgame.chain import bottom_sccs, induce_chain
from stochgame.payoff import (
    Lasso, class_value, evaluate_lasso, parse_payoff_spec, vector,
)
from stochgame.strategy import PureStationaryStrategy
from stochgame.verify import (
    TAILS, SearchBounds, default_alphabet, search_shift_invariance_violation,
    search_submixing_violation,
)
from helpers import colour_weights, letter_colours

SHIFT_INVARIANT = ["mean", "parity", "limsup", "liminf", "posavg",
                   "counter+inf", "counter-inf", "genmean:2", "optgenmean:2",
                   "meancobuchi:100", "suffixtarget:ab"]

SUBMIXING = ["mean", "parity", "limsup", "liminf", "posavg", "counter+inf",
             "optgenmean:2", "meancobuchi:100"]


@pytest.mark.parametrize("name", SHIFT_INVARIANT)
def test_shift_invariant_flag_backed_by_corpus(name):
    # a class-determined payoff's search decides every cycle of 1-4 letters
    # against its rotation, which decides every shift of every word with
    # such a cycle; the per-word walk reads the 9,000 seeded words too
    spec = parse_payoff_spec(name)
    assert spec.is_shift_invariant
    bounds = SearchBounds(random_cases=9000)
    report = search_shift_invariance_violation(spec, bounds, seed=101)
    assert report.verdict == "confirmed"
    if spec.is_class_determined:
        k = len(default_alphabet(spec))
        assert report.quantities["cases"] == sum(k ** n for n in range(1, 5))
    else:
        assert report.quantities["cases"] >= 9000


@pytest.mark.parametrize("name", SUBMIXING)
def test_submixing_flag_backed_by_corpus(name):
    # each class-determined payoff's search decides every pair of cycles of
    # 1-3 letters under every tail, which decides each of the 3,000 cases
    # the seed could draw
    spec = parse_payoff_spec(name)
    assert spec.is_submixing and spec.is_class_determined
    bounds = SearchBounds(max_cycle=3, random_cases=3000)
    report = search_submixing_violation(spec, bounds, seed=101)
    assert report.verdict == "confirmed"
    k = len(default_alphabet(spec))
    assert report.quantities["cases"] \
        == len(TAILS) * sum(k ** n for n in range(1, 4)) ** 2


# every class-determined payoff, with the random_arena colour kind it reads
CLASS_DETERMINED = [
    ("mean", "reward"), ("limsup", "reward"), ("liminf", "reward"),
    ("posavg", "reward"), ("parity", "priority"),
    ("meancobuchi:100", "cobuchi"), ("genmean:2", "vector2"),
    ("optgenmean:2", "vector2"), ("counter+inf", "increment"),
    ("counter-inf", "increment"),
]


@pytest.mark.parametrize("name, kind", CLASS_DETERMINED,
                         ids=[name for name, _ in CLASS_DETERMINED])
def test_class_value_agrees_with_aligned_lasso(name, kind):
    # a lasso whose cycle sees each colour of a class as often as its
    # stationary weight says has the class's value, which class_value reads
    # off the class's integer weights
    spec = parse_payoff_spec(name)
    found = 0
    for seed in range(30):
        arena = random_arena(3, 2, seed=seed, kind=kind)
        if name == "genmean:2":
            # vector2's colours (r, -1 - r) never have two positive means;
            # (r, 1 - r) have them when the mean of r lies in (0, 1)
            arena = dataclasses.replace(arena, colour={
                key: vector(tok.value[0], 1 - tok.value[0])
                for key, tok in arena.colour.items()})
        sigma = PureStationaryStrategy(
            P1, {s: arena.available[s][0] for s in arena.player_states(P1)})
        tau = PureStationaryStrategy(
            2, {s: arena.available[s][0] for s in arena.player_states(2)})
        chain = induce_chain(arena, sigma, tau)
        for cls in bottom_sccs(chain):
            weights = colour_weights(cls, letter_colours(arena))
            denom = math.lcm(*(w.denominator for _, w in weights))
            cycle = tuple(tok for tok, w in weights
                          for _ in range(int(w * denom)))
            if name.startswith("counter") and sum(
                    w * tok.value for tok, w in weights) == 0:
                # zero drift: a chain can oscillate, a single cycle cannot
                continue
            word = Lasso((), cycle)
            assert evaluate_lasso(spec, word) == Fraction(
                *class_value(spec, arena.letter_table(spec), cls))
            found += 1
    assert found >= 20
