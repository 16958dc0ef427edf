"""Game model: parsing, validation, random generation, play sampling."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochgame.arena import (
    P1, P2, Arena, ArenaError, FinitePlay, LassoPlay,
    parse_arena, print_arena, random_arena, sample_play,
)
from stochgame.fixtures import build_e2, build_e3, build_fig1
from stochgame.payoff import reward
from stochgame.strategy import (
    FiniteMemoryStrategy, PartitionAtState, PureStationaryStrategy,
    StrategyError, WeaknessSet, reset_strategy, trigger_strategy,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus" / "v1"


def test_parse_minimal_arena():
    doc = {"states": [{"name": "s", "owner": "P1"}],
           "actions": [{"state": "s", "action": "a", "colour": 3,
                        "successors": [{"state": "s", "prob": "1"}]}]}
    arena = parse_arena(json.dumps(doc))
    assert arena.states == ("s",)
    assert arena.colour[("s", "a")] == reward(3)


def test_parse_reports_bad_distribution_sum():
    doc = {"states": [{"name": "s", "owner": "P1"},
                      {"name": "t", "owner": "P1"}],
           "actions": [
               {"state": "s", "action": "a", "colour": 0,
                "successors": [{"state": "s", "prob": "1/2"},
                               {"state": "t", "prob": "1/3"}]},
               {"state": "t", "action": "a", "colour": 0,
                "successors": [{"state": "t", "prob": "1"}]}]}
    with pytest.raises(ArenaError, match="sums to 5/6"):
        parse_arena(json.dumps(doc))


def test_parse_reports_syntax_position():
    with pytest.raises(ArenaError, match="line 1"):
        parse_arena("{not json")


def test_fig1_golden_file():
    arena = parse_arena((CORPUS / "fig1.game").read_text())
    assert len(arena.states) == 4
    assert arena.owner["sq"] == P2
    assert [arena.owner[s] for s in ("c1", "c2", "c3")] == [P1, P1, P1]
    assert arena == build_fig1()


@pytest.mark.parametrize("name, builder", [
    ("e2.game", build_e2), ("e3.game", build_e3),
])
def test_golden_files_match_builders(name, builder):
    assert parse_arena((CORPUS / name).read_text()) == builder()


def test_round_trip_fixtures():
    for arena in (build_e2(), build_e3(), build_e3("priority"), build_fig1()):
        assert parse_arena(print_arena(arena)) == arena


@given(st.integers(0, 10_000), st.sampled_from(
    ["reward", "priority", "discounted", "vector2", "cobuchi", "increment",
     "letter"]))
@settings(max_examples=60, deadline=None)
def test_round_trip_random(seed, kind):
    arena = random_arena(4, 3, seed=seed, kind=kind)
    assert parse_arena(print_arena(arena)) == arena


# -- random generation ----------------------------------------------------------

def test_random_arena_deterministic():
    a = random_arena(5, 3, -2, 2, Fraction(1, 2), seed=42)
    b = random_arena(5, 3, -2, 2, Fraction(1, 2), seed=42)
    assert a == b
    assert len(a.states) == 5
    assert print_arena(a) == print_arena(b)


def test_random_arena_single_state_self_loop():
    arena = random_arena(1, 1, seed=0)
    assert arena.states == ("s0",)
    assert arena.available["s0"] == ("a0",)
    assert arena.transition[("s0", "a0")] == {"s0": Fraction(1)}


def test_random_arena_corpus_validates():
    for seed in range(1000):
        random_arena(4, 3, seed=seed).validate()


def test_random_arena_clamps_and_warns():
    with pytest.warns(UserWarning, match="clamped"):
        arena = random_arena(0, 0, seed=1)
    assert len(arena.states) == 1


# -- plays ------------------------------------------------------------------------

def test_finite_play_shape_checks():
    with pytest.raises(ArenaError):
        FinitePlay(("s",), ("a",))
    play = FinitePlay(("s", "t"), ("a",))
    assert play.source == "s" and play.target == "t" and len(play) == 1


def test_play_availability_is_syntactic():
    e3 = build_e3()
    # probability-zero steps are representable, unavailable actions are not
    FinitePlay(("t", "t"), ("loop",)).check_in(e3)
    with pytest.raises(ArenaError):
        FinitePlay(("t", "t"), ("nope",)).check_in(e3)


def test_lasso_play_validation():
    e2 = build_e2()
    prefix = FinitePlay(("s",), ())
    cycle = FinitePlay(("s", "s"), ("stay",))
    lasso = LassoPlay(prefix, cycle)
    lasso.check_in(e2)
    assert lasso.unroll(3).states == ("s", "s", "s", "s")
    with pytest.raises(ArenaError):
        LassoPlay(prefix, FinitePlay(("s", "t"), ("go",)))


def test_colour_word_of_lasso():
    e2 = build_e2()
    lasso = LassoPlay(FinitePlay(("s", "t"), ("go",)),
                      FinitePlay(("t", "t"), ("loop",)))
    word = lasso.colour_word(e2)
    assert word.prefix == (reward(0),)
    assert word.cycle == (reward(1),)


# -- sampling ----------------------------------------------------------------------

def _unique_strategies(arena):
    sigma = PureStationaryStrategy(
        P1, {s: arena.available[s][0] for s in arena.player_states(P1)})
    tau = PureStationaryStrategy(
        P2, {s: arena.available[s][0] for s in arena.player_states(P2)})
    return sigma, tau


def test_sample_play_self_loop():
    arena = random_arena(1, 1, seed=0)
    sigma, tau = _unique_strategies(arena)
    play = sample_play(arena, sigma, tau, "s0", 5, random.Random(1))
    assert play.states == ("s0",) * 6
    assert play.actions == ("a0",) * 5


def test_sample_play_deterministic_without_randomness():
    e2 = build_e2()
    sigma = PureStationaryStrategy(P1, {"s": "go", "t": "loop"})
    tau = PureStationaryStrategy(P2, {})
    a = sample_play(e2, sigma, tau, "s", 4, random.Random(1))
    b = sample_play(e2, sigma, tau, "s", 4, random.Random(999))
    assert a == b
    assert a.states == ("s", "t", "t", "t", "t")


def test_sample_play_respects_availability_and_support():
    arena = random_arena(4, 3, seed=7)
    sigma, tau = _unique_strategies(arena)
    rng = random.Random(3)
    for _ in range(50):
        play = sample_play(arena, sigma, tau, arena.states[0], 20, rng)
        for i, a in enumerate(play.actions):
            s, t = play.states[i], play.states[i + 1]
            assert a in arena.available[s]
            assert arena.transition[(s, a)][t] > 0


def test_sample_play_e3_frequency():
    # exact reach probability of u is 1/2; the seeded run must land inside
    # the 99.99% binomial interval around it
    e3 = build_e3()
    sigma, tau = _unique_strategies(e3)
    rng = random.Random(2024)
    hits = 0
    for _ in range(100_000):
        play = sample_play(e3, sigma, tau, "s", 1, rng)
        hits += play.target == "u"
    assert 0.495 <= hits / 100_000 <= 0.505


def test_sample_play_successor_chi_square():
    # fixed-seed chi-square on the successor law of one (state, action);
    # threshold 15.14 is the 0.9999 quantile at 1 degree of freedom
    e3 = build_e3()
    sigma, tau = _unique_strategies(e3)
    rng = random.Random(99)
    n = 20_000
    counts = {"t": 0, "u": 0}
    for _ in range(n):
        counts[sample_play(e3, sigma, tau, "s", 1, rng).target] += 1
    expected = n / 2
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 15.14


def test_sample_play_randomized_action_law():
    # Mealy strategies with rational weights drive the action draw
    from stochgame.strategy import FiniteMemoryStrategy
    e2 = build_e2()
    sigma = FiniteMemoryStrategy(
        P1, ("m",), "m", {},
        {("m", "s"): {"stay": Fraction(3, 4), "go": Fraction(1, 4)},
         ("m", "t"): {"loop": Fraction(1)}})
    tau = PureStationaryStrategy(P2, {})
    rng = random.Random(5)
    stays = sum(sample_play(e2, sigma, tau, "s", 1, rng).target == "s"
                for _ in range(20_000))
    assert abs(stays / 20_000 - 0.75) < 0.01


# -- the sampler against the per-step Fraction draw it replaced ----------------------

def _sample_play_oracle(arena, sigma, tau, source, horizon, rng):
    """The sampler as first written: every step rebuilds the float running
    sums of the mover's and the transition's `Fraction` laws."""
    if source not in arena.owner:
        raise ArenaError(f"unknown source state {source}")
    mem1 = sigma.initial_memory
    mem2 = tau.initial_memory
    states = [source]
    actions = []
    s = source
    for _ in range(horizon):
        strat, mem = (sigma, mem1) if arena.owner[s] == P1 else (tau, mem2)
        a = _draw_oracle(strat.action_dist(mem, s), rng)
        t = _draw_oracle(arena.transition[(s, a)], rng)
        mem1 = sigma.next_memory(mem1, s, a, t)
        mem2 = tau.next_memory(mem2, s, a, t)
        actions.append(a)
        states.append(t)
        s = t
    return FinitePlay(tuple(states), tuple(actions))


def _draw_oracle(dist, rng):
    u = rng.random()
    acc = 0.0
    items = list(dist.items())
    for key, w in items:
        acc += float(w)
        if u < acc:
            return key
    return items[-1][0]


def _mixed_memory_strategy(arena, player, rng, memories=2):
    """Random Mealy strategy: sparse memory updates (the rest keep the
    memory) and rational action laws, some with zero-weight entries."""
    mems = tuple(f"m{i}" for i in range(memories))
    update = {(m, s, a, t): rng.choice(mems)
              for m in mems for s in arena.states
              for a in arena.available[s] for t in arena.states
              if rng.random() < 0.7}
    choices = {}
    for m in mems:
        for s in arena.player_states(player):
            weights = [rng.randint(0, 3) for _ in arena.available[s]]
            weights[rng.randrange(len(weights))] += 1
            choices[(m, s)] = {a: Fraction(w, sum(weights))
                               for a, w in zip(arena.available[s], weights)}
    return FiniteMemoryStrategy(player, mems, mems[0], update, choices)


def _oracle_pairs(arena, rng):
    """Strategy pairs for one arena: mixed 2-memory on both sides, the reset
    construction against a trigger strategy where a maximizer state has two
    actions to split, and both players' first actions."""
    sigma = _mixed_memory_strategy(arena, P1, rng)
    tau = _mixed_memory_strategy(arena, P2, rng)
    weak = WeaknessSet(frozenset((m, s) for m in sigma.memory_states
                                 for s in arena.states if rng.random() < 0.3),
                       Fraction(0), {}, {})
    pairs = [(sigma, tau), (reset_strategy(sigma, weak), tau),
             _unique_strategies(arena)]
    pivots = [s for s in arena.player_states(P1) if len(arena.available[s]) > 1]
    if pivots:
        acts = arena.available[pivots[0]]
        split = PartitionAtState(pivots[0], frozenset(acts[:1]),
                                 frozenset(acts[1:]))
        trigger = trigger_strategy(tau, _mixed_memory_strategy(arena, P2, rng),
                                   split, arena)
        pairs.append((reset_strategy(sigma, weak), trigger))
    return pairs


@pytest.mark.parametrize("seed", range(50))
def test_sample_play_matches_fraction_oracle(seed):
    arena = random_arena(4, 3, seed=seed)
    rng = random.Random(seed)
    for sigma, tau in _oracle_pairs(arena, rng):
        fast, slow = random.Random(seed), random.Random(seed)
        for horizon in (0, 1, 50, *(rng.randint(0, 50) for _ in range(5))):
            source = rng.choice(arena.states)
            play = sample_play(arena, sigma, tau, source, horizon, fast)
            assert play == _sample_play_oracle(arena, sigma, tau, source,
                                               horizon, slow)
            assert fast.getstate() == slow.getstate()


def test_sample_play_matches_oracle_on_unvalidated_laws():
    # laws that check_in would reject still draw as the oracle does: a
    # negative weight inside the law, weights summing below 1 (the last key
    # takes the rest) and trailing zero weights
    acts = ("a", "b", "c")
    arena = Arena(("s",), {"s": P1}, {"s": acts},
                  {("s", a): {"s": Fraction(1)} for a in acts},
                  {("s", a): reward(0) for a in acts})
    tau = PureStationaryStrategy(P2, {})
    for weights in ((1, -1, 2), (2, -3, 5), (1, 1, 0), (1, 0, 0), (0, 2, 1)):
        law = {a: Fraction(w, 4) for a, w in zip(acts, weights)}
        sigma = FiniteMemoryStrategy(P1, ("m",), "m", {}, {("m", "s"): law})
        fast, slow = random.Random(3), random.Random(3)
        for _ in range(100):
            assert sample_play(arena, sigma, tau, "s", 5, fast) == \
                _sample_play_oracle(arena, sigma, tau, "s", 5, slow)
        assert fast.getstate() == slow.getstate()


def test_sample_play_contract_errors():
    e2 = build_e2()
    sigma = PureStationaryStrategy(P1, {"s": "go", "t": "loop"})
    tau = PureStationaryStrategy(P2, {})
    rng = random.Random(1)
    before = rng.getstate()
    with pytest.raises(ArenaError, match="horizon must be >= 0"):
        sample_play(e2, sigma, tau, "s", -3, rng)
    with pytest.raises(ArenaError, match="unknown source state x"):
        sample_play(e2, sigma, tau, "x", 3, rng)
    assert sample_play(e2, sigma, tau, "t", 0, rng) == FinitePlay(("t",), ())
    assert rng.getstate() == before
    partial = FiniteMemoryStrategy(P1, ("m",), "m", {},
                                   {("m", "s"): {"go": Fraction(1)}})
    with pytest.raises(StrategyError, match="no choice at memory m, state t"):
        sample_play(e2, partial, tau, "s", 3, rng)


# -- restriction -------------------------------------------------------------------

def test_restrict_drops_actions():
    e2 = build_e2()
    only_stay = e2.restrict("s", ["stay"])
    assert only_stay.available["s"] == ("stay",)
    assert ("s", "go") not in only_stay.transition
    with pytest.raises(ArenaError):
        e2.restrict("s", [])
