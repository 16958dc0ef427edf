"""Game model: parsing, validation, random generation, play sampling."""

import hashlib
import itertools
import json
import math
import random
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochgame.arena import (
    P1, P2, Arena, ArenaError, FinitePlay,
    parse_arena, print_arena, random_arena, sample_play,
)
from stochgame.fixtures import (
    build_e2, build_e3, build_fig1, build_weak_memory_fixture,
    fig1_alternating_strategy,
)
from stochgame.payoff import (
    PayoffSpec, discounted, reward, reward_buchi, vector,
)
from stochgame.strategy import (
    FiniteMemoryStrategy, PureStationaryStrategy, StrategyError, WeaknessSet,
    reset_strategy, strategy_from_json,
)
from helpers import restrict

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


def _one_state_game(colour) -> str:
    return json.dumps({
        "states": [{"name": "s", "owner": "P1"}],
        "actions": [{"state": "s", "action": "a", "colour": colour,
                     "successors": [{"state": "s", "prob": "1"}]}]})


# a colour's fields are validated, never coerced: no bool where a number is
# expected, an integer priority or increment, a boolean Buchi flag, a string
# letter and a list vector
COERCED_COLOURS = [
    {"priority": 1.5}, {"priority": True}, {"priority": "1"},
    {"increment": True}, {"increment": 1.0},
    {"reward": 1, "buchi": "no"}, {"reward": 1, "buchi": 1},
    {"reward": True, "buchi": False},
    {"reward": True, "discount": "1/2"}, {"reward": 1, "discount": False},
    {"letter": 5}, {"vector": [1, True]}, {"vector": "12"},
    True, False,
]


@pytest.mark.parametrize("colour", COERCED_COLOURS,
                         ids=[json.dumps(c) for c in COERCED_COLOURS])
def test_parse_rejects_a_colour_it_would_have_to_coerce(colour):
    with pytest.raises(ArenaError, match="field 'colour' is not a colour"):
        parse_arena(_one_state_game(colour))


def test_parse_rejects_an_infinite_colour_value():
    # json reads the bare literal Infinity as a float
    text = _one_state_game({"reward": 0, "discount": "1/2"}).replace(
        '"reward": 0', '"reward": Infinity')
    with pytest.raises(ArenaError, match="field 'colour' is not a colour"):
        parse_arena(text)


def _split_game(p, q) -> str:
    """s moves to s with probability `p` and to the sink t with `q`, as
    JSON text with the two probabilities written verbatim."""
    return ('{"states": [{"name": "s", "owner": "P1"}, '
            '{"name": "t", "owner": "P1"}], "actions": ['
            '{"state": "s", "action": "a", "colour": 0, "successors": ['
            f'{{"state": "s", "prob": {p}}}, {{"state": "t", "prob": {q}}}]}}, '
            '{"state": "t", "action": "a", "colour": 0, '
            '"successors": [{"state": "t", "prob": "1"}]}]}')


@pytest.mark.parametrize("p, q, want", [
    ("0.1", "0.9", (Fraction(1, 10), Fraction(9, 10))),
    ("0.25", "75E-2", (Fraction(1, 4), Fraction(3, 4))),
    ("1e-1", '"9/10"', (Fraction(1, 10), Fraction(9, 10))),
])
def test_parse_reads_a_decimal_probability_from_its_text(p, q, want):
    # read as a binary float, 0.1 + 0.9 sums to 36028797018963969/2^55
    arena = parse_arena(_split_game(p, q))
    assert tuple(arena.transition[("s", "a")].values()) == want


@pytest.mark.parametrize("p", ["true", "false"])
def test_parse_rejects_a_bool_probability(p):
    with pytest.raises(ArenaError, match="field 'prob' is not a rational"):
        parse_arena(_split_game(p, "1"))


@pytest.mark.parametrize("text, want", [
    ("0.1", reward(Fraction(1, 10))),
    ("-2.5e-1", reward(Fraction(-1, 4))),
    ('{"reward": 0.5, "discount": 0.9}',
     discounted(Fraction(1, 2), Fraction(9, 10))),
    ('{"vector": [0.1, 2]}', vector(Fraction(1, 10), 2)),
    ('{"reward": 1.5, "buchi": true}', reward_buchi(Fraction(3, 2), True)),
])
def test_parse_reads_a_decimal_colour_from_its_text(text, want):
    game = _one_state_game(0).replace('"colour": 0', f'"colour": {text}')
    assert parse_arena(game).colour[("s", "a")] == want


def test_fig1_golden_file():
    arena = parse_arena((CORPUS / "fig1.game").read_text())
    assert len(arena.states) == 4
    assert arena.owner["sq"] == P2
    assert [arena.owner[s] for s in ("c1", "c2", "c3")] == [P1, P1, P1]


# Each corpus file is the one copy of its fixture's data on disk; these pin
# it to the builder in `stochgame.fixtures`.
@pytest.mark.parametrize("name, builder", [
    ("e2.game", build_e2), ("e3.game", build_e3),
    pytest.param("e3_parity.game", lambda: build_e3("priority"),
                 id="e3_parity.game-build_e3_priority"),
    pytest.param("fig1.game", build_fig1, id="fig1.game-build_fig1"),
])
def test_golden_files_match_builders(name, builder):
    assert parse_arena((CORPUS / name).read_text()) == builder()


@pytest.mark.parametrize("name, builder", [
    ("e2weak.sigma", lambda: build_weak_memory_fixture()[1]),
    ("fig1_alternating.sigma", fig1_alternating_strategy),
], ids=["e2weak.sigma", "fig1_alternating.sigma"])
def test_corpus_strategies_match_builders(name, builder):
    want = builder()
    got = strategy_from_json((CORPUS / name).read_text(), want.player)
    assert got.memory_states == want.memory_states
    assert got.initial == want.initial
    assert got.update == want.update
    assert got.choices == want.choices


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


@pytest.mark.parametrize("args, name", [
    ({"num_states": 0}, "num_states"), ({"max_actions": 0}, "max_actions"),
    ({"colour_lo": 1, "colour_hi": 0}, "colour_hi"),
    ({"density": Fraction(3, 2)}, "density"),
    ({"density": Fraction(-1, 2)}, "density"),
    ({"density": Fraction(10**309)}, "density")])
def test_random_arena_rejects_parameters_out_of_range(args, name):
    params = {"num_states": 3, "max_actions": 2} | args
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArenaError, match=name):
            random_arena(**params)


def test_fingerprint_equals_a_fresh_hash():
    arena = random_arena(4, 3, seed=3)
    fresh = hashlib.sha256(print_arena(arena).encode()).hexdigest()[:16]
    assert arena.fingerprint() == fresh
    # equal arenas keep equal fingerprints
    assert random_arena(4, 3, seed=3).fingerprint() == fresh


def test_int_transition_is_the_table_over_lowest_denominators():
    # every (s, a) row, in the table's order and without its zero entries,
    # as numerators over the least common denominator; built once
    arenas = [random_arena(5, 3, seed=seed) for seed in range(10)]
    arenas.append(Arena(
        states=("s", "t", "u"), owner={"s": P1, "t": P2, "u": P1},
        available={"s": ("a",), "t": ("b",), "u": ("c",)},
        transition={("s", "a"): {"u": Fraction(1, 6), "t": Fraction(0),
                                 "s": Fraction(5, 6)},
                    ("t", "b"): {"t": Fraction(1)},
                    ("u", "c"): {"s": Fraction(1, 2), "u": Fraction(1, 2)}},
        colour={("s", "a"): reward(0), ("t", "b"): reward(1),
                ("u", "c"): reward(2)}))
    for arena in arenas:
        table = arena.int_transition()
        assert table is arena.int_transition()
        assert list(table) == list(arena.transition)
        for sa, (d, row) in table.items():
            dist = arena.transition[sa]
            assert list(row) == [t for t, p in dist.items() if p]
            assert {t: Fraction(n, d) for t, n in row.items()} \
                == {t: p for t, p in dist.items() if p}
            assert math.gcd(d, *row.values()) == 1
    assert arenas[-1].int_transition()[("s", "a")] == (6, {"u": 1, "s": 5})


@pytest.mark.parametrize("p", [1.0, 0.5, True, False, "1"],
                         ids=["float-one", "float-half", "true", "false",
                              "string"])
def test_validate_rejects_a_probability_that_is_not_an_int_or_a_fraction(p):
    # a float, a bool or a string is refused with one error naming the
    # (state, action), before any table is read from the law
    with pytest.raises(ArenaError) as err:
        Arena(("s",), {"s": P1}, {"s": ("a",)}, {("s", "a"): {"s": p}},
              {("s", "a"): reward(1)})
    assert str(err.value) == \
        f"probability {p!r} at (s,a) is not an int or a Fraction"


def test_validate_checks_each_law_in_integers():
    # ints and Fractions mix; the sum and the range are read as numerators
    # over the lcm of the denominators, with the messages parse_arena keeps
    def arena(law):
        return Arena(("s", "t"), {"s": P1, "t": P2}, {"s": ("a",), "t": ("b",)},
                     {("s", "a"): law, ("t", "b"): {"t": 1}},
                     {("s", "a"): reward(0), ("t", "b"): reward(0)})

    assert arena({"s": Fraction(1, 3), "t": Fraction(2, 3)}).int_transition()[
        ("s", "a")] == (3, {"s": 1, "t": 2})
    assert arena({"s": 0, "t": 1}).int_transition()[("s", "a")] == (1, {"t": 1})
    for law, message in (
            ({"s": Fraction(1, 2), "t": Fraction(1, 3)},
             "distribution at (s,a) sums to 5/6"),
            ({"s": Fraction(3, 2), "t": Fraction(-1, 2)},
             "probability 3/2 at (s,a) outside [0,1]"),
            ({"s": Fraction(-1, 2), "t": Fraction(3, 2)},
             "probability -1/2 at (s,a) outside [0,1]"),
            ({"s": 1, "t": 1}, "distribution at (s,a) sums to 2"),
            ({}, "distribution at (s,a) sums to 0")):
        with pytest.raises(ArenaError) as err:
            arena(law)
        assert str(err.value) == message


RANDOM_KINDS = ("reward", "priority", "discounted", "vector2", "cobuchi",
                "increment", "letter")


def test_a_seeds_colourings_share_their_dynamics():
    # random_arena draws the same structure for every colour kind of one
    # seed, so its colourings have one dynamics key: the grid cores of the
    # solver are shared on this
    for seed in range(200):
        n = 2 + seed % 4
        first, *others = (random_arena(n, 3, seed=seed, kind=kind)
                          for kind in RANDOM_KINDS)
        for arena in others:
            assert arena.dynamics() == first.dynamics()
            assert (arena.states, arena.owner, arena.available,
                    arena.transition) == (first.states, first.owner,
                                          first.available, first.transition)
            assert arena.colour != first.colour


def test_the_dynamics_key_is_built_from_integers():
    arena = random_arena(4, 3, seed=5)
    key = arena.dynamics()
    assert key == random_arena(4, 3, seed=5).dynamics()

    def leaves(x):
        if isinstance(x, tuple):
            for y in x:
                yield from leaves(y)
        else:
            yield x

    assert {type(x) for x in leaves(key)} == {str, int}


def test_letters_and_letter_tables_follow_the_state_and_action_order():
    arena = random_arena(4, 3, seed=5, kind="priority")
    pairs = [(s, a) for s in arena.states for a in arena.available[s]]
    assert list(arena.letters()) == pairs
    assert list(arena.letters().values()) == list(range(len(pairs)))
    parity = PayoffSpec("parity")
    table = arena.letter_table(parity)
    assert table is arena.letter_table(parity)
    assert table.letters == tuple(arena.colour[sa] for sa in pairs)


# -- plays ------------------------------------------------------------------------

def test_finite_play_shape_checks():
    with pytest.raises(ArenaError):
        FinitePlay(("s",), ("a",))
    assert FinitePlay(("s", "t"), ("a",)).target == "t"


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


# -- the sampler against an exact per-step Fraction draw ----------------------------

def _sample_play_oracle(arena, sigma, tau, source, horizon, rng):
    """The sampler, step by step, with each draw made on the exact running
    sums of the mover's and the transition's `Fraction` laws
    (`_draw_oracle`), not on the float sums `arena._draw` reads."""
    if source not in arena.owner:
        raise ArenaError(f"unknown source state {source}")
    mem1 = sigma.initial
    mem2 = tau.initial
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
    """The first key whose exact running sum exceeds the draw, read as the
    exact rational it is, or the last key if none does."""
    u = Fraction(rng.random())
    acc = Fraction(0)
    for key, w in dist.items():
        acc += w
        if acc > u:
            return key
    return key


def _mixed_memory_strategy(arena, player, rng, mems=("m0", "m1")):
    """Random Mealy strategy over the memories `mems`: sparse memory updates
    (the rest keep the memory) and rational action laws, some with
    zero-weight entries."""
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
    construction against a mixed minimizer with 8 tuple-named memories (a
    product of three 2-memory automata), and both players' first actions."""
    sigma = _mixed_memory_strategy(arena, P1, rng)
    tau = _mixed_memory_strategy(arena, P2, rng)
    weak = WeaknessSet(frozenset((m, s) for m in sigma.memory_states
                                 for s in arena.states if rng.random() < 0.3),
                       Fraction(0), {}, {})
    tuples = tuple(itertools.product((0, 1), ("m0", "m1"), ("m0", "m1")))
    reset = reset_strategy(sigma, weak, arena)
    return [(sigma, tau), (reset, tau), _unique_strategies(arena),
            (reset, _mixed_memory_strategy(arena, P2, rng, tuples))]


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
    only_stay = restrict(e2, "s", ["stay"])
    assert only_stay.available["s"] == ("stay",)
    assert ("s", "go") not in only_stay.transition
    with pytest.raises(ArenaError):
        restrict(e2, "s", [])
