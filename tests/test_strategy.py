"""Strategy types, serialization, product values and the weakness/reset
construction."""

import dataclasses
import itertools
import json
import random
from fractions import Fraction
from math import prod

import pytest

from stochgame import solve
from stochgame.arena import P1, P2, random_arena
from stochgame.chain import (
    ProductSkeleton, bottom_classes, induce_chain, product_skeleton,
)
from stochgame.fixtures import build_e2, build_weak_memory_fixture
from stochgame.payoff import parse_payoff_spec
from stochgame.solve import (
    DEFAULT_BUDGET, BudgetError, _fold_responses, brute_force_value,
    guarantee_exceeds, node_values, product_values, weakness_set,
)
from stochgame.strategy import (
    FiniteMemoryStrategy, PureStationaryStrategy, StrategyError,
    reset_strategy, strategy_from_json,
)
from stochgame.verify import _random_memory_strategy, verify_halfpos
from helpers import enumerate_pure_stationary, fold_tables

F = Fraction
mean = parse_payoff_spec("mean")


# -- serialization ---------------------------------------------------------------

def test_pure_strategy_round_trip():
    sigma = PureStationaryStrategy(P1, {"s": "go", "t": "loop"})
    again = strategy_from_json(sigma.to_json(), P1)
    assert isinstance(again, PureStationaryStrategy)
    assert again.choice == sigma.choice


def test_pure_strategy_is_the_one_memory_finite_memory_strategy():
    sigma = PureStationaryStrategy(P1, {"s": "go", "t": "loop"})
    assert isinstance(sigma, FiniteMemoryStrategy)
    assert (sigma.memory_states, sigma.initial, dict(sigma.update)) \
        == (("m0",), "m0", {})
    assert sigma.choices == {("m0", "s"): {"go": F(1)}, ("m0", "t"): {"loop": F(1)}}
    assert sigma.next_memory("m0", "s", "go", "t") == "m0"
    as_table = strategy_from_json(FiniteMemoryStrategy.to_json(sigma), P1)
    assert type(as_table) is FiniteMemoryStrategy
    assert as_table.choices == sigma.choices
    with pytest.raises(dataclasses.FrozenInstanceError):
        sigma.choice = {}


def _spelled_out(sigma):
    """The finite-memory strategy a stationary one stands for, spelled out
    from its state -> action map."""
    return FiniteMemoryStrategy(
        sigma.player, ("m0",), "m0", {},
        {("m0", s): {a: F(1)} for s, a in sigma.choice.items()})


@pytest.mark.parametrize("player", [P1, P2])
def test_a_stationary_strategy_acts_as_its_spelled_out_form(player):
    rng = random.Random(player)
    for seed in range(12):
        arena = random_arena(4, 3, seed=seed)
        pure = PureStationaryStrategy(player, {
            s: rng.choice(arena.available[s])
            for s in arena.player_states(player)})
        spelled = _spelled_out(pure)
        assert [getattr(pure, f.name) for f in dataclasses.fields(pure)] \
            == [getattr(spelled, f.name) for f in dataclasses.fields(spelled)]
        # the same product: nodes, moves, integer rows and discounted rows
        seeds = [(s, "m0", "m0") for s in arena.states]
        fixed = "sigma" if player == P1 else "tau"
        assert product_skeleton(arena, seeds, **{fixed: pure}) \
            == product_skeleton(arena, seeds, **{fixed: spelled})
        if player == P1:
            assert product_values(arena, mean, pure) \
                == product_values(arena, mean, spelled)
        # written and read back as the bare map
        assert json.loads(pure.to_json()) == pure.choice
        again = strategy_from_json(pure.to_json(), player)
        assert type(again) is PureStationaryStrategy
        assert again.choice == pure.choice and again.choices == pure.choices
        # stationary strategies share their laws, which are read-only
        for key, law in pure.choices.items():
            assert again.choices[key] is law
            with pytest.raises(TypeError):
                law["x"] = F(0)
        with pytest.raises(StrategyError, match="no choice"):
            pure.action_dist("m0", "nowhere")


def _tuple_memory_strategy():
    """Memories named by tuples, one of them nested, as a product of memory
    automata names them; JSON writes them as lists."""
    mems = ((0, "m0"), (1, ("m0", "m1")))
    choices = {(m, "s"): {"go": F(1, 2), "stay": F(1, 2)} for m in mems}
    choices.update({(m, "t"): {"loop": F(1)} for m in mems})
    return FiniteMemoryStrategy(
        P1, mems, mems[1],
        {(mems[0], "s", "stay", "s"): mems[1],
         (mems[1], "s", "go", "t"): mems[0]}, choices)


def test_finite_memory_round_trip():
    for sigma in (build_weak_memory_fixture()[1], _tuple_memory_strategy()):
        sigma.check_in(build_e2())
        again = strategy_from_json(sigma.to_json(), P1)
        assert again.memory_states == sigma.memory_states
        assert again.initial == sigma.initial
        assert again.update == dict(sigma.update)
        assert again.choices == sigma.choices


def _weighted_document(go, stay):
    """A one-memory strategy document on e2 whose choice at s weighs `go`
    and `stay` with the JSON texts given."""
    return ('{"memory_states": ["m0"], "initial": "m0", "update": [], '
            f'"choice": [["m0", "s", {{"go": {go}, "stay": {stay}}}], '
            '["m0", "t", {"loop": 1}]]}')


@pytest.mark.parametrize("go, stay, want", [
    ("0.1", "0.9", (F(1, 10), F(9, 10))),
    ("1e-1", "9E-1", (F(1, 10), F(9, 10))),
    ("0.75", '"1/4"', (F(3, 4), F(1, 4))),
    ("0", "1", (F(0), F(1))),
])
def test_strategy_weights_are_read_from_their_text(go, stay, want):
    # read as binary floats, 0.1 and 0.9 sum to 36028797018963969/2^55 and
    # fail check_in
    sigma = strategy_from_json(_weighted_document(go, stay), P1)
    sigma.check_in(build_e2())
    dist = sigma.choices[("m0", "s")]
    assert dist == {"go": want[0], "stay": want[1]}
    assert all(type(w) is F for w in dist.values())


@pytest.mark.parametrize("weight", ["true", "false", "null", "[1]", '{"n": 1}'])
def test_a_weight_that_is_no_number_is_rejected(weight):
    # a bool used to load as weight 1 or 0
    with pytest.raises(StrategyError, match="choice rows$"):
        strategy_from_json(_weighted_document(weight, 1), P1)


def test_check_in_catches_bad_choices():
    e2 = build_e2()
    with pytest.raises(StrategyError):
        PureStationaryStrategy(P1, {"s": "nope", "t": "loop"}).check_in(e2)
    with pytest.raises(StrategyError):
        PureStationaryStrategy(P1, {"s": "go"}).check_in(e2)
    bad = FiniteMemoryStrategy(
        P1, ("m",), "m", {},
        {("m", "s"): {"go": F(1, 2), "stay": F(1, 4)},
         ("m", "t"): {"loop": F(1)}})
    with pytest.raises(StrategyError, match="sum"):
        bad.check_in(e2)


@pytest.mark.parametrize("law", [
    {"go": F(3, 2), "stay": F(-1, 2)}, {"stay": F(-1, 2), "go": F(3, 2)}])
def test_check_in_rejects_weights_outside_the_unit_interval(law):
    # the law sums to 1, but it is no probability law
    bad = FiniteMemoryStrategy(
        P1, ("m",), "m", {}, {("m", "s"): law, ("m", "t"): {"loop": F(1)}})
    with pytest.raises(StrategyError, match=r"outside \[0,1\]"):
        bad.check_in(build_e2())


# -- guaranteed values / weakness / reset -----------------------------------------

def test_product_values_memoryless_independent_of_memory():
    e2 = build_e2()
    sigma = FiniteMemoryStrategy(
        P1, ("m0", "m1"), "m0", {},
        {(m, s): {a: F(1)} for m in ("m0", "m1")
         for s, a in (("s", "go"), ("t", "loop"))})
    pv = product_values(e2, mean, sigma)
    assert pv[("m0", "s")] == pv[("m1", "s")] == 1


def _mirror_strategy(sigma_fm, table):
    """A minimizer strategy whose memory shadows sigma's memory automaton and
    whose choice reads the shadowed (memory, state) pair."""
    return FiniteMemoryStrategy(
        P2, sigma_fm.memory_states, sigma_fm.initial, dict(sigma_fm.update),
        {(m, s): {a: F(1)} for (m, s), a in table.items()})


def _response_tables_oracle(arena, spec, sigma):
    """The minimizer's response tables on sigma's memory product in
    `itertools.product` order, each played by its own mirror strategy and
    evaluated by `node_values` on its own `induce_chain` chain: the table,
    its value at each (memory, state), and its chain's bottom classes."""
    pairs = [(m, s) for m in sigma.memory_states for s in arena.states]
    seeds = [(s, m, m) for m, s in pairs]
    p2_pairs = [(m, s) for m, s in pairs if arena.owner[s] == P2]
    for combo in itertools.product(*(arena.available[s] for _, s in p2_pairs)):
        table = dict(zip(p2_pairs, combo))
        tau = _mirror_strategy(sigma, table)
        yield (table,
               dict(zip(pairs, node_values(arena, spec, sigma, tau, seeds))),
               bottom_classes(induce_chain(arena, sigma, tau, seeds)))


def _product_values_oracle(arena, spec, sigma):
    """Per (memory, state) the minimum over the response tables and the
    first table reaching it, the last table reaching every minimum at once
    (or None), and how many tables' chains have several bottom classes."""
    best, argmin = {}, {}
    uniform = uniform_vals = None
    several = 0
    for table, vals, classes in _response_tables_oracle(arena, spec, sigma):
        several += len(classes) > 1
        for pair, v in vals.items():
            if pair not in best or v < best[pair]:
                best[pair] = v
                argmin[pair] = table
        if vals == best:
            uniform, uniform_vals = table, vals
    if uniform_vals != best:
        uniform = None
    return best, argmin, uniform, several


@pytest.mark.parametrize("name, kind", [
    ("mean", "reward"), ("posavg", "reward"), ("meancobuchi:100", "cobuchi"),
    ("optgenmean:2", "vector2")])
def test_product_values_match_the_mirror_strategy_enumeration(name, kind):
    spec = parse_payoff_spec(name)
    rng = random.Random(name)
    for seed in range(24):
        arena = random_arena(4, 3, seed=seed, kind=kind)
        sigma = _random_memory_strategy(arena, rng, 2)
        assert product_values(arena, spec, sigma) \
            == _product_values_oracle(arena, spec, sigma)[0]


def _randomized_memory_strategy(arena, rng, memories):
    """A finite-memory maximizer strategy with random update and random
    action laws, some weights 0."""
    sigma = _random_memory_strategy(arena, rng, memories)
    choices = {}
    for (m, s) in sigma.choices:
        weights = [rng.randint(0, 3) for _ in arena.available[s]]
        weights[rng.randrange(len(weights))] += 1
        choices[(m, s)] = {a: F(w, sum(weights))
                           for a, w in zip(arena.available[s], weights)}
    return FiniteMemoryStrategy(P1, sigma.memory_states, sigma.initial,
                                sigma.update, choices)


@pytest.mark.parametrize("name, kind", [
    ("mean", "reward"), ("limsup", "reward"), ("liminf", "reward"),
    ("parity", "priority"), ("discounted", "discounted"), ("posavg", "reward"),
    ("meancobuchi:100", "cobuchi"), ("optgenmean:2", "vector2"),
    ("counter+inf", "increment")])
def test_response_fold_matches_the_induce_chain_enumeration(name, kind):
    # the fold picks each table's chain from one product skeleton and
    # shares class summaries between tables; the oracle builds every chain
    # anew.  Minima, argmin tables and the uniform table are equal.
    spec = parse_payoff_spec(name)
    rng = random.Random(name)
    several = 0
    for seed in range(16):
        arena = random_arena(4, 3, seed=seed, kind=kind)
        for sigma in (_random_memory_strategy(arena, rng, 1),
                      _random_memory_strategy(arena, rng, 2),
                      _randomized_memory_strategy(arena, rng, 2)):
            best, argmin, uniform, multi = _product_values_oracle(arena, spec,
                                                                  sigma)
            fold = _fold_responses(arena, spec, sigma, DEFAULT_BUDGET)
            folded = fold_tables(arena, spec, sigma)
            assert ({pair: Fraction(*v) for pair, v in fold.best.items()},
                    *folded[1:]) == (best, argmin, uniform)
            assert folded[0] == best
            assert all(type(n) is int and type(d) is int and d > 0
                       for n, d in fold.best.values())
            assert fold.tables == fold.total == _table_count(arena, sigma)
            several += multi
    assert several  # some response chains have several bottom classes


def _memory_successor_minimizers(arena):
    """Every deterministic 2-memory minimizer strategy whose memory update
    reads only the current memory and the successor state."""
    mems = ("n0", "n1")
    keys = [(m, s) for m in mems for s in arena.player_states(P2)]
    for moves in itertools.product(mems, repeat=2 * len(arena.states)):
        to = dict(zip(itertools.product(mems, arena.states), moves))
        update = {(m, s, a, t): to[(m, t)] for m in mems
                  for s in arena.states for a in arena.available[s]
                  for t in arena.states}
        for acts in itertools.product(*(arena.available[s] for _, s in keys)):
            yield FiniteMemoryStrategy(
                P2, mems, "n0", update,
                {key: {a: F(1)} for key, a in zip(keys, acts)})


def _minima_beaten(arena, spec, rng):
    """How often a minimizer of `_memory_successor_minimizers`, valued by
    `node_values`, goes below the response fold's minimum at some state:
    against two stationary maximizer strategies and a 2-memory one."""
    sigmas = list(enumerate_pure_stationary(arena, P1))[:2] \
        + [_random_memory_strategy(arena, rng, 2)]
    beaten = 0
    for sigma in sigmas:
        best = {pair: Fraction(*v) for pair, v in _fold_responses(
            arena, spec, sigma, DEFAULT_BUDGET).best.items()}
        for tau in _memory_successor_minimizers(arena):
            beaten += any(
                v < best[(sigma.initial, s)] for s, v in
                zip(arena.states, node_values(arena, spec, sigma, tau)))
    return beaten


@pytest.mark.parametrize("name, kind", [
    ("posavg", "reward"), ("meancobuchi:100", "cobuchi")])
def test_flagged_exact_responses_are_not_beaten_by_memory(name, kind):
    # min_responses_exact: the fold over stationary responses on the
    # maximizer's memory product is exact, so no 2-memory minimizer goes
    # below its minimum, on 2- and 3-state arenas dense and sparse
    spec = parse_payoff_spec(name)
    assert spec.min_responses_exact
    for seed in range(6):
        for states in (2, 3):
            arena = random_arena(states, 2, seed=seed, kind=kind,
                                 density=(F(0), F(1, 2))[seed % 2])
            assert _minima_beaten(arena, spec, random.Random(seed)) == 0


def test_a_two_memory_minimizer_beats_the_optgenmean_fold():
    # the control for the flags: the minimizer gains by mixing under
    # optgenmean, whose flag is false, and the same check catches it
    spec = parse_payoff_spec("optgenmean:2")
    assert not spec.min_responses_exact
    arena = random_arena(2, 2, seed=11, kind="vector2")
    assert _minima_beaten(arena, spec, random.Random(11))


def _table_count(arena, sigma):
    return prod(len(arena.available[s]) for _ in sigma.memory_states
                for s in arena.player_states(P2))


def _picks(monkeypatch):
    """Count the response tables evaluated, as chains picked from a
    product skeleton."""
    picked = []
    pick = ProductSkeleton.pick

    def counting(self, choice):
        picked.append(choice)
        return pick(self, choice)

    monkeypatch.setattr(ProductSkeleton, "pick", counting)
    return picked


@pytest.mark.parametrize("name, kind", [
    ("mean", "reward"), ("posavg", "reward"), ("meancobuchi:100", "cobuchi"),
    ("optgenmean:2", "vector2"), ("counter+inf", "increment")])
def test_guarantee_exceeds_returns_the_pairs_above_their_floor(name, kind):
    # floors below, at and above the guarantees, folded from node_values,
    # at a random subset of the pairs (on odd seeds none below): exactly the
    # pairs strictly above come back, with their values.  A stationary
    # reply tau only reorders the fold: the answer is the same for every
    # pure stationary tau, one table where tau's own pair chain holds every
    # listed pair (or the fold has one table), else the tables of the fold
    # that starts with tau's
    spec = parse_payoff_spec(name)
    rng = random.Random(name)
    above = held = tau_held = tau_failed = 0
    for seed in range(12):
        arena = random_arena(4, 3, seed=seed, kind=kind)
        sigma = _random_memory_strategy(arena, rng, rng.randint(1, 2))
        oracle = list(_response_tables_oracle(arena, spec, sigma))
        guaranteed = _product_values_oracle(arena, spec, sigma)[0]
        assert product_values(arena, spec, sigma) == guaranteed
        offsets = ((F(0), F(1, 3), F(1)) if seed % 2
                   else (F(-1), F(-1, 3), F(0), F(1)))
        floor = {pair: v + rng.choice(offsets)
                 for pair, v in guaranteed.items() if rng.random() < 0.6}
        check = guarantee_exceeds(arena, spec, sigma, floor)
        want = {pair: guaranteed[pair] for pair in floor
                if guaranteed[pair] > floor[pair]}
        assert check.above == want
        assert check.total == _table_count(arena, sigma)
        assert check.tables == _stop_at(
            [vals for _, vals, _ in oracle], floor)
        above += bool(want)
        held += not want
        for tau in enumerate_pure_stationary(arena, P2):
            first = next(vals for table, vals, _ in oracle if all(
                a == tau.choice[s] for (_, s), a in table.items()))
            rest = [vals for _, vals, _ in oracle if vals is not first]
            seeds = [(s, m, tau.initial) for m, s in floor]
            holds = all(v <= f for v, f in zip(
                node_values(arena, spec, sigma, tau, seeds), floor.values()))
            by_tau = guarantee_exceeds(arena, spec, sigma, floor, tau=tau)
            assert (by_tau.above, by_tau.total) == (check.above, check.total)
            assert (by_tau.tables == 1) == (holds or by_tau.total == 1)
            assert by_tau.tables == _stop_at([first] + rest, floor) \
                <= by_tau.total
            tau_held += holds
            tau_failed += not holds
    assert above and held and tau_held and tau_failed


def _stop_at(tables, floor):
    """How many of the tables' values, in order, it takes until every pair
    of `floor` has met a table valued at or below its floor; all of them if
    some pair never does."""
    pending = set(floor)
    for n, vals in enumerate(tables, 1):
        pending = {pair for pair in pending if vals[pair] > floor[pair]}
        if not pending:
            return n
    return n


def _stop_oracle(arena, spec, sigma, floor):
    """`_stop_at` over the response tables in `itertools.product` order."""
    return _stop_at((vals for _, vals, _ in
                     _response_tables_oracle(arena, spec, sigma)), floor)


def test_guarantee_exceeds_holds_a_floor_at_the_guarantee():
    # a guarantee equal to its floor does not exceed it, and the fold stops
    # at the table where the last pair first reaches its minimum
    spec = parse_payoff_spec("posavg")
    rng = random.Random(5)
    stopped_early = 0
    for seed in range(8):
        arena = random_arena(4, 3, seed=seed)
        sigma = _random_memory_strategy(arena, rng, 2)
        guaranteed = product_values(arena, spec, sigma)
        check = guarantee_exceeds(arena, spec, sigma, guaranteed)
        assert check.above == {}
        assert check.tables == _stop_oracle(arena, spec, sigma, guaranteed)
        stopped_early += check.tables < check.total
    assert stopped_early


def test_guarantee_exceeds_stops_after_one_table_above_every_value(monkeypatch):
    spec = parse_payoff_spec("meancobuchi:100")
    arena = random_arena(4, 3, seed=3, kind="cobuchi")
    sigma = _random_memory_strategy(arena, random.Random(3), 2)
    total = _table_count(arena, sigma)
    assert total > 1
    picked = _picks(monkeypatch)
    guaranteed = product_values(arena, spec, sigma)
    assert len(picked) == total
    picked.clear()
    check = guarantee_exceeds(arena, spec, sigma,
                              {pair: F(101) for pair in guaranteed})
    assert check == ({}, 1, total)
    assert len(picked) == 1


def test_guarantee_exceeds_checks_the_budget_before_any_table(monkeypatch):
    arena = random_arena(4, 3, seed=3)
    sigma = _random_memory_strategy(arena, random.Random(3), 2)
    total = _table_count(arena, sigma)
    picked = _picks(monkeypatch)
    floor = {(sigma.initial, s): F(2) for s in arena.states}
    tau = next(enumerate_pure_stationary(arena, P2))
    for call, args, kwargs in ((guarantee_exceeds, (floor,), {}),
                               (guarantee_exceeds, (floor,), {"tau": tau}),
                               (product_values, (), {})):
        with pytest.raises(BudgetError,
                           match=f"^{total} responses exceed budget {total - 1}$"):
            call(arena, parse_payoff_spec("posavg"), sigma, *args,
                 budget=total - 1, **kwargs)
    assert picked == []
    assert guarantee_exceeds(arena, parse_payoff_spec("posavg"), sigma, floor,
                             budget=total).tables == 1


@pytest.mark.parametrize("name, kind", [
    ("posavg", "reward"), ("meancobuchi:100", "cobuchi")])
def test_halfpos_sweep_holds_every_candidate_with_the_grid_column(
        monkeypatch, name, kind):
    # against a stationary reply the maximizer's best response is
    # stationary for these payoffs, so the grid column that attains the
    # floor holds every candidate there: the sweep evaluates one pair chain
    # per candidate and builds no open response product
    spec = parse_payoff_spec(name)
    folds = []
    real = solve.product_skeleton

    def recording(arena, seeds, sigma=None, tau=None):
        folds.append(sigma is not None and tau is None)
        return real(arena, seeds, sigma, tau)

    monkeypatch.setattr(solve, "product_skeleton", recording)
    for seed in range(30):
        arena = random_arena(4, 3, seed=seed, kind=kind)
        report = verify_halfpos(arena, spec, seed=seed)
        assert report.verdict == "confirmed"
        assert report.quantities["stats"]["response_tables"] \
            == report.quantities["candidates_swept"] == 12
    assert folds.count(True) == 0 and folds.count(False) >= 30 * 12


def test_product_values_of_optimal_strategy_equals_values():
    for seed in (2, 9, 15):
        arena = random_arena(4, 3, seed=seed)
        vv = brute_force_value(arena, mean)
        pv = product_values(arena, mean, vv.sigma_star)
        for s in arena.states:
            assert pv[("m0", s)] == vv.values[s]


def test_product_values_crafted_trap():
    arena, sigma, _ = build_weak_memory_fixture()
    pv = product_values(arena, mean, sigma)
    assert pv[("m1", "s")] == 0
    assert pv[("m0", "s")] == F(3, 4)


def test_weakness_set_of_optimal_is_empty():
    arena = random_arena(4, 3, seed=2)
    vv = brute_force_value(arena, mean)
    weak = weakness_set(arena, mean, vv.sigma_star, F(1, 8), values=vv.values)
    assert not weak.pairs


def test_weakness_set_thresholds():
    arena, sigma, eps = build_weak_memory_fixture()
    vv = brute_force_value(arena, mean)
    weak = weakness_set(arena, mean, sigma, eps, values=vv.values)
    assert weak.pairs == {("m1", "s")}
    # generous epsilon clears it: 0 >= 1 - 2
    weak1 = weakness_set(arena, mean, sigma, F(1), values=vv.values)
    assert not weak1.pairs


@pytest.mark.parametrize("epsilon", [F(-1), F(0)])
def test_weakness_set_rejects_epsilon_at_or_below_zero(epsilon):
    # the threshold val - 2*epsilon would lie at or above every value: at -1
    # every pair of the optimal e2 strategy used to be weak
    e2 = build_e2()
    vv = brute_force_value(e2, mean)
    with pytest.raises(ValueError, match=f"epsilon must be > 0, not {epsilon}"):
        weakness_set(e2, mean, vv.sigma_star, epsilon, values=vv.values)
    # before any work: the payoff's flags are not read yet
    with pytest.raises(ValueError, match="epsilon must be > 0"):
        weakness_set(e2, parse_payoff_spec("discounted"), vv.sigma_star, epsilon)


def test_weakness_needs_shift_invariance():
    arena, sigma, eps = build_weak_memory_fixture()
    with pytest.raises(StrategyError):
        weakness_set(arena, parse_payoff_spec("discounted"), sigma, eps)


def test_weakness_needs_positional_product_values():
    arena, sigma, eps = build_weak_memory_fixture()
    vv = brute_force_value(arena, mean)
    with pytest.raises(StrategyError, match="positional best responses"):
        weakness_set(arena, parse_payoff_spec("posavg"), sigma, eps,
                     values=vv.values)


def test_reset_with_empty_weakness_is_behaviourally_identical():
    arena, sigma, _ = build_weak_memory_fixture()
    vv = brute_force_value(arena, mean)
    weak = weakness_set(arena, mean, sigma, F(1), values=vv.values)
    assert not weak.pairs
    hat = reset_strategy(sigma, weak, arena)
    a = induce_chain(arena, sigma, sigma)
    b = induce_chain(arena, hat, hat)
    assert a.nodes == b.nodes and a.moves == b.moves


def test_reset_repairs_crafted_trap():
    arena, sigma, eps = build_weak_memory_fixture()
    vv = brute_force_value(arena, mean)
    weak = weakness_set(arena, mean, sigma, eps, values=vv.values)
    hat = reset_strategy(sigma, weak, arena)
    pv = product_values(arena, mean, hat)
    for (m, s), v in pv.items():
        assert v >= vv.values[s] - 2 * eps
    # the repaired strategy recovers full value from the fresh memory
    assert pv[("m0", "s")] == 1


def test_reset_is_single_shot_when_initial_row_is_weak():
    # a base that is weak even at the fresh memory: the reset must not loop
    # and the strategy stays total and behaviourally unchanged
    e2 = build_e2()
    sigma = FiniteMemoryStrategy(
        P1, ("m0",), "m0", {},
        {("m0", "s"): {"stay": F(1)}, ("m0", "t"): {"loop": F(1)}})
    vv = brute_force_value(e2, mean)
    weak = weakness_set(e2, mean, sigma, F(1, 4), values=vv.values)
    assert ("m0", "s") in weak.pairs
    hat = reset_strategy(sigma, weak, e2)
    play_chain = induce_chain(e2, hat, hat, [("s", "m0", "m0")])
    assert len(play_chain) == 1  # still the stay loop, no crash


def test_reset_strategy_round_trips_through_json():
    # the reset lives in the update table, so the written strategy keeps it
    arena, sigma, eps = build_weak_memory_fixture()
    vv = brute_force_value(arena, mean)
    weak = weakness_set(arena, mean, sigma, eps, values=vv.values)
    hat = reset_strategy(sigma, weak, arena)
    assert strategy_from_json(hat.to_json(), P1) == hat


def test_reset_weakness_gone_at_same_epsilon():
    arena, sigma, eps = build_weak_memory_fixture()
    vv = brute_force_value(arena, mean)
    weak = weakness_set(arena, mean, sigma, eps, values=vv.values)
    hat = reset_strategy(sigma, weak, arena)
    weak_hat = weakness_set(arena, mean, hat, eps, values=vv.values)
    reachable = {("m0", "s"), ("m0", "t"), ("m1", "t")}
    assert not (weak_hat.pairs & reachable)
