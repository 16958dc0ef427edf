"""Strategy-pair evaluation, grid values with certificates, action
classification, martingale and stopped-value checks."""

import dataclasses
import itertools
import random
import sys
import tracemalloc
import weakref
from fractions import Fraction
from math import log, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochgame import arena as arena_module
from stochgame import chain as chain_module
from stochgame import payoff as payoff_module
from stochgame import solve
from stochgame.arena import P1, P2, Arena, random_arena
from stochgame.chain import (
    absorption_from, bottom_classes, bottom_sccs, induce_chain,
)
from stochgame.fixtures import build_e2, build_e3
from stochgame.payoff import class_value, parse_payoff_spec, reward
from stochgame.solve import (
    BudgetError, SolveError, UnsupportedPayoffError,
    best_response_min, brute_force_value, classify_actions,
    martingale_check, node_values, stopped_value_exact, stopped_value_mc,
)
from stochgame.strategy import (
    FiniteMemoryStrategy, PureStationaryStrategy, StrategyError, WeaknessSet,
)
from stochgame.verify import _adversarial_min, _random_memory_strategy
from helpers import enumerate_pure_stationary, fold_tables, restrict

F = Fraction
mean = parse_payoff_spec("mean")
par = parse_payoff_spec("parity")


def _unique(arena, player):
    return PureStationaryStrategy(
        player, {s: arena.available[s][0] for s in arena.player_states(player)})


def test_expected_payoff_constant_loop():
    arena = Arena(
        states=("s",), owner={"s": P1}, available={"s": ("a",)},
        transition={("s", "a"): {"s": F(1)}}, colour={("s", "a"): reward(3)})
    assert node_values(arena, mean, _unique(arena, P1), _unique(arena, P2),
                       [("s", "m0", "m0")])[0] == 3


def test_expected_payoff_e3_mean_and_parity():
    e3 = build_e3()
    assert node_values(e3, mean, _unique(e3, P1), _unique(e3, P2),
                       [("s", "m0", "m0")])[0] == 1
    e3p = build_e3("priority")
    assert node_values(e3p, par, _unique(e3p, P1), _unique(e3p, P2),
                       [("s", "m0", "m0")])[0] == F(1, 2)


def test_expected_payoff_rejects_global_payoffs():
    e3 = build_e3()
    with pytest.raises(UnsupportedPayoffError):
        node_values(e3, parse_payoff_spec("geomfirstone"),
                    _unique(e3, P1), _unique(e3, P2), [("s", "m0", "m0")])
    with pytest.raises(UnsupportedPayoffError):
        node_values(e3, parse_payoff_spec("suffixtarget:a"),
                    _unique(e3, P1), _unique(e3, P2), [("s", "m0", "m0")])


def test_best_response_no_choices():
    e3 = build_e3()
    response = best_response_min(e3, mean, _unique(e3, P1))
    assert response.values == {"s": 1, "t": 0, "u": 2}
    assert response.has_uniform


def test_best_response_picks_smaller_sink():
    arena = Arena(
        states=("p", "zero", "five"),
        owner={"p": P2, "zero": P1, "five": P1},
        available={"p": ("lo", "hi"), "zero": ("a",), "five": ("a",)},
        transition={("p", "lo"): {"zero": F(1)}, ("p", "hi"): {"five": F(1)},
                    ("zero", "a"): {"zero": F(1)}, ("five", "a"): {"five": F(1)}},
        colour={("p", "lo"): reward(0), ("p", "hi"): reward(0),
                ("zero", "a"): reward(0), ("five", "a"): reward(5)})
    response = best_response_min(arena, mean, _unique(arena, P1))
    assert response.values["p"] == 0
    assert response.uniform.choice["p"] == "lo"


def test_best_response_rejects_unsupported_spec():
    with pytest.raises(UnsupportedPayoffError):
        best_response_min(build_e3(), parse_payoff_spec("posavg"),
                          _unique(build_e3(), P1))


def test_best_response_needs_a_pure_stationary_sigma():
    # a mixed or finite-memory sigma has no grid row; product_values takes it
    arena = random_arena(4, 3, seed=1)
    sigma = _random_memory_strategy(arena, random.Random(1), 2)
    with pytest.raises(StrategyError, match="product_values"):
        best_response_min(arena, mean, sigma)


def _best_response_oracle(arena, spec, sigma):
    """The minimizer's stationary strategies, enumerated one by one: per
    state the minimum and the first strategy reaching it, the last strategy
    reaching every minimum at once, and how many states more than one
    strategy reaches the minimum at."""
    best, argmin, rows = {}, {}, []
    uniform = uniform_vals = None
    for tau in enumerate_pure_stationary(arena, P2):
        vals = dict(zip(arena.states, node_values(arena, spec, sigma, tau)))
        rows.append(vals)
        for s, v in vals.items():
            if s not in best or v < best[s]:
                best[s] = v
                argmin[s] = tau
        if vals == best:
            uniform, uniform_vals = tau, vals
    if uniform_vals != best:
        uniform = None
    ties = sum(sum(row[s] == best[s] for row in rows) > 1 for s in arena.states)
    return best, argmin, uniform, ties


POSITIONAL_KINDS = [("mean", "reward"), ("limsup", "reward"),
                    ("liminf", "reward"), ("parity", "priority"),
                    ("discounted", "discounted")]


def _fold_response(arena, spec, sigma):
    """The response fold on sigma's own product, as a `best_response_min`
    answer's choices: the per-state values (`product_values`), and, from
    the test-side fold (`fold_tables`), the first table attaining each
    state's minimum and the uniform table or None."""
    values = {s: v for (_, s), v in
              solve.product_values(arena, spec, sigma).items()}
    _, argmin, uniform = fold_tables(arena, spec, sigma)

    def choice(table):
        return {s: a for (_, s), a in table.items()}

    return (values, {s: choice(t) for (_, s), t in argmin.items()},
            uniform and choice(uniform))


@pytest.mark.parametrize("name, kind", POSITIONAL_KINDS)
def test_best_response_matches_the_stationary_enumeration(name, kind):
    # values, per-state minimizers (first in enumeration order) and the
    # uniform minimizer all agree with the one-strategy-at-a-time loop and
    # with the response fold on sigma's own product, whether sigma's row is
    # read from a fresh grid or from the arena's live grid
    spec = parse_payoff_spec(name)
    rng = random.Random(name)
    ties = 0
    for n in (4, 5):
        for seed in range(60):
            arena = random_arena(n, 3, seed=seed, kind=kind)
            sigma = PureStationaryStrategy(
                P1, {s: rng.choice(arena.available[s])
                     for s in arena.player_states(P1)})
            best, argmin, uniform, tied = _best_response_oracle(arena, spec,
                                                                sigma)
            want = (best, {s: t.choice for s, t in argmin.items()},
                    uniform and uniform.choice)
            assert _fold_response(arena, spec, sigma) == want
            fresh = best_response_min(arena, spec, sigma)
            grid = solve.GridSolver(arena)
            live = best_response_min(arena, spec, sigma)
            assert solve._LIVE_GRIDS.get(id(arena)) is grid
            del grid
            for response in (fresh, live):
                assert (response.values,
                        {s: t.choice for s, t in response.minimizers.items()},
                        response.uniform and response.uniform.choice) == want
            ties += tied
    assert ties  # several responses reach some state's minimum


def _counting_new_work(monkeypatch):
    """Record every product skeleton and every pair evaluator the solver
    builds from now on."""
    built = []
    product_skeleton, pair_evaluator = solve.product_skeleton, solve.PairEvaluator
    monkeypatch.setattr(solve, "product_skeleton", lambda *args, **kwargs: (
        built.append("skeleton") or product_skeleton(*args, **kwargs)))
    monkeypatch.setattr(solve, "PairEvaluator", lambda *args: (
        built.append("pair") or pair_evaluator(*args)))
    return built


def test_best_response_reads_the_live_grid_without_new_work(monkeypatch):
    # brute_force_value has evaluated every pair of the live grid, and the
    # grid keeps every row of every payoff, so the best response to sigma*
    # builds no product and values no pair; its minimizers are the grid's
    # own column strategies, the certificates'
    built = _counting_new_work(monkeypatch)
    valued = []
    int_pair_values = solve.GridSolver.int_pair_values
    monkeypatch.setattr(solve.GridSolver, "int_pair_values",
                        lambda self, *args: valued.append(args)
                        or int_pair_values(self, *args))
    for name, kind in POSITIONAL_KINDS:
        spec = parse_payoff_spec(name)
        for seed in range(8):
            arena = random_arena(4 + seed % 2, 3, seed=seed, kind=kind)
            grid = solve.GridSolver(arena)
            vv = brute_force_value(arena, spec, grid=grid)
            assert len(valued) == len(grid.rows) * len(grid.columns)
            built.clear()
            valued.clear()
            response = best_response_min(arena, spec, vv.sigma_star)
            assert built == [] and valued == []
            assert response.values == vv.values
            for s in arena.states:
                assert response.minimizers[s] is vv.best_response[s][0]


def test_a_live_grid_dies_with_its_owner_and_serves_only_its_arena(
        monkeypatch):
    # the registry holds its grids weakly; a grid recorded under an arena's
    # id but built for another arena is never read, and the fresh grid a
    # best response builds is gone once the answer is returned
    arena = random_arena(4, 3, seed=1)
    sigma = _unique(arena, P1)
    grid = solve.GridSolver(arena)
    ref = weakref.ref(grid)
    assert solve._LIVE_GRIDS.get(id(arena)) is grid
    del grid
    assert ref() is None and solve._LIVE_GRIDS.get(id(arena)) is None
    want = best_response_min(arena, mean, sigma)

    twin = random_arena(4, 3, seed=1)   # equal, but another object
    other = solve.GridSolver(twin)
    monkeypatch.setitem(solve._LIVE_GRIDS, id(arena), other)
    read = []
    int_pair_values = solve.GridSolver.int_pair_values

    def recording(self, spec, i, j):
        read.append(weakref.ref(self))
        return int_pair_values(self, spec, i, j)

    monkeypatch.setattr(solve.GridSolver, "int_pair_values", recording)
    response = best_response_min(arena, mean, sigma)
    assert read and all(r() is None for r in read)
    assert (response.values, response.minimizers.keys()) \
        == (want.values, want.minimizers.keys())
    best_response_min(twin, mean, sigma)
    assert read[-1]() is other


# -- one grid core per arena dynamics ----------------------------------------


def _grid_answers(arena, spec, grid):
    """What a grid answers for one payoff, as plain values: the values,
    sigma*, the certificates, and the best response to sigma* read from
    the grid, with its minimizers and uniform minimizer."""
    vv = brute_force_value(arena, spec, grid=grid)
    response = best_response_min(arena, spec, vv.sigma_star)
    return (vv.values, vv.sigma_star.choice,
            {s: (tau.choice, v) for s, (tau, v) in vv.best_response.items()},
            response.values,
            {s: tau.choice for s, tau in response.minimizers.items()},
            response.uniform and response.uniform.choice)


def _unshared_answers(monkeypatch, arena, specs):
    """`_grid_answers` for each payoff from one grid built with a core
    registry of its own, so that it shares no core."""
    monkeypatch.setattr(solve, "_CORES", weakref.WeakValueDictionary())
    grid = solve.GridSolver(arena)
    return [_grid_answers(arena, spec, grid) for spec in specs]


def _counting_core_work(monkeypatch):
    """Record each product skeleton, chain pick, bottom-class search and
    absorption solve the solver makes from now on."""
    made = []

    def counting(name, fn):
        return lambda *args, **kwargs: made.append(name) or fn(*args, **kwargs)

    monkeypatch.setattr(solve, "product_skeleton",
                        counting("skeleton", solve.product_skeleton))
    monkeypatch.setattr(chain_module.ProductSkeleton, "pick",
                        counting("pick", chain_module.ProductSkeleton.pick))
    monkeypatch.setattr(chain_module, "bottom_classes",
                        counting("classes", chain_module.bottom_classes))
    monkeypatch.setattr(solve, "absorption_from",
                        counting("absorption", solve.absorption_from))
    return made


COLOURINGS = {"reward": ("mean", "limsup", "liminf"), "priority": ("parity",),
              "discounted": ("discounted",)}


@pytest.mark.parametrize("first", ["reward", "priority"])
def test_a_second_colouring_reuses_the_core_and_answers_as_alone(
        monkeypatch, first):
    # the colourings of one random_arena seed share one core: once the
    # first has valued every pair, the others build no skeleton, pick no
    # chain, find no bottom class and solve no absorption, and every
    # value, certificate and best response equals that of a grid alone
    order = [first] + [kind for kind in COLOURINGS if kind != first]
    for seed in range(10):
        arenas = {kind: random_arena(4 + seed % 3, 3, seed=seed, kind=kind)
                  for kind in COLOURINGS}
        specs = {kind: [parse_payoff_spec(name) for name in names]
                 for kind, names in COLOURINGS.items()}
        want = {kind: _unshared_answers(monkeypatch, arenas[kind], specs[kind])
                for kind in order}
        monkeypatch.setattr(solve, "_CORES", weakref.WeakValueDictionary())
        made = _counting_core_work(monkeypatch)
        grids = []
        for kind in order:
            made.clear()
            grids.append(solve.GridSolver(arenas[kind]))
            assert [_grid_answers(arenas[kind], spec, grids[-1])
                    for spec in specs[kind]] == want[kind], (seed, kind)
            if kind != first:
                assert made == [], (seed, kind)
            else:
                assert made.count("skeleton") == 1
        assert len({id(grid._core) for grid in grids}) == 1
        monkeypatch.undo()


def _recoloured(arena, colour):
    """The arena with each (state, action)'s colour replaced by
    `colour(token, k)`, k its position in the colour table."""
    return dataclasses.replace(arena, colour={
        sa: colour(tok, k) for k, (sa, tok) in enumerate(arena.colour.items())})


def test_reward_colourings_of_one_dynamics_keep_their_own_class_values(
        monkeypatch):
    # two reward colourings sharing a core, valued in turn, each get the
    # values of a grid alone, which differ: class values are kept per
    # colouring, not per payoff on the shared summaries
    specs = [parse_payoff_spec(name) for name in COLOURINGS["reward"]]
    differ = 0
    for seed in range(10):
        first = random_arena(4 + seed % 2, 3, seed=seed)
        second = _recoloured(first, lambda tok, k: reward(
            3 * tok.value + (k % 3) - 1))
        want = [_unshared_answers(monkeypatch, arena, specs)
                for arena in (first, second)]
        monkeypatch.setattr(solve, "_CORES", weakref.WeakValueDictionary())
        grids = [solve.GridSolver(first), solve.GridSolver(second)]
        assert grids[0]._core is grids[1]._core
        got = [[], []]
        for spec in specs:
            for k, arena in enumerate((first, second)):
                got[k].append(_grid_answers(arena, spec, grids[k]))
        assert got == want, seed
        differ += want[0] != want[1]
    assert differ >= 8


def test_a_discounted_colouring_reads_only_its_own_rewards_and_discounts(
        monkeypatch):
    # a second discounted colouring of the core, with other rewards and
    # other discounts per action, values every pair as a grid alone, and
    # builds its discounted equations once, from its own colours
    disc = parse_payoff_spec("discounted")
    built = []
    equations = chain_module.ProductSkeleton.discounted_rows
    monkeypatch.setattr(chain_module.ProductSkeleton, "discounted_rows",
                        lambda self, arena: built.append(arena)
                        or equations(self, arena))
    for seed in range(10):
        first = random_arena(4 + seed % 2, 3, seed=seed, kind="discounted")
        second = _recoloured(first, lambda tok, k: payoff_module.discounted(
            tok.value[0] - (k % 2), (F(1, 3), F(4, 5), F(0))[k % 3]))
        want = [_unshared_answers(monkeypatch, arena, [disc])[0]
                for arena in (first, second)]
        assert want[0] != want[1]
        monkeypatch.setattr(solve, "_CORES", weakref.WeakValueDictionary())
        grids = [solve.GridSolver(first), solve.GridSolver(second)]
        assert grids[0]._core is grids[1]._core
        built.clear()
        got = [_grid_answers(arena, disc, grid)
               for arena, grid in zip((first, second), grids)]
        assert got == want, seed
        assert built == [first, second]


def test_the_core_dies_with_its_last_grid():
    # the core registry holds its cores weakly: a core outlives a grid
    # while another colouring's grid holds it, and no longer
    arena = random_arena(5, 3, seed=4)
    other = random_arena(5, 3, seed=4, kind="priority")
    key = arena.dynamics()
    grid = solve.GridSolver(arena)
    brute_force_value(arena, mean, grid=grid)
    second = solve.GridSolver(other)
    core = weakref.ref(grid._core)
    assert second._core is core() and solve._CORES.get(key) is core()
    del grid
    assert core() is not None and solve._CORES.get(key) is core()
    del second
    assert core() is None and solve._CORES.get(key) is None


def test_arenas_of_other_dynamics_never_share_a_core():
    # moving probability between two successors, dropping or renaming an
    # action, or handing a state to the other player gives another
    # dynamics and so another core; an equal twin or a recolouring shares
    checked = 0
    for seed in range(30):
        arena = random_arena(4, 3, seed=seed)
        variants = []
        for (s, a), dist in arena.transition.items():
            if len(dist) > 1:
                t, u = list(dist)[:2]
                shift = min(dist[t], 1 - dist[u]) / 2
                variants.append(dataclasses.replace(arena, transition={
                    **arena.transition,
                    (s, a): {**dist, t: dist[t] - shift, u: dist[u] + shift}}))
                break
        for s in arena.states:
            acts = arena.available[s]
            if len(acts) > 1:
                variants.append(restrict(arena, s, acts[:-1]))
                renamed = {(s, acts[-1]): (s, "z")}
                variants.append(dataclasses.replace(
                    arena,
                    available={**arena.available, s: (*acts[:-1], "z")},
                    transition={renamed.get(sa, sa): d
                                for sa, d in arena.transition.items()},
                    colour={renamed.get(sa, sa): c
                            for sa, c in arena.colour.items()}))
                break
        s = arena.states[0]
        variants.append(dataclasses.replace(arena, owner={
            **arena.owner, s: P1 if arena.owner[s] == P2 else P2}))
        grid = solve.GridSolver(arena)
        for variant in variants:
            assert variant.dynamics() != arena.dynamics()
            assert solve.GridSolver(variant)._core is not grid._core
            checked += 1
        for same in (random_arena(4, 3, seed=seed),
                     random_arena(4, 3, seed=seed, kind="increment")):
            assert solve.GridSolver(same)._core is grid._core
    assert checked >= 60


def test_best_response_on_a_live_discounted_grid_solves_nothing(monkeypatch):
    # brute_force_value has solved every pair's discounted system, and the
    # grid keeps each row, so sigma*'s row is read without a new solve
    disc = parse_payoff_spec("discounted")
    solves = []
    discounted_values = solve.discounted_values
    monkeypatch.setattr(solve, "discounted_values", lambda eqs: (
        solves.append(len(eqs)) or discounted_values(eqs)))
    for seed in range(8):
        arena = random_arena(4 + seed % 2, 3, seed=seed, kind="discounted")
        grid = solve.GridSolver(arena)
        vv = brute_force_value(arena, disc, grid=grid)
        assert len(solves) == len(grid.rows) * len(grid.columns)
        solves.clear()
        response = best_response_min(arena, disc, vv.sigma_star)
        assert solves == []
        assert response.values == vv.values


def test_best_response_budget_bounds_the_columns_alone():
    # the budget counts the minimizer's columns, so a budget below the
    # grid's pair count still admits sigma's row, from a fresh grid or a
    # live one; one below the columns is the response BudgetError
    checked = 0
    for seed in range(12):
        arena = random_arena(4, 3, seed=seed)
        rows = len(list(enumerate_pure_stationary(arena, P1)))
        columns = len(list(enumerate_pure_stationary(arena, P2)))
        if rows < 2 or columns < 2:
            continue
        sigma = _unique(arena, P1)
        want = best_response_min(arena, mean, sigma).values
        with pytest.raises(BudgetError):
            solve.GridSolver(arena, rows * columns - 1)
        for budget in (columns, rows * columns - 1):
            assert best_response_min(arena, mean, sigma, budget).values == want
        with pytest.raises(BudgetError,
                           match=f"^{columns} responses exceed budget "
                                 f"{columns - 1}$"):
            best_response_min(arena, mean, sigma, columns - 1)
        grid = solve.GridSolver(arena)
        assert best_response_min(arena, mean, sigma, columns).values == want
        with pytest.raises(BudgetError):
            best_response_min(arena, mean, sigma, columns - 1)
        del grid
        checked += 1
    assert checked


def test_a_fresh_grid_never_holds_the_maximizers_rows():
    # 3**13 stationary strategies of the maximizer against 2 of the
    # minimizer: past the default budget for the grid's pairs, yet sigma's
    # row is read, and the rows are decoded when read, never all held (as
    # tuples they would take over 200 MB)
    p1 = [f"p{k}" for k in range(13)]
    states = (*p1, "q")
    # a ring p0 -> ... -> p12 -> q -> p0, every action to the next state
    ring = zip(states, (*states[1:], states[0]))
    moves = [(k, s, t, a) for k, (s, t) in enumerate(ring)
             for a in ("ab" if s == "q" else "abc")]
    arena = Arena(
        states=states, owner={**{s: P1 for s in p1}, "q": P2},
        available={s: ("a", "b") if s == "q" else ("a", "b", "c")
                   for s in states},
        transition={(s, a): {t: F(1)} for _, s, t, a in moves},
        colour={(s, a): reward(k % 3 + (a == "b")) for k, s, _, a in moves})
    with pytest.raises(BudgetError):
        solve.GridSolver(arena)
    sigma = PureStationaryStrategy(P1, {s: "abc"[k % 3]
                                        for k, s in enumerate(p1)})
    tracemalloc.start()
    try:
        response = best_response_min(arena, mean, sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    assert response.values == {s: v for (_, s), v in
                               solve.product_values(arena, mean, sigma).items()}
    assert response.uniform.choice == {"q": "a"}


def test_grid_rows_and_columns_decode_the_product_order():
    for seed in range(10):
        arena = random_arena(5, 3, seed=seed)
        grid = solve.GridSolver(arena)
        for picks, player in ((grid.rows, P1), (grid.columns, P2)):
            want = list(itertools.product(
                *(range(len(arena.available[s]))
                  for s in arena.player_states(player))))
            assert list(picks) == want and len(picks) == len(want)
            assert [picks.index(t) for t in want] == list(range(len(want)))
            with pytest.raises(IndexError):
                picks[len(want)]


def test_a_grid_builds_each_strategy_once():
    # three payoffs on one grid report each row and column as one shared
    # strategy object
    specs = [parse_payoff_spec(name) for name in ("mean", "limsup", "liminf")]
    for seed in range(6):
        arena = random_arena(4, 3, seed=seed)
        grid = solve.GridSolver(arena)
        built = {}
        for spec in specs:
            vv = brute_force_value(arena, spec, grid=grid)
            for strategy in (vv.sigma_star,
                             *(tau for tau, _ in vv.best_response.values())):
                key = strategy.player, tuple(sorted(strategy.choice.items()))
                assert built.setdefault(key, strategy) is strategy
        assert grid.strategy(P2, 0) is grid.strategy(P2, 0)


def test_best_response_builds_one_strategy_per_response_table():
    # two states whose minimum the same response table attains first share
    # one strategy object, and so does the uniform minimizer when it is one
    # of those tables; states with different tables get different objects
    shared = 0
    for seed in range(20):
        arena = random_arena(4, 3, seed=seed)
        sigma = _unique(arena, P1) if seed % 2 else PureStationaryStrategy(
            P1, {s: arena.available[s][-1] for s in arena.player_states(P1)})
        _, argmin, uniform = fold_tables(arena, mean, sigma)
        response = best_response_min(arena, mean, sigma)
        tables = {s: argmin[("m0", s)] for s in arena.states}
        for s in arena.states:
            for t in arena.states:
                assert (response.minimizers[s] is response.minimizers[t]) \
                    == (tables[s] is tables[t])
            if uniform is tables[s]:
                assert response.uniform is response.minimizers[s]
        shared += len({id(t) for t in tables.values()}) < len(tables)
    assert shared


def _grid_strategies(grid):
    """The grid's rows and columns as strategies, one by one: the
    stationary strategies of each player, in enumeration order, which
    `sigma(i)` and `tau(j)` build."""
    arena = grid.arena
    sigmas = list(enumerate_pure_stationary(arena, P1))
    taus = list(enumerate_pure_stationary(arena, P2))
    assert (len(grid.rows), len(grid.columns)) == (len(sigmas), len(taus))
    assert [grid.strategy(P1, i).choice for i in range(len(sigmas))] \
        == [sigma.choice for sigma in sigmas]
    assert [grid.strategy(P2, j).choice for j in range(len(taus))] \
        == [tau.choice for tau in taus]
    return sigmas, taus


@pytest.mark.parametrize("name, kind", POSITIONAL_KINDS)
def test_grid_matches_a_per_pair_node_values_grid(name, kind):
    # the grid picks every pair's chain from one skeleton and shares class
    # summaries between pairs; the oracle evaluates each pair with
    # node_values on its own induce_chain chain.  Every pair value, the
    # values, sigma* and the certificates are equal.
    spec = parse_payoff_spec(name)
    several = 0
    for seed in range(12):
        # sparse arenas give pairs with several bottom classes
        density = (F(0), F(1, 4), F(1, 2))[seed % 3]
        arena = random_arena(4, 3, density=density, seed=seed, kind=kind)
        grid = solve.GridSolver(arena)
        sigmas, taus = _grid_strategies(grid)
        vals = [[dict(zip(arena.states, node_values(arena, spec, sigma, tau)))
                 for tau in taus] for sigma in sigmas]
        assert vals == [[grid.pair_values(spec, i, j)
                         for j in range(len(taus))]
                        for i in range(len(sigmas))]
        several += sum(len(bottom_classes(induce_chain(arena, sigma, tau))) > 1
                       for sigma in sigmas for tau in taus)
        worst = [{s: min(row[s] for row in rows) for s in arena.states}
                 for rows in vals]
        value = {s: max(w[s] for w in worst) for s in arena.states}
        best_i = next(i for i, w in enumerate(worst) if w == value)
        vv = brute_force_value(arena, spec)
        assert vv.values == value
        assert vv.sigma_star.choice == sigmas[best_i].choice
        for s in arena.states:
            j = min(range(len(taus)), key=lambda j: vals[best_i][j][s])
            tau, achieved = vv.best_response[s]
            assert (tau.choice, achieved) == (taus[j].choice, value[s])
    assert several  # some pairs' chains have several bottom classes


REDUCED_KINDS = POSITIONAL_KINDS + [
    ("posavg", "reward"), ("meancobuchi:100", "cobuchi"),
    ("optgenmean:2", "vector2"), ("counter+inf", "increment")]


def _fraction_reduction(arena, spec):
    """The grid reduction in `Fraction`s, from `node_values` on each pair
    of stationary strategies: maxmin, minmax, the first row attaining the
    maxmin at every state, its first minimizing column per state, the
    first column holding every state to the maxmin, and the first row of
    the largest total guarantee."""
    sigmas = list(enumerate_pure_stationary(arena, P1))
    taus = list(enumerate_pure_stationary(arena, P2))
    vals = [[node_values(arena, spec, sigma, tau) for tau in taus]
            for sigma in sigmas]
    states = range(len(arena.states))
    minima = [[min(v[k] for v in row) for k in states] for row in vals]
    maxima = [[max(row[j][k] for row in vals) for k in states]
              for j in range(len(taus))]
    maxmin = [max(m[k] for m in minima) for k in states]
    minmax = [min(m[k] for m in maxima) for k in states]
    row = next((i for i, m in enumerate(minima) if m == maxmin), None)
    argmin = None if row is None else [
        min(range(len(taus)), key=lambda j: vals[row][j][k]) for k in states]
    column = next((j for j, m in enumerate(maxima) if m == maxmin), None)
    totals = [sum(m) for m in minima]
    return maxmin, minmax, row, argmin, column, totals.index(max(totals))


def _reduced(arena, spec):
    maxmin, minmax, *rest = solve.GridSolver(arena).reduce(spec)
    return ([F(*v) for v in maxmin], [F(*v) for v in minmax], *rest)


@pytest.mark.parametrize("name, kind", REDUCED_KINDS)
def test_grid_reduction_matches_a_fraction_reduction(name, kind):
    # the integer reduction of the kept rows is the Fraction reduction of
    # node_values on every pair; where a row attains the maxmin everywhere
    # it is also the first row of the largest total guarantee
    spec = parse_payoff_spec(name)
    for n in (3, 4):
        for seed in range(20):
            arena = random_arena(n, 3, seed=seed, kind=kind)
            *want, top = _fraction_reduction(arena, spec)
            got = _reduced(arena, spec)
            assert got == tuple(want)
            assert got[2] in (None, top)


def test_grid_reduction_without_a_floor_column():
    # optgenmean:2 grids where no column holds every state to the maxmin
    spec = parse_payoff_spec("optgenmean:2")
    for n, seed in ((3, 40), (4, 1)):
        arena = random_arena(n, 3, seed=seed, kind="vector2")
        *want, _ = _fraction_reduction(arena, spec)
        got = _reduced(arena, spec)
        assert got == tuple(want)
        assert got[4] is None


@pytest.mark.parametrize("name, kind", [("posavg", "reward"),
                                        ("meancobuchi:100", "cobuchi")])
def test_half_positional_grids_close_with_a_floor_row_and_column(name, kind):
    # on these grids maxmin equals minmax, some row attains the maxmin at
    # every state, and some column holds every state to it
    spec = parse_payoff_spec(name)
    for n in (3, 4, 5):
        for seed in range(50):
            maxmin, minmax, row, _, column = solve.GridSolver(
                random_arena(n, 3, seed=seed, kind=kind)).reduce(spec)
            assert all(map(solve._same, maxmin, minmax))
            assert row is not None and column is not None


EVALUABLE_KINDS = POSITIONAL_KINDS + [
    ("posavg", "reward"), ("meancobuchi:100", "cobuchi"),
    ("genmean:2", "vector2"), ("optgenmean:2", "vector2"),
    ("counter+inf", "increment"), ("counter-inf", "increment")]


@pytest.mark.parametrize("name, kind", EVALUABLE_KINDS)
def test_integer_pair_values_read_as_fractions_equal_node_values(name, kind):
    # every grid pair's integer values share one positive denominator and,
    # read as Fractions, are node_values' on the pair's own chain
    spec = parse_payoff_spec(name)
    seen = set()
    for seed in range(6):
        arena = random_arena(4, 3, density=(F(0), F(1, 4), F(1, 2))[seed % 3],
                             seed=seed, kind=kind)
        if name == "genmean:2":
            # (r, -1 - r) never gives two positive means; (r, 1 - r) can
            arena = dataclasses.replace(arena, colour={
                key: payoff_module.vector(tok.value[0], 1 - tok.value[0])
                for key, tok in arena.colour.items()})
        grid = solve.GridSolver(arena)
        sigmas, taus = _grid_strategies(grid)
        for i, sigma in enumerate(sigmas):
            for j, tau in enumerate(taus):
                got = grid.int_pair_values(spec, i, j)
                assert len({d for _, d in got}) == 1 and got[0][1] > 0
                want = node_values(arena, spec, sigma, tau)
                assert [F(n, d) for n, d in got] == want
                seen.update(want)
    assert len(seen) > 1


def _cross_oracle(column, sign):
    """The index of the first least (sign 1) or greatest (sign -1) value of
    `column`, read as Fractions."""
    values = [F(n, d) for n, d in column]
    return values.index((min if sign > 0 else max)(values))


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_first_least_cross_multiplies_exactly(seed):
    # values of both signs from a few rationals, written over unequal and
    # unreduced denominators, so that ties across denominators are common
    rng = random.Random(seed)
    pool = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)]
    rows = []
    for _ in range(rng.randint(1, 6)):
        row = []
        for _ in range(3):
            v, scale = rng.choice(pool), rng.randint(1, 5)
            row.append((v.numerator * scale, v.denominator * scale))
        rows.append(row)
    for sign in (1, -1):
        at, best = solve.first_least(rows, sign)
        for k, column in enumerate(zip(*rows)):
            assert at[k] == _cross_oracle(column, sign)
            assert best[k] == column[at[k]]


def _three_action_arena():
    """One maximizer state s and one minimizer state t, three actions
    each."""
    return Arena(
        states=("s", "t"), owner={"s": P1, "t": P2},
        available={"s": ("a", "b", "c"), "t": ("a", "b", "c")},
        transition={(s, a): {s: F(1)} for s in "st" for a in "abc"},
        colour={(s, a): reward(0) for s in "st" for a in "abc"})


def test_brute_force_value_compares_a_hand_built_grid_exactly(monkeypatch):
    # values of both signs, each pair over its own unreduced denominator,
    # with ties across denominators: sigma 1 is the first to attain the
    # maxmin at both states, and tau 1 the first to hold it there, though
    # tau 2 ties with it at both
    grid = {"s": [[F(3), F(-1), F(5)],
                  [F(0), F(-1, 2), F(-1, 2)],
                  [F(1, 3), F(-2), F(-1, 2)]],
            "t": [[F(3, 4), F(1, 2), F(7, 5)],
                  [F(1), F(2, 3), F(2, 3)],
                  [F(1, 2), F(0), F(1)]]}

    def pair(self, spec, i, j):
        vs, vt = grid["s"][i][j], grid["t"][i][j]
        den = (vs.denominator * vt.denominator) * (1 + (3 * i + j) % 4)
        return [(int(v * den), den) for v in (vs, vt)]

    monkeypatch.setattr(solve.GridSolver, "int_pair_values", pair)
    arena = _three_action_arena()
    vv = brute_force_value(arena, mean)
    assert vv.values == {"s": F(-1, 2), "t": F(2, 3)}
    assert all(type(v) is F for v in vv.values.values())
    sigmas = list(enumerate_pure_stationary(arena, P1))
    taus = list(enumerate_pure_stationary(arena, P2))
    assert vv.sigma_star.choice == sigmas[1].choice
    assert {s: (tau.choice, v) for s, (tau, v) in vv.best_response.items()} \
        == {s: (taus[1].choice, vv.values[s]) for s in "st"}


def _recording_class_work(monkeypatch):
    """Record the class work of chains picked from a product skeleton: the
    class key (nodes, choices at those nodes) of each summary built, the
    (payoff, class key) of each `class_value` call, through every module
    that binds the function, and the number of bottom classes each picked
    chain's evaluation looked up."""
    picked = {}   # id(chain): (chain, kept so its id stays unique; choice)
    built, valued, looked_up = [], [], []

    def key(chain, nodes):
        choice = picked[id(chain)][1]
        return tuple(nodes), tuple(choice[node] for node in nodes)

    pick = chain_module.ProductSkeleton.pick

    def recording_pick(self, choice):
        chain = pick(self, choice)
        picked[id(chain)] = chain, tuple(choice)
        return chain

    init = chain_module.RecurrentClassSummary.__init__

    def recording_init(self, chain, nodes):
        init(self, chain, nodes)
        built.append(key(chain, nodes))

    def recording_value(spec, letters, cls):
        valued.append((spec, key(cls.chain, cls.nodes)))
        return class_value(spec, letters, cls)

    def recording_lookup(chain):
        classes = bottom_classes(chain)
        looked_up.append(len(classes))
        return classes

    monkeypatch.setattr(chain_module.ProductSkeleton, "pick", recording_pick)
    monkeypatch.setattr(chain_module.RecurrentClassSummary, "__init__",
                        recording_init)
    bound = [module for name, module in sorted(sys.modules.items())
             if name.split(".")[0] == "stochgame"
             and getattr(module, "class_value", None) is class_value]
    assert payoff_module in bound
    for module in bound:
        monkeypatch.setattr(module, "class_value", recording_value)
    monkeypatch.setattr(chain_module, "bottom_classes", recording_lookup)
    return built, valued, looked_up


def _assert_each_class_summarized_and_valued_once(work, specs):
    """One summary per class key, one class value per (payoff, class key),
    and each payoff values every class key; returns the lookups that
    found a summary already built.  Clears the records."""
    built, valued, looked_up = work
    assert len(built) == len(set(built))
    assert len(valued) == len(set(valued))
    assert set(valued) == {(spec, k) for spec in specs for k in built}
    hits = sum(looked_up) - len(built)
    for record in work:
        record.clear()
    return hits


def test_each_recurring_class_is_summarized_and_valued_once(monkeypatch):
    # the pairs of one grid, over several payoffs, and the tables of one
    # response fold share each bottom class that recurs with the same
    # choices: it is summarized once and valued once per payoff
    work = _recording_class_work(monkeypatch)
    specs = [parse_payoff_spec(name) for name in ("mean", "limsup", "liminf")]
    grid_hits = 0
    for seed in range(6):
        arena = random_arena(4, 3, density=(F(0), F(1, 2))[seed % 2],
                             seed=seed)
        grid = solve.GridSolver(arena)
        for spec in specs:
            brute_force_value(arena, spec, grid=grid)
        grid_hits += _assert_each_class_summarized_and_valued_once(work, specs)
    arena = random_arena(4, 3, density=F(0), seed=2)
    sigma = _random_memory_strategy(arena, random.Random(2), 2)
    solve.product_values(arena, mean, sigma)
    fold_hits = _assert_each_class_summarized_and_valued_once(work, [mean])
    assert grid_hits > 0 and fold_hits > 0


def test_one_bottom_class_takes_the_class_value_without_absorption(monkeypatch):
    # a chain with one bottom class is absorbed there from every node: the
    # pair's integer values equal the absorption path's, and no absorption
    # system is solved
    solved = []

    def counting(chain, classes):
        solved.append(len(classes))
        return absorption_from(chain, classes)

    monkeypatch.setattr(solve, "absorption_from", counting)
    single = 0
    for seed in range(40):
        arena = random_arena(5, 3, density=(F(0), F(1, 2))[seed % 2], seed=seed)
        sigma, tau = _unique(arena, P1), _unique(arena, P2)
        skeleton = chain_module.product_skeleton(
            arena, [(s, "m0", "m0") for s in arena.states], sigma, tau)
        chain = skeleton.pick((0,) * len(skeleton))
        classes = bottom_sccs(chain)
        absorb, den = absorption_from(chain, classes)
        table = arena.letter_table(mean)
        want = [sum((F(p, den) * F(*class_value(mean, table, classes[ci]))
                     for ci, p in absorb[node].items()), F(0))
                for node in range(len(chain))]
        solved.clear()
        got = solve.Colouring(arena, skeleton).values(solve.PairEvaluator(
            chain, range(len(chain)), (0,) * len(chain), {}), mean)
        assert [F(n, d) for n, d in got] == want
        assert len({d for _, d in got}) == 1 and got[0][1] > 0
        assert solved == ([] if len(classes) == 1 else [len(classes)])
        assert node_values(arena, mean, sigma, tau) == want
        single += len(classes) == 1
    assert 0 < single < 40


def test_memory_responses_cannot_beat_stationary_minimum():
    # sampled two-memory minimizers never go below the enumerated stationary
    # minimum: evidence that the minimizer is positional for the mean payoff
    rng = random.Random(5)
    for seed in range(100):
        arena = random_arena(4, 2, seed=seed)
        if not arena.player_states(P2):
            continue
        sigma = _unique(arena, P1)
        stationary_min = best_response_min(arena, mean, sigma).values
        for _ in range(3):
            mems = ("m0", "m1")
            update = {}
            choices = {}
            for m in mems:
                for s in arena.states:
                    for a in arena.available[s]:
                        for t in arena.states:
                            update[(m, s, a, t)] = rng.choice(mems)
                for s in arena.player_states(P2):
                    choices[(m, s)] = {rng.choice(arena.available[s]): F(1)}
            tau = FiniteMemoryStrategy(P2, mems, "m0", update, choices)
            # every state at both initial memories, in state order
            values = node_values(arena, mean, sigma, tau)
            for s, v in zip(arena.states, values):
                assert v >= stationary_min[s]


def test_brute_force_value_e2():
    vv = brute_force_value(build_e2(), mean)
    assert vv.values == {"s": 1, "t": 1}
    assert vv.sigma_star.choice["s"] == "go"
    tau, achieved = vv.best_response["s"]
    assert achieved == 1


def test_brute_force_value_one_state():
    arena = random_arena(1, 1, seed=3)
    vv = brute_force_value(arena, mean)
    (cls_value,) = vv.values.values()
    assert [cls_value] == node_values(arena, mean, _unique(arena, P1),
                                      _unique(arena, P2))


def test_brute_force_value_hashes_the_arena_only_when_asked(monkeypatch):
    # the fingerprint is computed on each read of `arena_fingerprint`, and
    # equals the arena's own
    printed = []
    print_arena = arena_module.print_arena
    monkeypatch.setattr(arena_module, "print_arena",
                        lambda arena: printed.append(arena) or print_arena(arena))
    arena = random_arena(4, 3, seed=7)
    values = brute_force_value(arena, mean)
    assert printed == []
    assert values.arena_fingerprint == arena.fingerprint()
    assert printed == [arena, arena]


def _two_state_arena():
    """One maximizer state and one minimizer state, two actions each."""
    return Arena(
        states=("s", "t"), owner={"s": P1, "t": P2},
        available={"s": ("a", "b"), "t": ("a", "b")},
        transition={(s, a): {s: F(1)} for s in "st" for a in "ab"},
        colour={(s, a): reward(0) for s in "st" for a in "ab"})


def test_brute_force_value_raises_on_a_grid_without_a_saddle_point(
        monkeypatch):
    # matching pennies: every sigma is held to 0, every tau concedes 1
    monkeypatch.setattr(solve.GridSolver, "int_pair_values",
                        lambda self, spec, i, j: [(int(i == j), 1)] * 2)
    with pytest.raises(solve.SaddlePointError,
                       match=r"^enumerated maxmin \{'s': Fraction\(0, 1\), "
                             r"'t': Fraction\(0, 1\)\} differs from minmax "
                             r"\{'s': Fraction\(1, 1\), 't': Fraction\(1, 1\)\}$"):
        brute_force_value(_two_state_arena(), mean)


def test_brute_force_value_raises_when_no_sigma_attains_every_maxmin(
        monkeypatch):
    # maxmin equals minmax, but sigma 0 attains it at s only and sigma 1 at
    # t only
    monkeypatch.setattr(solve.GridSolver, "int_pair_values",
                        lambda self, spec, i, j: [(int(i == 0), 1),
                                                  (int(i == 1), 1)])
    with pytest.raises(solve.SaddlePointError,
                       match="^no stationary strategy attains the maxmin at "
                             "every state$"):
        brute_force_value(_two_state_arena(), mean)


def test_brute_force_budget_gate():
    with pytest.raises(BudgetError):
        brute_force_value(random_arena(4, 3, seed=1), mean, budget=1)


def test_a_budget_below_one_is_rejected_before_any_work(monkeypatch):
    # budget 1 stays a valid budget that no arena of two pairs fits
    def no_work(*args):
        raise AssertionError("a product was built")

    monkeypatch.setattr(solve, "product_skeleton", no_work)
    arena = random_arena(4, 3, seed=1)
    sigma = next(enumerate_pure_stationary(arena, P1))
    for budget in (0, -1):
        message = f"^budget must be >= 1, not {budget}$"
        with pytest.raises(ValueError, match=message) as raised:
            brute_force_value(arena, mean, budget=budget)
        assert not isinstance(raised.value, BudgetError)
        with pytest.raises(ValueError, match=message):
            best_response_min(arena, mean, sigma, budget)
        with pytest.raises(ValueError, match=message):
            solve.product_values(arena, mean, sigma, budget)
    with pytest.raises(BudgetError):
        brute_force_value(arena, mean, budget=1)


def test_parity_grid_on_one_class_arena_solves_no_linear_system(monkeypatch):
    # at density 1 every pair's chain is one bottom class, so no absorption
    # system is solved, and parity reads only the class's colours; the mean
    # grid on the same arena does solve the classes' distributions
    solved = []
    solve_integer = chain_module.solve_integer

    def counting(matrix, rhs):
        solved.append(len(matrix))
        return solve_integer(matrix, rhs)

    monkeypatch.setattr(chain_module, "solve_integer", counting)
    arena = random_arena(4, 3, density=F(1), seed=3, kind="priority")
    grid = solve.GridSolver(arena)
    sigmas, taus = _grid_strategies(grid)
    assert len(sigmas) * len(taus) > 1
    assert all(len(bottom_classes(induce_chain(arena, sigma, tau))) == 1
               for sigma in sigmas for tau in taus)
    vv = brute_force_value(arena, par, grid=grid)
    assert best_response_min(arena, par, vv.sigma_star).values == vv.values
    assert solved == []
    brute_force_value(random_arena(4, 3, density=F(1), seed=3), mean)
    assert solved


def test_discounted_grid_never_builds_class_analysis(monkeypatch):
    calls = []

    def counting(chain):
        calls.append(len(chain))
        return bottom_classes(chain)

    monkeypatch.setattr(chain_module, "bottom_classes", counting)
    arena = random_arena(4, 3, seed=0, kind="discounted")
    brute_force_value(arena, parse_payoff_spec("discounted"))
    assert calls == []


@given(st.integers(0, 3000))
@settings(max_examples=30, deadline=None)
def test_saddle_point_holds_on_random_arenas(seed):
    arena = random_arena(4, 3, seed=seed, kind="priority")
    vv = brute_force_value(arena, par)  # raises on any saddle violation
    response = best_response_min(arena, par, vv.sigma_star)
    assert response.values == vv.values


@given(st.integers(0, 3000))
@settings(max_examples=20, deadline=None)
def test_value_monotone_under_action_removal(seed):
    arena = random_arena(4, 2, seed=seed)
    vv = brute_force_value(arena, mean)
    rng = random.Random(seed)
    candidates = [s for s in arena.states if len(arena.available[s]) > 1]
    if not candidates:
        return
    s = rng.choice(candidates)
    keep = list(arena.available[s][:-1])
    restricted = restrict(arena, s, keep)
    vv2 = brute_force_value(restricted, mean)
    for t in arena.states:
        if arena.owner[s] == P1:
            assert vv2.values[t] <= vv.values[t]
        else:
            assert vv2.values[t] >= vv.values[t]


# -- classification -----------------------------------------------------------

def test_classify_single_value_all_stable():
    arena = random_arena(1, 1, seed=0)
    vv = brute_force_value(arena, mean)
    cls = classify_actions(arena, vv)
    for facts in cls.table.values():
        assert facts.stable and facts.value_preserving


def test_classify_e2_documents_local_vs_global():
    # both actions at s preserve the value 1, yet playing stay forever is
    # not optimal: locally optimal does not imply optimal
    e2 = build_e2()
    vv = brute_force_value(e2, mean)
    cls = classify_actions(e2, vv)
    stay = cls.table[("s", "stay")]
    go = cls.table[("s", "go")]
    assert stay.value_preserving and stay.stable
    assert go.value_preserving
    assert cls.all_preserving["s"]


def test_classify_value_preserving_not_stable():
    arena = Arena(
        states=("s", "t", "u"),
        owner={"s": P1, "t": P1, "u": P1},
        available={"s": ("a",), "t": ("loop",), "u": ("loop",)},
        transition={("s", "a"): {"t": F(1, 2), "u": F(1, 2)},
                    ("t", "loop"): {"t": F(1)}, ("u", "loop"): {"u": F(1)}},
        colour={("s", "a"): reward(0), ("t", "loop"): reward(0),
                ("u", "loop"): reward(2)})
    vv = brute_force_value(arena, mean)
    assert vv.values["s"] == 1
    facts = classify_actions(arena, vv).table[("s", "a")]
    assert facts.value_preserving and not facts.stable
    assert facts.successor_values == {F(0), F(2)}


# -- martingale checks ----------------------------------------------------------

def _locally_optimal_pair(arena, vv):
    cls = classify_actions(arena, vv)
    sigma = {s: next(a for a in arena.available[s]
                     if cls.table[(s, a)].value_preserving)
             for s in arena.player_states(P1)}
    tau = {s: next(a for a in arena.available[s]
                   if cls.table[(s, a)].value_preserving)
           for s in arena.player_states(P2)}
    return (PureStationaryStrategy(P1, sigma), PureStationaryStrategy(P2, tau),
            cls)


def test_martingale_equality_for_locally_optimal_pair():
    arena = random_arena(4, 3, seed=8)
    vv = brute_force_value(arena, mean)
    sigma, tau, cls = _locally_optimal_pair(arena, vv)
    report = martingale_check(arena, vv, sigma, tau, arena.states[0],
                              classification=cls)
    assert report.verdict == "martingale"
    assert not report.strict_nodes


def test_martingale_strict_when_minimizer_deviates():
    found = False
    for seed in range(60):
        arena = random_arena(4, 3, seed=seed)
        vv = brute_force_value(arena, mean)
        cls = classify_actions(arena, vv)
        sigma, _, _ = _locally_optimal_pair(arena, vv)
        changing = {s: [a for a in arena.available[s]
                        if not cls.table[(s, a)].value_preserving]
                    for s in arena.player_states(P2)}
        if not any(changing.values()):
            continue
        tau = PureStationaryStrategy(
            P2, {s: (changing[s][0] if changing[s] else arena.available[s][0])
                 for s in arena.player_states(P2)})
        report = martingale_check(arena, vv, sigma, tau, arena.states[0],
                                  classification=cls)
        assert report.verdict in ("martingale", "submartingale")
        if report.strict_nodes:
            found = True
            break
    assert found


def test_martingale_rejects_non_locally_optimal_maximizer():
    # staying pays 2 forever, so moving to the reward-1 sink changes value
    arena = Arena(
        states=("s", "t"), owner={"s": P1, "t": P1},
        available={"s": ("stay", "go"), "t": ("loop",)},
        transition={("s", "stay"): {"s": F(1)}, ("s", "go"): {"t": F(1)},
                    ("t", "loop"): {"t": F(1)}},
        colour={("s", "stay"): reward(2), ("s", "go"): reward(0),
                ("t", "loop"): reward(1)})
    vv = brute_force_value(arena, mean)
    sigma = PureStationaryStrategy(P1, {"s": "go", "t": "loop"})
    tau = PureStationaryStrategy(P2, {})
    with pytest.raises(SolveError, match="go"):
        martingale_check(arena, vv, sigma, tau, "s")


# -- stopped values ---------------------------------------------------------------

def _source_chain(arena, sigma, tau, source):
    """The pair's chain seeded at `source` alone, its node 0."""
    return induce_chain(arena, sigma, tau,
                        [(source, sigma.initial, tau.initial)])


def test_stopped_value_horizon_zero_is_exact():
    arena = random_arena(4, 3, seed=4)
    vv = brute_force_value(arena, mean)
    sigma, tau, _ = _locally_optimal_pair(arena, vv)
    chain = _source_chain(arena, sigma, tau, arena.states[0])
    report = stopped_value_mc(chain, vv, ("horizon", 0), runs=50, seed=1)
    assert report.estimate == float(vv.values[arena.states[0]])


def test_stopped_value_first_hit_covers():
    arena = random_arena(4, 3, seed=4)
    vv = brute_force_value(arena, mean)
    sigma, tau, _ = _locally_optimal_pair(arena, vv)
    from stochgame.verify import _class_states
    chain = _source_chain(arena, sigma, tau, arena.states[0])
    report = stopped_value_mc(chain, vv, ("first_hit", _class_states(chain)),
                              runs=10_000, seed=2)
    assert report.covered


def test_stopped_value_submartingale_direction():
    # minimizer deviates: the estimate may exceed but not undershoot the value
    arena = random_arena(4, 3, seed=18)
    vv = brute_force_value(arena, mean)
    cls = classify_actions(arena, vv)
    sigma, _, _ = _locally_optimal_pair(arena, vv)
    tau = PureStationaryStrategy(
        P2, {s: next((a for a in arena.available[s]
                      if not cls.table[(s, a)].value_preserving),
                     arena.available[s][0])
             for s in arena.player_states(P2)})
    report = stopped_value_mc(_source_chain(arena, sigma, tau, arena.states[0]),
                              vv, ("horizon", 30), runs=10_000, seed=3)
    half = report.ci_high - report.estimate
    assert report.estimate >= float(vv.values[arena.states[0]]) - half


def test_stopped_value_first_weakness_rule():
    from stochgame.fixtures import build_weak_memory_fixture
    from stochgame.solve import weakness_set
    arena, sigma, eps = build_weak_memory_fixture()
    vv = brute_force_value(arena, mean)
    weak = weakness_set(arena, mean, sigma, eps, values=vv.values)
    report = stopped_value_mc(_source_chain(arena, sigma, sigma, "s"), vv,
                              ("first_weakness", weak), runs=2000, seed=4)
    # stopping at the trap or absorbing at value 1: mean stays at val(s)=1
    assert report.covered


def test_stopped_values_reject_a_negative_horizon():
    e2 = build_e2()
    vv = brute_force_value(e2, mean)
    chain = _source_chain(e2, vv.sigma_star, _unique(e2, P2), "s")
    with pytest.raises(SolveError, match="horizon must be >= 0, not -3"):
        stopped_value_mc(chain, vv, ("horizon", -3), 10, 1)
    with pytest.raises(SolveError, match="horizon must be >= 0, not -3"):
        stopped_value_exact(chain, vv, ("horizon", -3))


def test_stopped_values_reject_an_unknown_rule_and_a_mixed_class():
    # s (minimizer) stays at 0 or goes to t, where the maximizer loops at 5
    # or comes back: v(s) = 0, v(t) = 5, and under go/back the bottom class
    # {s, t} mixes the two values
    arena = Arena(
        states=("s", "t"), owner={"s": P2, "t": P1},
        available={"s": ("stay", "go"), "t": ("back", "loop")},
        transition={("s", "stay"): {"s": F(1)}, ("s", "go"): {"t": F(1)},
                    ("t", "back"): {"s": F(1)}, ("t", "loop"): {"t": F(1)}},
        colour={("s", "stay"): reward(0), ("s", "go"): reward(0),
                ("t", "back"): reward(0), ("t", "loop"): reward(5)})
    vv = brute_force_value(arena, mean)
    assert vv.values == {"s": 0, "t": 5}
    chain = _source_chain(arena, PureStationaryStrategy(P1, {"t": "back"}),
                          PureStationaryStrategy(P2, {"s": "go"}), "s")
    for stopped in (lambda rule: stopped_value_exact(chain, vv, rule),
                    lambda rule: stopped_value_mc(chain, vv, rule, 10, 1)):
        with pytest.raises(SolveError, match="unknown stopping rule 'never'"):
            stopped(("never", None))
        with pytest.raises(SolveError, match="bottom class mixes state values"):
            stopped(("horizon", 3))


# -- exact stopped values against Fraction oracles ----------------------------------

def _mixed_memory_strategy(arena, player, rng, allowed):
    """A 2-memory strategy of `player` mixing up to two of `allowed(s)` at
    each (memory, state), with random memory updates."""
    mems = ("m0", "m1")
    update = {(m, s, a, t): rng.choice(mems) for m in mems for s in arena.states
              for a in arena.available[s] for t in arena.states}
    choices = {}
    for m in mems:
        for s in arena.player_states(player):
            acts = rng.sample(allowed(s), min(2, len(allowed(s))))
            w = rng.choice((F(1), F(1, 3), F(1, 2), F(3, 4)))
            choices[(m, s)] = {acts[0]: F(1)} if len(acts) == 1 or w == 1 \
                else {acts[0]: w, acts[1]: 1 - w}
    return FiniteMemoryStrategy(player, mems, "m0", update, choices)


def _stopping_case(seed):
    """A random arena with its values, a locally optimal 2-memory mixed
    maximizer, an arbitrary 2-memory mixed minimizer, a source and the
    three stopping rules.  At density 1/5 about one arena in five has more
    than one state value (one in a hundred at the default 1/2)."""
    rng = random.Random(seed)
    kind, spec = (("reward", mean), ("priority", par))[seed % 2]
    arena = random_arena(4, 3, seed=seed, kind=kind, density=F(1, 5))
    vv = brute_force_value(arena, spec)
    cls = classify_actions(arena, vv)
    sigma = _mixed_memory_strategy(
        arena, P1, rng, lambda s: cls.value_preserving_actions(arena, s))
    tau = _mixed_memory_strategy(arena, P2, rng, lambda s: arena.available[s])
    source = rng.choice(arena.states)
    hit = frozenset(rng.sample(arena.states, rng.randint(0, 2)))
    weak = WeaknessSet(frozenset(
        (m, s) for m in ("m0", "m1") for s in arena.states
        if rng.random() < 0.25), F(1, 4), {}, {})
    rules = [("horizon", rng.randint(0, 12)), ("first_hit", hit),
             ("first_weakness", weak)]
    return arena, vv, sigma, tau, source, rules


def _oracle_case(seed):
    """`_stopping_case` with random state values in place of the game's,
    equal on the states of each bottom class of the pair's chain (so no
    class mixes values), so that every stopped node shows in the result."""
    arena, vv, sigma, tau, source, rules = _stopping_case(seed)
    rng = random.Random(-seed)
    chain = _source_chain(arena, sigma, tau, source)
    classes = [{chain.state_of(i) for i in cls.nodes}
               for cls in bottom_sccs(chain)]
    vals = {s: F(rng.randint(-6, 6), rng.randint(1, 3)) for s in arena.states}
    changed = True
    while changed:
        changed = False
        for states in classes:
            low = min(vals[s] for s in states)
            changed |= any(vals[s] != low for s in states)
            vals.update(dict.fromkeys(states, low))
    return arena, dataclasses.replace(vv, values=vals), sigma, tau, source, rules


def _fraction_solve(a):
    """Gauss-Jordan over Fractions on an augmented matrix."""
    n = len(a)
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                a[r] = [x - a[r][col] * y for x, y in zip(a[r], a[col])]
    return [row[n] for row in a]


def _stopped_value_oracle(chain, values, rule):
    """Fraction propagation (horizon) or a Fraction hitting solve over the
    nodes that neither stop nor lie in a bottom class."""
    rows = chain.rows()
    val = [values.values[chain.state_of(i)] for i in range(len(chain))]
    kind, payload = rule
    if kind == "horizon":
        dist = {0: F(1)}
        for _ in range(payload):
            nxt = {}
            for i, p in dist.items():
                for j, q in rows[i].items():
                    nxt[j] = nxt.get(j, F(0)) + p * q
            dist = nxt
        return sum((p * val[i] for i, p in dist.items()), F(0))
    in_class = {i for cls in bottom_sccs(chain) for i in cls.nodes}
    if kind == "first_hit":
        stops = {i for i in range(len(chain)) if chain.state_of(i) in payload}
    else:
        stops = {i for i in range(len(chain))
                 if (chain.nodes[i][1], chain.state_of(i)) in payload.pairs}
    free = [i for i in range(len(chain)) if i not in stops | in_class]
    if 0 not in free:
        return val[0]
    h = _fraction_solve(
        [[F(int(i == j)) - rows[i].get(j, F(0)) for j in free]
         + [sum((q * val[j] for j, q in rows[i].items() if j not in free), F(0))]
         for i in free])
    return h[free.index(0)]


@pytest.mark.parametrize("seed", range(50))
def test_stopped_value_exact_matches_fraction_oracle(seed):
    arena, vv, sigma, tau, source, rules = _oracle_case(seed)
    chain = _source_chain(arena, sigma, tau, source)
    for rule in rules:
        got = stopped_value_exact(chain, vv, rule)
        assert type(got) is F
        assert got == _stopped_value_oracle(chain, vv, rule)


def _reference_masks(chain, values, stopping_rule):
    """Stop nodes and bottom-class nodes, from full class summaries; no
    class may mix state values."""
    n = len(chain)
    kind, payload = stopping_rule
    if kind == "horizon":
        stop_mask = np.zeros(n, dtype=bool)
    elif kind == "first_hit":
        stop_mask = np.array([chain.state_of(i) in payload for i in range(n)])
    else:
        stop_mask = np.array([(chain.nodes[i][1], chain.state_of(i))
                              in payload.pairs for i in range(n)])
    absorbing_mask = np.zeros(n, dtype=bool)
    for cls in bottom_sccs(chain):
        class_vals = {values.values[chain.state_of(i)] for i in cls.nodes}
        if len(class_vals) != 1:
            raise SolveError("bottom class mixes state values")
        absorbing_mask[list(cls.nodes)] = True
    return stop_mask, absorbing_mask


def _reference_report(chain, values, counts, runs):
    """The report for `counts[i]` of `runs` runs ended on node i, each
    worth its state value."""
    exact_mean = sum((int(c) * values.values[chain.state_of(i)]
                      for i, c in enumerate(counts)), F(0)) / runs
    lo = float(min(values.values.values()))
    hi = float(max(values.values.values()))
    estimate = float(exact_mean)
    half = (hi - lo) * sqrt(log(2 / (1 - solve.MC_CONFIDENCE)) / (2 * runs))
    ref = values.values[chain.state_of(0)]
    covered = abs(float(exact_mean - ref)) <= half
    return solve.StoppedValueReport(estimate, estimate - half, estimate + half,
                                    ref, covered)


def _stopped_value_mc_dense(chain, values, stopping_rule, runs, seed):
    """The per-run sampler: one uniform per running run and step, against a
    dense n x n float matrix of running sums.  The reference for the law of
    `stopped_value_mc`, not for its draws."""
    n = len(chain)
    kind, payload = stopping_rule
    horizon = payload if kind == "horizon" else solve.MC_MAX_STEPS
    stop_mask, absorbing_mask = _reference_masks(chain, values,
                                                 stopping_rule)
    cum = np.zeros((n, n))
    for i in range(n):
        row = chain.row(i)
        acc = 0.0
        for j in range(n):
            acc += float(row.get(j, 0))
            cum[i, j] = acc
        cum[i, n - 1] = 1.0
    rng = np.random.default_rng(seed)
    current = np.zeros(runs, dtype=np.int64)
    stopped_node = np.full(runs, -1, dtype=np.int64)
    active = np.ones(runs, dtype=bool)
    if kind != "horizon":
        hit0 = stop_mask[current] & active
        stopped_node[hit0] = current[hit0]
        active &= ~hit0
    for _ in range(horizon):
        if not active.any():
            break
        idx = np.nonzero(active)[0]
        u = rng.random(idx.size)
        rows = cum[current[idx]]
        current[idx] = (u[:, None] > rows).sum(axis=1)
        if kind != "horizon":
            hit = stop_mask[current] & active
            stopped_node[hit] = current[hit]
            active &= ~hit
            absorbed = absorbing_mask[current] & active
            stopped_node[absorbed] = current[absorbed]
            active &= ~absorbed
    if kind == "horizon":
        stopped_node = current
        active[:] = False
    if active.any():
        raise SolveError("trajectories neither stopped nor absorbed")
    counts = np.bincount(stopped_node, minlength=n)
    return _reference_report(chain, values, counts, runs)


def _stopped_value_mc_split(chain, values, stopping_rule, runs, seed):
    """The draw order of `stopped_value_mc`, replayed on Python lists: each
    step, one multinomial per node holding runs, in node order, over the
    probabilities of its `chain.row`.  The reference for its draws."""
    n = len(chain)
    kind, payload = stopping_rule
    steps = payload if kind == "horizon" else solve.MC_MAX_STEPS
    stop_mask, absorbing_mask = _reference_masks(chain, values,
                                                 stopping_rule)
    ends = [kind != "horizon" and bool(stop_mask[i] or absorbing_mask[i])
            for i in range(n)]
    rng = np.random.default_rng(seed)
    going, ended = [0] * n, [0] * n
    if stop_mask[0]:
        ended[0] = runs
    else:
        going[0] = runs
    for _ in range(steps):
        if not any(going):
            break
        moved = [0] * n
        for i, count in enumerate(going):
            if count:
                row = chain.row(i)
                draws = rng.multinomial(int(count),
                                        [float(p) for p in row.values()])
                for j, k in zip(row, draws):
                    moved[j] += int(k)
        for j in range(n):
            if ends[j]:
                ended[j] += moved[j]
                moved[j] = 0
        going = moved
    if kind == "horizon":
        ended = going
    elif any(going):
        raise SolveError("trajectories neither stopped nor absorbed")
    return _reference_report(chain, values, ended, runs)


def test_stopped_value_mc_gives_up_after_max_steps():
    # s leaves for the stopping state t with probability 10^-9 per step
    arena = Arena(
        states=("s", "t"), owner=dict.fromkeys("st", P1),
        available={"s": ("a",), "t": ("a",)},
        transition={("s", "a"): {"s": 1 - F(1, 10**9), "t": F(1, 10**9)},
                    ("t", "a"): {"t": F(1)}},
        colour=dict.fromkeys([("s", "a"), ("t", "a")], reward(0)))
    vv = brute_force_value(arena, mean)
    with pytest.raises(SolveError, match="neither stopped nor absorbed within "
                                         f"{solve.MC_MAX_STEPS} steps"):
        stopped_value_mc(_source_chain(arena, _unique(arena, P1),
                                       _unique(arena, P2), "s"),
                         vv, ("first_hit", frozenset({"t"})), 3, 1)


# The `..._matches_the_dense_sampler` tests pin the draws of
# `stopped_value_mc` to `_stopped_value_mc_split`, the replay of its draw
# order.  `test_both_samplers_draw_the_stopped_value_law` holds it and the
# per-run `_stopped_value_mc_dense` to the exact stopped value.
@pytest.mark.parametrize("seed", range(50))
def test_stopped_value_mc_matches_the_dense_sampler(seed):
    arena, vv, sigma, tau, source, rules = _oracle_case(seed)
    chain = _source_chain(arena, sigma, tau, source)
    cases = [(rule, 300) for rule in rules]
    if seed in (2, 12, 14, 40):
        # at doob's size: 10,000 runs of its 25-step horizon and of a first-hit
        # rule, on sources outside every bottom class with 3 or more values
        cases += [(("horizon", 25), 10_000), (rules[1], 10_000)]
    for k, (rule, runs) in enumerate(cases):
        args = (chain, vv, rule, runs, 1000 * seed + k)
        assert stopped_value_mc(*args) == _stopped_value_mc_split(*args)


@pytest.mark.parametrize("seed, where", [
    (7, "stop"), (20, "stop"), (4, "bottom"), (9, "bottom"), (49, "bottom"),
])
def test_stopped_value_mc_matches_the_dense_sampler_at_the_source(seed, where):
    # before the first step only stop nodes end a run: a stopping source ends
    # every run undrawn, a source in a bottom class still takes one step
    arena, vv, sigma, tau, source, rules = _oracle_case(seed)
    chain = _source_chain(arena, sigma, tau, source)
    in_bottom = any(0 in cls.nodes for cls in bottom_sccs(chain))
    rule = rules[1]
    assert (source in rule[1], in_bottom) == (where == "stop", where == "bottom")
    args = (chain, vv, rule, 10_000, seed)
    assert stopped_value_mc(*args) == _stopped_value_mc_split(*args)


def test_stopped_value_mc_matches_the_dense_sampler_past_25_steps():
    # s stays put with probability 9/10, so about 720 of 10,000 runs are
    # still going after 25 steps; the weak pair at t stops, u absorbs
    arena = Arena(
        states=("s", "t", "u"), owner=dict.fromkeys("stu", P1),
        available={"s": ("a",), "t": ("a",), "u": ("a",)},
        transition={("s", "a"): {"s": F(9, 10), "t": F(1, 20), "u": F(1, 20)},
                    ("t", "a"): {"s": F(1, 2), "u": F(1, 2)},
                    ("u", "a"): {"u": F(1)}},
        colour=dict.fromkeys([("s", "a"), ("t", "a"), ("u", "a")], reward(0)))
    vv = dataclasses.replace(brute_force_value(arena, mean),
                             values={"s": F(0), "t": F(1), "u": F(-1)})
    weak = WeaknessSet(frozenset({("m0", "t")}), F(1, 4), {}, {})
    args = (_source_chain(arena, _unique(arena, P1), _unique(arena, P2), "s"),
            vv, ("first_weakness", weak), 10_000, 25)
    assert stopped_value_mc(*args) == _stopped_value_mc_split(*args)


# The (seed, rule index) pairs of `_oracle_case` whose stopped value is not
# constant; a sampler of the wrong law can show only on these.
NON_CONSTANT = {7: (0,), 12: (0,), 14: (0, 1, 2), 20: (0,), 27: (0, 2),
                28: (2,), 37: (0,), 40: (0, 1, 2), 47: (0,)}


@pytest.mark.parametrize("seed", range(50))
def test_both_samplers_draw_the_stopped_value_law(seed):
    # 100,000 runs at a fixed seed: the count-splitting and the per-run
    # estimates each lie within the 99.9 % Hoeffding half-width of the exact
    # stopped value; a zero variance E[X^2] - E[X]^2 marks a constant one
    arena, vv, sigma, tau, source, rules = _oracle_case(seed)
    chain = _source_chain(arena, sigma, tau, source)
    squares = dataclasses.replace(
        vv, values={s: v * v for s, v in vv.values.items()})
    spread = float(max(vv.values.values()) - min(vv.values.values()))
    half = spread * sqrt(log(2 / 0.001) / (2 * 100_000))
    varied = []
    for k, rule in enumerate(rules):
        exact = stopped_value_exact(chain, vv, rule)
        if stopped_value_exact(chain, squares, rule) == exact * exact:
            continue
        varied.append(k)
        for sampler in (stopped_value_mc, _stopped_value_mc_dense):
            report = sampler(chain, vv, rule, 100_000, 31_000 + 10 * seed + k)
            assert abs(report.estimate - float(exact)) <= half
    assert tuple(varied) == NON_CONSTANT.get(seed, ())


def test_stopped_value_exact_is_the_value_under_locally_optimal_play():
    strict = 0
    for seed in range(40):
        arena, vv, sigma, tau, source, rules = _stopping_case(seed)
        cls = classify_actions(arena, vv)
        tau_opt = _mixed_memory_strategy(
            arena, P2, random.Random(seed),
            lambda s: cls.value_preserving_actions(arena, s))
        ref = vv.values[source]
        optimal = _source_chain(arena, sigma, tau_opt, source)
        # a bounded submartingale: stopping never loses value on average
        others = [_source_chain(arena, sigma, minimizer, source)
                  for minimizer in (tau, _adversarial_min(arena, cls))]
        for rule in rules:
            assert stopped_value_exact(optimal, vv, rule) == ref
            for chain in others:
                got = stopped_value_exact(chain, vv, rule)
                assert got >= ref
                strict += got > ref
    assert strict


def test_stopped_value_exact_sees_a_non_locally_optimal_maximizer():
    # one value-changing first step from s: E[v(X_1)] is its one-step value
    changed = 0
    for seed in range(30):
        arena = random_arena(4, 3, seed=seed, density=F(1, 5))
        vv = brute_force_value(arena, mean)
        cls = classify_actions(arena, vv)
        sigma, tau, _ = _locally_optimal_pair(arena, vv)
        for s in arena.player_states(P1):
            for a in arena.available[s]:
                facts = cls.table[(s, a)]
                if facts.value_preserving:
                    continue
                bad = PureStationaryStrategy(P1, {**sigma.choice, s: a})
                got = stopped_value_exact(_source_chain(arena, bad, tau, s),
                                          vv, ("horizon", 1))
                assert got == facts.one_step_value != vv.values[s]
                changed += 1
    assert changed
