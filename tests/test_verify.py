"""Theorem harness: half-positionality checks, refutation searches, reset
threshold checks, the letter-game counter-example, stopped-value suites."""

import itertools
import random
from fractions import Fraction

import pytest

from stochgame import solve
from stochgame.arena import P1, random_arena
from stochgame.fixtures import build_e2, build_weak_memory_fixture
from stochgame.payoff import (
    Lasso, ShufflePattern, check_submixing, parse_payoff_spec,
)
from stochgame.strategy import PartitionAtState, PureStationaryStrategy
from stochgame.verify import (
    FlagGateError, SearchBounds, _cycle_stats, _fast_violations,
    _stationary_guarantees,
    default_alphabet, doob_suite, replay_submixing_witness,
    reproduce_counterexample, search_shift_invariance_violation,
    search_submixing_violation, verify_halfpos, verify_subgame_perfect,
    weakened_base,
)

F = Fraction
mean = parse_payoff_spec("mean")


# -- verify_halfpos ------------------------------------------------------------

def test_halfpos_e2_confirmed():
    report = verify_halfpos(build_e2(), mean)
    assert report.verdict == "confirmed"
    assert report.quantities["sigma_star"]["s"] == "go"
    assert report.quantities["values"]["s"] == "1"


def test_halfpos_flag_gate():
    with pytest.raises(FlagGateError):
        verify_halfpos(build_e2(), parse_payoff_spec("genmean:2"))


def test_halfpos_budget_inconclusive():
    report = verify_halfpos(random_arena(4, 3, seed=1), mean, budget=1)
    assert report.verdict == "inconclusive"


def test_stationary_pair_chains_hold_each_state_once(monkeypatch):
    arena = random_arena(4, 3, seed=0)
    sizes = []
    induce_chain = solve.induce_chain

    def recording(*args, **kwargs):
        chain = induce_chain(*args, **kwargs)
        sizes.append(len(chain))
        return chain

    monkeypatch.setattr(solve, "induce_chain", recording)
    vv = solve.brute_force_value(arena, mean)
    solve.best_response_min(arena, mean, vv.sigma_star)
    _stationary_guarantees(arena, parse_payoff_spec("posavg"),
                           solve.DEFAULT_BUDGET)
    assert sizes and set(sizes) == {len(arena.states)}


def test_halfpos_sweep_posavg_small():
    for seed in (0, 1, 2):
        arena = random_arena(3, 2, seed=seed)
        report = verify_halfpos(arena, parse_payoff_spec("posavg"),
                                candidates=6, seed=seed)
        assert report.verdict == "confirmed"
        assert report.quantities["exact"] is False
        assert "response_class" in report.quantities


@pytest.mark.parametrize("payoff", ["posavg", "mean"])
@pytest.mark.parametrize("bounds, name", [
    ({"memory_bound": 0}, "memory_bound"), ({"candidates": 0}, "candidates"),
    ({"candidates": -3}, "candidates")],
    ids=["memory_bound=0", "candidates=0", "candidates=-3"])
def test_halfpos_rejects_bounds_below_one(monkeypatch, payoff, bounds, name):
    def no_work(*args, **kwargs):
        raise AssertionError("verify_halfpos started work on a bad bound")
    monkeypatch.setattr(solve, "GridSolver", no_work)
    monkeypatch.setattr(solve, "brute_force_value", no_work)
    with pytest.raises(ValueError, match=name):
        verify_halfpos(random_arena(3, 2, seed=0), parse_payoff_spec(payoff),
                       **bounds)


# -- searches --------------------------------------------------------------------

def test_submixing_search_confirms_mean_small():
    bounds = SearchBounds(max_cycle=3, random_cases=300)
    report = search_submixing_violation(mean, bounds, seed=1)
    assert report.verdict == "confirmed"
    assert report.quantities["cases"] > 0


def test_submixing_search_refutes_genmean_with_replay():
    spec = parse_payoff_spec("genmean:2")
    report = search_submixing_violation(spec, SearchBounds(max_cycle=2), seed=1)
    assert report.verdict == "refuted"
    assert replay_submixing_witness(spec, report.witness)
    values = [F(v) for v in report.witness["values"]]
    assert values[2] > max(values[0], values[1])


def test_shift_search_refutes_geom_and_confirms_mean():
    geom = parse_payoff_spec("geomfirstone")
    report = search_shift_invariance_violation(geom, SearchBounds(), seed=1)
    assert report.verdict == "refuted"
    report = search_shift_invariance_violation(
        mean, SearchBounds(random_cases=300), seed=1)
    assert report.verdict == "confirmed"


@pytest.mark.parametrize("bounds, field", [
    ({"max_cycle": 0}, "max_cycle"), ({"random_cases": -1}, "random_cases"),
    ({"shifts": 0}, "shifts"), ({"patterns": ((1, 1), (0, 2))}, "patterns"),
    ({"patterns": ((1, 2, 3),)}, "patterns"), ({"patterns": ("ab",)}, "patterns"),
    ({"patterns": ((1, "2"),)}, "patterns"),
])
def test_search_bounds_reject_bad_values(bounds, field):
    with pytest.raises(ValueError, match=field):
        SearchBounds(**bounds)


def test_search_bounds_accept_zero_random_cases():
    report = search_submixing_violation(
        mean, SearchBounds(max_cycle=1, random_cases=0), seed=1)
    assert report.verdict == "confirmed"


def test_shift_search_refutes_discounted():
    disc = parse_payoff_spec("discounted")
    report = search_shift_invariance_violation(disc, SearchBounds(), seed=1)
    assert report.verdict == "refuted"


def test_fast_sweep_agrees_with_full_evaluation():
    # the vectorized sweep's closed forms against the ordinary
    # shuffle-then-evaluate route, on a seeded sample of cycle pairs
    rng = random.Random(31)
    for name in ("mean", "limsup", "liminf", "parity", "posavg",
                 "genmean:2", "optgenmean:2", "counter+inf", "counter-inf"):
        spec = parse_payoff_spec(name)
        alphabet = default_alphabet(spec)
        cycles = [tuple(rng.choice(alphabet)
                        for _ in range(rng.randint(1, 4)))
                  for _ in range(12)]
        stats = _cycle_stats(spec, cycles)
        for a, b in ((1, 1), (2, 1), (1, 2)):
            grid = _fast_violations(spec, stats, a, b)
            for i, j in itertools.product(range(len(cycles)), repeat=2):
                witness = check_submixing(
                    spec, Lasso((), cycles[i]), Lasso((), cycles[j]),
                    ShufflePattern.alternating(a, b))
                assert bool(grid[i, j]) == (witness is not None), \
                    (name, a, b, cycles[i], cycles[j])


# -- subgame perfection ------------------------------------------------------------

def test_subgame_optimal_base_trivially_confirmed():
    arena = random_arena(4, 3, seed=6)
    vv = solve.brute_force_value(arena, mean)
    report = verify_subgame_perfect(arena, mean, vv.sigma_star, F(1, 8))
    assert report.verdict == "confirmed"
    assert report.quantities["base_meets_threshold"]
    assert report.quantities["weak_pairs"] == []


def test_subgame_crafted_fixture():
    arena, sigma, eps = build_weak_memory_fixture()
    report = verify_subgame_perfect(arena, mean, sigma, eps)
    assert report.verdict == "confirmed"
    assert not report.quantities["base_meets_threshold"]
    assert report.quantities["base_epsilon_optimal"]
    assert report.quantities["base_locally_optimal"]
    assert report.quantities["weak_pairs"] == ["m1|s"]


def test_subgame_suboptimal_base_reports_honestly():
    # a strictly suboptimal base (guarantee 0 at s, value 1) at epsilon 1/8:
    # the reset cannot help because the fresh row itself is weak; the report
    # surfaces the failed precondition instead of a confirmed verdict
    e2 = build_e2()
    sigma = PureStationaryStrategy(P1, {"s": "stay", "t": "loop"})
    report = verify_subgame_perfect(e2, mean, sigma, F(1, 8))
    assert report.verdict == "refuted"
    assert not report.quantities["base_epsilon_optimal"]


@pytest.mark.parametrize("epsilon", [F(0), F(-1), F(-1, 4)])
def test_subgame_rejects_an_epsilon_that_is_not_positive(epsilon, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("values computed before epsilon was checked")

    monkeypatch.setattr(solve, "brute_force_value", no_work)
    with pytest.raises(ValueError, match=f"epsilon must be > 0, not {epsilon}$"):
        verify_subgame_perfect(
            build_e2(), mean,
            PureStationaryStrategy(P1, {"s": "go", "t": "loop"}), epsilon)


def test_weakened_base_generator_contract():
    for seed in (1001, 1002, 1003):
        arena = random_arena(4, 3, seed=seed)
        vv = solve.brute_force_value(arena, mean)
        cls = solve.classify_actions(arena, vv)
        eps = F(1, 8)
        base = weakened_base(arena, mean, vv, cls, eps, random.Random(seed))
        assert solve.locally_optimal(arena, cls, base) is None
        from stochgame.solve import product_values
        pv = product_values(arena, mean, base)
        for s in arena.states:
            assert pv[("m0", s)] >= vv.values[s] - eps


# -- sub-arena split inequality ------------------------------------------------------

def test_value_bounded_by_split_maximum():
    # splitting a maximizer state's actions: the full value never exceeds
    # the better of the two restricted games' values at that state
    checked = 0
    for seed in range(40):
        arena = random_arena(4, 3, seed=seed)
        pivots = [s for s in arena.player_states(P1)
                  if len(arena.available[s]) >= 2]
        if not pivots:
            continue
        pivot = pivots[0]
        actions = arena.available[pivot]
        side0 = {actions[0]}
        side1 = set(actions[1:])
        split = PartitionAtState(pivot, frozenset(side0), frozenset(side1))
        val = solve.brute_force_value(arena, mean).values
        val0 = solve.brute_force_value(split.restricted(arena, 0), mean).values
        val1 = solve.brute_force_value(split.restricted(arena, 1), mean).values
        assert val[pivot] <= max(val0[pivot], val1[pivot])
        # restriction can only lower the maximizer's value
        assert val[pivot] == max(val0[pivot], val1[pivot])
        checked += 1
    assert checked >= 10


# -- counter-example -----------------------------------------------------------------

def test_counterexample_triple_and_determinism():
    report = reproduce_counterexample()
    assert report.verdict == "confirmed"
    assert report.quantities["payoffs"] == {
        "stationary_1": 0, "stationary_2": 0, "alternating": 1}
    assert report.to_json() == reproduce_counterexample().to_json()
    assert report.wall_clock < 1.0


def test_counterexample_run_length_tables():
    report = reproduce_counterexample()
    alt = report.quantities["alternating"]
    assert alt["run_lengths"][:4] == [1, 3, 4, 6]
    assert alt["reachable_mod3"] == [0, 1]
    assert report.quantities["stationary_1"]["letters_per_visit"] == 1
    assert report.quantities["stationary_2"]["letters_per_visit"] == 2
    assert report.quantities["stationary_1"]["forced_runs"][:3] == [2, 4, 6]


# -- doob suite ------------------------------------------------------------------------

def test_doob_suite_confirms():
    for seed in (3, 11):
        arena = random_arena(4, 3, seed=seed)
        report = doob_suite(arena, mean, trials=4000, seed=seed)
        assert report.verdict == "confirmed", report.quantities
        assert report.quantities["checks"]["horizon_zero_exact"]


# -- report plumbing ---------------------------------------------------------------------

def test_structured_report_omits_wall_clock():
    report = reproduce_counterexample()
    assert "wall_clock" not in report.to_json(structured=True)
    assert "wall_clock" in report.to_json(structured=False)
