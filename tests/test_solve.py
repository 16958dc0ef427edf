"""Strategy-pair evaluation, grid values with certificates, action
classification, martingale and stopped-value checks."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochgame import solve
from stochgame.arena import P1, P2, Arena, random_arena
from stochgame.chain import bottom_sccs
from stochgame.fixtures import build_e2, build_e3
from stochgame.payoff import parse_payoff_spec, reward
from stochgame.solve import (
    BudgetError, SolveError, UnsupportedPayoffError,
    best_response_min, brute_force_value, classify_actions, expected_payoff,
    martingale_check, node_values, stopped_value_mc,
)
from stochgame.strategy import (
    FiniteMemoryStrategy, PureStationaryStrategy, enumerate_pure_stationary,
)

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
    assert expected_payoff(arena, mean, _unique(arena, P1),
                           _unique(arena, P2), "s") == 3


def test_expected_payoff_e3_mean_and_parity():
    e3 = build_e3()
    assert expected_payoff(e3, mean, _unique(e3, P1), _unique(e3, P2), "s") == 1
    e3p = build_e3("priority")
    assert expected_payoff(e3p, par, _unique(e3p, P1),
                           _unique(e3p, P2), "s") == F(1, 2)


def test_expected_payoff_rejects_global_payoffs():
    e3 = build_e3()
    with pytest.raises(UnsupportedPayoffError):
        expected_payoff(e3, parse_payoff_spec("geomfirstone"),
                        _unique(e3, P1), _unique(e3, P2), "s")
    with pytest.raises(UnsupportedPayoffError):
        expected_payoff(e3, parse_payoff_spec("suffixtarget:a"),
                        _unique(e3, P1), _unique(e3, P2), "s")


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


@pytest.mark.parametrize("name, kind", POSITIONAL_KINDS)
def test_best_response_matches_the_stationary_enumeration(name, kind):
    # values, per-state minimizers (first in enumeration order) and the
    # uniform minimizer all agree with the one-strategy-at-a-time loop
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
            response = best_response_min(arena, spec, sigma)
            assert response.values == best
            assert {s: t.choice for s, t in response.minimizers.items()} \
                == {s: t.choice for s, t in argmin.items()}
            assert (response.uniform and response.uniform.choice) \
                == (uniform and uniform.choice)
            ties += tied
    assert ties  # several responses reach some state's minimum


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
            for s in arena.states:
                assert expected_payoff(arena, mean, sigma, tau, s) \
                    >= stationary_min[s]


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
    assert cls_value == expected_payoff(arena, mean, _unique(arena, P1),
                                        _unique(arena, P2), arena.states[0])


def test_brute_force_budget_gate():
    with pytest.raises(BudgetError):
        brute_force_value(random_arena(4, 3, seed=1), mean, budget=1)


def test_discounted_grid_never_builds_class_analysis(monkeypatch):
    calls = []

    def counting(chain):
        calls.append(len(chain))
        return bottom_sccs(chain)

    monkeypatch.setattr(solve, "bottom_sccs", counting)
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
    restricted = arena.restrict(s, keep)
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

def test_stopped_value_horizon_zero_is_exact():
    arena = random_arena(4, 3, seed=4)
    vv = brute_force_value(arena, mean)
    sigma, tau, _ = _locally_optimal_pair(arena, vv)
    report = stopped_value_mc(arena, vv, sigma, tau, arena.states[0],
                              ("horizon", 0), runs=50, seed=1)
    assert report.estimate == float(vv.values[arena.states[0]])


def test_stopped_value_first_hit_covers():
    arena = random_arena(4, 3, seed=4)
    vv = brute_force_value(arena, mean)
    sigma, tau, _ = _locally_optimal_pair(arena, vv)
    from stochgame.verify import _class_states
    hit = _class_states(arena, sigma, tau)
    report = stopped_value_mc(arena, vv, sigma, tau, arena.states[0],
                              ("first_hit", hit), runs=10_000, seed=2)
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
    report = stopped_value_mc(arena, vv, sigma, tau, arena.states[0],
                              ("horizon", 30), runs=10_000, seed=3)
    half = report.ci_high - report.estimate
    assert report.estimate >= float(vv.values[arena.states[0]]) - half


def test_stopped_value_first_weakness_rule():
    from stochgame.fixtures import build_weak_memory_fixture
    from stochgame.solve import weakness_set
    arena, sigma, eps = build_weak_memory_fixture()
    vv = brute_force_value(arena, mean)
    weak = weakness_set(arena, mean, sigma, eps, values=vv.values)
    report = stopped_value_mc(arena, vv, sigma, sigma, "s",
                              ("first_weakness", weak), runs=2000, seed=4)
    # stopping at the trap or absorbing at value 1: mean stays at val(s)=1
    assert report.covered
