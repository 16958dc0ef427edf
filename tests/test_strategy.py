"""Strategy types and the three constructions: weakness/reset, projections,
trigger strategy."""

import itertools
import random
from fractions import Fraction

import pytest

from stochgame.arena import P1, P2, Arena, FinitePlay, LassoPlay, random_arena, sample_play
from stochgame.chain import induce_chain
from stochgame.fixtures import build_e2, build_weak_memory_fixture
from stochgame.payoff import parse_payoff_spec, reward
from stochgame.solve import (
    brute_force_value, node_values, product_values, weakness_set,
)
from stochgame.strategy import (
    FiniteMemoryStrategy, PartitionAtState, PureStationaryStrategy,
    StrategyError, as_finite_memory, factor_pattern, play_tokens,
    project, reset_strategy, strategy_from_json, trigger_strategy,
)
from stochgame.verify import _random_memory_strategy

F = Fraction
mean = parse_payoff_spec("mean")


# -- serialization ---------------------------------------------------------------

def test_pure_strategy_round_trip():
    sigma = PureStationaryStrategy(P1, {"s": "go", "t": "loop"})
    again = strategy_from_json(sigma.to_json(), P1)
    assert isinstance(again, PureStationaryStrategy)
    assert again.choice == sigma.choice


def test_finite_memory_round_trip():
    _, sigma, _ = build_weak_memory_fixture()
    again = strategy_from_json(sigma.to_json(), P1)
    assert again.memory_states == sigma.memory_states
    assert again.initial == sigma.initial
    assert again.update == dict(sigma.update)
    assert again.choices == sigma.choices


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


def _product_values_oracle(arena, spec, sigma):
    """The per-(memory, state) minimum over every response table on sigma's
    memory product, each played by its own mirror strategy."""
    sigma_fm = as_finite_memory(sigma)
    pairs = [(m, s) for m in sigma_fm.memory_states for s in arena.states]
    seeds = [(s, m, m) for m, s in pairs]
    p2_pairs = [(m, s) for m, s in pairs if arena.owner[s] == P2]
    best = {}
    for combo in itertools.product(*(arena.available[s] for _, s in p2_pairs)):
        tau = _mirror_strategy(sigma_fm, dict(zip(p2_pairs, combo)))
        for pair, v in zip(pairs, node_values(arena, spec, sigma_fm, tau, seeds)):
            if pair not in best or v < best[pair]:
                best[pair] = v
    return best


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
            == _product_values_oracle(arena, spec, sigma)


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
    hat = reset_strategy(sigma, weak)
    a = induce_chain(arena, sigma, sigma)
    b = induce_chain(arena, hat, hat)
    assert a.nodes == b.nodes and a.moves == b.moves


def test_reset_repairs_crafted_trap():
    arena, sigma, eps = build_weak_memory_fixture()
    vv = brute_force_value(arena, mean)
    weak = weakness_set(arena, mean, sigma, eps, values=vv.values)
    hat = reset_strategy(sigma, weak)
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
    hat = reset_strategy(sigma, weak)
    play_chain = induce_chain(e2, hat, hat, [("s", "m0", "m0")])
    assert len(play_chain) == 1  # still the stay loop, no crash


def test_reset_weakness_gone_at_same_epsilon():
    arena, sigma, eps = build_weak_memory_fixture()
    vv = brute_force_value(arena, mean)
    weak = weakness_set(arena, mean, sigma, eps, values=vv.values)
    hat = reset_strategy(sigma, weak)
    weak_hat = weakness_set(arena, mean, hat, eps, values=vv.values)
    reachable = {("m0", "s"), ("m0", "t"), ("m1", "t")}
    assert not (weak_hat.pairs & reachable)


# -- projections ------------------------------------------------------------------

def _loop_arena():
    """Pivot with two self-loop actions on either side plus a detour."""
    return Arena(
        states=("s", "x"),
        owner={"s": P1, "x": P1},
        available={"s": ("a", "b"), "x": ("back",)},
        transition={("s", "a"): {"s": F(1)}, ("s", "b"): {"s": F(1)},
                    ("x", "back"): {"s": F(1)}},
        colour={("s", "a"): reward(1), ("s", "b"): reward(-1),
                ("x", "back"): reward(0)})


def _split():
    return PartitionAtState("s", frozenset({"a"}), frozenset({"b"}))


def test_project_finite_play():
    play = FinitePlay(("s", "s", "s", "s"), ("b", "a", "b"))
    p0 = project(play, _split(), 0)
    p1 = project(play, _split(), 1)
    assert p0.states == ("s", "s") and p0.actions == ("a",)
    assert p1.states == ("s", "s", "s") and p1.actions == ("b", "b")


def test_project_keeps_open_factor():
    arena = Arena(
        states=("s", "x"), owner={"s": P1, "x": P1},
        available={"s": ("a", "b"), "x": ("back",)},
        transition={("s", "a"): {"x": F(1)}, ("s", "b"): {"s": F(1)},
                    ("x", "back"): {"s": F(1)}},
        colour={("s", "a"): reward(0), ("s", "b"): reward(0),
                ("x", "back"): reward(0)})
    play = FinitePlay(("s", "s", "s", "x"), ("b", "b", "a"))
    p0 = project(play, _split(), 0)
    assert p0.states == ("s", "x") and p0.actions == ("a",)


def test_project_requires_pivot_source():
    play = FinitePlay(("x", "s"), ("back",))
    with pytest.raises(StrategyError):
        project(play, _split(), 0)


def test_project_lasso_one_sided_cycle_gives_finite_play():
    # the cycle never uses side 0, so that projection is a finite play
    play = LassoPlay(FinitePlay(("s", "s"), ("a",)),
                     FinitePlay(("s", "s"), ("b",)))
    p0 = project(play, _split(), 0)
    p1 = project(play, _split(), 1)
    assert isinstance(p0, FinitePlay)
    assert p0.states == ("s", "s") and p0.actions == ("a",)
    assert isinstance(p1, LassoPlay)
    assert p1.cycle.actions == ("b",)


def test_project_never_selected_side_is_single_state():
    play = LassoPlay(FinitePlay(("s",), ()), FinitePlay(("s", "s"), ("b",)))
    p0 = project(play, _split(), 0)
    assert isinstance(p0, FinitePlay)
    assert p0.states == ("s",) and not p0.actions


def test_project_alternating_cycle_both_infinite():
    play = LassoPlay(FinitePlay(("s",), ()),
                     FinitePlay(("s", "s", "s"), ("a", "b")))
    p0 = project(play, _split(), 0)
    p1 = project(play, _split(), 1)
    assert isinstance(p0, LassoPlay) and isinstance(p1, LassoPlay)
    # both projections return to the pivot forever
    assert p0.cycle.actions == ("a",) and p1.cycle.actions == ("b",)


def test_project_lasso_with_pivot_only_in_prefix():
    arena = _loop_arena()
    play = LassoPlay(FinitePlay(("s", "s", "x"), ("a", "b")),
                     FinitePlay(("x", "x"), ("back",)))
    # not a valid arena play (x loops via back->s only), but projections are
    # syntactic; the open tail after the last pivot visit belongs to side 1
    p1 = project(play, _split(), 1)
    assert isinstance(p1, LassoPlay)
    p0 = project(play, _split(), 0)
    assert isinstance(p0, FinitePlay)
    assert p0.actions == ("a",)


def test_projection_shuffle_reconstruction():
    # property: a lasso with both projections infinite is the shuffle of its
    # projections under the factor pattern, as exact token words
    from stochgame.payoff import shuffle
    play = LassoPlay(FinitePlay(("s", "s"), ("b",)),
                     FinitePlay(("s", "s", "s", "s"), ("a", "b", "a")))
    split = _split()
    p0 = project(play, split, 0)
    p1 = project(play, split, 1)
    pattern = factor_pattern(play, split)
    rebuilt = shuffle(play_tokens(p0), play_tokens(p1), pattern)
    original = play_tokens(play)
    for n in range(40):
        assert rebuilt.letter(n) == original.letter(n)


def test_projection_finite_implies_cycle_on_other_side():
    # properties (A)/(B): a finite projection means the cycle stays on the
    # opposite side, checked syntactically
    split = _split()
    play = LassoPlay(FinitePlay(("s", "s"), ("a",)),
                     FinitePlay(("s", "s"), ("b",)))
    assert isinstance(project(play, split, 0), FinitePlay)
    cycle_sides = {split.side(a) for a in play.cycle.actions
                   if True}
    assert cycle_sides == {1}


# -- trigger strategy ----------------------------------------------------------------

def _pivot_game():
    """Maximizer pivot feeding two minimizer-controlled gadgets."""
    return Arena(
        states=("s", "p", "q"),
        owner={"s": P1, "p": P2, "q": P2},
        available={"s": ("a", "b"), "p": ("l", "r"), "q": ("l", "r")},
        transition={("s", "a"): {"p": F(1)}, ("s", "b"): {"q": F(1)},
                    ("p", "l"): {"s": F(1)}, ("p", "r"): {"q": F(1)},
                    ("q", "l"): {"s": F(1)}, ("q", "r"): {"p": F(1)}},
        colour={k: reward(0) for k in
                (("s", "a"), ("s", "b"), ("p", "l"), ("p", "r"),
                 ("q", "l"), ("q", "r"))})


def test_trigger_equal_strategies_behave_identically():
    arena = _pivot_game()
    split = PartitionAtState("s", frozenset({"a"}), frozenset({"b"}))
    tau = PureStationaryStrategy(P2, {"p": "l", "q": "l"})
    trig = trigger_strategy(tau, tau, split, arena)
    sigma = PureStationaryStrategy(P1, {"s": "a"})
    a = induce_chain(arena, sigma, tau, [("s", 0, tau.initial_memory)])
    b = induce_chain(arena, sigma, trig, [("s", 0, trig.initial)])
    assert [n[0] for n in a.nodes] == [n[0] for n in b.nodes]
    assert [[(m.action, m.weight) for m in row] for row in a.moves] == \
        [[(m.action, m.weight) for m in row] for row in b.moves]


def test_trigger_switches_on_last_pivot_side():
    arena = _pivot_game()
    split = PartitionAtState("s", frozenset({"a"}), frozenset({"b"}))
    tau0 = PureStationaryStrategy(P2, {"p": "l", "q": "l"})
    tau1 = PureStationaryStrategy(P2, {"p": "r", "q": "r"})
    trig = trigger_strategy(tau0, tau1, split, arena)
    m = trig.initial
    # after s --a--> p the side-0 strategy answers
    m_a = trig.next_memory(m, "s", "a", "p")
    assert trig.action_dist(m_a, "p") == {"l": F(1)}
    # after s --b--> q the side-1 strategy answers
    m_b = trig.next_memory(m, "s", "b", "q")
    assert trig.action_dist(m_b, "q") == {"r": F(1)}


def test_trigger_rejects_strategies_outside_subarena():
    arena = _pivot_game()
    split = PartitionAtState("s", frozenset({"a"}), frozenset({"b"}))
    bad = PureStationaryStrategy(P2, {"p": "l"})  # missing q
    with pytest.raises(StrategyError):
        trigger_strategy(bad, bad, split, arena)


def test_trigger_action_law_matches_recomputed_projection():
    # oracle: at every minimizer decision point of a sampled play, the
    # trigger's action law equals the active strategy fed the projection of
    # the history recomputed from scratch
    arena = _pivot_game()
    split = PartitionAtState("s", frozenset({"a"}), frozenset({"b"}))
    tau0 = FiniteMemoryStrategy(
        P2, ("f0", "f1"), "f0",
        {("f0", "p", "l", "s"): "f1", ("f1", "p", "l", "s"): "f0"},
        {("f0", "p"): {"l": F(1)}, ("f1", "p"): {"r": F(1)},
         ("f0", "q"): {"l": F(1)}, ("f1", "q"): {"l": F(1)}})
    tau1 = PureStationaryStrategy(P2, {"p": "r", "q": "r"}).as_finite_memory()
    trig = trigger_strategy(tau0, tau1, split, arena)
    sigma = FiniteMemoryStrategy(
        P1, ("x0", "x1"), "x0",
        {("x0", "s", "a", "p"): "x1", ("x1", "s", "b", "q"): "x0"},
        {("x0", "s"): {"a": F(1)}, ("x1", "s"): {"b": F(1)}})
    rng = random.Random(11)
    play = sample_play(arena, sigma, trig, "s", 40, rng)

    def replay_dist(upto: int):
        """Trigger's law after the first `upto` steps, via projections."""
        h = FinitePlay(play.states[:upto + 1], play.actions[:upto])
        last_side = next(split.side(play.actions[i])
                         for i in range(upto - 1, -1, -1)
                         if play.states[i] == "s")
        tau = (tau0, tau1)[last_side]
        projected = project(h, split, last_side)
        m = tau.initial
        for i, a in enumerate(projected.actions):
            m = tau.next_memory(m, projected.states[i], a,
                                projected.states[i + 1])
        return tau.action_dist(m, h.target)

    m = trig.initial
    for i, a in enumerate(play.actions):
        s = play.states[i]
        if arena.owner[s] == P2:
            assert trig.action_dist(m, s) == replay_dist(i)
        m = trig.next_memory(m, s, a, play.states[i + 1])
