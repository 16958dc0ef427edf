"""Induced chains: bottom SCCs, stationary distributions, absorption,
discounted systems.  All assertions are exact unless marked Monte Carlo."""

import dataclasses
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochgame.arena import P1, P2, Arena, random_arena, sample_play
from stochgame.chain import (
    ChainError, absorption, absorption_from, bottom_sccs, discounted_values,
    induce_chain, solve_linear,
)
from stochgame.fixtures import build_e3, build_fig1, fig1_alternating_strategy
from stochgame.payoff import discounted, increment, reward
from stochgame.strategy import FiniteMemoryStrategy, PureStationaryStrategy
from stochgame.verify import _random_memory_strategy

F = Fraction


def _gauss_oracle(matrix, rhs):
    """Gaussian elimination over Fractions: the reference for solve_linear.
    Pivots prefer entries with small numerator*denominator bit size."""
    n = len(matrix)
    a = [[F(x) for x in row] + [F(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot, best = -1, None
        for r in range(col, n):
            x = a[r][col]
            if x != 0:
                size = x.numerator.bit_length() + x.denominator.bit_length()
                if best is None or size < best:
                    pivot, best = r, size
        if pivot < 0:
            raise ChainError("singular system")
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv if x else x for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y if y else x for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def _first_choice(arena, player):
    return PureStationaryStrategy(
        player, {s: arena.available[s][0] for s in arena.player_states(player)})


def _one_action_arena(transitions, colours=None, owner_player=P1):
    """Chain-shaped arena: every state has one action 'a'."""
    states = tuple(transitions)
    colours = colours or {s: reward(0) for s in states}
    return Arena(
        states=states,
        owner={s: owner_player for s in states},
        available={s: ("a",) for s in states},
        transition={(s, "a"): dist for s, dist in transitions.items()},
        colour={(s, "a"): colours[s] for s in states},
    )


def test_solve_linear_small():
    sol = solve_linear([[F(2), F(1)], [F(1), F(-1)]], [F(5), F(1)])
    assert sol == [F(2), F(1)]
    with pytest.raises(ChainError):
        solve_linear([[F(1), F(1)], [F(2), F(2)]], [F(1), F(2)])


@st.composite
def _systems(draw):
    """Square systems of size 1-9 with small-denominator entries, about 40 %
    zeros, `int`s mixed in, and a dependent last row half the time."""
    n = draw(st.integers(1, 9))
    entry = st.tuples(st.integers(0, 9), st.integers(-5, 5),
                      st.integers(1, 6)).map(
        lambda t: 0 if t[0] < 4 else t[1] if t[2] == 1 else F(t[1], t[2]))
    matrix = [[draw(entry) for _ in range(n)] for _ in range(n)]
    rhs = [draw(entry) for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        k = draw(entry)
        matrix[-1] = [k * x for x in matrix[0]]
    return matrix, rhs


@given(_systems())
@settings(max_examples=300, deadline=None)
def test_solve_linear_matches_fraction_oracle(system):
    matrix, rhs = system
    before = ([row[:] for row in matrix], rhs[:])
    try:
        want = _gauss_oracle(matrix, rhs)
    except ChainError:
        with pytest.raises(ChainError, match="singular system"):
            solve_linear(matrix, rhs)
    else:
        got = solve_linear(matrix, rhs)
        assert got == want
        assert all(type(x) is F for x in got)
    assert (matrix, rhs) == before


def _mixed_two_memory(arena, rng):
    """A 2-memory maximizer strategy mixing up to two actions per choice
    (`_random_memory_strategy` plays pure ones)."""
    mems = ("m0", "m1")
    update = {(m, s, a, t): rng.choice(mems) for m in mems for s in arena.states
              for a in arena.available[s] for t in arena.states}
    choices = {}
    for m in mems:
        for s in arena.player_states(P1):
            acts = rng.sample(arena.available[s], min(2, len(arena.available[s])))
            w = rng.choice((F(1), F(1, 3), F(1, 2), F(3, 4)))
            dist = {acts[0]: F(1)} if len(acts) == 1 or w == 1 else \
                {acts[0]: w, acts[1]: 1 - w}
            choices[(m, s)] = dist
    return FiniteMemoryStrategy(P1, mems, "m0", update, choices)


def _oracle_stationary(chain, nodes):
    pos = {node: k for k, node in enumerate(nodes)}
    n = len(nodes)
    rows = chain.rows()
    matrix = [[F(0)] * n for _ in range(n)]
    for node in nodes:
        for succ, p in rows[node].items():
            matrix[pos[succ]][pos[node]] += p
    for k in range(n):
        matrix[k][k] -= 1
    matrix[n - 1] = [F(1)] * n
    pi = _gauss_oracle(matrix, [F(0)] * (n - 1) + [F(1)])
    return dict(zip(nodes, pi))


def _oracle_absorption(chain, classes):
    rows = chain.rows()
    in_class = {node for cls in classes for node in cls.nodes}
    transient = [i for i in range(len(chain)) if i not in in_class]
    pos = {node: k for k, node in enumerate(transient)}
    n = len(transient)
    base = [[F(int(j == k)) for j in range(n)] for k in range(n)]
    for node in transient:
        for succ, p in rows[node].items():
            if succ in pos:
                base[pos[node]][pos[succ]] -= p
    out = [dict() for _ in range(len(chain))]
    for ci, cls in enumerate(classes):
        members = set(cls.nodes)
        rhs = [sum((p for succ, p in rows[node].items() if succ in members), F(0))
               for node in transient]
        hit = _gauss_oracle(base, rhs) if n else []
        for node in range(len(chain)):
            p = F(1) if node in members else hit[pos[node]] if node in pos else 0
            if p:
                out[node][ci] = p
    return out


def _oracle_discounted(chain):
    n = len(chain)
    matrix = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    rhs = [F(0)] * n
    for i in range(n):
        for mv in chain.moves[i]:
            r, lam = mv.colour.value
            rhs[i] += mv.weight * r
            for succ, p in mv.successors:
                matrix[i][succ] -= mv.weight * lam * p
    return _gauss_oracle(matrix, rhs)


@pytest.mark.parametrize("seed", range(0, 120, 5))
def test_integer_chain_algebra_matches_fraction_oracles(seed):
    # seeds 85, 90 and 115 give chains with two bottom classes
    rng = random.Random(seed)
    arena = random_arena(4, 3, seed=seed, kind="discounted")
    # one discount factor per action, so mixed rows combine several
    arena = dataclasses.replace(arena, colour={
        sa: discounted(tok.value[0], rng.choice((F(0), F(1, 3), F(1, 2), F(4, 5))))
        for sa, tok in arena.colour.items()})
    tau = _first_choice(arena, P2)
    for sigma in (_random_memory_strategy(arena, rng, 2),
                  _mixed_two_memory(arena, rng)):
        seeds = [(s, m, tau.initial_memory) for s in arena.states
                 for m in sigma.memory_states]
        chain = induce_chain(arena, sigma, tau, seeds)
        for node, (d, row) in enumerate(chain.int_rows()):
            assert {succ: F(n, d) for succ, n in row.items()} == chain.row(node)
            assert gcd(d, *row.values()) == 1
        classes = bottom_sccs(chain)
        for cls in classes:
            assert cls.stationary == _oracle_stationary(chain, cls.nodes)
            weights = {}
            for node in cls.nodes:
                for mv in chain.moves[node]:
                    weights[mv.colour] = weights.get(mv.colour, 0) \
                        + cls.stationary[node] * mv.weight
            assert cls.colour_weights == tuple(weights.items())
        assert absorption_from(chain, classes) == _oracle_absorption(chain, classes)
        assert discounted_values(chain) == _oracle_discounted(chain)


def test_one_state_chain():
    arena = random_arena(1, 1, seed=0)
    chain = induce_chain(arena, _first_choice(arena, P1), _first_choice(arena, P2))
    assert len(chain) == 1
    assert chain.row(0) == {0: F(1)}
    classes = bottom_sccs(chain)
    assert len(classes) == 1
    assert classes[0].stationary == {0: F(1)}


def test_e3_chain_copies_transition_table():
    e3 = build_e3()
    chain = induce_chain(e3, _first_choice(e3, P1), _first_choice(e3, P2))
    assert len(chain) == 3
    s = chain.index[("s", 0, 0)]
    row = chain.row(s)
    assert sorted(row.values()) == [F(1, 2), F(1, 2)]


def test_fig1_product_with_alternating_memory():
    # hand product: 4 states x 2 memories, built from explicit seeds
    arena = build_fig1()
    sigma = fig1_alternating_strategy()
    tau = PureStationaryStrategy(P2, {"sq": "1"})
    seeds = [(s, m, 0) for s in arena.states for m in sigma.memory_states]
    chain = induce_chain(arena, sigma, tau, seeds)
    assert len(chain) == 8
    # from (sq, m0): tau plays 1 into c1; sigma's memory is untouched until c1
    start = chain.index[("sq", "m0", 0)]
    assert chain.row(start) == {chain.index[("c1", "m0", 0)]: F(1)}
    # at (c1, m0) sigma plays branch action 1 and flips its memory
    c1 = chain.index[("c1", "m0", 0)]
    assert chain.row(c1) == {chain.index[("sq", "m1", 0)]: F(1)}


def test_two_absorbing_classes():
    e3 = build_e3()
    chain = induce_chain(e3, _first_choice(e3, P1), _first_choice(e3, P2))
    classes = bottom_sccs(chain)
    assert len(classes) == 2
    for cls in classes:
        assert cls.stationary[cls.nodes[0]] == 1


def test_stationary_two_node_class():
    # P = [[0, 1], [1/2, 1/2]] has stationary (1/3, 2/3)
    arena = _one_action_arena({
        "x": {"y": F(1)},
        "y": {"x": F(1, 2), "y": F(1, 2)},
    })
    chain = induce_chain(arena, _first_choice(arena, P1), _first_choice(arena, P2))
    (cls,) = bottom_sccs(chain)
    pi = {chain.nodes[n][0]: p for n, p in cls.stationary.items()}
    assert pi == {"x": F(1, 3), "y": F(2, 3)}


@given(st.integers(0, 5000))
@settings(max_examples=40, deadline=None)
def test_stationary_is_exactly_stationary(seed):
    arena = random_arena(4, 3, seed=seed)
    chain = induce_chain(arena, _first_choice(arena, P1), _first_choice(arena, P2))
    rows = chain.rows()
    for cls in bottom_sccs(chain):
        back = {n: F(0) for n in cls.nodes}
        for src in cls.nodes:
            for succ, p in rows[src].items():
                back[succ] += cls.stationary[src] * p
        assert back == cls.stationary
        assert sum(cls.stationary.values()) == 1


def test_absorption_inside_class_is_one():
    e3 = build_e3()
    chain = induce_chain(e3, _first_choice(e3, P1), _first_choice(e3, P2))
    t = chain.index[("t", 0, 0)]
    dist = absorption(chain, t)
    assert list(dist.values()) == [F(1)]


def test_absorption_e3_half_half():
    e3 = build_e3()
    chain = induce_chain(e3, _first_choice(e3, P1), _first_choice(e3, P2))
    s = chain.index[("s", 0, 0)]
    assert sorted(absorption(chain, s).values()) == [F(1, 2), F(1, 2)]


def test_absorption_geometric_gadget():
    # s -> {s: 1/3, t: 1/3, u: 1/3}: conditional on leaving, each sink 1/2
    arena = _one_action_arena({
        "s": {"s": F(1, 3), "t": F(1, 3), "u": F(1, 3)},
        "t": {"t": F(1)},
        "u": {"u": F(1)},
    })
    chain = induce_chain(arena, _first_choice(arena, P1), _first_choice(arena, P2))
    s = chain.index[("s", 0, 0)]
    assert sorted(absorption(chain, s).values()) == [F(1, 2), F(1, 2)]


@given(st.integers(0, 5000))
@settings(max_examples=40, deadline=None)
def test_absorption_sums_to_one(seed):
    arena = random_arena(4, 3, seed=seed)
    chain = induce_chain(arena, _first_choice(arena, P1), _first_choice(arena, P2))
    classes = bottom_sccs(chain)
    for dist in absorption_from(chain, classes):
        assert sum(dist.values()) == 1


def test_absorption_monte_carlo_cross_check():
    # empirical class-absorption frequencies within 3 binomial standard
    # deviations of the exact probabilities, fixed seed
    arena = random_arena(4, 2, seed=13)
    sigma, tau = _first_choice(arena, P1), _first_choice(arena, P2)
    chain = induce_chain(arena, sigma, tau)
    classes = bottom_sccs(chain)
    source = arena.states[0]
    exact = absorption_from(chain, classes)[chain.index[(source, 0, 0)]]
    state_to_class = {}
    for ci, cls in enumerate(classes):
        for n in cls.nodes:
            state_to_class[chain.state_of(n)] = ci
    runs, horizon = 10_000, 60
    rng = random.Random(7)
    counts = {ci: 0 for ci in range(len(classes))}
    for _ in range(runs):
        play = sample_play(arena, sigma, tau, source, horizon, rng)
        counts[state_to_class[play.target]] += 1
    for ci in counts:
        p = float(exact.get(ci, F(0)))
        sd = (p * (1 - p) / runs) ** 0.5
        assert abs(counts[ci] / runs - p) <= 3 * sd + 1e-12


def test_discounted_self_loop():
    arena = _one_action_arena({"s": {"s": F(1)}},
                              colours={"s": discounted(1, F(1, 2))})
    chain = induce_chain(arena, _first_choice(arena, P1),
                         _first_choice(arena, P2))
    vals = discounted_values(chain)
    assert vals[chain.index[("s", 0, 0)]] == 2


def test_discounted_zero_factor_truncates():
    arena = _one_action_arena({
        "s": {"t": F(1)}, "t": {"s": F(1)},
    }, colours={"s": discounted(5, F(0)), "t": discounted(-3, F(0))})
    chain = induce_chain(arena, _first_choice(arena, P1),
                         _first_choice(arena, P2))
    vals = discounted_values(chain)
    assert vals[chain.index[("s", 0, 0)]] == 5
    assert vals[chain.index[("t", 0, 0)]] == -3


def test_discounted_two_node_cycle():
    arena = _one_action_arena({
        "s": {"t": F(1)}, "t": {"s": F(1)},
    }, colours={"s": discounted(1, F(1, 2)), "t": discounted(0, F(1, 2))})
    chain = induce_chain(arena, _first_choice(arena, P1),
                         _first_choice(arena, P2))
    vals = discounted_values(chain)
    assert vals[chain.index[("s", 0, 0)]] == F(4, 3)
    assert vals[chain.index[("t", 0, 0)]] == F(2, 3)


def test_discounted_matches_truncated_series():
    arena = random_arena(4, 3, seed=21, kind="discounted")
    sigma, tau = _first_choice(arena, P1), _first_choice(arena, P2)
    chain = induce_chain(arena, sigma, tau)
    vals = discounted_values(chain)
    source = chain.index[(arena.states[0], 0, 0)]
    # unroll the series by dynamic programming over N steps
    n_steps = 60
    lam_max = F(1, 2)
    r_max = 2
    v = [F(0)] * len(chain)
    for _ in range(n_steps):
        nxt = []
        for i in range(len(chain)):
            acc = F(0)
            for mv in chain.moves[i]:
                r, lam = mv.colour.value
                acc += mv.weight * (r + lam * sum(p * v[j]
                                                  for j, p in mv.successors))
            nxt.append(acc)
        v = nxt
    bound = lam_max ** n_steps * r_max / (1 - lam_max)
    assert abs(vals[source] - v[source]) <= bound


def test_potential_function_flags():
    # deterministic +1/-1 two-cycle: increments are a coboundary
    flat = _one_action_arena({
        "x": {"y": F(1)}, "y": {"x": F(1)},
    }, colours={"x": increment(1), "y": increment(-1)})
    chain = induce_chain(flat, _first_choice(flat, P1), _first_choice(flat, P2))
    (cls,) = bottom_sccs(chain)
    assert cls.has_potential is True
    # phi exhibiting the coboundary: phi(x)=0, phi(y)=1
    phi = {"x": F(0), "y": F(1)}
    inc = {"x": 1, "y": -1}
    for s, t in (("x", "y"), ("y", "x")):
        assert phi[t] - phi[s] == inc[s]

    # zero drift but a self-loop cycle with nonzero sum: no potential
    osc = _one_action_arena({
        "x": {"y": F(1)}, "y": {"x": F(1, 2), "y": F(1, 2)},
    }, colours={"x": increment(2), "y": increment(-1)})
    chain = induce_chain(osc, _first_choice(osc, P1), _first_choice(osc, P2))
    (cls,) = bottom_sccs(chain)
    drift = sum(w * t.value for t, w in cls.colour_weights)
    assert drift == 0
    assert cls.has_potential is False


def test_chain_debug_printer():
    e3 = build_e3()
    chain = induce_chain(e3, _first_choice(e3, P1), _first_choice(e3, P2))
    doc = chain.to_document()
    assert "nodes" in doc and "moves" in doc
