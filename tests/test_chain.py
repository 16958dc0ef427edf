"""Induced chains: bottom SCCs, stationary distributions, absorption,
discounted systems.  All assertions are exact unless marked Monte Carlo."""

import dataclasses
import itertools
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stochgame import chain as chain_module
from stochgame.arena import P1, P2, Arena, random_arena, sample_play
from stochgame.chain import (
    ChainError, InducedChain, Move, RecurrentClassSummary, _potential_exists,
    absorption_from, bottom_classes, bottom_sccs, discounted_values,
    first_passage, induce_chain, product_skeleton, solve_integer,
    solve_linear,
)
from stochgame.fixtures import (
    build_e2, build_e3, build_fig1, fig1_alternating_strategy,
)
from stochgame.payoff import (
    ColourKindError, class_value, discounted, increment, letter_table,
    parse_payoff_spec, priority, reward, reward_buchi, vector,
)
from stochgame.solve import brute_force_value, martingale_check, node_values
from stochgame.strategy import (
    FiniteMemoryStrategy, PureStationaryStrategy, strategy_from_json,
)
from stochgame.verify import _random_memory_strategy
from helpers import (
    colour_weights, enumerate_pure_stationary, letter_colours, stationary,
)

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
    zeros, `int`s mixed in, a dependent last row half the time, and the
    rows in a drawn order, so that pivots are often found below the
    diagonal."""
    n = draw(st.integers(1, 9))
    entry = st.tuples(st.integers(0, 9), st.integers(-5, 5),
                      st.integers(1, 6)).map(
        lambda t: 0 if t[0] < 4 else t[1] if t[2] == 1 else F(t[1], t[2]))
    matrix = [[draw(entry) for _ in range(n)] for _ in range(n)]
    rhs = [draw(entry) for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        k = draw(entry)
        matrix[-1] = [k * x for x in matrix[0]]
    order = draw(st.permutations(range(n)))
    return [matrix[i] for i in order], [rhs[i] for i in order]


# A row swap and a negative determinant (-30), then singular systems: a
# zero column, and dependent rows after a swap.
_SWAPPED = ([[0, 0, 2], [0, 3, 1], [5, 1, 1]], [4, F(1, 2), -3])
_ZERO_COLUMN = ([[0, 1], [0, F(2, 3)]], [1, 1])
_DEPENDENT = ([[0, 1, 1], [2, 4, 6], [1, 2, 3]], [1, 2, 3])


@given(_systems())
@example(_SWAPPED)
@example(_ZERO_COLUMN)
@example(_DEPENDENT)
@settings(max_examples=300, deadline=None)
def test_solve_linear_matches_fraction_oracle(system):
    # solve_linear is the Fraction view of solve_integer, which is also
    # called on the system cleared to integers row by row
    matrix, rhs = system
    before = ([row[:] for row in matrix], rhs[:])
    cleared = []
    for row in ([*r, b] for r, b in zip(matrix, rhs)):
        scale = lcm(*(F(x).denominator for x in row))
        cleared.append([int(x * scale) for x in row])
    int_matrix = [row[:-1] for row in cleared]
    int_rhs = [row[-1] for row in cleared]
    try:
        want = _gauss_oracle(matrix, rhs)
    except ChainError:
        with pytest.raises(ChainError, match="singular system"):
            solve_linear(matrix, rhs)
        with pytest.raises(ChainError, match="singular system"):
            solve_integer(int_matrix, int_rhs)
    else:
        got = solve_linear(matrix, rhs)
        assert got == want
        assert all(type(x) is F for x in got)
        nums, den = solve_integer(int_matrix, int_rhs)
        assert den > 0 and gcd(den, *nums) == 1
        assert all(type(x) is int for x in nums)
        assert [F(x, den) for x in nums] == want
    assert (matrix, rhs) == before
    if system == _SWAPPED:
        assert want == [F(-9, 10), F(-1, 2), F(2)]


@pytest.mark.parametrize("seed", range(40))
def test_first_passage_solves_its_equations(seed, monkeypatch):
    # strictly diagonally dominant rows, so every free set is solvable; the
    # free order is shuffled and outside values and base mix ints and
    # Fractions
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    rows = []
    for _ in range(n):
        row = {j: rng.randint(1, 4)
               for j in rng.sample(range(n), rng.randint(1, n))}
        rows.append((sum(row.values()) + rng.randint(1, 3), row))
    free = rng.sample(range(n), rng.randint(0, n))
    outside = [rng.choice((rng.randint(-5, 5), F(rng.randint(-5, 5), 3)))
               for _ in range(n)]
    base = rng.choice((None, [F(rng.randint(-9, 9), rng.randint(1, 4))
                              for _ in range(n)]))
    systems = []

    def recording(matrix, rhs):
        systems.append([*matrix, rhs])
        return solve_integer(matrix, rhs)

    monkeypatch.setattr(chain_module, "solve_integer", recording)
    nums, den = first_passage(rows, free, outside, base)
    assert len(systems) == (1 if free else 0) and len(nums) == len(free)
    assert all(type(v) is int
               for system in systems for row in system for v in row)
    assert den > 0
    y = list(outside)
    for node, n in zip(free, nums):
        y[node] = F(n, den)
    for node in free:
        d, row = rows[node]
        assert d * y[node] == (base[node] if base else 0) + sum(
            num * y[j] for j, num in row.items())


def _mixed_two_memory(arena, rng, player=P1):
    """A 2-memory strategy of `player`, the maximizer by default, mixing up
    to two actions per choice (`_random_memory_strategy` plays pure
    ones)."""
    mems = ("m0", "m1")
    update = {(m, s, a, t): rng.choice(mems) for m in mems for s in arena.states
              for a in arena.available[s] for t in arena.states}
    choices = {}
    for m in mems:
        for s in arena.player_states(player):
            acts = rng.sample(arena.available[s], min(2, len(arena.available[s])))
            w = rng.choice((F(1), F(1, 3), F(1, 2), F(3, 4)))
            dist = {acts[0]: F(1)} if len(acts) == 1 or w == 1 else \
                {acts[0]: w, acts[1]: 1 - w}
            choices[(m, s)] = dist
    return FiniteMemoryStrategy(player, mems, "m0", update, choices)


def _fraction_row(mvs):
    """The row of the moves `mvs`, summed in Fractions from their weights
    and successors."""
    row = {}
    for mv in mvs:
        for succ, p in mv.successors:
            row[succ] = row.get(succ, 0) + mv.weight * p
    return {succ: F(x) for succ, x in row.items() if x}


def _fraction_rows(chain):
    return [_fraction_row(mvs) for mvs in chain.moves]


def _over_least_denominator(row):
    """A Fraction row as (d, {succ: n}) over the least common denominator
    of its entries."""
    d = lcm(*(x.denominator for x in row.values()))
    return d, {succ: int(x * d) for succ, x in row.items()}


def _oracle_int_rows(arena, nodes, moves):
    """Each node's integer row and discounted equation under the arena's
    colours, the chain's `int_rows` and `discounted_rows(arena)`, from
    rows summed in Fractions."""
    int_rows, discounted_rows = [], []
    for (s, _, _), mvs in zip(nodes, moves):
        int_rows.append(_over_least_denominator(_fraction_row(mvs)))
        toks = [arena.colour[(s, mv.action)] for mv in mvs]
        if any(tok.kind != "discounted" for tok in toks):
            discounted_rows.append(None)
            continue
        d, row = _over_least_denominator(_fraction_row(
            [dataclasses.replace(mv, weight=mv.weight * tok.value[1])
             for mv, tok in zip(mvs, toks)]))
        discounted_rows.append(
            (d, row, d * sum(mv.weight * tok.value[0]
                             for mv, tok in zip(mvs, toks))))
    return tuple(int_rows), tuple(discounted_rows)


def _oracle_induce(arena, sigma, tau, seeds):
    """The reachable product of a fixed pair, walked as `induce_chain`
    walked it before `product_skeleton` took the walk over: `(nodes,
    moves)`, nodes numbered as they are found, the seeds first, then the
    successors of each node taken last in, first out."""
    index, nodes, todo = {}, [], []

    def node_id(key):
        if key not in index:
            index[key] = len(nodes)
            nodes.append(key)
            todo.append(key)
        return index[key]

    for seed in seeds:
        node_id(seed)
    moves = {}
    letters = [(s, a) for s in arena.states for a in arena.available[s]]
    while todo:
        key = todo.pop()
        s, m1, m2 = key
        strat, mem = (sigma, m1) if arena.owner[s] == P1 else (tau, m2)
        moves[index[key]] = tuple(
            Move(a, w, letters.index((s, a)), tuple(
                (node_id((t, sigma.next_memory(m1, s, a, t),
                          tau.next_memory(m2, s, a, t))), p)
                for t, p in arena.transition[(s, a)].items() if p != 0))
            for a, w in strat.action_dist(mem, s).items() if w != 0)
    return tuple(nodes), tuple(moves[i] for i in range(len(nodes)))


def _skeleton(arena, sigma=None, tau=None):
    """The product of one fixed strategy (or of none: the grid), walked
    from every (memory, state) pair as the enumerations seed it."""
    fixed = sigma if sigma is not None else tau
    memories = ("m0",) if fixed is None else fixed.memory_states
    return product_skeleton(
        arena, [(s, m, m) for m in memories for s in arena.states], sigma, tau)


def _picked_pair(arena, skeleton, choice, sigma=None, tau=None):
    """The fixed pair whose chain `choice` picks on the product of `sigma`
    and `tau`: an open player plays its picked actions, with the fixed
    player's memory updates (with one memory when both are open)."""
    fixed = sigma if sigma is not None else tau
    memory = (("m0",), "m0", {}) if fixed is None else (
        fixed.memory_states, fixed.initial, dict(fixed.update))

    def open_player(player):
        return FiniteMemoryStrategy(player, *memory, {
            (m, s): {arena.available[s][k]: F(1)}
            for (s, m, _), k in zip(skeleton.nodes, choice)
            if arena.owner[s] == player})

    return (open_player(P1) if sigma is None else sigma,
            open_player(P2) if tau is None else tau)


def _oracle_stationary(chain, nodes):
    pos = {node: k for k, node in enumerate(nodes)}
    n = len(nodes)
    rows = _fraction_rows(chain)
    matrix = [[F(0)] * n for _ in range(n)]
    for node in nodes:
        for succ, p in rows[node].items():
            matrix[pos[succ]][pos[node]] += p
    for k in range(n):
        matrix[k][k] -= 1
    matrix[n - 1] = [F(1)] * n
    pi = _gauss_oracle(matrix, [F(0)] * (n - 1) + [F(1)])
    return dict(zip(nodes, pi))


def _per_colour(colour_weights):
    """(colour, weight) pairs summed per colour, in the order first seen."""
    out = {}
    for tok, w in colour_weights:
        out[tok] = out.get(tok, 0) + w
    return out


def _oracle_absorption(chain, classes):
    rows = _fraction_rows(chain)
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


def _absorption(chain, classes):
    """`absorption_from` read as Fractions: each node's nonzero absorption
    probabilities, by class, over one positive denominator."""
    rows, den = absorption_from(chain, classes)
    assert den > 0 and len(rows) == len(chain)
    return [{ci: F(p, den) for ci, p in row.items()} for row in rows]


def _discounted(chain, arena, eqs=None):
    """`discounted_values` read as Fractions: one value per chain node,
    over one positive denominator, from the chain's equations under the
    arena's colours, or from `eqs`."""
    nums, den = discounted_values(
        chain.discounted_rows(arena) if eqs is None else eqs)
    assert den > 0 and len(nums) == len(chain)
    return [F(n, den) for n in nums]


def _skeleton_equations(skeleton, arena, choice):
    """The skeleton's per-option discounted equations under the arena's
    colours, picked by `choice` as the chain's rows are."""
    return [opts[k] for opts, k in zip(skeleton.discounted_rows(arena),
                                       choice)]


def _oracle_discounted(chain, arena):
    n = len(chain)
    matrix = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    rhs = [F(0)] * n
    for i in range(n):
        for mv in chain.moves[i]:
            r, lam = arena.colour[(chain.state_of(i), mv.action)].value
            rhs[i] += mv.weight * r
            for succ, p in mv.successors:
                matrix[i][succ] -= mv.weight * lam * p
    return _gauss_oracle(matrix, rhs)


def _mixed_discount_arena(seed, rng):
    """A discounted random arena with one discount factor per action, so
    that mixed rows combine several."""
    arena = random_arena(4, 3, seed=seed, kind="discounted")
    return dataclasses.replace(arena, colour={
        sa: discounted(tok.value[0], rng.choice((F(0), F(1, 3), F(1, 2), F(4, 5))))
        for sa, tok in arena.colour.items()})


@pytest.mark.parametrize("seed", range(0, 120, 5))
def test_integer_chain_algebra_matches_fraction_oracles(seed):
    # seeds 85, 90 and 115 give chains with two bottom classes
    rng = random.Random(seed)
    arena = _mixed_discount_arena(seed, rng)
    tau = _first_choice(arena, P2)
    for sigma in (_random_memory_strategy(arena, rng, 2),
                  _mixed_two_memory(arena, rng)):
        seeds = [(s, m, tau.initial) for s in arena.states
                 for m in sigma.memory_states]
        chain = induce_chain(arena, sigma, tau, seeds)
        for node, (d, row) in enumerate(chain.int_rows):
            assert {succ: F(n, d) for succ, n in row.items()} \
                == _fraction_rows(chain)[node] == chain.row(node)
            assert gcd(d, *row.values()) == 1
        classes = bottom_sccs(chain)
        for cls in classes:
            pi = _oracle_stationary(chain, cls.nodes)
            assert stationary(cls) == pi
            # one (colour, weight) per move of positive weight, and summed
            # per colour, the oracle's colour weights
            colour = {node: {mv: arena.colour[(chain.state_of(node),
                                               mv.action)]
                             for mv in chain.moves[node]}
                      for node in cls.nodes}
            moves = tuple((colour[node][mv], pi[node] * mv.weight)
                          for node in cls.nodes for mv in chain.moves[node]
                          if mv.weight)
            assert colour_weights(cls, letter_colours(arena)) == moves
            weights = {}
            for node in cls.nodes:
                for mv in chain.moves[node]:
                    tok = colour[node][mv]
                    weights[tok] = weights.get(tok, 0) + pi[node] * mv.weight
            assert _per_colour(colour_weights(cls, letter_colours(arena))) \
                == weights
        assert _absorption(chain, classes) == _oracle_absorption(chain, classes)
        assert _discounted(chain, arena) == _oracle_discounted(chain, arena)


def _fixings(arena, rng):
    """(sigma, tau) for each way of fixing the players, with random
    2-memory strategies, pure and mixed: both players open, sigma fixed,
    tau fixed, and both fixed."""
    yield None, None
    for sigma in (_random_memory_strategy(arena, rng, 2),
                  _mixed_two_memory(arena, rng)):
        yield sigma, None
    yield None, _mixed_two_memory(arena, rng, P2)
    yield _mixed_two_memory(arena, rng), _mixed_two_memory(arena, rng, P2)


@pytest.mark.parametrize("seed", range(0, 60, 4))
def test_skeleton_picks_the_chain_induce_chain_builds(seed):
    # a picked chain is the chain the old breadth-first walk builds for the
    # pair that its choice fixes: the same nodes in the same order, the
    # same moves and the same integer rows and discounted equations, for
    # every way of fixing the players; with both fixed, the walk starts
    # from induce_chain's default seeds and from one state alone
    rng = random.Random(seed)
    arena = _mixed_discount_arena(seed, rng)
    for sigma, tau in _fixings(arena, rng):
        if sigma is None or tau is None:
            skeleton = _skeleton(arena, sigma, tau)
            choice = [rng.randrange(len(opts)) for opts in skeleton.moves]
            picks = [(skeleton.pick(choice), _picked_pair(
                arena, skeleton, choice, sigma, tau), skeleton.nodes)]
        else:
            picks = [(induce_chain(arena, sigma, tau, seeds), (sigma, tau),
                      seeds)
                     for seeds in ([(s, "m0", "m0") for s in arena.states],
                                   [(arena.states[-1], "m1", "m0")])]
        for got, pair, seeds in picks:
            nodes, moves = _oracle_induce(arena, *pair, seeds)
            assert (got.nodes, got.moves) == (nodes, moves)
            assert got.index == {node: i for i, node in enumerate(nodes)}
            assert (got.int_rows, got.discounted_rows(arena)) \
                == _oracle_int_rows(arena, nodes, moves)


@pytest.mark.parametrize("seed", range(0, 60, 3))
def test_skeleton_rows_equal_the_summed_fraction_rows(seed):
    # a one-move option's row is the arena's integer row renamed to product
    # nodes; it must equal _integer_row summed from the option's Fraction
    # moves, for stationary, 2-memory and mixed-weight strategies, with
    # each player fixed or open
    rng = random.Random(seed)
    arena = random_arena(4, 3, seed=seed, density=(F(1, 4), F(1, 2))[seed % 2])
    fixings = [*_fixings(arena, rng), (_first_choice(arena, P1), None),
               (None, _first_choice(arena, P2))]
    kinds = set()
    for sigma, tau in fixings:
        if sigma is None or tau is None:
            skeleton = _skeleton(arena, sigma, tau)
        else:
            skeleton = product_skeleton(
                arena, [(s, "m0", "m0") for s in arena.states], sigma, tau)
        for opts, rows in zip(skeleton.moves, skeleton.int_rows):
            for mvs, row in zip(opts, rows):
                assert row == chain_module._integer_row(
                    (mv.weight, mv.successors) for mv in mvs)
                kinds.add(len(mvs))
    assert kinds == {1, 2}


def _induced_pick(arena, sigma, skeleton, choice):
    """The chain `induce_chain` builds for the pair that `choice` picks on
    `sigma`'s skeleton (the grid's when sigma is None), seeded at the
    skeleton's nodes."""
    return induce_chain(arena, *_picked_pair(arena, skeleton, choice, sigma),
                        skeleton.nodes)


@pytest.mark.parametrize("seed", range(0, 60, 5))
def test_skeleton_discounted_rows_match_the_oracles(seed):
    # the skeleton's per-option discounted rows, picked like its rows,
    # solve a picked chain; its values must be the Fraction oracle's and
    # the induce_chain chain's
    rng = random.Random(seed)
    arena = _mixed_discount_arena(seed, rng)
    for sigma in (None, _random_memory_strategy(arena, rng, 2),
                  _mixed_two_memory(arena, rng)):
        skeleton = _skeleton(arena, sigma)
        for _ in range(3):
            choice = [rng.randrange(len(opts)) for opts in skeleton.moves]
            got = skeleton.pick(choice)
            want = _induced_pick(arena, sigma, skeleton, choice)
            assert _discounted(got, arena, _skeleton_equations(
                skeleton, arena, choice)) == _discounted(got, arena) \
                == _oracle_discounted(got, arena) == _discounted(want, arena)


def test_a_reward_coloured_option_keeps_the_discount_error():
    # (s2, a1) is a minimizer action with a reward colour: exactly the
    # chains that pick it raise, on the grid and on a memory product
    arena = random_arena(4, 3, seed=3, kind="discounted")
    arena = dataclasses.replace(
        arena, colour={**arena.colour, ("s2", "a1"): reward(1)})
    rng = random.Random(3)
    for sigma in (None, _random_memory_strategy(arena, rng, 2)):
        skeleton = _skeleton(arena, sigma)
        s2 = [i for i, (s, _, _) in enumerate(skeleton.nodes) if s == "s2"]
        for choice in itertools.product(*(range(len(o)) for o in skeleton.moves)):
            chains = (skeleton.pick(choice),
                      _induced_pick(arena, sigma, skeleton, choice))
            eqs = [chain.discounted_rows(arena) for chain in chains]
            eqs.append(_skeleton_equations(skeleton, arena, choice))
            if any(choice[i] == 1 for i in s2):
                for rows in eqs:
                    with pytest.raises(ChainError) as err:
                        discounted_values(rows)
                    assert str(err.value) \
                        == "discounted payoff needs reward-discount colours"
            else:
                assert _discounted(chains[0], arena) \
                    == _discounted(chains[0], arena, eqs[2]) \
                    == _oracle_discounted(chains[0], arena) \
                    == _discounted(chains[1], arena)


@pytest.mark.parametrize("law, update, message", [
    ({"a": F(1, 2)}, {}, "sums to 1/2"),
    ({"b": F(1)}, {}, "unavailable action b"),
    ({"a": F(1)}, {("m", "s", "a", "t"): "elsewhere"}, "leaves the memory set")])
def test_skeleton_keeps_the_chain_checks(law, update, message):
    e3 = build_e3()
    sigma = FiniteMemoryStrategy(
        P1, ("m",), "m", update,
        {("m", "s"): law, ("m", "t"): {"loop": F(1)}, ("m", "u"): {"loop": F(1)}})
    with pytest.raises(ChainError, match=message):
        _skeleton(e3, sigma)


def test_a_negative_weight_is_refused_by_every_chain_entry():
    # {stay: 3/2, go: -1/2} sums to 1, so only the sign check refuses it;
    # unchecked, the chain reads a row (2, {0: 3, 1: -1}) and values it
    e2 = build_e2()
    sigma = FiniteMemoryStrategy(
        P1, ("m0",), "m0", {},
        {("m0", "s"): {"stay": F(3, 2), "go": F(-1, 2)},
         ("m0", "t"): {"loop": F(1)}})
    tau = PureStationaryStrategy(P2, {})
    mean = parse_payoff_spec("mean")
    values = brute_force_value(e2, mean)
    for entry in (lambda: induce_chain(e2, sigma, tau),
                  lambda: node_values(e2, mean, sigma, tau),
                  lambda: martingale_check(e2, values, sigma, tau, "s")):
        with pytest.raises(ChainError) as err:
            entry()
        assert str(err.value) \
            == "choice at ('s', 'm0', 'm0') gives go the negative weight -1/2"


@pytest.mark.parametrize("leaving", ["sigma", "tau"])
@pytest.mark.parametrize("both_fixed", [False, True],
                         ids=["other open", "both fixed"])
def test_a_memory_update_that_leaves_the_memory_set_raises(leaving,
                                                           both_fixed):
    e3 = build_e3()

    def strategy(player):
        update = {("m", "s", "a", "t"): "elsewhere"} \
            if leaving == ("sigma", "tau")[player == P2] else {}
        return FiniteMemoryStrategy(
            player, ("m",), "m", update,
            {("m", s): {e3.available[s][0]: F(1)}
             for s in e3.player_states(player)})

    sigma, tau = strategy(P1), strategy(P2)
    if not both_fixed:
        sigma, tau = (sigma, None) if leaving == "sigma" else (None, tau)
    with pytest.raises(ChainError) as err:
        product_skeleton(e3, [(s, "m", "m") for s in e3.states], sigma, tau)
    assert str(err.value) \
        == "memory update at (m, s, a, t) leaves the memory set"


@given(st.integers(0, 5000))
@settings(max_examples=40, deadline=None)
def test_stationary_chain_has_one_node_per_state(seed):
    # seeded at every state, a stationary pair's chain holds each state once,
    # under memory "m0", whether sigma is stationary or its finite-memory form
    arena = random_arena(4, 3, seed=seed)
    rng = random.Random(seed)
    sigma = rng.choice(list(enumerate_pure_stationary(arena, P1)))
    tau = rng.choice(list(enumerate_pure_stationary(arena, P2)))
    as_table = strategy_from_json(FiniteMemoryStrategy.to_json(sigma), P1)
    assert type(as_table) is FiniteMemoryStrategy
    chain = induce_chain(arena, sigma, tau)
    assert sorted(chain.nodes) == [(s, "m0", "m0") for s in arena.states]
    assert induce_chain(arena, as_table, tau).nodes == chain.nodes


def test_one_state_chain():
    arena = random_arena(1, 1, seed=0)
    chain = induce_chain(arena, _first_choice(arena, P1), _first_choice(arena, P2))
    assert len(chain) == 1
    assert chain.row(0) == {0: F(1)}
    classes = bottom_sccs(chain)
    assert len(classes) == 1
    assert stationary(classes[0]) == {0: F(1)}


def test_e3_chain_copies_transition_table():
    e3 = build_e3()
    chain = induce_chain(e3, _first_choice(e3, P1), _first_choice(e3, P2))
    assert len(chain) == 3
    s = chain.index[("s", "m0", "m0")]
    row = chain.row(s)
    assert sorted(row.values()) == [F(1, 2), F(1, 2)]


def test_fig1_product_with_alternating_memory():
    # hand product: 4 states x 2 memories, built from explicit seeds
    arena = build_fig1()
    sigma = fig1_alternating_strategy()
    tau = PureStationaryStrategy(P2, {"sq": "1"})
    seeds = [(s, m, "m0") for s in arena.states for m in sigma.memory_states]
    chain = induce_chain(arena, sigma, tau, seeds)
    assert len(chain) == 8
    # from (sq, m0): tau plays 1 into c1; sigma's memory is untouched until c1
    start = chain.index[("sq", "m0", "m0")]
    assert chain.row(start) == {chain.index[("c1", "m0", "m0")]: F(1)}
    # at (c1, m0) sigma plays branch action 1 and flips its memory
    c1 = chain.index[("c1", "m0", "m0")]
    assert chain.row(c1) == {chain.index[("sq", "m1", "m0")]: F(1)}


def test_two_absorbing_classes():
    e3 = build_e3()
    chain = induce_chain(e3, _first_choice(e3, P1), _first_choice(e3, P2))
    classes = bottom_sccs(chain)
    assert len(classes) == 2
    for cls in classes:
        assert stationary(cls)[cls.nodes[0]] == 1


def test_stationary_two_node_class():
    # P = [[0, 1], [1/2, 1/2]] has stationary (1/3, 2/3)
    arena = _one_action_arena({
        "x": {"y": F(1)},
        "y": {"x": F(1, 2), "y": F(1, 2)},
    })
    chain = induce_chain(arena, _first_choice(arena, P1), _first_choice(arena, P2))
    (cls,) = bottom_sccs(chain)
    pi = {chain.nodes[n][0]: p for n, p in stationary(cls).items()}
    assert pi == {"x": F(1, 3), "y": F(2, 3)}


def _two_node_class(transitions):
    arena = _one_action_arena(transitions)
    chain = induce_chain(arena, _first_choice(arena, P1), _first_choice(arena, P2))
    return RecurrentClassSummary(
        chain, [chain.index[(s, "m0", "m0")] for s in ("x", "y")])


@pytest.mark.parametrize("spoil, message", [
    (lambda nums, den: ([nums[0] + 1, *nums[1:]], den),
     "solved class distribution is not stationary"),
    (lambda nums, den: ([2 * x for x in nums], den),
     "stationary weights sum to 2")],
    ids=["perturbed", "doubled"])
def test_stationary_solve_is_checked_exactly(monkeypatch, spoil, message):
    # the checks read the solve's result, so a spoiled solve must be caught
    cls = _two_node_class({"x": {"y": F(1)}, "y": {"x": F(1, 2), "y": F(1, 2)}})
    solve = chain_module.solve_integer
    monkeypatch.setattr(chain_module, "solve_integer",
                        lambda matrix, rhs: spoil(*solve(matrix, rhs)))
    with pytest.raises(ChainError) as err:
        cls.int_weights
    assert str(err.value) == message


def test_stationary_weights_of_a_transient_node_are_rejected():
    # x moves into y, which loops: {x, y} is no closed class, and its
    # stationary weight at x is 0
    cls = _two_node_class({"x": {"y": F(1)}, "y": {"y": F(1)}})
    with pytest.raises(ChainError) as err:
        stationary(cls)
    assert str(err.value) == "stationary weights must be positive"


@given(st.integers(0, 5000))
@settings(max_examples=40, deadline=None)
def test_stationary_is_exactly_stationary(seed):
    arena = random_arena(4, 3, seed=seed)
    chain = induce_chain(arena, _first_choice(arena, P1), _first_choice(arena, P2))
    rows = chain.rows()
    for cls in bottom_sccs(chain):
        pi = stationary(cls)
        back = {n: F(0) for n in cls.nodes}
        for src in cls.nodes:
            for succ, p in rows[src].items():
                back[succ] += pi[src] * p
        assert back == pi
        assert sum(pi.values()) == 1


def test_absorption_inside_class_is_one():
    e3 = build_e3()
    chain = induce_chain(e3, _first_choice(e3, P1), _first_choice(e3, P2))
    t = chain.index[("t", "m0", "m0")]
    dist = _absorption(chain, bottom_sccs(chain))[t]
    assert list(dist.values()) == [F(1)]


def test_absorption_e3_half_half():
    e3 = build_e3()
    chain = induce_chain(e3, _first_choice(e3, P1), _first_choice(e3, P2))
    s = chain.index[("s", "m0", "m0")]
    assert sorted(_absorption(chain, bottom_sccs(chain))[s].values()) == [F(1, 2), F(1, 2)]


def test_absorption_geometric_gadget():
    # s -> {s: 1/3, t: 1/3, u: 1/3}: conditional on leaving, each sink 1/2
    arena = _one_action_arena({
        "s": {"s": F(1, 3), "t": F(1, 3), "u": F(1, 3)},
        "t": {"t": F(1)},
        "u": {"u": F(1)},
    })
    chain = induce_chain(arena, _first_choice(arena, P1), _first_choice(arena, P2))
    s = chain.index[("s", "m0", "m0")]
    assert sorted(_absorption(chain, bottom_sccs(chain))[s].values()) == [F(1, 2), F(1, 2)]


def test_absorption_solve_is_checked_to_sum_to_one(monkeypatch):
    # the check reads the solves' integer results, so a spoiled solve must
    # be caught: on e3, s reaches each of two sinks with probability 1/2
    solve = chain_module.solve_integer
    monkeypatch.setattr(chain_module, "solve_integer", lambda matrix, rhs: (
        lambda nums, den: ([x + 1 for x in nums], den))(*solve(matrix, rhs)))
    e3 = build_e3()
    chain = induce_chain(e3, _first_choice(e3, P1), _first_choice(e3, P2))
    with pytest.raises(ChainError) as err:
        absorption_from(chain, bottom_sccs(chain))
    s = chain.index[("s", "m0", "m0")]
    assert str(err.value) == f"absorption from node {s} does not sum to 1"


@given(st.integers(0, 5000))
@settings(max_examples=40, deadline=None)
def test_absorption_sums_to_one(seed):
    arena = random_arena(4, 3, seed=seed)
    chain = induce_chain(arena, _first_choice(arena, P1), _first_choice(arena, P2))
    classes = bottom_sccs(chain)
    for dist in _absorption(chain, classes):
        assert sum(dist.values()) == 1


def test_absorption_monte_carlo_cross_check():
    # empirical class-absorption frequencies within 3 binomial standard
    # deviations of the exact probabilities, fixed seed
    arena = random_arena(4, 2, seed=13)
    sigma, tau = _first_choice(arena, P1), _first_choice(arena, P2)
    chain = induce_chain(arena, sigma, tau)
    classes = bottom_sccs(chain)
    source = arena.states[0]
    exact = _absorption(chain, classes)[chain.index[(source, "m0", "m0")]]
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
    vals = _discounted(chain, arena)
    assert vals[chain.index[("s", "m0", "m0")]] == 2


def test_discounted_zero_factor_truncates():
    arena = _one_action_arena({
        "s": {"t": F(1)}, "t": {"s": F(1)},
    }, colours={"s": discounted(5, F(0)), "t": discounted(-3, F(0))})
    chain = induce_chain(arena, _first_choice(arena, P1),
                         _first_choice(arena, P2))
    vals = _discounted(chain, arena)
    assert vals[chain.index[("s", "m0", "m0")]] == 5
    assert vals[chain.index[("t", "m0", "m0")]] == -3


def test_discounted_two_node_cycle():
    arena = _one_action_arena({
        "s": {"t": F(1)}, "t": {"s": F(1)},
    }, colours={"s": discounted(1, F(1, 2)), "t": discounted(0, F(1, 2))})
    chain = induce_chain(arena, _first_choice(arena, P1),
                         _first_choice(arena, P2))
    vals = _discounted(chain, arena)
    assert vals[chain.index[("s", "m0", "m0")]] == F(4, 3)
    assert vals[chain.index[("t", "m0", "m0")]] == F(2, 3)


def test_discounted_matches_truncated_series():
    arena = random_arena(4, 3, seed=21, kind="discounted")
    sigma, tau = _first_choice(arena, P1), _first_choice(arena, P2)
    chain = induce_chain(arena, sigma, tau)
    vals = _discounted(chain, arena)
    source = chain.index[(arena.states[0], "m0", "m0")]
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
                r, lam = arena.colour[(chain.state_of(i), mv.action)].value
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
    assert cls.has_potential(_increments(flat)) is True
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
    drift = sum(w * t.value
                for t, w in colour_weights(cls, letter_colours(osc)))
    assert drift == 0
    assert cls.has_potential(_increments(osc)) is False


def _increments(arena):
    """The arena's counter increments, indexed by letter."""
    return [tok.value for tok in letter_colours(arena)]


# -- class values from the colour set, against the eager path ----------------

# every class-determined payoff, by the random_arena colour kind it reads
CLASS_PAYOFFS = {
    "reward": ("mean", "limsup", "liminf", "posavg"),
    "priority": ("parity",),
    "cobuchi": ("meancobuchi:100",),
    "vector2": ("genmean:2", "optgenmean:2"),
    "increment": ("counter+inf", "counter-inf"),
}
# payoffs decided by the colours seen infinitely often (meancobuchi only on
# a class with a Buchi move)
COLOUR_SET_PAYOFFS = ("limsup", "liminf", "parity", "meancobuchi")


def _eager_class_value(spec, chain, nodes, colours):
    """The eager path: solve the class's stationary distribution (the
    Fraction oracle), sum its colour weights, each move's colour read in
    `colours` at its letter, and read every payoff off the weighted
    colours."""
    pi = _oracle_stationary(chain, nodes)
    weights = {}
    for node in nodes:
        for mv in chain.moves[node]:
            if mv.weight:
                tok = colours[mv.letter]
                weights[tok] = weights.get(tok, 0) + pi[node] * mv.weight
    assert sum(weights.values()) == 1 and all(w > 0 for w in weights.values())
    items = [(tok.value, w) for tok, w in weights.items()]
    name = spec.name
    if name == "mean":
        return sum(w * v for v, w in items)
    if name == "limsup":
        return max(v for v, _ in items)
    if name == "liminf":
        return min(v for v, _ in items)
    if name == "parity":
        return F(max(v for v, _ in items) % 2)
    if name == "posavg":
        return F(int(sum(w * v for v, w in items) > 0))
    if name in ("genmean", "optgenmean"):
        means = [sum(w * v[i] for v, w in items) for i in range(spec.dim)]
        if name == "genmean":
            return F(int(all(m > 0 for m in means)))
        return F(int(any(m >= 0 for m in means)))
    if name == "meancobuchi":
        if any(v[1] for v, _ in items):
            return -spec.penalty
        return sum(w * v[0] for v, w in items)
    drift = sum(w * v for v, w in items)
    if drift == 0:
        return F(int(not _potential_exists(
            chain, nodes, [tok.value for tok in colours])))
    return F(int((drift > 0) == (name == "counter+inf")))


def _class_fraction(spec, cls, colours):
    """`class_value` over the table of `colours`, which the class's letters
    index, as a `Fraction`."""
    return F(*class_value(spec, letter_table(spec, colours), cls))


def _lazy_class_values(specs, chain, nodes, arena):
    """class_value over the arena's table on one fresh summary per payoff,
    and whether each read solved the stationary distribution."""
    out = []
    for spec in specs:
        summary = RecurrentClassSummary(chain, nodes)
        num, den = class_value(spec, arena.letter_table(spec), summary)
        assert type(num) is int and type(den) is int, spec
        out.append((F(num, den), "int_weights" in vars(summary)))
    return out


def _sample_chains(arena, rng):
    """Picked chains (the stationary grid's skeleton, and the response
    skeletons of 1- and 2-memory maximizer strategies, pure and mixed) and
    induced chains of the same strategies against a stationary minimizer."""
    sigmas = [_random_memory_strategy(arena, rng, 1),
              _random_memory_strategy(arena, rng, 2),
              _mixed_two_memory(arena, rng)]
    for sigma in [None] + sigmas:
        skeleton = _skeleton(arena, sigma)
        for _ in range(3):
            yield skeleton.pick([rng.randrange(len(opts))
                                 for opts in skeleton.moves])
    tau = _first_choice(arena, P2)
    for sigma in sigmas:
        yield induce_chain(arena, sigma, tau, [
            (s, m, tau.initial) for s in arena.states
            for m in sigma.memory_states])


def _class_arenas(kind, seed):
    """The arenas the payoffs of `CLASS_PAYOFFS[kind]` are checked on, each
    with its payoffs.  vector2's colours (r, -1 - r) never give two positive
    means, so genmean:2 gets the arena recoloured (r, 1 - r), which gives
    them when the mean of r lies in (0, 1)."""
    arena = random_arena(4, 3, seed=seed, density=(F(0), F(1, 2))[seed % 2],
                         kind=kind)
    names = [name for name in CLASS_PAYOFFS[kind] if name != "genmean:2"]
    out = [(arena, names)]
    if kind == "vector2":
        out.append((dataclasses.replace(arena, colour={
            key: vector(tok.value[0], 1 - tok.value[0])
            for key, tok in arena.colour.items()}), ["genmean:2"]))
    return out


@pytest.mark.parametrize("kind", sorted(CLASS_PAYOFFS))
@pytest.mark.parametrize("seed", range(0, 60, 3))
def test_class_values_match_the_eager_path(kind, seed):
    # every class-determined payoff, on the bottom classes of picked and
    # induced chains: the value is the eager path's Fraction, and only the
    # payoffs that weigh colours solve the stationary distribution
    for arena, names in _class_arenas(kind, seed):
        specs = [parse_payoff_spec(name) for name in names]
        for chain in _sample_chains(arena, random.Random(seed)):
            colours = letter_colours(arena)
            for nodes in bottom_classes(chain):
                buchi = kind == "cobuchi" and any(
                    colours[k].value[1]
                    for k in RecurrentClassSummary(chain, nodes).letters)
                got = _lazy_class_values(specs, chain, nodes, arena)
                for spec, (value, solved) in zip(specs, got):
                    assert value == _eager_class_value(spec, chain, nodes,
                                                       colours), spec
                    assert solved == (spec.name not in COLOUR_SET_PAYOFFS or (
                        spec.name == "meancobuchi" and not buchi)), spec


def test_genmean_classes_of_the_eager_path_check_see_both_verdicts():
    # over the seeds of test_class_values_match_the_eager_path, genmean:2
    # wins on some bottom classes and loses on others
    spec = parse_payoff_spec("genmean:2")
    seen = set()
    for seed in range(0, 60, 3):
        arena, names = _class_arenas("vector2", seed)[-1]
        assert names == ["genmean:2"]
        for chain in _sample_chains(arena, random.Random(seed)):
            for nodes in bottom_classes(chain):
                seen.add(_class_fraction(spec, RecurrentClassSummary(
                    chain, nodes), letter_colours(arena)))
    assert seen == {0, 1}


def _zero_weight_chain():
    """One node whose move of weight 1 has letter 0 and whose move of
    weight 0 has letter 1: the class sees only letter 0."""
    stay = ((0, F(1)),)
    moves = (Move("a", F(1), 0, stay), Move("b", F(0), 1, stay))
    return InducedChain((("s", "m0", "m0"),), (moves,),
                        {("s", "m0", "m0"): 0}, ((1, {0: 1}),))


@pytest.mark.parametrize("name, top, colour, want", [
    ("limsup", reward(5), reward, F(1)),
    ("liminf", reward(-5), reward, F(1)),
    ("parity", priority(3), lambda _: priority(2), F(0)),
    ("meancobuchi:100", reward_buchi(7, True),
     lambda r: reward_buchi(r, False), F(1)),
    ("mean", reward(5), reward, F(1)),
])
def test_a_move_of_weight_zero_adds_no_colour(name, top, colour, want):
    chain = _zero_weight_chain()
    colours = (colour(1), top)
    (cls,) = bottom_sccs(chain)
    assert cls.letters == (0,)
    spec = parse_payoff_spec(name)
    assert _class_fraction(spec, cls, colours) == want
    assert _eager_class_value(spec, chain, [0], colours) == want


def test_class_colours_follow_first_seen_order_with_aligned_weights():
    # node 0 plays reward 3 (to node 1) or reward 1 (staying), each with
    # weight 1/2; node 1 returns with reward 3.  Stationary (2/3, 1/3), so
    # each of the three moves weighs 1/3: one colour per move, in node then
    # move order, with reward 3 kept twice.  Summed per colour, reward 3
    # weighs 2/3 and reward 1 weighs 1/3, in the order first seen, which is
    # not the sorted order
    colours = (reward(3), reward(1), reward(3))
    moves = ((Move("a", F(1, 2), 0, ((1, F(1)),)),
              Move("b", F(1, 2), 1, ((0, F(1)),))),
             (Move("c", F(1), 2, ((0, F(1)),)),))
    nodes = (("s", "m0", "m0"), ("t", "m0", "m0"))
    chain = InducedChain(nodes, moves, {node: i for i, node in enumerate(nodes)},
                         ((2, {1: 1, 0: 1}), (1, {0: 1})))
    (cls,) = bottom_sccs(chain)
    assert cls.letters == (0, 1, 2)
    den, weights = cls.int_weights
    assert [F(w, den) for w in weights] == [F(1, 3)] * 3
    assert colour_weights(cls, colours) == (
        (reward(3), F(1, 3)), (reward(1), F(1, 3)), (reward(3), F(1, 3)))
    assert _per_colour(colour_weights(cls, colours)) == {reward(3): F(2, 3),
                                                        reward(1): F(1, 3)}
    assert _class_fraction(parse_payoff_spec("mean"), cls, colours) == F(7, 3)


# per colour kind of CLASS_PAYOFFS: the colour of node 0's two moves and the
# colour of node 1's one move in `_equal_colour_chain`
EQUAL_COLOURS = {
    "reward": (reward(-1), reward(2)),
    "priority": (priority(3), priority(2)),
    "cobuchi": (reward_buchi(-1, False), reward_buchi(2, False)),
    "vector2": (vector(1, -1), vector(-2, 2)),
    "increment": (increment(1), increment(-3)),
}


def _equal_colour_chain():
    """Node 0 mixes a move to node 1 (weight 1/3) with a move staying
    (weight 2/3), both of letter 0; node 1 returns with letter 1."""
    moves = ((Move("a", F(1, 3), 0, ((1, F(1)),)),
              Move("b", F(2, 3), 0, ((0, F(1)),))),
             (Move("c", F(1), 1, ((0, F(1)),)),))
    nodes = (("s", "m0", "m0"), ("t", "m0", "m0"))
    return InducedChain(nodes, moves, {node: i for i, node in enumerate(nodes)},
                        ((3, {1: 1, 0: 2}), (1, {0: 1})))


@pytest.mark.parametrize("kind", sorted(CLASS_PAYOFFS))
def test_equal_colours_of_a_mixed_law_weigh_as_one_colour(kind):
    # a colour on two moves of one mixed law stays two colours of the class,
    # and every class-determined payoff values it as the merged oracle does,
    # which sums the two moves' weights into one colour
    colours = EQUAL_COLOURS[kind]
    twice, once = colours
    chain = _equal_colour_chain()
    (cls,) = bottom_sccs(chain)
    assert cls.letters == (0, 0, 1)
    assert stationary(cls) == {0: F(3, 4), 1: F(1, 4)}
    assert _per_colour(colour_weights(cls, colours)) == {twice: F(3, 4),
                                                        once: F(1, 4)}
    for name in CLASS_PAYOFFS[kind]:
        spec = parse_payoff_spec(name)
        assert _class_fraction(spec, cls, colours) \
            == _eager_class_value(spec, chain, [0, 1], colours), name


def test_a_colour_set_payoff_checks_the_kind_before_any_solve(monkeypatch):
    # the wrong colour kind is the same error, raised when the arena's
    # letter table is built for the payoff, before any stationary solve
    solves = []
    monkeypatch.setattr(chain_module, "solve_integer",
                        lambda *args: solves.append(args))
    e3 = build_e3()
    chain = induce_chain(e3, _first_choice(e3, P1), _first_choice(e3, P2))
    for name in ("parity", "counter+inf"):
        spec = parse_payoff_spec(name)
        for cls in bottom_sccs(chain):
            with pytest.raises(ColourKindError) as raised:
                class_value(spec, e3.letter_table(spec), cls)
            assert str(raised.value) == \
                f"payoff {name} needs {spec.colour_kind} colours"
    assert solves == []
