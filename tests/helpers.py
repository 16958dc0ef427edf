"""Views of library objects that only the tests read: a sub-arena with one
state's actions cut down, a player's stationary strategies one by one, a
bottom class's colours and stationary distribution as `Fraction`s, and
lassos of rewards, priorities or vectors spelled from plain values."""

import dataclasses
import itertools
from fractions import Fraction

from stochgame.arena import Arena
from stochgame.chain import RecurrentClassSummary
from stochgame.payoff import Lasso, priority, reward, vector
from stochgame.strategy import PureStationaryStrategy


def restrict(arena: Arena, state: str, actions) -> Arena:
    """The sub-arena with `state`'s actions cut down to `actions`; cutting
    them all is an `ArenaError`, as for any arena with an actionless state."""
    keep = tuple(a for a in arena.available[state] if a in set(actions))

    def kept(table: dict) -> dict:
        return {(s, a): x for (s, a), x in table.items()
                if s != state or a in keep}

    return dataclasses.replace(
        arena, available={**arena.available, state: keep},
        transition=kept(arena.transition), colour=kept(arena.colour))


def enumerate_pure_stationary(arena: Arena, player: int):
    """All deterministic stationary strategies of the given player, in the
    order of `solve.GridSolver`'s rows (maximizer) or columns (minimizer)."""
    states = arena.player_states(player)
    for combo in itertools.product(*(arena.available[s] for s in states)):
        yield PureStationaryStrategy(player, dict(zip(states, combo)))


def colour_weights(cls: RecurrentClassSummary) -> tuple:
    """The class's (colour, limit weight) pairs, one per move of positive
    weight, in `cls.colours` order, read off its `int_weights` (solved on
    first read)."""
    den, weights = cls.int_weights
    return tuple((tok, Fraction(w, den)) for tok, w in zip(cls.colours, weights))


def stationary(cls: RecurrentClassSummary) -> dict[int, Fraction]:
    """The class's stationary distribution, node by node: the sum of each
    node's moves' `int_weights`, whose strategy weights sum to 1."""
    den, weights = cls.int_weights
    moves = iter(weights)
    return {node: Fraction(sum(next(moves) for mv in cls.chain.moves[node]
                               if mv.weight), den)
            for node in cls.nodes}


def reward_lasso(prefix, cycle) -> Lasso:
    return Lasso(tuple(map(reward, prefix)), tuple(map(reward, cycle)))


def priority_lasso(prefix, cycle) -> Lasso:
    return Lasso(tuple(map(priority, prefix)), tuple(map(priority, cycle)))


def vector_lasso(prefix, cycle) -> Lasso:
    return Lasso(tuple(vector(*v) for v in prefix),
                 tuple(vector(*v) for v in cycle))
