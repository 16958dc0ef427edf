"""Views of library objects that only the tests read: a sub-arena with one
state's actions cut down, and a bottom class's colours with their limit
weights as `Fraction`s."""

import dataclasses
from fractions import Fraction

from stochgame.arena import Arena
from stochgame.chain import RecurrentClassSummary


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


def colour_weights(cls: RecurrentClassSummary) -> tuple:
    """The class's (colour, limit weight) pairs, in `cls.colours` order, read
    off its `int_weights` (solved on first read)."""
    den, weights = cls.int_weights
    return tuple((tok, Fraction(w, den)) for tok, w in zip(cls.colours, weights))
