"""Views of library objects that only the tests read: a sub-arena with one
state's actions cut down, a player's stationary strategies one by one, a
bottom class's colours and stationary distribution as `Fraction`s,
lassos of rewards, priorities or vectors spelled from plain values, and a
lasso's payoff evaluated letter by letter in `Fraction`s."""

import dataclasses
import itertools
from fractions import Fraction

from stochgame.arena import Arena
from stochgame.chain import RecurrentClassSummary
from stochgame.payoff import (
    ColourKindError, ColourToken, Lasso, PayoffError, priority, reward, vector,
)
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


def _check_kind_oracle(spec, word):
    want = spec.colour_kind
    for tok in word.prefix + word.cycle:
        if not isinstance(tok, ColourToken) or tok.kind != want:
            raise ColourKindError(
                f"payoff {spec.format()} needs {want} colours, got {tok!r}")
        if spec.name in ("genmean", "optgenmean") and len(tok.value) != spec.dim:
            raise ColourKindError(
                f"{spec.format()} needs vectors of dimension {spec.dim}")


def _cycle_mean(values):
    return Fraction(sum(values), len(values))


def _vector_cycle_means(cyc, dim):
    return [Fraction(sum(t.value[i] for t in cyc), len(cyc)) for i in range(dim)]


def evaluate_lasso_oracle(spec, word):
    """The payoff of a lasso of colour tokens, letter by letter in
    `Fraction`s, with one branch per payoff: the reference that the value
    forms, `evaluate_lasso` and the searches' array valuers are checked
    against, sharing no code with them."""
    _check_kind_oracle(spec, word)
    cyc = word.cycle
    name = spec.name
    if name == "mean":
        return _cycle_mean([t.value for t in cyc])
    if name == "limsup":
        return max(t.value for t in cyc)
    if name == "liminf":
        return min(t.value for t in cyc)
    if name == "parity":
        return Fraction(max(t.value for t in cyc) % 2)
    if name == "posavg":
        return Fraction(1) if _cycle_mean([t.value for t in cyc]) > 0 else Fraction(0)
    if name == "counter+inf":
        return Fraction(1) if sum(t.value for t in cyc) > 0 else Fraction(0)
    if name == "counter-inf":
        return Fraction(1) if sum(t.value for t in cyc) < 0 else Fraction(0)
    if name == "genmean":
        means = _vector_cycle_means(cyc, spec.dim)
        return Fraction(1) if all(m > 0 for m in means) else Fraction(0)
    if name == "optgenmean":
        means = _vector_cycle_means(cyc, spec.dim)
        return Fraction(1) if any(m >= 0 for m in means) else Fraction(0)
    if name == "meancobuchi":
        if any(t.value[1] for t in cyc):
            return -spec.penalty
        return _cycle_mean([t.value[0] for t in cyc])
    if name == "discounted":
        return _discounted_oracle(word)
    if name == "suffixtarget":
        return Fraction(1)
    if name == "geomfirstone":
        return _geom_first_one_oracle(word)
    raise PayoffError(name)


def _discounted_oracle(word):
    # the prefix and one round of the cycle summed letter by letter; the
    # rest of the word repeats the cycle, so the cycle's sum counts
    # 1 / (1 - the product of its discounts) times
    def partial(start, n):
        total, factor = Fraction(0), Fraction(1)
        for k in range(start, start + n):
            r, lam = word.letter(k).value
            total += factor * r
            factor *= lam
        return total, factor

    head, head_factor = partial(0, len(word.prefix))
    cycle, cycle_factor = partial(len(word.prefix), len(word.cycle))
    return head + head_factor * cycle / (1 - cycle_factor)


def _geom_first_one_oracle(word):
    values = [t.value for t in word.prefix + word.cycle]
    if any(v not in (0, 1) for v in values):
        raise ColourKindError("geomfirstone needs colours in {0, 1}")
    return next((1 - Fraction(1, 2 ** n) for n, v in enumerate(values)
                 if v == 1), Fraction(0))
