"""Views of library objects that only the tests read: a sub-arena with one
state's actions cut down, a player's stationary strategies one by one, an
arena's colours in letter order, a bottom class's colours and stationary
distribution as `Fraction`s, a response fold's first and uniform
minimizing tables, lassos of rewards, priorities or vectors spelled from
plain values, and a lasso's payoff, or an index word's discounted value,
evaluated letter by letter in `Fraction`s."""

import dataclasses
import itertools
from fractions import Fraction
from typing import Optional

from stochgame import solve
from stochgame.arena import P2, Arena
from stochgame.chain import RecurrentClassSummary, product_skeleton
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


def letter_colours(arena: Arena) -> tuple:
    """The arena's colours in its letter order, spelled out: the states in
    order, each with its available actions in order.  A move's letter and
    a class's letters index it."""
    return tuple(arena.colour[(s, a)] for s in arena.states
                 for a in arena.available[s])


def colour_weights(cls: RecurrentClassSummary, colours) -> tuple:
    """The class's (colour, limit weight) pairs, one per move of positive
    weight, in `cls.letters` order, each letter read in `colours`, read off
    its `int_weights` (solved on first read)."""
    den, weights = cls.int_weights
    return tuple((colours[k], Fraction(w, den))
                 for k, w in zip(cls.letters, weights))


def fold_tables(arena: Arena, spec, sigma) -> tuple[dict, dict, Optional[dict]]:
    """sigma's response fold as `solve._fold_responses` runs it (one
    product skeleton, one `solve.Colouring`, shared class summaries, the
    tables in `itertools.product` order), keeping what the library fold
    does not: per (memory, state) the minimum, as a `Fraction`, and the
    first table attaining it, and the last table attaining every minimum
    at once, or None.  A table maps each (memory, minimizer state) pair to
    an action."""
    pairs = [(m, s) for m in sigma.memory_states for s in arena.states]
    p2_pairs = [(m, s) for m, s in pairs if arena.owner[s] == P2]
    skeleton = product_skeleton(arena, [(s, m, m) for m, s in pairs], sigma)
    seed_nodes = [skeleton.index[(s, m, m)] for m, s in pairs]
    open_nodes = [skeleton.index[(s, m, m)] for m, s in p2_pairs]
    colouring = solve.Colouring(arena, skeleton)
    summaries: dict = {}
    choice = [0] * len(skeleton)
    best: dict = {}
    argmin: dict = {}
    uniform = None
    for combo in itertools.product(*(tuple(enumerate(arena.available[s]))
                                     for _, s in p2_pairs)):
        table = {}
        for pair, node, (k, a) in zip(p2_pairs, open_nodes, combo):
            table[pair] = a
            choice[node] = k
        picked = tuple(choice)
        vals = colouring.values(solve.PairEvaluator(
            skeleton.pick(picked), seed_nodes, picked, summaries), spec)
        vals = dict(zip(pairs, (Fraction(*v) for v in vals)))
        for pair, v in vals.items():
            if pair not in best or v < best[pair]:
                best[pair], argmin[pair] = v, table
                uniform = None   # it missed this new minimum
        if vals == best:
            uniform = table
    return best, argmin, uniform


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


def discounted_value_oracle(letters, prefix, cycle):
    """The discounted value of the index word prefix . cycle^omega over the
    letter table `letters`, as a (numerator, denominator) pair in lowest
    terms: the lasso its indices spell, summed letter by letter in
    `Fraction`s (`_discounted_oracle`), the walk that
    `payoff._discounted_value` makes in integers."""
    toks = letters.letters
    value = _discounted_oracle(Lasso(tuple(toks[i] for i in prefix),
                                     tuple(toks[i] for i in cycle)))
    return value.numerator, value.denominator


def _geom_first_one_oracle(word):
    values = [t.value for t in word.prefix + word.cycle]
    if any(v not in (0, 1) for v in values):
        raise ColourKindError("geomfirstone needs colours in {0, 1}")
    return next((1 - Fraction(1, 2 ** n) for n, v in enumerate(values)
                 if v == 1), Fraction(0))
