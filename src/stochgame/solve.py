"""Strategy-pair evaluation, best responses, brute-force game values with
certificates, the guaranteed values of a finite-memory strategy and its
weakness set, value-preserving/stable action classification, and the
martingale checks and exact and sampled stopped values behind the
stopped-value suites.

Values are computed by exhaustive enumeration of deterministic stationary
strategies: for the positional payoff catalog the enumerated grid attains the
game value, and the saddle-point assertion, on the grid's one reduction
(`GridSolver.reduce`), is the guard that it did.  For that catalog a pure
stationary sigma's best response is also stationary, so
`best_response_min` reads sigma's row of the grid: from the arena's live
`GridSolver` (`_LIVE_GRIDS`, weak references by `id(arena)`), which keeps
the rows a `brute_force_value` on it evaluated, or else from a fresh grid.

Each enumeration walks its product once, with `chain.product_skeleton`,
which holds every row any of its pairs can induce: `GridSolver` the grid,
both players open, seeded at every state; `_fold_responses`, the
enumerator for finite-memory strategies (`product_values`,
`guarantee_exceeds`), the product of one fixed maximizer strategy, seeded
at every (memory, state) pair.  A strategy pair or response table is a
choice vector over it, and picking the rows gives the pair's chain.
`guarantee_exceeds` first values one such chain with both players fixed,
a finite-memory strategy against a stationary reply, and folds the
responses only where that reply leaves some pair above its floor.

A skeleton's moves carry letters, not colours, so a pair's chain, bottom
classes and absorption (`PairEvaluator`) serve every colouring; the pairs
of one enumeration share their class summaries in a dict.  A `Colouring`
reads one arena's colours over them: each class once per payoff, from the
arena's letter table, and the discounted equations once per (node,
option).  A grid's colour-free part, `_GridCore`, is shared by every
colouring of one dynamics (`Arena.dynamics`) through the weak registry
`_CORES`; a `GridSolver` is one arena's colouring of it.  The single-pair
entry points (`node_values`, `martingale_check`, the stopped values)
build their chain with `chain.induce_chain`: the same walk with both
players fixed.

An enumerated pair's values are integers over one denominator, read off
the integer `(nums, den)` outputs of the chain's solves and the class
values; the grid, the folds and the floor checks compare them by
cross-multiplication (`first_least`), and the grid's strategies are tuples
of action indices.  A `Fraction` or a strategy is built only for what is
reported: `ValueVector`, `BestResponse`, `product_values` and `FloorCheck`.
`node_values` is the `Fraction` path, the oracle of the integer one.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm, log, prod, sqrt
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .arena import P1, P2, Arena
from .chain import (
    InducedChain, ProductSkeleton, RecurrentClassSummary, absorption_from,
    bottom_sccs, discounted_values, first_passage, induce_chain,
    product_skeleton,
)
from .payoff import PayoffSpec, class_value, scaled
from .strategy import (
    FiniteMemoryStrategy, PureStationaryStrategy, StrategyError, WeaknessSet,
    count_pure_stationary,
)


class SolveError(ValueError):
    pass


class BudgetError(SolveError):
    pass


class UnsupportedPayoffError(SolveError):
    pass


class SaddlePointError(SolveError):
    pass


DEFAULT_BUDGET = 2_000_000


def _check_budget(budget: int) -> None:
    if budget < 1:
        raise ValueError(f"budget must be >= 1, not {budget}")


def _require_evaluable(spec: PayoffSpec) -> None:
    if spec.name in ("suffixtarget", "geomfirstone"):
        raise UnsupportedPayoffError(
            f"{spec.format()} is not determined by recurrent classes; "
            "use the verification module's specialized routines")


class PairEvaluator:
    """One strategy pair's chain, picked from a `ProductSkeleton` with the
    choice vector `choice`, and what no colour changes: its bottom classes
    and their absorption from the seed nodes, found on first read of
    `classes` (the discounted payoff never reads them).  `summaries` holds
    the summaries the enumeration's pairs share, keyed by a class's nodes
    and the choice at each, which fix its rows and letters.  `absorb` keeps
    the seeds' absorption probabilities as integers over one denominator;
    with one bottom class no system is solved and it stays None."""

    def __init__(self, chain: InducedChain, seed_nodes: Sequence[int],
                 choice: Sequence[int],
                 summaries: dict[tuple, RecurrentClassSummary]):
        self.chain = chain
        self.seed_nodes = seed_nodes
        self.choice = choice
        self._summaries = summaries
        self._classes: Optional[list[RecurrentClassSummary]] = None
        self.absorb: Optional[tuple[int, list[dict[int, int]]]] = None

    @property
    def classes(self) -> list[RecurrentClassSummary]:
        if self._classes is None:
            classes = []
            for cls in self.chain.classes:
                key = tuple(cls), tuple(self.choice[node] for node in cls)
                summary = self._summaries.get(key)
                if summary is None:
                    summary = self._summaries[key] = RecurrentClassSummary(
                        self.chain, cls)
                classes.append(summary)
            if len(classes) > 1:
                absorb, den = absorption_from(self.chain, classes)
                self.absorb = den, [absorb[node] for node in self.seed_nodes]
            self._classes = classes
        return self._classes


class Colouring:
    """One arena's colours read over the pairs of a product skeleton that
    other colourings may share.  A class is valued once per payoff, from
    the arena's letter table, and the value is kept here, not on the
    shared summary; the discounted equations are built from the arena's
    colours once per (node, option), on first use."""

    def __init__(self, arena: Arena, skeleton: ProductSkeleton):
        self.arena = arena
        self._skeleton = skeleton
        # payoff -> (the arena's table, {class summary: value})
        self._class_values: dict[PayoffSpec, tuple] = {}
        self._equations: Optional[tuple] = None

    def values(self, pair: PairEvaluator, spec: PayoffSpec
               ) -> list[tuple[int, int]]:
        """Exact expected payoff from each of the pair's seed nodes, in
        seed order, as (numerator, denominator) over one positive
        denominator."""
        _require_evaluable(spec)
        if spec.name == "discounted":
            if self._equations is None:
                self._equations = self._skeleton.discounted_rows(self.arena)
            nums, den = discounted_values(
                [opts[k] for opts, k in zip(self._equations, pair.choice)])
            return [(nums[node], den) for node in pair.seed_nodes]
        found = self._class_values.get(spec)
        if found is None:
            found = self._class_values[spec] = (
                self.arena.letter_table(spec), {})
        table, known = found
        vals = []
        for summary in pair.classes:
            v = known.get(summary)
            if v is None:
                v = known[summary] = class_value(spec, table, summary)
            vals.append(v)
        if pair.absorb is None:
            return [vals[0]] * len(pair.seed_nodes)
        cden = lcm(*(d for _, d in vals))
        cnums = [n * (cden // d) for n, d in vals]
        den, rows = pair.absorb
        return [(sum(p * cnums[ci] for ci, p in row.items()), den * cden)
                for row in rows]


def first_least(rows: Sequence[Sequence[tuple[int, int]]], sign: int = 1
                ) -> tuple[list[int], list[tuple[int, int]]]:
    """For each column of `rows`, the index of the first row holding its
    least value, and that value; with `sign` -1, its greatest.  A value is
    (numerator, positive denominator), compared by integer
    cross-multiplication, so ties are exact whatever the denominators."""
    at = [0] * len(rows[0])
    best = list(rows[0])
    for i, row in enumerate(rows):
        for k, v in enumerate(row):
            b = best[k]
            if sign * (v[0] * b[1] - b[0] * v[1]) < 0:
                best[k] = v
                at[k] = i
    return at, best


def _same(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[0] * b[1] == b[0] * a[1]


def node_values(arena: Arena, spec: PayoffSpec, sigma, tau,
                seeds: Optional[Sequence[tuple]] = None) -> list[Fraction]:
    """Exact expected payoff from each seed node under the fixed pair, in
    `Fraction` arithmetic on the pair's own `induce_chain` chain: the slow
    path that `PairEvaluator`'s integer values are checked against."""
    _require_evaluable(spec)
    if seeds is None:
        seeds = [(s, sigma.initial, tau.initial) for s in arena.states]
    chain = induce_chain(arena, sigma, tau, seeds)
    if spec.name == "discounted":
        nums, den = discounted_values(chain.discounted_rows(arena))
        vals = [Fraction(n, den) for n in nums]
    else:
        classes = bottom_sccs(chain)
        absorb, den = absorption_from(chain, classes)
        table = arena.letter_table(spec)
        cvals = [Fraction(*class_value(spec, table, cls)) for cls in classes]
        vals = [sum((Fraction(p, den) * cvals[ci] for ci, p in row.items()),
                    Fraction(0)) for row in absorb]
    return [vals[chain.index[seed]] for seed in seeds]


# ---------------------------------------------------------------------------
# Grid enumeration


class _Picks(Sequence):
    """One player's deterministic stationary strategies, as tuples of
    action indices at its states in `itertools.product` order, decoded from
    their position when read: a grid holds no tuple it does not read, so
    reading one row costs no more than its columns.  `index` encodes."""

    def __init__(self, sizes: Sequence[int]):
        self._sizes = tuple(sizes)
        self._len = prod(self._sizes)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, k: int) -> tuple[int, ...]:
        if not 0 <= k < self._len:
            raise IndexError(k)
        picks = []
        for n in reversed(self._sizes):
            k, a = divmod(k, n)
            picks.append(a)
        return tuple(reversed(picks))

    def index(self, picks: Sequence[int]) -> int:
        k = 0
        for n, a in zip(self._sizes, picks):
            k = k * n + a
        return k


# The live grid of each arena, by `id(arena)`: a `GridSolver` records
# itself here, and `best_response_min` reads a strategy's row from it.  The
# values are weak, so no grid outlives its owner's reference to it.
_LIVE_GRIDS: weakref.WeakValueDictionary[int, GridSolver] = \
    weakref.WeakValueDictionary()


class _GridCore:
    """The colour-free part of a grid, shared by every colouring of one
    dynamics: the rows and columns, the one-memory skeleton with both
    players open, each pair's `PairEvaluator`, their class summaries and
    the row and column strategies; it holds no arena.  The skeleton's
    nodes are its seeds, one per state in state order, so pair (i, j)'s
    choice vector is row i and column j placed at their states."""

    def __init__(self, arena: Arena):
        self.rows, self.columns = (
            _Picks([len(arena.available[s])
                    for s in arena.player_states(player)])
            for player in (P1, P2))
        self._player_states = {player: arena.player_states(player)
                               for player in (P1, P2)}
        self._available = arena.available
        self._maximizer = [arena.owner[s] == P1 for s in arena.states]
        self.skeleton = product_skeleton(
            arena, [(s, "m0", "m0") for s in arena.states])
        self._seed_nodes = range(len(arena.states))
        self._summaries: dict[tuple, RecurrentClassSummary] = {}
        self._pairs: dict[tuple[int, int], PairEvaluator] = {}
        self._strategies: dict[tuple[int, int], PureStationaryStrategy] = {}

    def pair(self, i: int, j: int) -> PairEvaluator:
        found = self._pairs.get((i, j))
        if found is None:
            row, column = iter(self.rows[i]), iter(self.columns[j])
            choice = tuple(next(row) if mine else next(column)
                           for mine in self._maximizer)
            found = self._pairs[(i, j)] = PairEvaluator(
                self.skeleton.pick(choice), self._seed_nodes, choice,
                self._summaries)
        return found

    def strategy(self, player: int, k: int) -> PureStationaryStrategy:
        found = self._strategies.get((player, k))
        if found is None:
            avail = self._available
            picks = (self.rows if player == P1 else self.columns)[k]
            found = self._strategies[(player, k)] = PureStationaryStrategy(
                player, {s: avail[s][a] for s, a in
                         zip(self._player_states[player], picks)})
        return found


# The grid core of each arena dynamics, by `Arena.dynamics`; the values
# are weak, so a core dies with the last grid that holds it.
_CORES: weakref.WeakValueDictionary[tuple, _GridCore] = \
    weakref.WeakValueDictionary()


class GridSolver:
    """Evaluates every deterministic stationary strategy pair once and
    answers value queries for several payoffs over the shared chains.

    `rows[i]` is the maximizer's i-th stationary strategy, in
    `itertools.product` order, as its action indices at its states, and
    `columns[j]` the minimizer's j-th (`_Picks`); `strategy` builds one,
    once, when it is reported.  A grid is its arena's `Colouring` of the
    `_GridCore` of its dynamics, so the colourings of one dynamics, such as
    `random_arena`'s kinds for one seed, share the chains and classes; it
    keeps each row it evaluates, per payoff (`row_values`).  A grid records
    itself as its arena's live grid (`_LIVE_GRIDS`).  A budget
    below 1 is a `ValueError`, raised before any work, and so is the
    `BudgetError` of too many pairs."""

    def __init__(self, arena: Arena, budget: int = DEFAULT_BUDGET):
        _check_budget(budget)
        n_pairs = count_pure_stationary(arena, P1) \
            * count_pure_stationary(arena, P2)
        if n_pairs > budget:
            raise BudgetError(
                f"{n_pairs} strategy pairs exceed the budget of {budget}; "
                "split the arena or raise the budget")
        self.arena = arena
        key = arena.dynamics()
        core = _CORES.get(key)
        if core is None:
            core = _CORES[key] = _GridCore(arena)
        self._core = core
        self.rows, self.columns = core.rows, core.columns
        self._colouring = Colouring(arena, core.skeleton)
        self._row_values: dict[tuple[PayoffSpec, int], list] = {}
        _LIVE_GRIDS[id(arena)] = self

    def strategy(self, player: int, k: int) -> PureStationaryStrategy:
        """Row k as the maximizer's strategy, or column k as the
        minimizer's, built on first request and then shared."""
        return self._core.strategy(player, k)

    def pair_values(self, spec: PayoffSpec, i: int, j: int) -> dict[str, Fraction]:
        return {s: Fraction(*v) for s, v in
                zip(self.arena.states, self.int_pair_values(spec, i, j))}

    def int_pair_values(self, spec: PayoffSpec, i: int, j: int
                        ) -> list[tuple[int, int]]:
        """Pair (i, j)'s `Colouring.values`, in state order."""
        return self._colouring.values(self._core.pair(i, j), spec)

    def row_values(self, spec: PayoffSpec, i: int) -> list[list[tuple]]:
        """Row i's `int_pair_values` for `spec`, kept from the first read."""
        found = self._row_values.get((spec, i))
        if found is None:
            found = self._row_values[(spec, i)] = [
                self.int_pair_values(spec, i, j)
                for j in range(len(self.columns))]
        return found

    def reduce(self, spec: PayoffSpec) -> tuple:
        """Every row for `spec`, reduced to five things, per state in state
        order: the maxmin and the minmax; the first row whose minima are
        the maxmin at every state, and its first minimizing column at each
        state; and the first column whose maxima are the maxmin at every
        state; None where no such row or column is."""
        vals = [self.row_values(spec, i) for i in range(len(self.rows))]
        argmin, minima = zip(*map(first_least, vals))
        maxmin = first_least(minima, -1)[1]
        maxima = [first_least(column, -1)[1] for column in zip(*vals)]
        row = next((i for i, m in enumerate(minima)
                    if all(map(_same, m, maxmin))), None)
        return (maxmin, first_least(maxima)[1], row,
                None if row is None else argmin[row],
                next((j for j, m in enumerate(maxima)
                      if all(map(_same, m, maxmin))), None))


@dataclass(frozen=True)
class BestResponse:
    """The minimizer's best reply to a fixed stationary strategy: per-state
    minima, the per-state minimizers, and the uniform minimizer if one
    strategy attains every state's minimum simultaneously."""

    values: dict[str, Fraction]
    minimizers: dict[str, PureStationaryStrategy]
    uniform: Optional[PureStationaryStrategy]

    @property
    def has_uniform(self) -> bool:
        return self.uniform is not None


class _Fold(NamedTuple):
    best: dict[tuple, tuple[int, int]]  # minimum at each (memory, state)
    tables: int                      # response tables evaluated
    total: int                       # response tables in the full fold


def _response_count(arena: Arena, sigma: FiniteMemoryStrategy,
                    budget: int) -> int:
    """The number of response tables on sigma's memory product, one action
    per (memory, minimizer state) pair; a budget below 1 is a `ValueError`
    and a count above the budget a `BudgetError`."""
    _check_budget(budget)
    total = prod(len(arena.available[s]) for _ in sigma.memory_states
                 for s in arena.player_states(P2))
    if total > budget:
        raise BudgetError(f"{total} responses exceed budget {budget}")
    return total


def _fold_responses(arena: Arena, spec: PayoffSpec,
                    sigma: FiniteMemoryStrategy, budget: int,
                    floor: Optional[dict[tuple, Fraction]] = None,
                    tau: Optional[PureStationaryStrategy] = None) -> _Fold:
    """Fold the minimizer's response tables on sigma's memory product, in
    `itertools.product` order, into the minimum at each (memory, state).
    A table maps each (memory, minimizer state) pair to an action, played
    by a strategy whose memory shadows sigma's automaton.  With a
    stationary `tau`, its lifted table, tau's action at every (memory,
    minimizer state), is folded first and skipped in the order.

    With a `floor`, a map from (memory, state) pairs to values, the fold
    stops as soon as each listed pair has met a table valued at or below
    its floor; the minima are then partial.  It runs to the end, with
    exact minima, only when some listed pair is never held to its floor.

    sigma's product skeleton is built once; a table is the choice vector
    of its actions at the open minimizer nodes, and all tables share one
    dict of bottom-class summaries and one `Colouring`.  Values are
    compared as integers, and the minima stay (numerator, denominator)
    pairs; the callers build `Fraction`s for the values they report.  A
    budget below 1 is a `ValueError`."""
    total = _response_count(arena, sigma, budget)
    pairs = [(m, s) for m in sigma.memory_states for s in arena.states]
    p2_pairs = [(m, s) for m, s in pairs if arena.owner[s] == P2]
    skeleton = product_skeleton(arena, [(s, m, m) for m, s in pairs], sigma)
    seed_nodes = [skeleton.index[(s, m, m)] for m, s in pairs]
    open_nodes = [skeleton.index[(s, m, m)] for m, s in p2_pairs]
    summaries: dict[tuple, RecurrentClassSummary] = {}
    colouring = Colouring(arena, skeleton)
    choice = [0] * len(skeleton)
    best: list = [None] * len(pairs)
    # the floor's pairs not yet held to it, by position, with their floors
    pending = None if floor is None else {
        pairs.index(pair): (v.numerator, v.denominator)
        for pair, v in floor.items()}
    combos = itertools.product(*(range(len(arena.available[s]))
                                 for _, s in p2_pairs))
    if tau is not None:
        first = tuple(arena.available[s].index(tau.choice[s])
                      for _, s in p2_pairs)
        combos = itertools.chain(
            (first,), (combo for combo in combos if combo != first))
    tables = 0
    for combo in combos:
        for node, k in zip(open_nodes, combo):
            choice[node] = k
        picked = tuple(choice)
        vals = colouring.values(PairEvaluator(
            skeleton.pick(picked), seed_nodes, picked, summaries), spec)
        tables += 1
        for k, v in enumerate(vals):
            b = best[k]
            if b is None or v[0] * b[1] < b[0] * v[1]:
                best[k] = v
        if pending is not None:
            pending = {k: f for k, f in pending.items()
                       if vals[k][0] * f[1] > f[0] * vals[k][1]}
            if not pending:
                break
    return _Fold(dict(zip(pairs, best)), tables, total)


def best_response_min(arena: Arena, spec: PayoffSpec,
                      sigma: PureStationaryStrategy,
                      budget: int = DEFAULT_BUDGET) -> BestResponse:
    """The minimizer's best reply to sigma over its stationary strategies:
    sigma's row of the stationary grid.  For the positional catalog a
    stationary reply is optimal in the decision process sigma leaves the
    minimizer, so the row's minima are the exact best-response values.

    The row is read from the arena's live grid (`_LIVE_GRIDS`), which keeps
    the rows a `brute_force_value` on it has evaluated; without one, from a
    fresh grid, built without the pairs' gate since only the row is
    evaluated.  The budget bounds the row's columns.  Per state the
    minimizer is the first column attaining the minimum, and the uniform
    minimizer the last column attaining every minimum at once; one
    strategy per column serves every state it attains.  A sigma that is
    not pure stationary has no row: `product_values` takes it."""
    if not spec.is_both_positional:
        raise UnsupportedPayoffError(
            f"best responses are only enumerated for the positional catalog, "
            f"not {spec.format()}")
    if not isinstance(sigma, PureStationaryStrategy):
        raise StrategyError(
            "best_response_min reads a pure stationary sigma's grid row; "
            "use product_values for a finite-memory sigma")
    _check_budget(budget)
    total = count_pure_stationary(arena, P2)
    if total > budget:
        raise BudgetError(f"{total} responses exceed budget {budget}")
    sigma.check_in(arena)
    grid = _LIVE_GRIDS.get(id(arena))
    if grid is None or grid.arena is not arena:
        # a budget of the grid's own pair count: only sigma's row is read
        grid = GridSolver(arena, count_pure_stationary(arena, P1) * total)
    i = grid.rows.index([arena.available[s].index(sigma.choice[s])
                         for s in arena.player_states(P1)])
    row = grid.row_values(spec, i)
    argmin, best = first_least(row)
    uniform = None
    for j, vals in enumerate(row):
        if all(map(_same, vals, best)):
            uniform = j
    return BestResponse(
        {s: Fraction(*v) for s, v in zip(arena.states, best)},
        {s: grid.strategy(P2, j) for s, j in zip(arena.states, argmin)},
        None if uniform is None else grid.strategy(P2, uniform))


@dataclass(frozen=True)
class ValueVector:
    """Game values with certificates: the optimal stationary strategy of the
    maximizer and, per state, the minimizer's reply achieving the value.
    `arena_fingerprint` is the solved arena's `Arena.fingerprint()`, hashed
    on each read: the grid does not need it."""

    values: dict[str, Fraction]
    sigma_star: PureStationaryStrategy
    best_response: dict[str, tuple[PureStationaryStrategy, Fraction]]
    spec: PayoffSpec
    arena: Arena = field(repr=False)

    @property
    def arena_fingerprint(self) -> str:
        return self.arena.fingerprint()

    def __getitem__(self, state: str) -> Fraction:
        return self.values[state]


def brute_force_value(arena: Arena, spec: PayoffSpec,
                      budget: int = DEFAULT_BUDGET,
                      grid: Optional[GridSolver] = None) -> ValueVector:
    """max over stationary strategies of the best-response minimum, with the
    exact saddle-point assertion max min = min max on the enumerated grid."""
    if not spec.is_both_positional:
        raise UnsupportedPayoffError(
            f"exact values are only computed for the positional catalog, "
            f"not {spec.format()}")
    if grid is None:
        grid = GridSolver(arena, budget)
    maxmin, minmax, best_i, argmin, _ = grid.reduce(spec)
    value = dict(zip(arena.states, (Fraction(*v) for v in maxmin)))
    if not all(map(_same, maxmin, minmax)):
        raise SaddlePointError(
            f"enumerated maxmin {value} differs from minmax "
            f"{dict(zip(arena.states, (Fraction(*v) for v in minmax)))}")
    if best_i is None:
        raise SaddlePointError(
            "no stationary strategy attains the maxmin at every state")
    # sigma*'s row has its minimum at the value at every state; the first
    # tau reaching it is the certificate, built once per column
    taus = {j: grid.strategy(P2, j) for j in argmin}
    certificates = {s: (taus[j], value[s])
                    for s, j in zip(arena.states, argmin)}
    return ValueVector(value, grid.strategy(P1, best_i), certificates, spec,
                       arena)


# ---------------------------------------------------------------------------
# Guaranteed values of a finite-memory strategy, weakness set


def product_values(arena: Arena, spec: PayoffSpec, sigma: FiniteMemoryStrategy,
                   budget: int = DEFAULT_BUDGET) -> dict[tuple, Fraction]:
    """For each (memory, state): the worst-case expected payoff when play
    starts there with the maximizer frozen to sigma.

    The minimizer's best response is computed by enumerating deterministic
    stationary strategies on the product of the arena with sigma's memory,
    each a choice vector over one product skeleton built for sigma, with
    bottom classes summarized once per distinct rows (`_fold_responses`);
    the memory is a deterministic function of the history, so these are
    legitimate (finite-memory) strategies of the original game, and for the
    positional payoff catalog they attain the true infimum of the product
    decision process, so the result is exact.  For any other payoff the
    result is the worst case over this bounded response class only, an
    upper bound on the true guarantee.
    """
    sigma.check_in(arena)
    return {pair: Fraction(*v) for pair, v in
            _fold_responses(arena, spec, sigma, budget).best.items()}


class FloorCheck(NamedTuple):
    """`guarantee_exceeds`'s answer: the (memory, state) pairs whose
    guarantee lies strictly above their floor, each with that exact
    guarantee (empty when responses hold every pair to its floor), and
    the response tables evaluated, 1 where a given stationary reply held
    every pair, out of the full fold's."""

    above: dict[tuple, Fraction]
    tables: int
    total: int


def guarantee_exceeds(arena: Arena, spec: PayoffSpec,
                      sigma: FiniteMemoryStrategy,
                      floor: dict[tuple, Fraction],
                      budget: int = DEFAULT_BUDGET,
                      tau: Optional[PureStationaryStrategy] = None
                      ) -> FloorCheck:
    """Does sigma's guarantee (`product_values`) exceed `floor` at some
    listed (memory, state) pair?

    A stationary minimizer strategy `tau` is tried first, on the one chain
    of the pair (sigma, tau) seeded at the listed pairs: if it holds every
    pair to its floor, no pair exceeds it, and no response product is
    built.  Otherwise the response fold runs with tau's lifted table first
    (`_fold_responses`), and stops once every listed pair has met a table
    at or below its floor.  Where a pair is held does not depend on the
    order of the tables, so tau changes only how many are evaluated.  A
    pair above its floor was never held there, so the fold ran to the end
    and its guarantee is exact.  The guarantees are compared with the
    floor by cross-multiplication, and only those above it become
    `Fraction`s.  The budget applies to the full fold, before any table
    or chain is evaluated."""
    sigma.check_in(arena)
    total = _response_count(arena, sigma, budget)
    if tau is not None and floor:
        seeds = [(s, m, tau.initial) for m, s in floor]
        skeleton = product_skeleton(arena, seeds, sigma, tau)
        choice = (0,) * len(skeleton)
        vals = Colouring(arena, skeleton).values(PairEvaluator(
            skeleton.pick(choice), [skeleton.index[seed] for seed in seeds],
            choice, {}), spec)
        if all(n * f.denominator <= f.numerator * d
               for (n, d), f in zip(vals, floor.values())):
            return FloorCheck({}, 1, total)
    fold = _fold_responses(arena, spec, sigma, budget, floor, tau)
    best = fold.best
    return FloorCheck({pair: Fraction(*best[pair]) for pair, v in floor.items()
                       if best[pair][0] * v.denominator
                       > v.numerator * best[pair][1]}, fold.tables, fold.total)


def weakness_set(arena: Arena, spec: PayoffSpec, sigma: FiniteMemoryStrategy,
                 epsilon: Fraction, values: Optional[dict] = None,
                 guaranteed: Optional[dict] = None) -> WeaknessSet:
    """Exact weakness set of a finite-memory strategy at threshold
    val(s) - 2*epsilon, for epsilon > 0.  `values` may carry precomputed
    game values."""
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, not {epsilon}")
    if not spec.is_shift_invariant:
        raise StrategyError(
            "the weakness construction needs a shift-invariant payoff")
    if values is None:
        values = brute_force_value(arena, spec).values
    if guaranteed is None:
        if not spec.is_both_positional:
            raise StrategyError(
                f"product values need a payoff with positional best "
                f"responses, not {spec.format()}")
        guaranteed = product_values(arena, spec, sigma)
    pairs = frozenset(pair for pair, v in guaranteed.items()
                      if v < values[pair[1]] - 2 * epsilon)
    return WeaknessSet(pairs, epsilon, guaranteed, dict(values))


# ---------------------------------------------------------------------------
# Value-preserving and stable actions


@dataclass(frozen=True)
class ActionFacts:
    value_preserving: bool
    stable: bool
    one_step_value: Fraction
    successor_values: frozenset


@dataclass(frozen=True)
class ActionClassification:
    table: dict[tuple[str, str], ActionFacts]
    all_preserving: dict[str, bool]

    def value_preserving_actions(self, arena: Arena, s: str) -> list[str]:
        return [a for a in arena.available[s]
                if self.table[(s, a)].value_preserving]


def classify_actions(arena: Arena, values: ValueVector) -> ActionClassification:
    """Exact per-action flags: value-preserving means the expected successor
    value equals the state's value; stable means every possible successor
    has the same value as the state."""
    table = {}
    all_pres = {}
    for s in arena.states:
        flags = []
        for a in arena.available[s]:
            dist = arena.transition[(s, a)]
            q = sum((p * values.values[t] for t, p in dist.items()),
                    Fraction(0))
            succ_vals = frozenset(values.values[t]
                                  for t, p in dist.items() if p > 0)
            vp = q == values.values[s]
            stable = succ_vals == {values.values[s]}
            if stable and not vp:
                raise SolveError(f"stable but not value-preserving at ({s},{a})")
            table[(s, a)] = ActionFacts(vp, stable, q, succ_vals)
            flags.append(vp)
        all_pres[s] = all(flags)
    return ActionClassification(table, all_pres)


def locally_optimal(arena: Arena, classification: ActionClassification,
                    strategy: FiniteMemoryStrategy) -> Optional[tuple]:
    """None if every action in the strategy's support is value-preserving,
    else the offending (memory, state, action)."""
    for m in strategy.memory_states:
        for s in arena.player_states(strategy.player):
            for a, w in strategy.action_dist(m, s).items():
                if w > 0 and not classification.table[(s, a)].value_preserving:
                    return (m, s, a)
    return None


@dataclass(frozen=True)
class MartingaleReport:
    verdict: str                      # "martingale" | "submartingale"
    nodes_checked: int
    strict_nodes: tuple[tuple, ...]   # nodes where the inequality is strict
    details: dict


def martingale_check(arena: Arena, values: ValueVector, sigma, tau,
                     source: str,
                     classification: Optional[ActionClassification] = None
                     ) -> MartingaleReport:
    """Exhaustive one-step check of E[val(next)] against val(current) over
    every node of the induced chain reachable from the source: the chain
    seeded at the source holds exactly those nodes.  Exact comparisons, no
    sampling.

    Requires the maximizer locally optimal; the check then verifies the
    submartingale inequality at every node, with equality everywhere exactly
    when the minimizer plays only value-preserving actions too.
    """
    if source not in arena.states:
        raise SolveError(f"source {source!r} is not a state of the arena")
    if classification is None:
        classification = classify_actions(arena, values)
    offender = locally_optimal(arena, classification, sigma)
    if offender is not None:
        raise SolveError(
            f"maximizer strategy is not locally optimal: plays {offender[2]} "
            f"at state {offender[1]} (memory {offender[0]})")
    chain = induce_chain(arena, sigma, tau,
                         [(source, sigma.initial, tau.initial)])
    strict = []
    for i in range(len(chain)):
        s = chain.state_of(i)
        one_step = sum((p * values.values[chain.state_of(j)]
                        for j, p in chain.row(i).items()), Fraction(0))
        if one_step < values.values[s]:
            raise SolveError(
                f"one-step value drops at node {chain.nodes[i]}: "
                f"{one_step} < {values.values[s]}")
        if one_step > values.values[s]:
            strict.append(chain.nodes[i])
    verdict = "martingale" if not strict else "submartingale"
    return MartingaleReport(verdict, len(chain), tuple(strict),
                            {"source": source, "spec": values.spec.format()})


# ---------------------------------------------------------------------------
# Stopped values


MC_CONFIDENCE = 0.99
MC_MAX_STEPS = 10_000


def _stop_flags(chain: InducedChain, values: ValueVector, stopping_rule
                ) -> tuple[list[bool], list[bool]]:
    """Whether each node of the pair's chain from the source (its node 0)
    stops the rule, and whether it lies in a bottom class.  Every bottom
    class must hold one state value: it is the limit of a trajectory
    absorbed there without stopping."""
    n = len(chain)
    kind, payload = stopping_rule
    if kind == "horizon":
        if payload < 0:
            raise SolveError(f"horizon must be >= 0, not {payload}")
        stop = [False] * n
    elif kind == "first_hit":
        stop = [chain.state_of(i) in payload for i in range(n)]
    elif kind == "first_weakness":
        weak: WeaknessSet = payload
        stop = [(chain.nodes[i][1], chain.state_of(i)) in weak.pairs
                for i in range(n)]
    else:
        raise SolveError(f"unknown stopping rule {kind!r}")
    absorbing = [False] * n
    for cls in chain.classes:
        if len({values.values[chain.state_of(i)] for i in cls}) != 1:
            raise SolveError(
                "bottom class mixes state values; the stopped limit is "
                "undefined (strategies are not locally optimal)")
        for i in cls:
            absorbing[i] = True
    return stop, absorbing


def stopped_value_exact(chain: InducedChain, values: ValueVector,
                        stopping_rule) -> Fraction:
    """Exact expected value of the value process stopped by the given rule,
    on a pair's chain seeded at the source alone (its node 0): the quantity
    `stopped_value_mc` estimates, for the same rules, with the same errors.

    ("horizon", n) takes n steps of an integer row vector over one common
    denominator.  The first-hit rules make the stop nodes and the
    bottom-class nodes absorbing and make one `chain.first_passage` solve;
    a trajectory absorbed without stopping gets its class value.
    """
    stop, absorbing = _stop_flags(chain, values, stopping_rule)
    n = len(chain)
    rows = chain.int_rows
    # state values as integer numerators over one denominator `vden`
    node_val = [values.values[chain.state_of(i)] for i in range(n)]
    vnum, vden = scaled(node_val)
    kind, payload = stopping_rule
    if kind == "horizon":
        common = lcm(*(d for d, _ in rows))
        scale = [common // d for d, _ in rows]
        # dist / den is the law of the node reached so far
        dist = [0] * n
        dist[0] = 1
        den = 1
        for _ in range(payload):
            nxt = [0] * n
            for i, x in enumerate(dist):
                if x:
                    x *= scale[i]
                    for j, num in rows[i][1].items():
                        nxt[j] += x * num
            dist = nxt
            den *= common
        return Fraction(sum(x * v for x, v in zip(dist, vnum)), den * vden)
    if stop[0] or absorbing[0]:
        return node_val[0]
    # h = vden times the stopped value: vnum at a stopped or absorbed node
    free = [i for i in range(n) if not (stop[i] or absorbing[i])]
    nums, den = first_passage(rows, free, vnum)
    return Fraction(nums[0], den * vden)


@dataclass(frozen=True)
class StoppedValueReport:
    estimate: float
    ci_low: float
    ci_high: float
    reference: Fraction
    covered: bool


def stopped_value_mc(chain: InducedChain, values: ValueVector, stopping_rule,
                     runs: int, seed: int) -> StoppedValueReport:
    """Monte Carlo estimate of the value process stopped by the given rule,
    on a pair's chain seeded at the source alone (its node 0), with a
    Hoeffding interval at confidence `MC_CONFIDENCE`.

    Rules: ("horizon", n), ("first_hit", state set), or
    ("first_weakness", WeaknessSet).  Trajectories that never trigger a
    first-hit rule are followed (for at most `MC_MAX_STEPS` steps) into their
    absorbing class, whose nodes all share one value (Doob convergence), and
    contribute that value.  `stopped_value_exact` computes the exact value.

    Draw order: the runs are independent copies of one chain, so only the
    number of runs on each node matters.  Each step splits the count of
    every node still holding runs, in node order, over its successors in
    `int_rows` order with one multinomial draw at probabilities `num / d`
    (the last successor takes the remainder); counts that reach a stop or
    bottom-class node end there.  A seed fixes the estimate, and the work
    and memory do not grow with `runs`.
    """
    if runs < 1:
        raise SolveError("runs must be >= 1")
    stop, absorbing = _stop_flags(chain, values, stopping_rule)
    n = len(chain)
    kind, payload = stopping_rule
    horizon = payload if kind == "horizon" else MC_MAX_STEPS
    terminal = np.array(stop, dtype=bool) | np.array(absorbing, dtype=bool)
    successors = [np.fromiter(row, np.int64, len(row))
                  for _, row in chain.int_rows]
    probs = [[num / d for num in row.values()] for d, row in chain.int_rows]

    rng = np.random.default_rng(seed)
    # runs still going and runs ended, per node; stopped values come from
    # the finite value set, so the ended counts give the mean exactly
    going = np.zeros(n, dtype=np.int64)
    ended = np.zeros(n, dtype=np.int64)
    # before the first step only stop nodes end a run (no horizon has any)
    (ended if stop[0] else going)[0] = runs
    for _ in range(horizon):
        if not going.any():
            break
        moved = np.zeros(n, dtype=np.int64)
        for i in np.flatnonzero(going):
            moved[successors[i]] += rng.multinomial(going[i], probs[i])
        going = moved
        if kind != "horizon":
            # a run absorbed without stopping ends on a node of its class,
            # whose state value is the class value
            ended[terminal] += going[terminal]
            going[terminal] = 0
    if kind == "horizon":
        ended = going
    elif going.any():
        raise SolveError("trajectories neither stopped nor absorbed within "
                         f"{MC_MAX_STEPS} steps")
    exact_mean = sum((int(ended[i]) * values.values[chain.state_of(i)]
                      for i in range(n)), Fraction(0)) / runs
    lo = float(min(values.values.values()))
    hi = float(max(values.values.values()))
    estimate = float(exact_mean)
    half = (hi - lo) * sqrt(log(2 / (1 - MC_CONFIDENCE)) / (2 * runs))
    ref = values.values[chain.state_of(0)]
    covered = abs(float(exact_mean - ref)) <= half
    return StoppedValueReport(estimate, estimate - half, estimate + half, ref,
                              covered)
