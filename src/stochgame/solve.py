"""Strategy-pair evaluation, best responses, brute-force game values with
certificates, the guaranteed values of a finite-memory strategy and its
weakness set, value-preserving/stable action classification, and the
martingale checks behind the stopped-value suites.

Values are computed by exhaustive enumeration of deterministic stationary
strategies: for the positional payoff catalog the enumerated grid attains the
game value, and the saddle-point assertion is the guard that it did.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import log, prod, sqrt
from typing import Optional, Sequence

import numpy as np

from .arena import P1, P2, Arena
from .chain import absorption_from, bottom_sccs, discounted_values, induce_chain
from .payoff import PayoffSpec, class_value
from .strategy import (
    FiniteMemoryStrategy, PureStationaryStrategy, Strategy, StrategyError,
    WeaknessSet, as_finite_memory, count_pure_stationary,
    enumerate_pure_stationary,
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


def _require_evaluable(spec: PayoffSpec) -> None:
    if spec.name in ("suffixtarget", "geomfirstone"):
        raise UnsupportedPayoffError(
            f"{spec.format()} is not determined by recurrent classes; "
            "use the verification module's specialized routines")


class PairEvaluator:
    """The product chain of one strategy pair, built once, mapping each
    evaluable payoff to its exact expected values at the seed nodes.

    `seeds` default to every state at both strategies' initial memories,
    the default of `induce_chain`.  The bottom-class analysis (classes and
    absorption probabilities) is built on first use and shared by every
    class-determined payoff; the discounted payoff never builds it.
    """

    def __init__(self, arena: Arena, sigma, tau,
                 seeds: Optional[Sequence[tuple]] = None):
        if seeds is None:
            seeds = [(s, sigma.initial_memory, tau.initial_memory)
                     for s in arena.states]
        self.chain = induce_chain(arena, sigma, tau, seeds)
        self._seed_nodes = [self.chain.index[seed] for seed in seeds]
        self._classes: Optional[list] = None
        self._absorb: Optional[list] = None

    def values(self, spec: PayoffSpec) -> list[Fraction]:
        """Exact expected payoff from each seed node, in seed order."""
        _require_evaluable(spec)
        if spec.name == "discounted":
            vals = discounted_values(self.chain)
            return [vals[node] for node in self._seed_nodes]
        if self._classes is None:
            self._classes = bottom_sccs(self.chain)
            self._absorb = absorption_from(self.chain, self._classes)
        cls_vals = [class_value(spec, cls) for cls in self._classes]
        return [sum((p * cls_vals[ci] for ci, p in self._absorb[node].items()),
                    Fraction(0))
                for node in self._seed_nodes]


def node_values(arena: Arena, spec: PayoffSpec, sigma, tau,
                seeds: Optional[Sequence[tuple]] = None) -> list[Fraction]:
    """Exact expected payoff from each seed node under the fixed pair."""
    return PairEvaluator(arena, sigma, tau, seeds).values(spec)


def expected_payoff(arena: Arena, spec: PayoffSpec, sigma, tau,
                    source: str) -> Fraction:
    """Expected payoff of the strategy pair from one state."""
    seed = (source, sigma.initial_memory, tau.initial_memory)
    return node_values(arena, spec, sigma, tau, [seed])[0]


# ---------------------------------------------------------------------------
# Grid enumeration


class GridSolver:
    """Evaluates every deterministic stationary strategy pair once and
    answers value queries for several payoffs over the shared chains."""

    def __init__(self, arena: Arena, budget: int = DEFAULT_BUDGET):
        self.arena = arena
        n_pairs = count_pure_stationary(arena, P1) * count_pure_stationary(arena, P2)
        if n_pairs > budget:
            raise BudgetError(
                f"{n_pairs} strategy pairs exceed the budget of {budget}; "
                "split the arena or raise the budget")
        self.sigmas = list(enumerate_pure_stationary(arena, P1))
        self.taus = list(enumerate_pure_stationary(arena, P2))
        self._pairs: dict[tuple[int, int], PairEvaluator] = {}

    def pair_values(self, spec: PayoffSpec, i: int, j: int) -> dict[str, Fraction]:
        pair = self._pairs.get((i, j))
        if pair is None:
            pair = self._pairs[(i, j)] = PairEvaluator(
                self.arena, self.sigmas[i], self.taus[j])
        return dict(zip(self.arena.states, pair.values(spec)))


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


def _fold_responses(arena: Arena, spec: PayoffSpec,
                    sigma_fm: FiniteMemoryStrategy, budget: int):
    """Fold the minimizer's response tables on sigma's memory product, in
    `itertools.product` order, into: the minimum at each (memory, state),
    the first table attaining it, and a table attaining every minimum at
    once (or None).  A table maps each (memory, minimizer state) pair to an
    action, played by a strategy whose memory shadows sigma's automaton."""
    pairs = [(m, s) for m in sigma_fm.memory_states for s in arena.states]
    seeds = [(s, m, m) for m, s in pairs]
    p2_pairs = [(m, s) for m, s in pairs if arena.owner[s] == P2]
    total = prod(len(arena.available[s]) for _, s in p2_pairs)
    if total > budget:
        raise BudgetError(f"{total} responses exceed budget {budget}")
    best: dict[tuple, Fraction] = {}
    argmin: dict[tuple, dict] = {}
    uniform = uniform_vals = None
    for combo in itertools.product(*(arena.available[s] for _, s in p2_pairs)):
        table = dict(zip(p2_pairs, combo))
        tau = FiniteMemoryStrategy(
            P2, sigma_fm.memory_states, sigma_fm.initial, sigma_fm.update,
            {pair: {a: Fraction(1)} for pair, a in table.items()})
        vals = dict(zip(pairs, node_values(arena, spec, sigma_fm, tau, seeds)))
        for pair, v in vals.items():
            if pair not in best or v < best[pair]:
                best[pair] = v
                argmin[pair] = table
        if vals == best:
            uniform, uniform_vals = table, vals
    if uniform_vals != best:
        uniform = None
    return best, argmin, uniform


def best_response_min(arena: Arena, spec: PayoffSpec,
                      sigma: PureStationaryStrategy,
                      budget: int = DEFAULT_BUDGET) -> BestResponse:
    """Exhaustive minimization over the opponent's stationary strategies."""
    if not spec.is_both_positional:
        raise UnsupportedPayoffError(
            f"best responses are only enumerated for the positional catalog, "
            f"not {spec.format()}")
    best, argmin, uniform = _fold_responses(
        arena, spec, as_finite_memory(sigma), budget)

    def stationary(table):
        return PureStationaryStrategy(P2, {s: a for (_, s), a in table.items()})

    return BestResponse(
        {s: v for (_, s), v in best.items()},
        {s: stationary(table) for (_, s), table in argmin.items()},
        None if uniform is None else stationary(uniform))


@dataclass(frozen=True)
class ValueVector:
    """Game values with certificates: the optimal stationary strategy of the
    maximizer and, per state, the minimizer's reply achieving the value."""

    values: dict[str, Fraction]
    sigma_star: PureStationaryStrategy
    best_response: dict[str, tuple[PureStationaryStrategy, Fraction]]
    spec: PayoffSpec
    arena_fingerprint: str

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
    states = arena.states
    n_sig, n_tau = len(grid.sigmas), len(grid.taus)
    vals = [[grid.pair_values(spec, i, j) for j in range(n_tau)]
            for i in range(n_sig)]
    min_per_sigma = [
        {s: min(vals[i][j][s] for j in range(n_tau)) for s in states}
        for i in range(n_sig)]
    max_per_tau = [
        {s: max(vals[i][j][s] for i in range(n_sig)) for s in states}
        for j in range(n_tau)]
    maxmin = {s: max(m[s] for m in min_per_sigma) for s in states}
    minmax = {s: min(m[s] for m in max_per_tau) for s in states}
    if maxmin != minmax:
        raise SaddlePointError(
            f"enumerated maxmin {maxmin} differs from minmax {minmax}")
    best_i = next((i for i in range(n_sig)
                   if all(min_per_sigma[i][s] == maxmin[s] for s in states)),
                  None)
    if best_i is None:
        raise SaddlePointError(
            "no stationary strategy attains the maxmin at every state")
    certificates = {}
    for s in states:
        j = min(range(n_tau), key=lambda j: vals[best_i][j][s])
        certificates[s] = (grid.taus[j], vals[best_i][j][s])
        if certificates[s][1] != maxmin[s]:
            raise SaddlePointError(
                f"certificate at {s} reaches {certificates[s][1]}, "
                f"not the value {maxmin[s]}")
    return ValueVector(maxmin, grid.sigmas[best_i], certificates, spec,
                       arena.fingerprint())


# ---------------------------------------------------------------------------
# Guaranteed values of a finite-memory strategy, weakness set


def product_values(arena: Arena, spec: PayoffSpec, sigma: Strategy,
                   budget: int = DEFAULT_BUDGET) -> dict[tuple, Fraction]:
    """For each (memory, state): the worst-case expected payoff when play
    starts there with the maximizer frozen to sigma.

    The minimizer's best response is computed by enumerating deterministic
    stationary strategies on the product of the arena with sigma's memory;
    the memory is a deterministic function of the history, so these are
    legitimate (finite-memory) strategies of the original game, and for the
    positional payoff catalog they attain the true infimum of the product
    decision process, so the result is exact.  For any other payoff the
    result is the worst case over this bounded response class only, an
    upper bound on the true guarantee.
    """
    sigma_fm = as_finite_memory(sigma)
    sigma_fm.check_in(arena)
    return _fold_responses(arena, spec, sigma_fm, budget)[0]


def weakness_set(arena: Arena, spec: PayoffSpec, sigma: Strategy,
                 epsilon: Fraction, values: Optional[dict] = None,
                 guaranteed: Optional[dict] = None) -> WeaknessSet:
    """Exact weakness set of a finite-memory strategy at threshold
    val(s) - 2*epsilon.  `values` may carry precomputed game values."""
    if not spec.is_shift_invariant:
        raise StrategyError(
            "the weakness construction needs a shift-invariant payoff")
    epsilon = Fraction(epsilon)
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
                    strategy: Strategy) -> Optional[tuple]:
    """None if every action in the strategy's support is value-preserving,
    else the offending (memory, state, action)."""
    fm = as_finite_memory(strategy)
    for m in fm.memory_states:
        for s in arena.player_states(fm.player):
            for a, w in fm.action_dist(m, s).items():
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
                     source: str, horizon: Optional[int] = None,
                     classification: Optional[ActionClassification] = None
                     ) -> MartingaleReport:
    """Exhaustive one-step check of E[val(next)] against val(current) over
    every node of the induced chain reachable from the source (optionally
    within `horizon` steps).  Exact comparisons, no sampling.

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
    sig = as_finite_memory(sigma)
    ta = as_finite_memory(tau)
    chain = induce_chain(arena, sig, ta, [(source, sig.initial, ta.initial)])
    start = chain.index[(source, sig.initial, ta.initial)]
    reach = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for i in frontier:
            if horizon is not None and reach[i] >= horizon:
                continue
            for j in chain.row(i):
                if j not in reach:
                    reach[j] = reach[i] + 1
                    nxt.append(j)
        frontier = nxt
    strict = []
    for i in sorted(reach):
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
    return MartingaleReport(verdict, len(reach), tuple(strict),
                            {"source": source, "spec": values.spec.format()})


# ---------------------------------------------------------------------------
# Stopped-value Monte Carlo


MC_CONFIDENCE = 0.99
MC_MAX_STEPS = 10_000


@dataclass(frozen=True)
class StoppedValueReport:
    estimate: float
    ci_low: float
    ci_high: float
    runs: int
    confidence: float
    reference: Fraction
    covered: bool
    stopping_rule: str
    seed: int


def stopped_value_mc(arena: Arena, values: ValueVector, sigma, tau,
                     source: str, stopping_rule, runs: int, seed: int
                     ) -> StoppedValueReport:
    """Monte Carlo estimate of the value process stopped by the given rule,
    with a Hoeffding interval at confidence `MC_CONFIDENCE`.

    Rules: ("horizon", n), ("first_hit", state set), or
    ("first_weakness", WeaknessSet).  Trajectories that never trigger a
    first-hit rule are followed (for at most `MC_MAX_STEPS` steps) into their
    absorbing class, whose nodes all share one value (Doob convergence), and
    contribute that value.
    """
    if runs < 1:
        raise SolveError("runs must be >= 1")
    sig = as_finite_memory(sigma)
    ta = as_finite_memory(tau)
    chain = induce_chain(arena, sig, ta, [(source, sig.initial, ta.initial)])
    start = chain.index[(source, sig.initial, ta.initial)]
    n = len(chain)
    node_val = np.array([float(values.values[chain.state_of(i)])
                         for i in range(n)])
    kind, payload = stopping_rule
    horizon = payload if kind == "horizon" else MC_MAX_STEPS
    if kind == "horizon":
        stop_mask = np.zeros(n, dtype=bool)
    elif kind == "first_hit":
        stop_mask = np.array([chain.state_of(i) in payload for i in range(n)])
    elif kind == "first_weakness":
        weak: WeaknessSet = payload
        stop_mask = np.array([(chain.nodes[i][1], chain.state_of(i)) in weak.pairs
                              for i in range(n)])
    else:
        raise SolveError(f"unknown stopping rule {kind!r}")

    classes = bottom_sccs(chain)
    absorbing_val = {}
    absorbing_mask = np.zeros(n, dtype=bool)
    for cls in classes:
        class_vals = {values.values[chain.state_of(i)] for i in cls.nodes}
        if len(class_vals) != 1:
            raise SolveError(
                "bottom class mixes state values; the stopped limit is "
                "undefined (strategies are not locally optimal)")
        val = next(iter(class_vals))
        for i in cls.nodes:
            absorbing_mask[i] = True
            absorbing_val[i] = val

    cum = np.zeros((n, n))
    for i in range(n):
        row = chain.row(i)
        acc = 0.0
        for j in range(n):
            acc += float(row.get(j, 0))
            cum[i, j] = acc
        cum[i, n - 1] = 1.0

    rng = np.random.default_rng(seed)
    current = np.full(runs, start, dtype=np.int64)
    # stopped values come from the finite value set, so tally node indices
    # and average exactly; the float estimate is only the summary.
    stopped_node = np.full(runs, -1, dtype=np.int64)
    active = np.ones(runs, dtype=bool)
    if kind != "horizon":
        hit0 = stop_mask[current] & active
        stopped_node[hit0] = current[hit0]
        active &= ~hit0
    for _ in range(horizon):
        if not active.any():
            break
        idx = np.nonzero(active)[0]
        u = rng.random(idx.size)
        rows = cum[current[idx]]
        nxt = (u[:, None] > rows).sum(axis=1)
        current[idx] = nxt
        if kind != "horizon":
            hit = stop_mask[current] & active
            stopped_node[hit] = current[hit]
            active &= ~hit
            # absorbed without hitting: the limit value is the class value
            absorbed = absorbing_mask[current] & active
            stopped_node[absorbed] = current[absorbed]
            active &= ~absorbed
    if kind == "horizon":
        stopped_node = current
        active[:] = False
    if active.any():
        raise SolveError("trajectories neither stopped nor absorbed within "
                         f"{MC_MAX_STEPS} steps")
    counts = np.bincount(stopped_node, minlength=n)
    exact_value = []
    for i in range(n):
        if absorbing_mask[i] and kind != "horizon" and not stop_mask[i]:
            exact_value.append(absorbing_val[i])
        else:
            exact_value.append(values.values[chain.state_of(i)])
    exact_mean = sum((int(counts[i]) * exact_value[i] for i in range(n)),
                     Fraction(0)) / runs
    lo = float(min(values.values.values()))
    hi = float(max(values.values.values()))
    estimate = float(exact_mean)
    half = (hi - lo) * sqrt(log(2 / (1 - MC_CONFIDENCE)) / (2 * runs))
    ref = values.values[source]
    covered = abs(float(exact_mean - ref)) <= half
    return StoppedValueReport(
        estimate, estimate - half, estimate + half, runs, MC_CONFIDENCE, ref,
        covered, f"{kind}", seed)
