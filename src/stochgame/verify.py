"""The theorem harness: half-positionality checks, submixing and
shift-invariance refutation searches, reset-strategy threshold checks, the
stopped-value suites, and the exact reproduction of the four-state
letter-game counter-example.

Searches are refuters: a refuted report always embeds a witness that
replays.  A submixing witness found by the closed-form sweep is re-evaluated
through the ordinary shuffle/evaluation path before being returned.
Verdicts on the half-positional-only payoffs are budget-qualified: the
minimizer's responses are enumerated over a bounded class that is recorded
in the report.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from . import solve
from .arena import P1, P2, Arena, sample_play
from .chain import bottom_sccs, induce_chain
from .fixtures import build_fig1, fig1_alternating_strategy
from .payoff import (
    INCREMENT, PRIORITY, REWARD, REWARD_BUCHI, VECTOR,
    ColourToken, Lasso, PayoffSpec, ShufflePattern,
    check_shift_invariance, check_submixing, colour_from_json, colour_to_json,
    discounted, increment, letter, priority, reward, reward_buchi, vector,
)
from .strategy import (
    FiniteMemoryStrategy, PureStationaryStrategy, as_finite_memory,
    reset_strategy,
)


class FlagGateError(ValueError):
    """Raised when an operation is asked about a payoff whose declared
    classification rules it out."""


@dataclass
class VerificationReport:
    claim: str
    instance: dict
    verdict: str                 # confirmed | refuted | inconclusive
    quantities: dict = field(default_factory=dict)
    witness: Optional[dict] = None
    wall_clock: float = 0.0

    def to_json(self, structured: bool = True) -> str:
        doc = {
            "claim": self.claim,
            "instance": self.instance,
            "verdict": self.verdict,
            "quantities": self.quantities,
            "witness": self.witness,
        }
        if not structured:
            doc["wall_clock"] = self.wall_clock
        return json.dumps(doc, indent=1, sort_keys=True, default=str)


def _finish(report: VerificationReport, started: float) -> VerificationReport:
    report.wall_clock = time.perf_counter() - started
    return report


# ---------------------------------------------------------------------------
# Half-positionality


def verify_halfpos(arena: Arena, spec: PayoffSpec,
                   budget: int = solve.DEFAULT_BUDGET,
                   memory_bound: int = 2, candidates: int = 12,
                   seed: int = 0) -> VerificationReport:
    """Check that a deterministic stationary strategy of the maximizer is
    unbeatable on this arena.

    Positional payoffs get the exact grid saddle point plus a best-response
    re-verification of the certified strategy.  Half-positional-only payoffs
    get a bounded refutation sweep: seeded finite-memory candidates (up to
    `memory_bound` memories) try to beat the best stationary strategy, all
    values computed against stationary responses on the respective memory
    products (`solve.product_values`).  A candidate that beats it at
    some state is reported as the witness.  `memory_bound` and `candidates`
    must be at least 1 (`ValueError`).
    """
    started = time.perf_counter()
    if memory_bound < 1:
        raise ValueError(f"memory_bound must be >= 1, not {memory_bound}")
    if candidates < 1:
        raise ValueError(f"candidates must be >= 1, not {candidates}")
    if not (spec.is_shift_invariant and spec.is_submixing):
        raise FlagGateError(
            f"{spec.format()} is not flagged shift-invariant and submixing; "
            "use search_submixing_violation to look for the witness")
    instance = {"arena": arena.fingerprint(), "spec": spec.format(),
                "seed": seed, "budget": budget}
    if spec.is_both_positional:
        try:
            values = solve.brute_force_value(arena, spec, budget)
        except solve.BudgetError as e:
            return _finish(VerificationReport(
                "halfpos", instance, "inconclusive",
                {"reason": str(e)}), started)
        response = solve.best_response_min(arena, spec, values.sigma_star, budget)
        bad = {s: (response.values[s], values.values[s])
               for s in arena.states if response.values[s] != values.values[s]}
        if bad:
            return _finish(VerificationReport(
                "halfpos", instance, "refuted",
                witness={"states": {s: list(map(str, v)) for s, v in bad.items()},
                         "sigma": values.sigma_star.choice}), started)
        return _finish(VerificationReport(
            "halfpos", instance, "confirmed",
            {"values": {s: str(values.values[s]) for s in arena.states},
             "sigma_star": values.sigma_star.choice,
             "exact": True}), started)

    # Bounded sweep for the half-positional-only payoffs.
    instance["memory_bound"] = memory_bound
    instance["candidates"] = candidates
    rng = random.Random(seed)
    try:
        v_plus, sigma_plus = _stationary_guarantees(arena, spec, budget)
        cand_count = 0
        for _ in range(candidates):
            cand = _random_memory_strategy(arena, rng, memory_bound)
            guaranteed = solve.product_values(arena, spec, cand, budget)
            cand_count += 1
            beats = {s: (guaranteed[(cand.initial, s)], v_plus[s])
                     for s in arena.states
                     if guaranteed[(cand.initial, s)] > v_plus[s]}
            if beats:
                return _finish(VerificationReport(
                    "halfpos", instance, "refuted",
                    witness={"strategy": cand.to_json(),
                             "values": {s: [str(a), str(b)]
                                        for s, (a, b) in beats.items()}},
                ), started)
    except solve.BudgetError as e:
        return _finish(VerificationReport(
            "halfpos", instance, "inconclusive", {"reason": str(e)}), started)
    return _finish(VerificationReport(
        "halfpos", instance, "confirmed",
        {"stationary_values": {s: str(v_plus[s]) for s in arena.states},
         "best_stationary": sigma_plus.choice,
         "candidates_swept": cand_count,
         "response_class": "deterministic stationary on the memory product",
         "exact": False}), started)


def _stationary_guarantees(arena: Arena, spec: PayoffSpec, budget: int):
    """Per-state max over stationary maximizer strategies of the min over
    stationary responses, plus the strategy with the largest total
    guarantee (informational; per-state maxima may come from different
    strategies)."""
    grid = solve.GridSolver(arena, budget)
    worst = []
    for i in range(len(grid.sigmas)):
        rows = [grid.pair_values(spec, i, j) for j in range(len(grid.taus))]
        worst.append({s: min(row[s] for row in rows) for s in arena.states})
    best = {s: max(w[s] for w in worst) for s in arena.states}
    totals = [sum(w.values()) for w in worst]
    return best, grid.sigmas[totals.index(max(totals))]


def _random_memory_strategy(arena: Arena, rng: random.Random,
                            memories: int) -> FiniteMemoryStrategy:
    mems = tuple(f"m{i}" for i in range(memories))
    update = {}
    choices = {}
    for m in mems:
        for s in arena.states:
            for a in arena.available[s]:
                for t in arena.states:
                    update[(m, s, a, t)] = rng.choice(mems)
        for s in arena.player_states(P1):
            choices[(m, s)] = {rng.choice(arena.available[s]): Fraction(1)}
    return FiniteMemoryStrategy(P1, mems, mems[0], update, choices)


# ---------------------------------------------------------------------------
# Submixing / shift-invariance searches


@dataclass(frozen=True)
class SearchBounds:
    """Sizes of the refutation searches, checked when constructed: cycles of
    1..max_cycle letters, (u, v) block patterns of positive lengths,
    random_cases >= 0 seeded cases and 1..shifts suffixes per word."""

    max_cycle: int = 4
    patterns: tuple = ((1, 1), (1, 2), (2, 1), (2, 2))
    random_cases: int = 2000
    shifts: int = 6

    def __post_init__(self):
        for name, least in (("max_cycle", 1), ("random_cases", 0),
                            ("shifts", 1)):
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"{name} must be >= {least}, not {value}")
        for pattern in self.patterns:
            if not (isinstance(pattern, (tuple, list)) and len(pattern) == 2
                    and all(isinstance(b, int) and b >= 1 for b in pattern)):
                raise ValueError(
                    f"patterns: {pattern!r} is not a pair of positive ints")


def default_alphabet(spec: PayoffSpec) -> list[ColourToken]:
    """Five-letter default alphabet per colour kind (two letters for the
    geometric payoff, three for the letter payoff)."""
    kind = spec.colour_kind
    if spec.name == "geomfirstone":
        return [reward(0), reward(1)]
    if kind == REWARD:
        return [reward(r) for r in range(-2, 3)]
    if kind == PRIORITY:
        return [priority(p) for p in range(5)]
    if kind == INCREMENT:
        return [increment(c) for c in range(-2, 3)]
    if kind == VECTOR:
        if spec.dim == 2:
            return [vector(2, -1), vector(-1, 2), vector(0, 0),
                    vector(1, -2), vector(-2, 1)]
        return [vector(*(((i + j) % 5) - 2 for j in range(spec.dim)))
                for i in range(5)]
    if kind == REWARD_BUCHI:
        return [reward_buchi(-2, False), reward_buchi(-1, False),
                reward_buchi(0, True), reward_buchi(1, False),
                reward_buchi(2, False)]
    if kind == "letter":
        return [letter("a"), letter("b"), letter("")]
    if kind == "discounted":
        return [discounted(1, Fraction(1, 2)), discounted(0, Fraction(1, 2)),
                discounted(-1, Fraction(1, 2)), discounted(2, Fraction(1, 3)),
                discounted(-2, Fraction(2, 3))]
    raise FlagGateError(f"no default alphabet for {spec.format()}")


_FAST_SPECS = ("mean", "limsup", "liminf", "parity", "posavg",
               "genmean", "optgenmean", "counter+inf", "counter-inf")


def _cycle_stats(spec: PayoffSpec, cycles: list[tuple]) -> dict:
    """Integer summaries of pure-cycle lassos for the vectorized sweep."""
    L = np.array([len(c) for c in cycles], dtype=np.int64)
    stats = {"L": L}
    kind = spec.colour_kind
    if kind in (REWARD, INCREMENT, PRIORITY):
        vals = [[int(t.value) for t in c] for c in cycles]
        stats["S"] = np.array([sum(v) for v in vals], dtype=np.int64)
        stats["MX"] = np.array([max(v) for v in vals], dtype=np.int64)
        stats["MN"] = np.array([min(v) for v in vals], dtype=np.int64)
    elif kind == VECTOR:
        for d in range(spec.dim):
            stats[f"S{d}"] = np.array(
                [sum(int(t.value[d]) for t in c) for c in cycles],
                dtype=np.int64)
    return stats


def _fast_violations(spec: PayoffSpec, st: dict, a: int, b: int) -> np.ndarray:
    """Boolean (u, v) grid: does the (a, b)-block shuffle of the two cycles
    beat both components?  Closed forms: every letter of both cycles occurs
    in the shuffle cycle, u's letters with total weight a/(a+b)."""
    L = st["L"]
    Lu, Lv = L[:, None], L[None, :]

    def blended(S):
        # sign-comparable numerator of the shuffle mean over denom (a+b)LuLv
        return a * S[:, None] * Lv + b * S[None, :] * Lu

    name = spec.name
    if name == "mean":
        S = st["S"]
        W = blended(S)
        return (W > S[:, None] * (a + b) * Lv) & (W > S[None, :] * (a + b) * Lu)
    if name == "limsup":
        MX = st["MX"]
        fw = np.maximum(MX[:, None], MX[None, :])
        return (fw > MX[:, None]) & (fw > MX[None, :])
    if name == "liminf":
        MN = st["MN"]
        fw = np.minimum(MN[:, None], MN[None, :])
        return (fw > MN[:, None]) & (fw > MN[None, :])
    if name == "parity":
        MX = st["MX"]
        fw = np.maximum(MX[:, None], MX[None, :]) % 2
        return (fw == 1) & (MX[:, None] % 2 == 0) & (MX[None, :] % 2 == 0)
    if name == "posavg":
        S = st["S"]
        fw = blended(S) > 0
        return fw & (S[:, None] <= 0) & (S[None, :] <= 0)
    if name == "counter+inf":
        S = st["S"]
        fw = blended(S) > 0
        return fw & (S[:, None] <= 0) & (S[None, :] <= 0)
    if name == "counter-inf":
        S = st["S"]
        fw = blended(S) < 0
        return fw & (S[:, None] >= 0) & (S[None, :] >= 0)
    if name in ("genmean", "optgenmean"):
        dims = range(spec.dim)
        if name == "genmean":
            fu = np.ones(len(L), dtype=bool)
            fv = np.ones(len(L), dtype=bool)
            fw = np.ones((len(L), len(L)), dtype=bool)
            for d in dims:
                S = st[f"S{d}"]
                fu &= S > 0
                fv &= S > 0
                fw &= blended(S) > 0
        else:
            fu = np.zeros(len(L), dtype=bool)
            fv = np.zeros(len(L), dtype=bool)
            fw = np.zeros((len(L), len(L)), dtype=bool)
            for d in dims:
                S = st[f"S{d}"]
                fu |= S >= 0
                fv |= S >= 0
                fw |= blended(S) >= 0
        return fw & ~fu[:, None] & ~fv[None, :]
    raise FlagGateError(f"no closed form for {spec.format()}")


def search_submixing_violation(spec: PayoffSpec,
                               bounds: SearchBounds = SearchBounds(),
                               seed: int = 0) -> VerificationReport:
    """Exhaustive small-cycle sweep plus a randomized sweep for a shuffle
    whose payoff beats both components.  A found witness is re-evaluated
    through the ordinary shuffle/evaluation path before being reported."""
    started = time.perf_counter()
    alphabet = default_alphabet(spec)
    instance = {"spec": spec.format(), "seed": seed,
                "max_cycle": bounds.max_cycle,
                "patterns": list(bounds.patterns),
                "random_cases": bounds.random_cases}
    cases = 0

    if spec.name in _FAST_SPECS:
        cycles = [c for n in range(1, bounds.max_cycle + 1)
                  for c in itertools.product(alphabet, repeat=n)]
        st = _cycle_stats(spec, cycles)
        for a, b in bounds.patterns:
            viol = _fast_violations(spec, st, a, b)
            cases += viol.size
            if viol.any():
                iu, iv = map(int, np.argwhere(viol)[0])
                u = Lasso((), cycles[iu])
                v = Lasso((), cycles[iv])
                witness = check_submixing(spec, u, v,
                                          ShufflePattern.alternating(a, b))
                if witness is None:
                    raise AssertionError(
                        "closed-form sweep and full evaluation disagree")
                return _finish(VerificationReport(
                    "submixing", instance, "refuted",
                    {"cases": cases}, _submix_witness_doc(witness)), started)
    else:
        small = [c for n in range(1, min(bounds.max_cycle, 2) + 1)
                 for c in itertools.product(alphabet, repeat=n)]
        for cu, cv in itertools.product(small, repeat=2):
            for a, b in bounds.patterns:
                cases += 1
                witness = check_submixing(spec, Lasso((), cu), Lasso((), cv),
                                          ShufflePattern.alternating(a, b))
                if witness is not None:
                    return _finish(VerificationReport(
                        "submixing", instance, "refuted",
                        {"cases": cases}, _submix_witness_doc(witness)), started)

    rng = random.Random(seed)
    for _ in range(bounds.random_cases):
        u = _random_lasso(rng, alphabet, bounds.max_cycle)
        v = _random_lasso(rng, alphabet, bounds.max_cycle)
        pattern = _random_pattern(rng)
        cases += 1
        witness = check_submixing(spec, u, v, pattern)
        if witness is not None:
            return _finish(VerificationReport(
                "submixing", instance, "refuted",
                {"cases": cases}, _submix_witness_doc(witness)), started)
    return _finish(VerificationReport(
        "submixing", instance, "confirmed", {"cases": cases}), started)


def search_shift_invariance_violation(spec: PayoffSpec,
                                      bounds: SearchBounds = SearchBounds(),
                                      seed: int = 0) -> VerificationReport:
    """Exhaustive small-word sweep plus randomized words, comparing the
    payoff against its suffixes."""
    started = time.perf_counter()
    alphabet = default_alphabet(spec)
    instance = {"spec": spec.format(), "seed": seed, "shifts": bounds.shifts,
                "random_cases": bounds.random_cases}
    cases = 0
    for plen in range(0, 3):
        for clen in range(1, 3):
            for pre in itertools.product(alphabet, repeat=plen):
                for cyc in itertools.product(alphabet, repeat=clen):
                    cases += 1
                    word = Lasso(pre, cyc)
                    w = check_shift_invariance(spec, word, bounds.shifts)
                    if w is not None:
                        return _finish(VerificationReport(
                            "shift-invariance", instance, "refuted",
                            {"cases": cases}, _shift_witness_doc(w)), started)
    rng = random.Random(seed)
    for _ in range(bounds.random_cases):
        word = _random_lasso(rng, alphabet, bounds.max_cycle, max_prefix=3)
        cases += 1
        w = check_shift_invariance(spec, word, bounds.shifts)
        if w is not None:
            return _finish(VerificationReport(
                "shift-invariance", instance, "refuted",
                {"cases": cases}, _shift_witness_doc(w)), started)
    return _finish(VerificationReport(
        "shift-invariance", instance, "confirmed", {"cases": cases}), started)


def _random_lasso(rng: random.Random, alphabet, max_cycle: int,
                  max_prefix: int = 2) -> Lasso:
    pre = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, max_prefix)))
    cyc = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, max_cycle)))
    return Lasso(pre, cyc)


def _random_pattern(rng: random.Random) -> ShufflePattern:
    prefix = tuple(rng.randint(0, 2)
                   for _ in range(2 * rng.randint(0, 2)))
    tail = [rng.randint(0, 3), rng.randint(0, 3)]
    if sum(tail[0::2]) == 0:
        tail[0] = rng.randint(1, 3)
    if sum(tail[1::2]) == 0:
        tail[1] = rng.randint(1, 3)
    return ShufflePattern(prefix, tuple(tail))


def _lasso_doc(word: Lasso) -> dict:
    return {"prefix": [colour_to_json(t) for t in word.prefix],
            "cycle": [colour_to_json(t) for t in word.cycle]}


def _submix_witness_doc(w) -> dict:
    return {"u": _lasso_doc(w.u), "v": _lasso_doc(w.v),
            "pattern": {"prefix": list(w.pattern.prefix),
                        "tail": list(w.pattern.tail)},
            "w": _lasso_doc(w.w),
            "values": [str(w.value_u), str(w.value_v), str(w.value_w)]}


def _shift_witness_doc(w) -> dict:
    return {"word": _lasso_doc(w.word), "shift": w.shift,
            "values": [str(w.value), str(w.shifted_value)]}


def replay_submixing_witness(spec: PayoffSpec, witness: dict) -> bool:
    """Re-evaluate an embedded witness document; True iff it still violates."""
    u = Lasso(tuple(colour_from_json(t) for t in witness["u"]["prefix"]),
              tuple(colour_from_json(t) for t in witness["u"]["cycle"]))
    v = Lasso(tuple(colour_from_json(t) for t in witness["v"]["prefix"]),
              tuple(colour_from_json(t) for t in witness["v"]["cycle"]))
    pattern = ShufflePattern(tuple(witness["pattern"]["prefix"]),
                             tuple(witness["pattern"]["tail"]))
    return check_submixing(spec, u, v, pattern) is not None


# ---------------------------------------------------------------------------
# Reset strategy / subgame perfection


def verify_subgame_perfect(arena: Arena, spec: PayoffSpec, sigma,
                           epsilon: Fraction,
                           budget: int = solve.DEFAULT_BUDGET
                           ) -> VerificationReport:
    """Build the weakness set of the base strategy, reset it, and check the
    val - 2*epsilon threshold at every reachable (memory, state) pair of the
    reset strategy, exactly.  The report carries the same check for the
    unmodified base and the base's preconditions (local optimality and
    epsilon-optimality), so a failed precondition is visible rather than
    silently blamed on the construction.  `epsilon` must be > 0
    (`ValueError`)."""
    started = time.perf_counter()
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, not {epsilon}")
    values = solve.brute_force_value(arena, spec, budget)
    classification = solve.classify_actions(arena, values)
    sigma_fm = as_finite_memory(sigma)
    base_guaranteed = solve.product_values(arena, spec, sigma_fm, budget)
    weak = solve.weakness_set(arena, spec, sigma_fm, epsilon,
                              values=values.values,
                              guaranteed=base_guaranteed)
    sigma_hat = reset_strategy(sigma_fm, weak)
    hat_guaranteed = solve.product_values(arena, spec, sigma_hat, budget)

    def check(strategy, guaranteed) -> tuple[bool, dict]:
        reach = _reachable_pairs(arena, strategy)
        failures = {}
        for (m, s) in sorted(reach, key=str):
            if guaranteed[(m, s)] < values.values[s] - 2 * epsilon:
                failures[f"{m}|{s}"] = str(guaranteed[(m, s)])
        return not failures, failures

    base_ok, base_failures = check(sigma_fm, base_guaranteed)
    hat_ok, hat_failures = check(sigma_hat, hat_guaranteed)
    offender = solve.locally_optimal(arena, classification, sigma_fm)
    eps_optimal = all(base_guaranteed[(sigma_fm.initial, s)]
                      >= values.values[s] - epsilon for s in arena.states)
    quantities = {
        "epsilon": str(epsilon),
        "values": {s: str(values.values[s]) for s in arena.states},
        "weak_pairs": sorted(f"{m}|{s}" for (m, s) in weak.pairs),
        "base_locally_optimal": offender is None,
        "base_epsilon_optimal": eps_optimal,
        "base_meets_threshold": base_ok,
        "reset_meets_threshold": hat_ok,
        "reset_failures": hat_failures,
        "base_failures": base_failures,
    }
    report = VerificationReport(
        "subgame-perfect", {"arena": arena.fingerprint(),
                            "spec": spec.format(), "epsilon": str(epsilon)},
        "confirmed" if hat_ok else "refuted", quantities,
        witness=None if hat_ok else {"failures": hat_failures,
                                     "strategy": sigma_fm.to_json()})
    return _finish(report, started)


def _reachable_pairs(arena: Arena, strategy: FiniteMemoryStrategy) -> set:
    """(memory, state) pairs reachable from any state at the initial memory
    when the owner plays the strategy and the opponent plays anything."""
    fm = as_finite_memory(strategy)
    todo = [(fm.initial, s) for s in arena.states]
    seen = set(todo)
    while todo:
        m, s = todo.pop()
        if arena.owner[s] == fm.player:
            actions = [a for a, w in fm.action_dist(m, s).items() if w > 0]
        else:
            actions = list(arena.available[s])
        for a in actions:
            for t, p in arena.transition[(s, a)].items():
                if p == 0:
                    continue
                nxt = (fm.next_memory(m, s, a, t), t)
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
    return seen


def weakened_base(arena: Arena, spec: PayoffSpec, values: solve.ValueVector,
                  classification: solve.ActionClassification,
                  epsilon: Fraction, rng: random.Random,
                  attempts: int = 25) -> FiniteMemoryStrategy:
    """A random two-memory strategy that is locally optimal by construction
    (all rows play value-preserving actions) and certified epsilon-optimal
    by an exact product-value check; candidates failing the certificate are
    re-rolled, degrading to the never-leaves-fresh-memory strategy."""
    epsilon = Fraction(epsilon)
    p1_states = arena.player_states(P1)
    vp = {s: classification.value_preserving_actions(arena, s)
          for s in p1_states}
    star = values.sigma_star.choice

    def build(update) -> FiniteMemoryStrategy:
        choices = {}
        for s in p1_states:
            choices[("m0", s)] = _mixed_row(star[s], vp[s], rng)
            choices[("m1", s)] = {rng.choice(vp[s]): Fraction(1)}
        return FiniteMemoryStrategy(P1, ("m0", "m1"), "m0", update, choices)

    for _ in range(attempts):
        update = {}
        for s in arena.states:
            for a in arena.available[s]:
                for t in arena.states:
                    if rng.random() < 0.25:
                        update[("m0", s, a, t)] = "m1"
                    if rng.random() < 0.25:
                        update[("m1", s, a, t)] = "m0"
        sigma = build(update)
        guaranteed = solve.product_values(arena, spec, sigma)
        if all(guaranteed[("m0", s)] >= values.values[s] - epsilon
               for s in arena.states):
            return sigma
    return build({})


def _mixed_row(main: str, pool: list[str], rng: random.Random) -> dict:
    others = [a for a in pool if a != main]
    if others and rng.random() < 0.5:
        return {main: Fraction(3, 4), rng.choice(others): Fraction(1, 4)}
    return {main: Fraction(1)}


# ---------------------------------------------------------------------------
# The four-state letter-game counter-example


def reproduce_counterexample() -> VerificationReport:
    """Exact run-length analysis of the letter arena: both stationary
    choices of the maximizer lose (the minimizer schedules the growing runs
    directly), while the alternate-and-restart two-memory strategy wins
    because its reachable run lengths avoid 2 mod 3 and the required run
    progression hits that residue forever.

    The analysis is symbolic: the payoff is a tail property no finite
    simulation can see.  Randomizing uniformly at the branch state is the
    known stationary alternative to memory; the report records it as a note.
    """
    started = time.perf_counter()
    arena = build_fig1()
    quantities: dict = {"target_runs": "2,4,6,..."}

    def run_letters(sigma: FiniteMemoryStrategy, memory, visits: int):
        """Letters emitted by `visits` consecutive branch visits, and the
        memory afterwards."""
        m = memory
        count = 0
        for _ in range(visits):
            s = "sq"
            a = "1"
            while True:
                t = next(iter(arena.transition[(s, a)]))
                m2 = sigma.next_memory(m, s, a, t)
                if arena.colour[(s, a)].value == "b":
                    count += 1
                m = m2
                s = t
                if s == "sq":
                    break
                dist = sigma.action_dist(m, s)
                (a,) = dist
        return count, m

    def emit_a(sigma, memory):
        m = memory
        s, a = "sq", "2"
        t = next(iter(arena.transition[(s, a)]))
        m = sigma.next_memory(m, s, a, t)
        # c3 emits 'a' and returns with its only action
        m = sigma.next_memory(m, t, "1", "sq")
        return m

    verdicts = {}
    for name, action in (("stationary_1", "1"), ("stationary_2", "2")):
        sigma = PureStationaryStrategy(
            P1, {"c1": action, "c2": "1", "c3": "1"}).as_finite_memory()
        per_visit, _ = run_letters(sigma, sigma.initial, 1)
        # every even target run is a multiple of the per-visit emission
        if not all((2 * k) % per_visit == 0 for k in range(1, 31)):
            raise AssertionError(
                f"{name}: even target runs are not multiples of {per_visit}")
        # construct the schedule and check the word it produces
        m = sigma.initial
        runs = []
        for k in range(1, 31):
            m = emit_a(sigma, m)
            n, m = run_letters(sigma, m, (2 * k) // per_visit)
            runs.append(n)
        if runs != [2 * k for k in range(1, 31)]:
            raise AssertionError(f"{name}: forced runs {runs[:6]} miss 2,4,6,...")
        verdicts[name] = 0
        quantities[name] = {"letters_per_visit": per_visit,
                            "forced_runs": runs[:6]}

    alt = fig1_alternating_strategy()
    # the 'a' state restarts the alternation, so every run starts fresh
    if any(emit_a(alt, m) != alt.initial for m in alt.memory_states):
        raise AssertionError("the 'a' state does not restart the alternation")
    lengths = []
    m_after = []
    for k in range(1, 41):
        n, m = run_letters(alt, alt.initial, k)
        lengths.append(n)
        m_after.append(m)
    # two visits return the automaton to its starting phase and add 3
    # letters, so the checked window determines all run lengths
    if m_after[1] != alt.initial:
        raise AssertionError("two visits do not return the automaton to its start")
    if any(lengths[k + 2] != lengths[k] + 3 for k in range(len(lengths) - 2)):
        raise AssertionError("two visits do not add exactly 3 letters")
    reachable_mod3 = sorted({n % 3 for n in lengths})
    if reachable_mod3 != [0, 1]:
        raise AssertionError(f"reachable run lengths mod 3 are {reachable_mod3}")
    # every three consecutive required runs hit 2 mod 3 once
    if not all(any((L + 2 * j) % 3 == 2 for j in range(3))
               for L in range(2, 62, 2)):
        raise AssertionError("some three consecutive required runs miss 2 mod 3")
    verdicts["alternating"] = 1
    quantities["alternating"] = {
        "run_lengths": lengths[:8],
        "reachable_mod3": reachable_mod3,
        "note": ("required runs hit 2 mod 3 infinitely often, which no "
                 "restartable run can realize; an infinite final run fails "
                 "too since the target has infinitely many 'a's"),
    }
    quantities["randomized_alternative"] = (
        "mixing the two branch actions uniformly at the choice state also "
        "wins: each required run is then skipped with probability bounded "
        "away from zero")
    report = VerificationReport(
        "counterexample", {"arena": arena.fingerprint(),
                           "spec": "suffixtarget:"},
        "confirmed", quantities | {"payoffs": verdicts})
    return _finish(report, started)


# ---------------------------------------------------------------------------
# Stopped-value suites


def doob_suite(arena: Arena, spec: PayoffSpec, trials: int,
               seed: int, budget: int = solve.DEFAULT_BUDGET
               ) -> VerificationReport:
    """Stopped-value checks for a sampled locally-optimal strategy pair:
    horizon-0 equality, absorption-time and fixed-horizon estimates whose
    intervals must cover the exact value, the submartingale direction under
    an adversarial minimizer, and the empirical finiteness of the last
    value-changing date."""
    started = time.perf_counter()
    rng = random.Random(seed)
    values = solve.brute_force_value(arena, spec, budget)
    classification = solve.classify_actions(arena, values)
    sigma = _sample_locally_optimal(arena, classification, P1, rng)
    tau = _sample_locally_optimal(arena, classification, P2, rng)
    source = arena.states[0]
    checks = {}

    zero = solve.stopped_value_mc(arena, values, sigma, tau, source,
                                  ("horizon", 0), max(trials // 10, 1),
                                  rng.randrange(2**32))
    checks["horizon_zero_exact"] = zero.estimate == float(values.values[source])

    chain_classes = _class_states(arena, sigma, tau)
    first_hit = solve.stopped_value_mc(arena, values, sigma, tau, source,
                                       ("first_hit", chain_classes), trials,
                                       rng.randrange(2**32))
    checks["first_hit_covered"] = first_hit.covered

    fixed = solve.stopped_value_mc(arena, values, sigma, tau, source,
                                   ("horizon", 25), trials,
                                   rng.randrange(2**32))
    checks["fixed_horizon_covered"] = fixed.covered

    tau_adv = _adversarial_min(arena, classification)
    adv = solve.stopped_value_mc(arena, values, sigma, tau_adv, source,
                                 ("horizon", 25), trials,
                                 rng.randrange(2**32))
    checks["submartingale_direction"] = \
        adv.estimate >= float(values.values[source]) - (adv.ci_high - adv.estimate)

    horizon = 200
    last_change = _last_value_change(arena, values, classification, sigma,
                                     tau_adv, source, min(trials, 200),
                                     horizon, rng.randrange(2**32))
    checks["value_changes_stop"] = last_change < horizon // 2
    ok = all(checks.values())
    return _finish(VerificationReport(
        "doob", {"arena": arena.fingerprint(), "spec": spec.format(),
                 "seed": seed, "trials": trials},
        "confirmed" if ok else "refuted",
        {"checks": checks,
         "first_hit": {"estimate": first_hit.estimate,
                       "ci": [first_hit.ci_low, first_hit.ci_high],
                       "reference": str(first_hit.reference)},
         "adversarial_estimate": adv.estimate,
         "last_value_change": last_change}), started)


def _sample_locally_optimal(arena: Arena,
                            classification: solve.ActionClassification,
                            player: int, rng: random.Random
                            ) -> PureStationaryStrategy:
    choice = {}
    for s in arena.player_states(player):
        pool = classification.value_preserving_actions(arena, s)
        choice[s] = rng.choice(pool)
    return PureStationaryStrategy(player, choice)


def _adversarial_min(arena: Arena,
                     classification: solve.ActionClassification
                     ) -> PureStationaryStrategy:
    """Minimizer preferring value-changing actions wherever one exists."""
    choice = {}
    for s in arena.player_states(P2):
        changing = [a for a in arena.available[s]
                    if not classification.table[(s, a)].value_preserving]
        choice[s] = changing[0] if changing else arena.available[s][0]
    return PureStationaryStrategy(P2, choice)


def _class_states(arena: Arena, sigma, tau) -> frozenset:
    sig, ta = as_finite_memory(sigma), as_finite_memory(tau)
    chain = induce_chain(arena, sig, ta)
    states = set()
    for cls in bottom_sccs(chain):
        for node in cls.nodes:
            states.add(chain.state_of(node))
    return frozenset(states)


def _last_value_change(arena, values, classification, sigma, tau, source,
                       trials, horizon, seed) -> int:
    rng = random.Random(seed)
    sig, ta = as_finite_memory(sigma), as_finite_memory(tau)
    changing = {sa for sa, facts in classification.table.items()
                if not facts.value_preserving}
    worst = 0
    for _ in range(trials):
        play = sample_play(arena, sig, ta, source, horizon, rng)
        last = 0
        for i, step in enumerate(zip(play.states, play.actions), 1):
            if step in changing:
                last = i
        worst = max(worst, last)
    return worst
