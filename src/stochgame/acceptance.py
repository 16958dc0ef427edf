"""The acceptance suite: one callable per release criterion, each returning
a pass/fail result with its measured wall clock.  tests/test_acceptance.py
asserts them; scripts/run_acceptance.py prints them.  A criterion takes no
argument: its sizes are the module constants below, so no call can shrink
it."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import solve, verify
from .arena import random_arena
from .chain import induce_chain
from .fixtures import build_weak_memory_fixture
from .payoff import Lasso, evaluate_lasso, parse_payoff_spec, priority, reward
from .verify import SearchBounds, weakened_base


@dataclass
class CriterionResult:
    name: str
    passed: bool
    details: str
    seconds: float

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.name}: {self.details} ({self.seconds:.1f}s)"


def _result(name: str, started: float, passed: bool, details: str
            ) -> CriterionResult:
    return CriterionResult(name, passed, details, time.perf_counter() - started)


# Criterion sizes.
SADDLE_ARENAS = 200          # 1: seeded arenas of the positional saddle
HALFPOS_ARENAS = 100         # 2: seeded arenas of the half-positional sweep
HALFPOS_CANDIDATES = 12      # 2: two-memory candidates per arena and payoff
RESET_ARENAS = 50            # 5: weakened random bases
MARTINGALE_CORPUS = 200      # 6: seeded arenas of the martingale checks
STOPPED_RUNS = 100           # 6: seeded stopped-value runs
STOPPED_TRIALS = 10_000      # 6: Monte Carlo trials per stopped-value run
ORACLE_LASSOS = 1000         # 7: random lassos
ORACLE_UNROLL = 1000         # 7: letters of each lasso's unroll


# -- criterion 1 -------------------------------------------------------------

POSITIONAL_SPECS = (("mean", "reward"), ("limsup", "reward"),
                    ("liminf", "reward"), ("parity", "priority"),
                    ("discounted", "discounted"))


def positional_saddle() -> CriterionResult:
    """Exact grid saddle point and best-response verification of the
    certified stationary strategy, by the response fold on its own product
    rather than the grid that certified it, for the positional payoff
    catalog over the seeded random corpus.  Runtime target: under 60
    seconds."""
    started = time.perf_counter()
    checked = 0
    for seed in range(SADDLE_ARENAS):
        grids = {}
        for name, kind in POSITIONAL_SPECS:
            arena = random_arena(4, 3, -2, 2, Fraction(1, 2), seed=seed,
                                 kind=kind)
            if kind not in grids:
                grids[kind] = solve.GridSolver(arena)
            spec = parse_payoff_spec(name)
            values = solve.brute_force_value(arena, spec, grid=grids[kind])
            guaranteed = solve.product_values(arena, spec, values.sigma_star)
            if {s: v for (_, s), v in guaranteed.items()} != values.values:
                return _result("positional saddle", started, False,
                               f"certificate mismatch at seed {seed}, {name}")
            checked += 1
    elapsed = time.perf_counter() - started
    ok = elapsed < 60
    return _result(
        "positional saddle", started, ok,
        f"{checked} exact saddle points over {SADDLE_ARENAS} arenas x "
        f"{len(POSITIONAL_SPECS)} payoffs"
        + ("" if ok else f"; exceeded 60s ({elapsed:.0f}s)"))


# -- criterion 2 -------------------------------------------------------------

HALF_POSITIONAL_SPECS = (("posavg", "reward"), ("optgenmean:2", "vector2"),
                         ("meancobuchi:100", "cobuchi"))


def halfpos_sweep() -> CriterionResult:
    """No two-memory strategy beats the best stationary one, over the seeded
    corpus of the half-positional-only payoffs.  Any refutation is
    release-blocking."""
    started = time.perf_counter()
    refuted = []
    for seed in range(HALFPOS_ARENAS):
        for name, kind in HALF_POSITIONAL_SPECS:
            arena = random_arena(4, 3, seed=seed, kind=kind)
            report = verify.verify_halfpos(arena, parse_payoff_spec(name),
                                           memory_bound=2,
                                           candidates=HALFPOS_CANDIDATES,
                                           seed=seed)
            if report.verdict != "confirmed":
                refuted.append((seed, name, report.verdict))
    return _result(
        "half-positional sweep", started, not refuted,
        f"{HALFPOS_ARENAS} arenas x {len(HALF_POSITIONAL_SPECS)} payoffs, "
        f"memory bound 2, {HALFPOS_CANDIDATES} candidates each"
        if not refuted else f"refutations: {refuted[:3]}")


# -- criterion 3 -------------------------------------------------------------

SUBMIXING_CONFIRM = ("mean", "limsup", "liminf", "parity", "posavg",
                     "optgenmean:2")


def submixing_classification() -> CriterionResult:
    """The exhaustive small-cycle sweep confirms the submixing catalog and
    refutes the conjunctive multi-dimensional mean with a replayable
    witness.  Runtime target: under 30 seconds."""
    started = time.perf_counter()
    bounds = SearchBounds(max_cycle=4)
    for name in SUBMIXING_CONFIRM:
        report = verify.search_submixing_violation(parse_payoff_spec(name),
                                                   bounds, seed=17)
        if report.verdict != "confirmed":
            return _result("submixing classification", started, False,
                           f"{name} unexpectedly {report.verdict}")
    genmean = parse_payoff_spec("genmean:2")
    report = verify.search_submixing_violation(genmean, bounds, seed=17)
    if report.verdict != "refuted":
        return _result("submixing classification", started, False,
                       "genmean:2 not refuted")
    if not verify.replay_submixing_witness(genmean, report.witness):
        return _result("submixing classification", started, False,
                       "genmean:2 witness does not replay")
    elapsed = time.perf_counter() - started
    ok = elapsed < 30
    return _result(
        "submixing classification", started, ok,
        f"{len(SUBMIXING_CONFIRM)} payoffs confirmed, genmean:2 refuted "
        f"with replayable witness"
        + ("" if ok else f"; exceeded 30s ({elapsed:.0f}s)"))


# -- criterion 4 -------------------------------------------------------------

def counterexample() -> CriterionResult:
    """Deterministic (lose, lose, win) triple from the letter-game analysis
    in under a second."""
    started = time.perf_counter()
    first = verify.reproduce_counterexample()
    first_s = time.perf_counter() - started
    second = verify.reproduce_counterexample()
    expected = {"stationary_1": 0, "stationary_2": 0, "alternating": 1}
    ok = (first.verdict == "confirmed"
          and first.quantities["payoffs"] == expected
          and first.to_json() == second.to_json()
          and first_s < 1.0)
    return _result("counter-example", started, ok,
                   f"payoffs {first.quantities['payoffs']}, deterministic, "
                   f"{first_s * 1000:.0f}ms")


# -- criterion 5 -------------------------------------------------------------

def reset_strategy_checks() -> CriterionResult:
    """The reset strategy meets the val - 2*epsilon threshold at every
    reachable (memory, state) pair: on the crafted weak-memory fixture
    (where the base fails the same check) and on random arenas with
    randomly weakened near-optimal bases."""
    started = time.perf_counter()
    mean = parse_payoff_spec("mean")
    arena, sigma, eps = build_weak_memory_fixture()
    report = verify.verify_subgame_perfect(arena, mean, sigma, eps)
    if report.verdict != "confirmed":
        return _result("reset strategy", started, False,
                       "crafted fixture not confirmed")
    if report.quantities["base_meets_threshold"]:
        return _result("reset strategy", started, False,
                       "crafted base unexpectedly meets the threshold")
    failures = []
    for i in range(RESET_ARENAS):
        seed = 1000 + i
        epsilon = Fraction(1, 8) if i % 2 == 0 else Fraction(1, 4)
        arena = random_arena(4, 3, seed=seed, kind="reward")
        values = solve.brute_force_value(arena, mean)
        classification = solve.classify_actions(arena, values)
        base = weakened_base(arena, mean, values, classification, epsilon,
                             random.Random(seed))
        rep = verify.verify_subgame_perfect(arena, mean, base, epsilon)
        if rep.verdict != "confirmed":
            failures.append((seed, str(epsilon)))
    return _result(
        "reset strategy", started, not failures,
        f"crafted fixture (base fails, reset confirmed) plus {RESET_ARENAS} "
        f"weakened random bases at epsilon 1/8 and 1/4"
        if not failures else f"failures: {failures[:3]}")


# -- criterion 6 -------------------------------------------------------------

def martingale_suite() -> CriterionResult:
    """Exact martingale equality for sampled locally-optimal pairs over the
    random corpus, and stopped-value confidence intervals covering the
    exact value in at least 99 of 100 seeded runs."""
    started = time.perf_counter()
    for seed in range(MARTINGALE_CORPUS):
        for name, kind in (("mean", "reward"), ("parity", "priority")):
            arena = random_arena(4, 3, seed=seed, kind=kind)
            spec = parse_payoff_spec(name)
            values = solve.brute_force_value(arena, spec)
            classification = solve.classify_actions(arena, values)
            rng = random.Random(seed)
            sigma = verify._sample_locally_optimal(arena, classification, 1, rng)
            tau = verify._sample_locally_optimal(arena, classification, 2, rng)
            report = solve.martingale_check(arena, values, sigma, tau,
                                            arena.states[0],
                                            classification=classification)
            if report.verdict != "martingale":
                return _result("martingale suite", started, False,
                               f"strict inequality at seed {seed} {name}")
    covered = 0
    for seed in range(STOPPED_RUNS):
        arena = random_arena(4, 3, seed=seed, kind="reward")
        spec = parse_payoff_spec("mean")
        values = solve.brute_force_value(arena, spec)
        classification = solve.classify_actions(arena, values)
        rng = random.Random(10_000 + seed)
        sigma = verify._sample_locally_optimal(arena, classification, 1, rng)
        tau = verify._sample_locally_optimal(arena, classification, 2, rng)
        chain = induce_chain(arena, sigma, tau,
                             [(arena.states[0], sigma.initial, tau.initial)])
        report = solve.stopped_value_mc(
            chain, values, ("first_hit", verify._class_states(chain)),
            STOPPED_TRIALS, seed=20_000 + seed)
        covered += report.covered
    ok = covered >= int(STOPPED_RUNS * 0.99)
    return _result(
        "martingale suite", started, ok,
        f"{MARTINGALE_CORPUS} exact martingale checks x 2 payoffs; "
        f"stopped-value CI covered {covered}/{STOPPED_RUNS} runs at "
        f"{STOPPED_TRIALS} trials")


# -- criterion 7 -------------------------------------------------------------

def oracle_equivalence() -> CriterionResult:
    """evaluate_lasso against a brute-force unroll of the defining
    expressions: within 1e-6 for the mean/limsup/liminf payoffs and exactly
    for parity and the positive-average indicator."""
    started = time.perf_counter()
    rng = random.Random(424242)
    mean = parse_payoff_spec("mean")
    limsup = parse_payoff_spec("limsup")
    liminf = parse_payoff_spec("liminf")
    parity = parse_payoff_spec("parity")
    posavg = parse_payoff_spec("posavg")
    for i in range(ORACLE_LASSOS):
        pre = [rng.randint(-2, 2) for _ in range(rng.randint(0, 3))]
        cyc = [rng.randint(-2, 2) for _ in range(rng.randint(1, 5))]
        word = Lasso(tuple(reward(r) for r in pre),
                     tuple(reward(r) for r in cyc))
        # The letters are integer rewards: the unroll sums and compares
        # their numerators, exactly, in Python ints.
        letters = [word.letter(n).value.numerator
                   for n in range(ORACLE_UNROLL)]
        skip = len(pre)
        window = letters[skip:skip + ((ORACLE_UNROLL - skip) // len(cyc))
                         * len(cyc)]
        avg = Fraction(sum(window), len(window))
        if abs(evaluate_lasso(mean, word) - avg) > Fraction(1, 10 ** 6):
            return _result("oracle equivalence", started, False,
                           f"mean mismatch at case {i}")
        tail = letters[skip:]
        if abs(evaluate_lasso(limsup, word) - max(tail)) > Fraction(1, 10 ** 6):
            return _result("oracle equivalence", started, False,
                           f"limsup mismatch at case {i}")
        if abs(evaluate_lasso(liminf, word) - min(tail)) > Fraction(1, 10 ** 6):
            return _result("oracle equivalence", started, False,
                           f"liminf mismatch at case {i}")
        pword = Lasso(tuple(priority(r + 2) for r in pre),
                      tuple(priority(r + 2) for r in cyc))
        if evaluate_lasso(parity, pword) != Fraction(max(r + 2 for r in tail) % 2):
            return _result("oracle equivalence", started, False,
                           f"parity mismatch at case {i}")
        if evaluate_lasso(posavg, word) != (Fraction(1) if avg > 0 else Fraction(0)):
            return _result("oracle equivalence", started, False,
                           f"posavg mismatch at case {i}")
    return _result("oracle equivalence", started, True,
                   f"{ORACLE_LASSOS} lassos against the {ORACLE_UNROLL}-letter "
                   "unroll")


CRITERIA: tuple[Callable[[], CriterionResult], ...] = (
    positional_saddle, halfpos_sweep, submixing_classification,
    counterexample, reset_strategy_checks, martingale_suite,
    oracle_equivalence,
)
