"""Theorem harness: half-positionality checks, refutation searches, reset
threshold checks, the letter-game counter-example, stopped-value suites."""

import collections
import dataclasses
import functools
import gc
import itertools
import json
import random
import sys
import time
import tracemalloc
import types
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from stochgame import chain as chain_module
from stochgame import payoff, solve, verify
from stochgame.arena import P1, P2, Arena, random_arena
from stochgame.chain import bottom_classes, induce_chain
from stochgame.fixtures import build_e2, build_weak_memory_fixture
from stochgame.payoff import (
    Lasso, ShufflePattern, check_shift_invariance, check_submixing,
    evaluate_lasso, parse_payoff_spec, reward,
)
from stochgame.strategy import PureStationaryStrategy
from stochgame.verify import (
    SEARCH_PATTERNS, SHIFTS, TAILS, FlagGateError, SearchBounds, _case,
    _case_columns, _cycle_at, _cycle_stats, _drawn_blocks, _fast_violations,
    _random_memory_strategy, _class_states, _sample_locally_optimal,
    _shift_witness_doc, _spelled, _submix_witness_doc,
    _value_changing_recurrent, _word_columns,
    default_alphabet, doob_suite, replay_submixing_witness,
    reproduce_counterexample, search_shift_invariance_violation,
    search_submixing_violation, verify_halfpos, verify_subgame_perfect,
    weakened_base,
)
from helpers import (
    enumerate_pure_stationary, evaluate_lasso_oracle, restrict, reward_lasso,
)
from test_payoff import (
    _drawn_rows, _prefix_counting, _rotation_sensitive, _token_word,
)

F = Fraction
mean = parse_payoff_spec("mean")
parity = parse_payoff_spec("parity")


# -- verify_halfpos ------------------------------------------------------------

def test_halfpos_e2_confirmed():
    report = verify_halfpos(build_e2(), mean)
    assert report.verdict == "confirmed"
    assert report.quantities["sigma_star"]["s"] == "go"
    assert report.quantities["values"]["s"] == "1"


def test_halfpos_flag_gate():
    with pytest.raises(FlagGateError):
        verify_halfpos(build_e2(), parse_payoff_spec("genmean:2"))


def test_halfpos_budget_inconclusive():
    report = verify_halfpos(random_arena(4, 3, seed=1), mean, budget=1)
    assert report.verdict == "inconclusive"


def test_stationary_pair_chains_hold_each_state_once(monkeypatch):
    # every pair's chain is picked from its enumeration's product skeleton,
    # so each skeleton must hold each state once, at the one memory
    arena = random_arena(4, 3, seed=0)
    products = []
    product_skeleton = solve.product_skeleton

    def recording(*args, **kwargs):
        skeleton = product_skeleton(*args, **kwargs)
        products.append(skeleton.nodes)
        return skeleton

    monkeypatch.setattr(solve, "product_skeleton", recording)
    vv = solve.brute_force_value(arena, mean)
    solve.best_response_min(arena, mean, vv.sigma_star)
    solve.GridSolver(arena).reduce(parse_payoff_spec("posavg"))
    # the grid of brute_force_value, the response fold, the second grid
    assert len(products) == 3
    assert all(nodes == tuple((s, "m0", "m0") for s in arena.states)
               for nodes in products)


def test_halfpos_sweep_posavg_small():
    for seed in (0, 1, 2):
        arena = random_arena(3, 2, seed=seed)
        report = verify_halfpos(arena, parse_payoff_spec("posavg"),
                                candidates=6, seed=seed)
        assert report.verdict == "confirmed"
        assert report.quantities["exact"] is False
        assert "response_class" in report.quantities


def _stationary_floor(arena, spec, budget):
    """Each state's max over stationary maximizer strategies of the min over
    stationary responses, with every pair valued by `solve.node_values` on
    its own `induce_chain` chain, and the first strategy with the largest
    total guarantee.  Raises the grid's `BudgetError` when the pairs exceed
    the budget."""
    sigmas = list(enumerate_pure_stationary(arena, P1))
    taus = list(enumerate_pure_stationary(arena, P2))
    if len(sigmas) * len(taus) > budget:
        raise solve.BudgetError(
            f"{len(sigmas) * len(taus)} strategy pairs exceed the budget of "
            f"{budget}; split the arena or raise the budget")
    worst = []
    for sigma in sigmas:
        rows = [solve.node_values(arena, spec, sigma, tau) for tau in taus]
        worst.append([min(column) for column in zip(*rows)])
    totals = [sum(w) for w in worst]
    return ({s: max(w[k] for w in worst) for k, s in enumerate(arena.states)},
            sigmas[totals.index(max(totals))])


def _halfpos_sweep_oracle(arena, spec, budget, memory_bound, candidates, seed):
    """The bounded sweep with every candidate's guarantee from
    `product_values`, which enumerates all of its responses, against a
    floor valued pair by pair (`_stationary_floor`): the verdict,
    quantities and witness of `verify_halfpos`'s structured report, without
    the sweep's stats.  A beaten floor refutes only for a payoff whose
    stationary responses are exact, and is inconclusive elsewhere."""
    rng = random.Random(seed)
    try:
        v_plus, sigma_plus = _stationary_floor(arena, spec, budget)
        for _ in range(candidates):
            cand = _random_memory_strategy(arena, rng, memory_bound)
            guaranteed = solve.product_values(arena, spec, cand, budget)
            beats = {s: [str(guaranteed[(cand.initial, s)]), str(v_plus[s])]
                     for s in arena.states
                     if guaranteed[(cand.initial, s)] > v_plus[s]}
            if beats and spec.min_responses_exact:
                return ("refuted", {},
                        {"strategy": cand.to_json(), "values": beats})
            if beats:
                return ("inconclusive",
                        {"reason": "a candidate beats the floor; "
                                   f"{spec.format()} is not flagged "
                                   "min_responses_exact",
                         "response_class": "deterministic stationary on "
                                           "the memory product",
                         "values": beats},
                        None)
    except solve.BudgetError as e:
        return "inconclusive", {"reason": str(e)}, None
    return ("confirmed",
            {"stationary_values": {s: str(v_plus[s]) for s in arena.states},
             "best_stationary": sigma_plus.choice,
             "candidates_swept": candidates,
             "response_class": "deterministic stationary on the memory product",
             "exact": False},
            None)


def _sweep_matches_oracle(arena, spec, budget, memory_bound, candidates, seed):
    """The structured report of `verify_halfpos` against the oracle's; the
    verdict and the sweep's stats."""
    report = verify_halfpos(arena, spec, budget, memory_bound, candidates, seed)
    doc = json.loads(report.to_json())
    stats = doc["quantities"].pop("stats", None)
    verdict, quantities, witness = _halfpos_sweep_oracle(
        arena, spec, budget, memory_bound, candidates, seed)
    assert (doc["verdict"], doc["quantities"], doc["witness"]) \
        == (verdict, json.loads(json.dumps(quantities)), witness)
    if verdict == "inconclusive" and "values" not in quantities:
        assert stats is None
    else:
        assert 1 <= stats["response_tables"] <= stats["response_tables_full"]
    return verdict, stats


@pytest.mark.parametrize("name, kind", [
    ("posavg", "reward"), ("meancobuchi:100", "cobuchi"),
    ("optgenmean:2", "vector2"), ("counter+inf", "increment")])
def test_floor_decided_sweep_reports_what_the_full_enumeration_reports(name,
                                                                       kind):
    # budget 729 keeps the oracle's full enumerations small: a larger grid
    # or response fold is inconclusive on both sides, and at budget 26 so
    # are most memory-3 runs
    spec = parse_payoff_spec(name)
    verdicts = collections.Counter()
    saved = full = 0
    for seed in range(6):
        arena = random_arena(4, 3, seed=seed, kind=kind)
        for memory_bound, budget in ((1, 729), (2, 729), (3, 729), (3, 26)):
            verdict, stats = _sweep_matches_oracle(
                arena, spec, budget, memory_bound, 4,
                1000 * seed + memory_bound)
            verdicts[verdict] += 1
            if stats is not None:
                saved += stats["response_tables"]
                full += stats["response_tables_full"]
    assert verdicts["confirmed"] and verdicts["inconclusive"], verdicts
    assert saved < full


def test_floor_decided_sweep_reports_the_optgenmean_beat_inconclusive():
    # a candidate beats the stationary floor against deterministic
    # stationary responses, which are not exact for optgenmean:2: the sweep
    # reports the beaten values, inconclusive and without a witness, as the
    # oracle does
    arena = random_arena(4, 3, seed=2613501048, kind="vector2")
    spec = parse_payoff_spec("optgenmean:2")
    assert not spec.min_responses_exact
    verdict, stats = _sweep_matches_oracle(arena, spec, solve.DEFAULT_BUDGET,
                                           2, 12, 3194134790)
    assert verdict == "inconclusive"
    assert stats == {"response_tables": 12, "response_tables_full": 18}
    report = verify_halfpos(arena, spec, solve.DEFAULT_BUDGET, 2, 12,
                            3194134790)
    assert report.witness is None
    assert report.quantities["values"] == {
        s: ["1", "0"] for s in arena.states}


@pytest.mark.parametrize("payoff", ["posavg", "mean"])
@pytest.mark.parametrize("bounds, name", [
    ({"memory_bound": 0}, "memory_bound"), ({"candidates": 0}, "candidates"),
    ({"candidates": -3}, "candidates")],
    ids=["memory_bound=0", "candidates=0", "candidates=-3"])
def test_halfpos_rejects_bounds_below_one(monkeypatch, payoff, bounds, name):
    def no_work(*args, **kwargs):
        raise AssertionError("verify_halfpos started work on a bad bound")
    monkeypatch.setattr(solve, "GridSolver", no_work)
    monkeypatch.setattr(solve, "brute_force_value", no_work)
    with pytest.raises(ValueError, match=name):
        verify_halfpos(random_arena(3, 2, seed=0), parse_payoff_spec(payoff),
                       **bounds)


# -- searches --------------------------------------------------------------------

def test_submixing_search_confirms_mean_small():
    bounds = SearchBounds(max_cycle=3, random_cases=300)
    report = search_submixing_violation(mean, bounds, seed=1)
    assert report.verdict == "confirmed"
    assert report.quantities["cases"] > 0


def test_submixing_search_refutes_genmean_with_replay():
    spec = parse_payoff_spec("genmean:2")
    report = search_submixing_violation(spec, SearchBounds(max_cycle=2), seed=1)
    assert report.verdict == "refuted"
    assert replay_submixing_witness(spec, report.witness)
    values = [F(v) for v in report.witness["values"]]
    assert values[2] > max(values[0], values[1])


def test_shift_search_refutes_geom_and_confirms_mean():
    geom = parse_payoff_spec("geomfirstone")
    report = search_shift_invariance_violation(geom, SearchBounds(), seed=1)
    assert report.verdict == "refuted"
    report = search_shift_invariance_violation(
        mean, SearchBounds(random_cases=300), seed=1)
    assert report.verdict == "confirmed"


@pytest.mark.parametrize("bounds, field", [
    ({"max_cycle": 0}, "max_cycle"), ({"random_cases": -1}, "random_cases"),
    ({"max_cycle": 7}, "max_cycle"),
])
def test_search_bounds_reject_bad_values(bounds, field):
    with pytest.raises(ValueError, match=field):
        SearchBounds(**bounds)


def test_search_bounds_accept_zero_random_cases():
    report = search_submixing_violation(
        mean, SearchBounds(max_cycle=1, random_cases=0), seed=1)
    assert report.verdict == "confirmed"


def test_shift_search_refutes_discounted():
    disc = parse_payoff_spec("discounted")
    report = search_shift_invariance_violation(disc, SearchBounds(), seed=1)
    assert report.verdict == "refuted"


# the payoffs the submixing search decides on cycle statistics: every
# class-determined payoff, each vector payoff in two and three dimensions
FAST_PAYOFFS = ("mean", "limsup", "liminf", "parity", "posavg", "genmean:2",
                "genmean:3", "optgenmean:2", "optgenmean:3", "counter+inf",
                "counter-inf", "meancobuchi:100")


def test_fast_payoffs_are_the_class_determined_payoffs():
    assert {parse_payoff_spec(name).name for name in FAST_PAYOFFS} == {
        name for name, flags in payoff._CATALOG.items() if flags[3]}


@pytest.mark.parametrize("name", FAST_PAYOFFS)
def test_default_tables_of_the_value_forms_have_denominator_one(name):
    # `_fast_violations` values its cases over denominator 1, which is exact
    # only on these tables: there meancobuchi's penalty meets the true means
    spec = parse_payoff_spec(name)
    assert payoff.letter_table(spec, default_alphabet(spec)).den == 1


def test_cycle_stats_hold_every_cycle_up_to_max_cycle():
    stats = _cycle_stats(payoff.letter_table(mean, default_alphabet(mean)),
                         verify.MAX_CYCLE)
    assert len(stats["L"]) == sum(5 ** n for n in range(1, 7))


def _sign(x):
    return (x > 0) - (x < 0)


def test_fast_sweep_agrees_with_full_evaluation():
    # the vectorized sweep's value forms against the ordinary
    # shuffle-then-evaluate route, on a seeded sample of cycle pairs, at
    # every tail ratio a seeded pattern can draw; each sampled cycle's
    # statistics are its row of the alphabet table's, found by its place
    # among the exhaustive token cycles.  Beyond the verdict, the form's
    # (numerator, denominator) pairs over the table's denominator are the
    # exact values of the shuffle and its two words, and so, compared by
    # cross-multiplication, they order the words as those values do.  Each
    # value is also the letter-by-letter Fraction oracle's, which shares no
    # code with the forms
    rng = random.Random(31)
    for name in ("mean", "limsup", "liminf", "parity", "posavg",
                 "genmean:2", "optgenmean:2", "counter+inf", "counter-inf",
                 "genmean:3", "optgenmean:3"):
        spec = parse_payoff_spec(name)
        alphabet = default_alphabet(spec)
        letters = payoff.letter_table(spec, alphabet)
        form = functools.partial(payoff.limit_value, spec)
        cycles = [tuple(rng.choice(alphabet)
                        for _ in range(rng.randint(1, 4)))
                  for _ in range(12)]
        at = [_exhaustive_cycles(alphabet, 4).index(c) for c in cycles]
        stats = _cycle_stats(letters, 4)
        col = {k: x[at][:, None] for k, x in stats.items()}
        row = {k: x[at][None, :] for k, x in stats.items()}
        value = [evaluate_lasso(spec, Lasso((), c)) for c in cycles]
        assert value == [evaluate_lasso_oracle(spec, Lasso((), c))
                         for c in cycles]
        for a, b in itertools.product(range(1, 4), repeat=2):
            pattern = ShufflePattern.alternating(a, b)
            grid = _violations(spec, col, row, a, b)
            (nw, dw), (nu, du), (nv, dv) = (
                [np.broadcast_to(x, grid.shape).astype(np.int64)
                 for x in form(st, letters.den)]
                for st in (verify._Shuffled(col, row, a, b), col, row))
            for i, j in itertools.product(range(len(cycles)), repeat=2):
                u, v = Lasso((), cycles[i]), Lasso((), cycles[j])
                witness = check_submixing(spec, u, v, pattern)
                assert bool(grid[i, j]) == (witness is not None), \
                    (name, a, b, cycles[i], cycles[j])
                shuffled = payoff.shuffle(u, v, pattern)
                w = evaluate_lasso(spec, shuffled)
                assert w == evaluate_lasso_oracle(spec, shuffled)
                pw, pu, pv = ((int(n[i, j]), int(d[i, j])) for n, d in (
                    (nw, dw), (nu, du), (nv, dv)))
                assert [F(*p) for p in (pw, pu, pv)] \
                    == [w, value[i], value[j]]
                assert (_sign(pw[0] * pu[1] - pu[0] * pw[1]),
                        _sign(pw[0] * pv[1] - pv[0] * pw[1])) \
                    == (_sign(w - value[i]), _sign(w - value[j])), \
                    (name, a, b, cycles[i], cycles[j])


@pytest.mark.parametrize("name", ["mean", "parity", "counter+inf",
                                  "meancobuchi:100", "genmean:3"])
def test_shuffled_stats_are_the_literal_shuffles_cycle_stats(name):
    # on a grid of seeded cycles of 1-4 letters, at every tail (a, b) in
    # 1..3, the shuffle's statistics are read off the cycle of
    # `payoff.shuffle` itself: S / L is its mean, per dimension for a
    # vector, and MX and MN are its extreme numerators
    spec = parse_payoff_spec(name)
    letters = payoff.letter_table(spec, default_alphabet(spec))
    k = len(letters.nums)
    nums = np.array(letters.nums, dtype=np.int64).reshape(k, -1)
    stats = _cycle_stats(letters, 4)
    cycles = [c for n in range(1, 5)
              for c in itertools.product(range(k), repeat=n)]
    rng = random.Random(37)
    drawn = [tuple(rng.randrange(k) for _ in range(rng.randint(1, 4)))
             for _ in range(10)]
    at = [cycles.index(c) for c in drawn]
    col = {key: x[at][:, None] for key, x in stats.items()}
    row = {key: x[at][None, :] for key, x in stats.items()}
    for a, b in itertools.product(range(1, 4), repeat=2):
        shuffled = verify._Shuffled(col, row, a, b)
        L, S, MX, MN = (np.broadcast_to(
            shuffled[key].reshape(len(at), len(at), -1),
            (len(at), len(at), nums.shape[1])).tolist()
            for key in ("L", "S", "MX", "MN"))
        for i, j in itertools.product(range(len(at)), repeat=2):
            w = payoff.shuffle(Lasso((), drawn[i]), Lasso((), drawn[j]),
                               ShufflePattern.alternating(a, b))
            cycle = nums[list(w.cycle)]
            assert [F(s, n) for s, n in zip(S[i][j], L[i][j])] \
                == [F(int(s), len(cycle)) for s in cycle.sum(0)], \
                (a, b, drawn[i], drawn[j])
            assert (MX[i][j], MN[i][j]) \
                == (cycle.max(0).tolist(), cycle.min(0).tolist())


def test_refutation_searches_leave_no_cyclic_garbage():
    # reference counting alone frees what a search builds: with the cycle
    # collector off, nothing is left for it after either search on any
    # payoff, so a search's memory does not wait for a collection
    names = FAST_PAYOFFS + ("discounted", "geomfirstone", "suffixtarget:ab")
    gc.collect()
    gc.disable()
    try:
        for name in names:
            spec = parse_payoff_spec(name)
            for search in (search_submixing_violation,
                           search_shift_invariance_violation):
                search(spec, SearchBounds(max_cycle=3), seed=0)
                assert gc.collect() == 0, (name, search.__name__)
    finally:
        gc.enable()


def _spelled_case(alphabet, case):
    # an index case's lassos spelled in the alphabet, and its pattern
    u, v, pattern = case
    return _spelled(alphabet, *u), _spelled(alphabet, *v), pattern


def _whole_grid(st):
    # the statistics of every cycle as a grid's column and row
    return ({key: x[:, None] for key, x in st.items()},
            {key: x[None, :] for key, x in st.items()})


def _violations(spec, su, sv, a, b):
    # `_fast_violations` with the words' values read off their statistics
    # by the value form, over denominator 1, as a search reads them
    return _fast_violations(spec, su, sv, payoff.limit_value(spec, su, 1),
                            payoff.limit_value(spec, sv, 1), a, b)


@pytest.mark.parametrize("name", FAST_PAYOFFS)
def test_seeded_blocks_agree_with_full_evaluation_on_every_case(
        monkeypatch, name):
    # every drawn case, prefixes and all, not only the first violation, is
    # decided by the cell of its two cycles in the whole grid of its tail,
    # which the search decides: the cell is flagged iff the token check of
    # the spelled case finds a witness.  Two whole blocks and a remainder,
    # so block boundaries are crossed; the blocks are the rows of one draw,
    # and each index case, spelled, is the token case the test reads off
    # its row.
    monkeypatch.setattr(verify, "_CASE_BLOCK", 64)
    spec = parse_payoff_spec(name)
    alphabet = default_alphabet(spec)
    k = len(alphabet)
    flagged = 0
    for seed in range(4):
        max_cycle = seed + 1
        st = _cycle_stats(payoff.letter_table(spec, alphabet), max_cycle)
        at = {_cycle_at(i, k): i for i in range(len(st["L"]))}
        grids = {tail: _violations(spec, *_whole_grid(st), *tail)
                 for tail in TAILS}
        columns = _case_columns(k, max_cycle)
        blocks = list(_drawn_blocks(random.Random(seed), columns, 2 * 64 + 23))
        assert [len(block) for block in blocks] == [64, 64, 23]
        rows = np.concatenate(blocks).tolist()
        assert rows == _one_draw(seed, columns, len(rows)).tolist()
        for row in rows:
            (_, cu), (_, cv), pattern = case = _case(row)
            spelled = _spelled_case(alphabet, case)
            assert spelled == _token_case(row, alphabet, max_cycle)
            flag = bool(grids[pattern.tail][at[cu], at[cv]])
            witness = check_submixing(spec, *spelled)
            assert flag == (witness is not None), (name, seed, spelled)
            flagged += flag
    # of the word-form payoffs, only genmean has lasso witnesses
    assert (flagged > 0) == (spec.name == "genmean")


def _per_case_search(spec, bounds, seed):
    """The seeded phase as one check_submixing call per token case."""
    for cases, case in enumerate(_token_cases(spec, bounds, seed), 1):
        witness = check_submixing(spec, *case)
        if witness is not None:
            return "refuted", cases, _submix_witness_doc(witness)
    return "confirmed", bounds.random_cases, None


@pytest.mark.parametrize("block", [4, verify._CASE_BLOCK])
@pytest.mark.parametrize("name, verdict", [
    ("genmean:2", "refuted"), ("genmean:3", "refuted"),
    # a lasso's counter-inf value is the sign of its cycle sum, and a
    # shuffle's cycle sum is a positive mix of both sums: no lasso witness
    ("counter-inf", "confirmed"),
    ("discounted", "refuted"), ("geomfirstone", "refuted"),
    ("suffixtarget:ab", "confirmed"),
])
def test_seeded_phase_matches_the_per_case_loop(monkeypatch, block, name,
                                                verdict):
    # without exhaustive patterns the seeded blocks decide the search of a
    # payoff that is not class-determined.  A class-determined payoff
    # draws no case: whatever the blocks, its report is the token
    # search's, decided on the grid of every tail, and it refutes iff the
    # per-case loop does
    monkeypatch.setattr(verify, "SEARCH_PATTERNS", ())
    monkeypatch.setattr(verify, "_CASE_BLOCK", block)
    spec = parse_payoff_spec(name)
    for seed in range(4):
        bounds = SearchBounds(max_cycle=3, random_cases=300)
        report = search_submixing_violation(spec, bounds, seed)
        loop = _per_case_search(spec, bounds, seed)
        assert report.verdict == loop[0] == verdict
        if spec.is_class_determined:
            assert report.to_json() == _token_submixing_search(
                spec, bounds, seed).to_json()
        else:
            assert (report.verdict, report.quantities["cases"],
                    report.witness) == loop
        if verdict == "refuted":
            assert replay_submixing_witness(spec, report.witness)


# -- the seeded draw ---------------------------------------------------------------

def _one_draw(seed, columns, n):
    # the stream as documented: one getrandbits call for all n cases, read
    # as 32-bit words in case order, each mapped to lo + (w * span >> 32)
    width = len(columns)
    bits = random.Random(seed).getrandbits(32 * width * n)
    words = np.frombuffer(bits.to_bytes(4 * width * n, "little"), "<u4")
    lo, hi = np.array(columns, dtype=np.int64).T
    return lo + (words.reshape(n, width).astype(np.int64) * (hi - lo + 1) >> 32)


def test_seed_zero_draws_the_pinned_first_case():
    # a submixing case over five letters at max_cycle 4, and a
    # shift-invariance word: u = 1 3 . (2 0 1 4), v = 2 . (3 4 1 4), the
    # pattern's prefix blocks (1, 1) and its tail (1, 2); the word
    # 1 3 4 . (0 1).  Any change to the stream or the columns moves them.
    (case,) = _drawn_rows(0, _case_columns(5, 4), 1)
    assert case == [2, 1, 3, 4, 2, 0, 1, 4,
                    1, 2, 2, 4, 3, 4, 1, 4,
                    1, 1, 1, 2, 2, 1, 2]
    assert _case(case) == (((1, 3), (2, 0, 1, 4)), ((2,), (3, 4, 1, 4)),
                           ShufflePattern((1, 1), (1, 2)))
    # the mean's alphabet is the rewards -2..2
    assert _spelled_case(default_alphabet(mean), _case(case)) == (
        reward_lasso([-1, 1], [0, -2, -1, 2]),
        reward_lasso([0], [1, 2, -1, 2]), ShufflePattern((1, 1), (1, 2)))
    (word,) = _drawn_rows(0, _word_columns(5, 4, 3), 1)
    assert word == [3, 1, 3, 4, 2, 0, 1, 4, 2]
    assert verify._word(word, 3) == ((1, 3, 4), (0, 1))


def test_the_extreme_words_draw_the_ends_of_each_range():
    class Constant:
        def __init__(self, bit):
            self.bit = bit

        def getrandbits(self, n):
            return ((1 << n) - 1) * self.bit

    columns = _case_columns(5, 4)
    for bit, end in ((0, 0), (1, 1)):
        (rows,) = _drawn_blocks(Constant(bit), columns, 3)
        assert rows.dtype == np.int64
        assert rows.tolist() == [[c[end] for c in columns]] * 3


@pytest.mark.parametrize("columns", [_case_columns(5, 4),
                                     _word_columns(2, 3, 3)])
@pytest.mark.parametrize("block", [7, verify._CASE_BLOCK])
def test_a_shorter_draw_is_the_start_of_a_longer_one(monkeypatch, columns,
                                                     block):
    # so the cases a search draws do not depend on how it blocks them: in
    # blocks of 7 or 1,024 rows, 2,000 cases are one getrandbits draw, and
    # their first 300 are the draw of 300
    monkeypatch.setattr(verify, "_CASE_BLOCK", block)
    for seed in range(3):
        whole = _drawn_rows(seed, columns, 2000)
        assert whole == _one_draw(seed, columns, 2000).tolist()
        assert whole[:300] == _drawn_rows(seed, columns, 300)


def _plus(real, extra):
    # the index valuer `real` broken by adding the integer extra(prefix,
    # cycle) to each value, which stays in lowest terms
    def broken(spec, letters, prefix, cycle):
        num, den = real(spec, letters, prefix, cycle)
        return num + extra(prefix, cycle) * den, den

    return broken


@functools.cache
def _cycle_heads(k):
    # the first letter of each exhaustive cycle of 1..MAX_CYCLE letters over
    # k letters, by position: the cycles of each length in
    # `itertools.product` order, shortest first
    return np.concatenate([np.indices((k,) * n)[0].ravel()
                           for n in range(1, verify.MAX_CYCLE + 1)])


def _first_letter_valued(real, k):
    # the value form `real` broken as `_rotation_sensitive` breaks the token
    # evaluator: each cycle of the exhaustive table over k letters gains
    # the rank of its first letter
    def broken(spec, stats, den):
        num, den = real(spec, stats, den)
        return num + _cycle_heads(k)[:len(stats["L"])] * den, den

    return broken


def _first_letter_summed(real):
    # `_cycle_stats` broken: each cycle's sum S gains its length times the
    # rank of its first letter, so that its mean gains the rank
    def broken(letters, max_cycle):
        st = real(letters, max_cycle)
        first = _cycle_heads(len(letters.letters))[:len(st["L"])]
        return {**st, "S": st["S"] + first * st["L"]}

    return broken


def _long_cycle_rotation(prefix, cycle):
    # not shift-invariant, on words whose cycle has three or more letters:
    # no exhaustive word has one, so only a seeded word can refute it
    return cycle[0] if len(cycle) > 2 else 0


def _long_cycle_rotating(real, alphabet):
    # `_long_cycle_rotation` on tokens, as test_payoff writes its mutants
    rank = {tok: i for i, tok in enumerate(alphabet)}
    return lambda spec, word: real(spec, word) + (
        rank[word.cycle[0]] if len(word.cycle) > 2 else 0)


# The token mutants of test_payoff, written on index words: the first cycle
# letter's index is its rank in the alphabet.
INDEX_MUTANTS = {_rotation_sensitive: lambda prefix, cycle: cycle[0],
                 _prefix_counting: lambda prefix, cycle: len(prefix)}


def test_seeded_reports_do_not_depend_on_the_case_block(monkeypatch):
    # without exhaustive patterns the seeded cases decide the submixing
    # search of each payoff that is not class-determined: refuted on
    # discounted and geomfirstone, confirmed on suffixtarget:ab; the shift
    # searches' per-word walk confirms suffixtarget:ab and, with the token
    # search's reports, refutes a seeded word under a broken evaluator, the
    # index valuer and the token one broken alike.  Blocks of 1, 7 and 1,024
    # rows give the reports of one block of all 2,000.
    monkeypatch.setattr(verify, "SEARCH_PATTERNS", ())
    bounds = SearchBounds(max_cycle=4, random_cases=2000)

    def reports():
        out = [search_submixing_violation(parse_payoff_spec(name), bounds,
                                          seed).to_json()
               for name in ("discounted", "geomfirstone", "suffixtarget:ab")
               for seed in (0, 1)]
        target = parse_payoff_spec("suffixtarget:ab")
        out += [search_shift_invariance_violation(target, bounds,
                                                  seed).to_json()
                for seed in (0, 1)]
        with monkeypatch.context() as broken:
            broken.setattr(verify, "word_value", _plus(
                payoff.word_value, _long_cycle_rotation))
            broken.setattr(payoff, "evaluate_lasso", _long_cycle_rotating(
                payoff.evaluate_lasso, default_alphabet(target)))
            for seed in (0, 1):
                out.append(search_shift_invariance_violation(
                    target, bounds, seed).to_json())
                assert out[-1] == _token_shift_search(target, bounds,
                                                      seed).to_json()
        return out

    monkeypatch.setattr(verify, "_CASE_BLOCK", 2000)
    whole = reports()
    verdicts = [json.loads(r)["verdict"] for r in whole]
    assert verdicts == ["refuted"] * 4 + ["confirmed"] * 4 + ["refuted"] * 2
    for block in (1, 7, 1024):
        monkeypatch.setattr(verify, "_CASE_BLOCK", block)
        assert reports() == whole, block


@pytest.mark.parametrize("k", [2, 3, 5])
def test_every_value_of_every_column_is_drawn_near_uniformly(k):
    # over 100,000 draws each value of each (lo, hi) column appears, its
    # share within one percentage point of 1 / (hi - lo + 1)
    for columns in (_case_columns(k, 4), _word_columns(k, 4, 3)):
        rows = np.concatenate(list(_drawn_blocks(random.Random(k), columns,
                                                 100_000)))
        for j, (lo, hi) in enumerate(columns):
            counts = np.bincount(rows[:, j] - lo, minlength=hi - lo + 1)
            assert len(counts) == hi - lo + 1 and counts.all(), (j, counts)
            share = counts / len(rows)
            assert np.abs(share - 1 / (hi - lo + 1)).max() <= 0.01, (j, share)


@pytest.mark.parametrize("patterns", [(), verify.SEARCH_PATTERNS])
def test_closed_form_hit_without_a_witness_is_an_error(monkeypatch, patterns):
    # a flagged case that the full evaluation clears never reads as
    # confirmed; a class-determined search decides its grid of every tail
    # whatever SEARCH_PATTERNS holds
    monkeypatch.setattr(verify, "SEARCH_PATTERNS", patterns)
    monkeypatch.setattr(verify, "check_submixing", lambda *case: None)
    with pytest.raises(AssertionError, match="disagree"):
        search_submixing_violation(parse_payoff_spec("genmean:2"),
                                   SearchBounds(max_cycle=2), seed=1)


# the submixing payoffs without a closed form, decided on index values
VALUED_PAYOFFS = ("discounted", "suffixtarget:ab", "geomfirstone")


@pytest.mark.parametrize("name", VALUED_PAYOFFS)
def test_an_index_value_hit_without_a_witness_is_an_error(monkeypatch, name):
    # only the index valuer broken, each value raised by its cycle's length:
    # the first exhaustive shuffle, of one letter with itself, beats both
    # components, which the token evaluation does not confirm
    monkeypatch.setattr(verify, "word_value", _plus(
        payoff.word_value, lambda prefix, cycle: len(cycle)))
    with pytest.raises(AssertionError, match="disagree"):
        search_submixing_violation(parse_payoff_spec(name), SearchBounds(),
                                   seed=3)


@pytest.mark.parametrize("name, verdict, spelled", [
    ("suffixtarget:ab", "confirmed", 0), ("discounted", "refuted", 2),
    ("geomfirstone", "refuted", 2)])
def test_valued_submixing_searches_spell_only_their_witness(monkeypatch, name,
                                                            verdict, spelled):
    # a search decided on index values spells no case it clears, and a
    # refuted one spells its witness's u and v
    real = verify._spelled
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(verify, "_spelled", counted)
    report = search_submixing_violation(parse_payoff_spec(name),
                                        SearchBounds(), seed=3)
    assert (report.verdict, len(calls)) == (verdict, spelled)


@pytest.mark.parametrize("max_cycle, cases", [(1, 155), (2, 930), (4, 930)])
def test_shift_search_bounds_its_exhaustive_cycles_by_max_cycle(
        monkeypatch, max_cycle, cases):
    # the per-word walk reads prefixes of 0..2 letters (1 + 5 + 25 of them)
    # times cycles of 1..min(max_cycle, 2) letters (5, or 5 + 25) over a
    # five-letter alphabet, then the seeded words: here discounted over
    # five zero rewards, which is 0 on every word.  A class-determined
    # payoff decides each cycle of 1..max_cycle letters once, and reads no
    # seeded word.
    bounds = SearchBounds(max_cycle=max_cycle, random_cases=7)
    report = search_shift_invariance_violation(mean, bounds, seed=3)
    assert (report.verdict, report.quantities["cases"]) \
        == ("confirmed", sum(5 ** n for n in range(1, max_cycle + 1)))
    monkeypatch.setattr(verify, "default_alphabet", lambda spec: [
        payoff.discounted(0, F(1, n)) for n in range(2, 7)])
    report = search_shift_invariance_violation(
        parse_payoff_spec("discounted"), bounds, seed=3)
    assert (report.verdict, report.quantities["cases"]) \
        == ("confirmed", cases + 7)


def test_shift_search_reports_its_max_cycle():
    reports = [search_shift_invariance_violation(
        mean, SearchBounds(max_cycle=n, random_cases=5), seed=3)
        for n in (1, 4)]
    assert [r.instance["max_cycle"] for r in reports] == [1, 4]


def _whole_grid_search(spec, bounds, seed, cells):
    # the submixing search with each tail's grid decided on the whole n x n
    # grid of `_cycle_stats`, keyed on no statistic, in row blocks of at
    # most `cells` cells (one row when a row is longer), the first flagged
    # cell found by np.argwhere and its cycles read off the list of every
    # cycle; no seeded case is drawn
    alphabet = default_alphabet(spec)
    instance = {"spec": spec.format(), "seed": seed,
                "max_cycle": bounds.max_cycle,
                "patterns": list(TAILS),
                "random_cases": bounds.random_cases}
    cases = 0

    def refuted(u, v, pattern):
        return verify.VerificationReport(
            "submixing", instance, "refuted", {"cases": cases},
            _submix_witness_doc(check_submixing(spec, u, v, pattern)))

    st = _cycle_stats(payoff.letter_table(spec, alphabet), bounds.max_cycle)
    cycles = _exhaustive_cycles(alphabet, bounds.max_cycle)
    n = len(cycles)
    height = max(1, cells // n)
    row = {key: x[None, :] for key, x in st.items()}
    for a, b in TAILS:
        cases += n ** 2
        for top in range(0, n, height):
            col = {key: x[top:top + height, None] for key, x in st.items()}
            viol = _violations(spec, col, row, a, b)
            assert viol.shape == (min(height, n - top), n)
            if viol.any():
                iu, iv = map(int, np.argwhere(viol)[0])
                return refuted(Lasso((), cycles[top + iu]),
                               Lasso((), cycles[iv]),
                               ShufflePattern.alternating(a, b))
    return verify.VerificationReport("submixing", instance, "confirmed",
                                     {"cases": cases})


@pytest.mark.parametrize("cells", [1, 700])
@pytest.mark.parametrize("name", FAST_PAYOFFS)
def test_grid_row_blocks_give_the_whole_grid_reports(name, cells):
    # the distinct-row search against the whole grid decided one row per
    # block, or 23 rows of 30 and 4 of 155 with a short last block: the
    # same first (u, v) hit in row-major order, and the whole grid counted
    # per tail
    spec = parse_payoff_spec(name)
    for max_cycle, random_cases, seed in itertools.product(
            (1, 2, 3), (0, 300), (0, 1)):
        bounds = SearchBounds(max_cycle, random_cases)
        assert search_submixing_violation(spec, bounds, seed).to_json() \
            == _whole_grid_search(spec, bounds, seed, cells).to_json(), \
            (max_cycle, random_cases, seed)


def test_submixing_grid_is_decided_on_its_distinct_rows(monkeypatch):
    # at the default bounds, the 780 cycles of mean's table hold 44
    # distinct (L, S) rows, the statistics its form reads; each tail's grid
    # is decided on those, and still counted as 780^2 cells.  The words'
    # forms are valued once per search, not once per tail: the grid's
    # column and row statistics each reach the value form once
    real = verify._fast_violations
    real_form = verify.limit_value
    grids, words, valued = [], [], []

    def counted(spec, su, sv, fu, fv, a, b):
        grids.append((sorted(su), np.broadcast_shapes(su["L"].shape,
                                                      sv["L"].shape)))
        words.append((su, sv))
        return real(spec, su, sv, fu, fv, a, b)

    def form(spec, st, den):
        valued.append(st)
        return real_form(spec, st, den)

    monkeypatch.setattr(verify, "_fast_violations", counted)
    monkeypatch.setattr(verify, "limit_value", form)
    report = search_submixing_violation(mean, SearchBounds(), seed=0)
    assert (report.verdict, report.quantities["cases"]) \
        == ("confirmed", 9 * 780 ** 2)
    assert grids == [(["L", "S"], (44, 44))] * 9
    su, sv = words[0]
    assert all(pair[0] is su and pair[1] is sv for pair in words)
    assert [sum(st is x for st in valued) for x in (su, sv)] == [1, 1]


@pytest.mark.parametrize("k", [2, 3, 5])
@pytest.mark.parametrize("max_cycle", [1, 2, 4])
def test_case_columns_draw_exactly_the_decided_tails_and_cycles(max_cycle, k):
    # a drawn case's verdict reads only its two cycles and its tail, so the
    # tails' grids decide every case that `_case_columns` can draw: its tail
    # columns range over exactly TAILS, SEARCH_PATTERNS first, and each
    # word's cycle columns over exactly the grid's cycles, those of
    # `_cycle_stats` in `_cycle_at` order
    columns = _case_columns(k, max_cycle)
    width = max_cycle + 4  # each word's columns, as `_token_case` reads them
    spans = [range(lo, hi + 1) for lo, hi in columns]
    assert TAILS[:len(SEARCH_PATTERNS)] == SEARCH_PATTERNS
    assert len(set(TAILS)) == len(TAILS)
    assert set(itertools.product(*spans[-2:])) == set(TAILS)
    n = sum(k ** m for m in range(1, max_cycle + 1))
    grid = [_cycle_at(i, k) for i in range(n)]
    assert len(set(grid)) == n
    for word in (0, width):
        lengths, *letters = spans[word + 3:word + width]
        drawn = {c for m in lengths for c in itertools.product(*letters[:m])}
        assert drawn == set(grid)
    report = search_submixing_violation(mean, SearchBounds(max_cycle), 0)
    assert report.instance["patterns"] == list(TAILS)
    assert report.quantities["cases"] \
        == len(TAILS) * sum(5 ** m for m in range(1, max_cycle + 1)) ** 2


# the distinct rows of each class-determined payoff's grid at max_cycle 4,
# keyed on the statistics its form reads
KEYED_ROWS = {"mean": 44, "posavg": 44, "counter+inf": 44, "counter-inf": 44,
              "limsup": 5, "liminf": 5, "parity": 5, "genmean:2": 84,
              "optgenmean:2": 84, "genmean:3": 104, "optgenmean:3": 104,
              "meancobuchi:100": 71}


@pytest.mark.parametrize("name", FAST_PAYOFFS)
def test_keyed_rows_give_the_whole_grids_values(name):
    # the search keys its grid's rows on the statistics the value form
    # reads (`_form_reads`).  Expanded back to all n x n cells, the value
    # pairs of the shuffle on the grid of the keyed rows are the whole
    # grid's under every tail, and so are the words'.  A key short of what
    # `_Shuffled` reads fails: S alone for posavg, whose shuffle's S reads
    # its words' L too
    spec = parse_payoff_spec(name)
    st = _cycle_stats(payoff.letter_table(spec, default_alphabet(spec)), 4)
    n = len(st["L"])
    keys = verify._form_reads(spec, st)
    _, first, at = np.unique(
        np.column_stack([st[key].reshape(n, -1) for key in keys]), axis=0,
        return_index=True, return_inverse=True)
    at, m = at.reshape(n), len(first)
    assert m == KEYED_ROWS[name]
    keyed = {key: x[first] for key, x in st.items()}
    for rows, whole in zip(payoff.limit_value(spec, keyed, 1),
                           payoff.limit_value(spec, st, 1)):
        assert (np.broadcast_to(rows, m)[at] == whole).all(), name
    for a, b in TAILS:
        for rows, whole in zip(
                payoff.limit_value(spec, verify._Shuffled(
                    *_whole_grid(keyed), a, b), 1),
                payoff.limit_value(spec, verify._Shuffled(
                    *_whole_grid(st), a, b), 1)):
            assert (np.broadcast_to(rows, (m, m))[np.ix_(at, at)]
                    == whole).all(), (name, a, b)


def _length_divides_by_five(spec, st, den):
    # 1 iff the cycle's length is a multiple of 5: no cycle of 1-4 letters,
    # but the shuffle of any two under a tail of 2:3 or 3:2, whose cycle is
    # a whole number of tail periods of 5 letters; every other tail's cycle
    # has only the prime factors 2 and 3
    return st["L"] % 5 == 0, 1


def test_an_l_only_form_is_keyed_on_l_alone(monkeypatch):
    # a shuffle's L reads only its words' L, so a form that reads L alone
    # keys the grid on L, not on (L, S)
    monkeypatch.setitem(payoff._VALUE_FORMS, "mean", _length_divides_by_five)
    st = _cycle_stats(payoff.letter_table(mean, default_alphabet(mean)), 2)
    assert verify._form_reads(mean, st) == ["L"]


def test_a_mutant_only_a_two_three_tail_exposes_is_refuted_from_the_grid(
        monkeypatch):
    # mean's value form broken for the index search and the token search
    # alike: no SEARCH_PATTERNS grid holds a witness, and the grid of the
    # tail 2:3, decided before 3:2, refutes on every seed and bound with
    # the token search's report, its first two cycles and no prefix
    monkeypatch.setitem(payoff._VALUE_FORMS, "mean", _length_divides_by_five)
    for max_cycle in range(1, 5):
        n = sum(5 ** m for m in range(1, max_cycle + 1))
        for random_cases, seed in itertools.product((0, 300, 2000), range(3)):
            bounds = SearchBounds(max_cycle, random_cases)
            report = search_submixing_violation(mean, bounds, seed)
            assert report.verdict == "refuted"
            assert report.witness["pattern"] == {"prefix": [], "tail": [2, 3]}
            assert report.quantities["cases"] \
                == (TAILS.index((2, 3)) + 1) * n ** 2
            assert report.to_json() == _token_submixing_search(
                mean, bounds, seed).to_json()


@pytest.mark.parametrize("k", [2, 3, 5])
@pytest.mark.parametrize("max_cycle", [1, 2, 3, 4])
def test_cycle_positions_round_trip(max_cycle, k):
    # every cycle of 1..max_cycle letters sits at its place in the
    # exhaustive table, whose statistics row there is the cycle's, and
    # `_cycle_at` reads that place back as the cycle
    cycles = [c for n in range(1, max_cycle + 1)
              for c in itertools.product(range(k), repeat=n)]
    assert [_cycle_at(pos, k) for pos in range(len(cycles))] == cycles
    letters = payoff.letter_table(parity, [payoff.priority(p)
                                           for p in range(k)])
    st = _cycle_stats(letters, max_cycle)
    assert [(n, s, mx, mn) for n, s, mx, mn in zip(
        *(st[key].tolist() for key in ("L", "S", "MX", "MN")))] \
        == [(len(c), sum(c), max(c), min(c)) for c in cycles]


@pytest.mark.parametrize("k", [2, 3, 5])
def test_rotations_move_each_cycles_first_letter_to_its_end(k):
    rotated = verify._rotations(k, 4)
    for pos, target in enumerate(rotated.tolist()):
        cycle = _cycle_at(pos, k)
        assert _cycle_at(target, k) == cycle[1:] + cycle[:1], pos


def _walked(word):
    # a word and its first SHIFTS suffixes, in the shift search's order
    prefix, cycle = word
    yield word
    for _ in range(SHIFTS):
        if prefix:
            prefix = prefix[1:]
        else:
            cycle = cycle[1:] + cycle[:1]
        yield prefix, cycle


@pytest.mark.parametrize("max_cycle", [1, 2, 4])
def test_exhaustive_words_are_the_shift_search_words_in_order(monkeypatch,
                                                              max_cycle):
    # the per-word walk values prefixes of 0..2 letters, then cycles of
    # 1..min(max_cycle, 2) letters, each in `itertools.product` order, and
    # then, when seeded words are asked for, those: recorded off
    # `word_value`, which the search's memo calls once per distinct word,
    # on a payoff that values every word alike, so nothing is refuted
    spec = parse_payoff_spec("suffixtarget:ab")
    k = len(default_alphabet(spec))
    words = [(prefix, cycle) for plen in range(3)
             for clen in range(1, min(max_cycle, 2) + 1)
             for prefix in itertools.product(range(k), repeat=plen)
             for cycle in itertools.product(range(k), repeat=clen)]
    valued = list(dict.fromkeys(w for word in words for w in _walked(word)))
    real = payoff.word_value
    for random_cases in (0, 50):
        calls = []
        monkeypatch.setattr(verify, "word_value", lambda spec, letters, *pair:
                            calls.append(pair) or real(spec, letters, *pair))
        report = search_shift_invariance_violation(
            spec, SearchBounds(max_cycle, random_cases), seed=0)
        assert report.verdict == "confirmed"
        assert report.quantities["cases"] == len(words) + random_cases
        assert calls[:len(valued)] == valued, random_cases
        # the seeded words, with prefixes of 3 letters, come after them
        assert (len(calls) > len(valued)) == bool(random_cases)


@pytest.mark.parametrize("name", FAST_PAYOFFS)
def test_submixing_search_at_max_cycle(name):
    # the exhaustive grids alone at the largest max_cycle, 9 x 19,530^2
    # cells when confirmed, in a few MB
    spec = parse_payoff_spec(name)
    tracemalloc.start()
    try:
        report = search_submixing_violation(
            spec, SearchBounds(verify.MAX_CYCLE, random_cases=0), seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    if report.verdict == "confirmed":
        assert report.quantities["cases"] == 3_432_788_100
    else:
        assert report.verdict == "refuted" and not spec.is_submixing
        assert replay_submixing_witness(spec, report.witness)
    assert peak < 32 * 2 ** 20, peak


def test_grid_memory_stays_flat_past_a_million_cells():
    # 3,905 cycles at max_cycle 5: one int64 array over the whole grid is
    # 122 MB, and the value forms hold several at once
    tracemalloc.start()
    try:
        report = search_submixing_violation(
            mean, SearchBounds(max_cycle=5, random_cases=0), seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.verdict == "confirmed"
    assert report.quantities["cases"] == len(TAILS) * 3905 ** 2
    assert peak < 64 * 2 ** 20, peak


# -- the token-word searches, kept as oracles -------------------------------------
# The two searches as they were written over colour tokens: every seeded
# word and case is read as tokens off the library's drawn rows, by the
# columns the rows are documented to hold, the seeded cases' statistics are
# read off their own token cycles, and every shift word is evaluated
# through `evaluate_lasso` each time the check reads it.


def _token_case(row, alphabet, max_cycle):
    # u's word and v's word (max_prefix 2), then the number of prefix
    # block pairs, four prefix blocks and the two tail blocks
    width = max_cycle + 4
    u = _token_word(row[:width], alphabet, 2)
    v = _token_word(row[width:2 * width], alphabet, 2)
    pairs, *blocks = row[2 * width:]
    return u, v, ShufflePattern(tuple(blocks[:2 * pairs]), tuple(blocks[4:]))


def _token_cases(spec, bounds, seed):
    alphabet = default_alphabet(spec)
    rows = _drawn_rows(seed, _case_columns(len(alphabet), bounds.max_cycle),
                       bounds.random_cases)
    return [_token_case(row, alphabet, bounds.max_cycle) for row in rows]


def _exhaustive_cycles(alphabet, max_cycle):
    return [c for n in range(1, max_cycle + 1)
            for c in itertools.product(alphabet, repeat=n)]


def _token_cycle_stats(spec, cycles):
    # the cycles' statistics read off their own tokens, sharing no code
    # with the library's letter-table reader; a vector's sums are rows, one
    # per dimension, as `_fast_violations` reads them
    L = np.array([len(c) for c in cycles], dtype=np.int64)
    stats = {"L": L}
    kind = spec.colour_kind
    if kind in (payoff.REWARD, payoff.INCREMENT, payoff.PRIORITY,
                payoff.REWARD_BUCHI):
        buchi = kind == payoff.REWARD_BUCHI
        # a reward-Buchi token's value is its reward and its Buchi flag
        vals = [[int(t.value[0] if buchi else t.value) for t in c]
                for c in cycles]
        stats["S"] = np.array([sum(v) for v in vals], dtype=np.int64)
        stats["MX"] = np.array([max(v) for v in vals], dtype=np.int64)
        stats["MN"] = np.array([min(v) for v in vals], dtype=np.int64)
        if kind == payoff.INCREMENT:
            # round a cycle, the increments have a potential
            stats["P"] = np.ones(len(cycles), dtype=bool)
        if buchi:
            stats["B"] = np.array([any(t.value[1] for t in c)
                                   for c in cycles], dtype=bool)
    elif kind == payoff.VECTOR:
        stats["S"] = np.array(
            [[sum(int(t.value[d]) for t in c) for d in range(spec.dim)]
             for c in cycles], dtype=np.int64).reshape(len(cycles), spec.dim)
    return stats


def _token_submixing_search(spec, bounds, seed):
    # a class-determined payoff's whole grid of token cycles under every
    # tail, and no seeded case; any other payoff's cycles of 1-2 letters
    # under SEARCH_PATTERNS, then its seeded cases, one token check each
    alphabet = default_alphabet(spec)
    tails = TAILS if spec.is_class_determined else SEARCH_PATTERNS
    instance = {"spec": spec.format(), "seed": seed,
                "max_cycle": bounds.max_cycle,
                "patterns": list(tails),
                "random_cases": bounds.random_cases}
    cases = 0

    def refuted(witness):
        return verify.VerificationReport(
            "submixing", instance, "refuted", {"cases": cases},
            _submix_witness_doc(witness))

    if spec.is_class_determined:
        cycles = _exhaustive_cycles(alphabet, bounds.max_cycle)
        st = _token_cycle_stats(spec, cycles)
        for a, b in tails:
            viol = _violations(spec, *_whole_grid(st), a, b)
            cases += viol.size
            if viol.any():
                iu, iv = map(int, np.argwhere(viol)[0])
                return refuted(check_submixing(
                    spec, Lasso((), cycles[iu]), Lasso((), cycles[iv]),
                    ShufflePattern.alternating(a, b)))
    else:
        small = _exhaustive_cycles(alphabet, min(bounds.max_cycle, 2))
        for cu, cv in itertools.product(small, repeat=2):
            for a, b in tails:
                cases += 1
                witness = check_submixing(spec, Lasso((), cu), Lasso((), cv),
                                          ShufflePattern.alternating(a, b))
                if witness is not None:
                    return refuted(witness)
        for case in _token_cases(spec, bounds, seed):
            cases += 1
            witness = check_submixing(spec, *case)
            if witness is not None:
                return refuted(witness)
    return verify.VerificationReport(
        "submixing", instance, "confirmed", {"cases": cases})


def _token_shift_words(spec, bounds, seed):
    """The token search's words, in its order: prefixes of 0-2 letters
    times cycles of 1-2 letters, then the seeded words."""
    alphabet = default_alphabet(spec)
    exhaustive = (Lasso(pre, cyc) for plen in range(3)
                  for clen in range(1, min(bounds.max_cycle, 2) + 1)
                  for pre in itertools.product(alphabet, repeat=plen)
                  for cyc in itertools.product(alphabet, repeat=clen))
    rows = _drawn_rows(seed, _word_columns(len(alphabet), bounds.max_cycle, 3),
                       bounds.random_cases)
    seeded = (_token_word(row, alphabet, 3) for row in rows)
    return itertools.chain(exhaustive, seeded)


def _token_shift_search(spec, bounds, seed):
    # a class-determined payoff's every cycle of 1..max_cycle letters, in
    # `_cycle_stats` order, against its rotation by one letter; any other
    # payoff's words against their first SHIFTS suffixes.  A word is often
    # a suffix of an earlier word, so `evaluate_lasso` is memoized for the
    # search: each distinct word is valued on its tokens once, by the
    # evaluator in force when the search starts
    instance = {"spec": spec.format(), "seed": seed,
                "max_cycle": bounds.max_cycle, "shifts": SHIFTS,
                "random_cases": bounds.random_cases}
    if spec.is_class_determined:
        words = [Lasso((), c) for c in _exhaustive_cycles(
            default_alphabet(spec), bounds.max_cycle)]
        shifts = 1
    else:
        words, shifts = _token_shift_words(spec, bounds, seed), SHIFTS
    cases = 0
    with mock.patch.object(payoff, "evaluate_lasso",
                           functools.cache(payoff.evaluate_lasso)):
        for cases, word in enumerate(words, 1):
            w = check_shift_invariance(spec, word, shifts)
            if w is not None:
                return verify.VerificationReport(
                    "shift-invariance", instance, "refuted", {"cases": cases},
                    _shift_witness_doc(w))
    return verify.VerificationReport(
        "shift-invariance", instance, "confirmed", {"cases": cases})


def _suffixes(word, shifts):
    """The word and its first `shifts` suffixes: each drops the prefix's
    first letter or, past the prefix, rotates the cycle by one letter."""
    prefix, cycle = word.prefix, word.cycle
    yield word
    for _ in range(shifts):
        if prefix:
            prefix = prefix[1:]
        else:
            cycle = cycle[1:] + cycle[:1]
        yield Lasso(prefix, cycle)


SEARCHES = ((search_submixing_violation, _token_submixing_search),
            (search_shift_invariance_violation, _token_shift_search))
# one spec per catalog payoff, and each vector payoff in two dimensions
ORACLE_PAYOFFS = ("mean", "discounted", "parity", "limsup", "liminf", "posavg",
                  "counter+inf", "counter-inf", "genmean:2", "genmean:3",
                  "optgenmean:2", "meancobuchi:100", "suffixtarget:ab",
                  "geomfirstone")


@pytest.mark.parametrize("name", ORACLE_PAYOFFS)
def test_index_searches_match_the_token_searches(name):
    # without seeded cases the seed only names the run
    spec = parse_payoff_spec(name)
    for max_cycle in range(1, 5):
        for random_cases, seeds in ((0, (0,)), (300, (0, 1, 2)),
                                    (2000, (max_cycle,))):
            for seed in seeds:
                bounds = SearchBounds(max_cycle, random_cases)
                for search, oracle in SEARCHES:
                    assert search(spec, bounds, seed).to_json() == \
                        oracle(spec, bounds, seed).to_json(), \
                        (search.__name__, max_cycle, random_cases, seed)


# one shift-invariant payoff per colour kind, and the letter payoff, under
# a mutant that reads the cycle's first letter; a value form reads no
# prefix, so only the per-word walk meets `_prefix_counting`, whose
# class-determined cases `test_payoff`'s prefix test replaces
SHIFT_MUTANT_CASES = [
    (name, _rotation_sensitive) for name in (
        "mean", "parity", "counter+inf", "genmean:2", "meancobuchi:100",
        "suffixtarget:ab")] + [("suffixtarget:ab", _prefix_counting)]


@pytest.mark.parametrize("name, mutant", SHIFT_MUTANT_CASES)
def test_shift_search_refutes_a_shift_dependent_evaluator_as_the_token_search(
        monkeypatch, name, mutant):
    # the index valuer the per-word walk reads (through its memo), the value
    # form the cycle search reads and the evaluator the token search reads,
    # all broken the same way
    spec = parse_payoff_spec(name)
    monkeypatch.setattr(verify, "word_value",
                        _plus(payoff.word_value, INDEX_MUTANTS[mutant]))
    monkeypatch.setattr(verify, "limit_value", _first_letter_valued(
        payoff.limit_value, len(default_alphabet(spec))))
    monkeypatch.setattr(payoff, "evaluate_lasso",
                        mutant(payoff.evaluate_lasso, default_alphabet(spec)))
    for seed in range(3):
        bounds = SearchBounds(max_cycle=4, random_cases=300)
        report = search_shift_invariance_violation(spec, bounds, seed)
        assert report.verdict == "refuted"
        assert report.to_json() == _token_shift_search(spec, bounds,
                                                       seed).to_json()


def _counting(monkeypatch, module, name):
    real = getattr(module, name)
    words = []

    def counted(spec, *word):
        words.append(word)
        return real(spec, *word)

    monkeypatch.setattr(module, name, counted)
    return words


@pytest.mark.parametrize("name", ORACLE_PAYOFFS)
def test_shift_search_evaluates_each_distinct_word_once(monkeypatch, name):
    # a class-determined payoff's search values its cycles in arrays and
    # reads no word's value.  The per-word walk, which only discounted,
    # geomfirstone and suffixtarget take, values each distinct index word
    # once.  Only a refuted search spells a word, its witness, on tokens.
    # The token search values every distinct word it reads once each (its
    # memo): every cycle, or every word and suffix up to the first
    # difference, which are the index words, spelled
    spec = parse_payoff_spec(name)
    alphabet = default_alphabet(spec)
    index_words = _counting(monkeypatch, verify, "word_value")
    token_words = _counting(monkeypatch, payoff, "evaluate_lasso")
    report = search_shift_invariance_violation(spec, SearchBounds(), seed=7)
    pairs = [(prefix, cycle) for _, prefix, cycle in index_words]
    assert bool(pairs) == (not spec.is_class_determined)
    assert len(pairs) == len(set(pairs))
    assert report.verdict == ("refuted" if spec.name in (
        "discounted", "geomfirstone") else "confirmed")
    assert bool(token_words) == (report.verdict == "refuted")
    token_words.clear()
    assert report.to_json() == _token_shift_search(
        spec, SearchBounds(), seed=7).to_json()
    if report.verdict == "confirmed":
        k = len(alphabet)
        if spec.is_class_determined:
            # every cycle of 1-4 letters, whose rotations are among them
            words = {Lasso((), c) for c in _exhaustive_cycles(alphabet, 4)}
            cases = k + k ** 2 + k ** 3 + k ** 4
        else:
            # prefixes of 0-2 letters times cycles of 1-2 letters over the
            # k letters, then the 2,000 seeded words, and their suffixes
            words = {suffix for word in _token_shift_words(
                spec, SearchBounds(), 7) for suffix in _suffixes(word, SHIFTS)}
            cases = (1 + k + k * k) * (k + k * k) + 2000
        assert report.quantities["cases"] == cases
        valued = [word for word, in token_words]
        assert len(valued) == len(set(valued))
        assert set(valued) == words
    if pairs:
        assert {word for word, in token_words} \
            == {verify._spelled(alphabet, *pair) for pair in pairs}


@pytest.mark.parametrize("name", FAST_PAYOFFS)
def test_batch_word_values_match_word_value(name):
    # `word_value` and the letter-by-letter Fraction oracle stay the
    # references for the values the shift search reads off a batch of
    # cycles: the value form on the table's `_cycle_stats`, in lowest
    # terms, on every cycle of 1..MAX_CYCLE letters over the default
    # alphabet
    spec = parse_payoff_spec(name)
    alphabet = default_alphabet(spec)
    k = len(alphabet)
    letters = payoff.letter_table(spec, alphabet)
    cycles = [c for n in range(1, verify.MAX_CYCLE + 1)
              for c in itertools.product(range(k), repeat=n)]
    num, den = payoff.limit_value(
        spec, _cycle_stats(letters, verify.MAX_CYCLE), letters.den)
    g = np.gcd(num, den)
    num, den = num // g, np.broadcast_to(den // g, num.shape)
    assert num.dtype == den.dtype == np.int64
    assert len(num) == len(cycles)
    pairs = list(zip(num.tolist(), den.tolist()))
    assert pairs == [payoff.word_value(spec, letters, (), c) for c in cycles]
    assert [F(*pair) for pair in pairs] == [
        evaluate_lasso_oracle(spec, verify._spelled(alphabet, (), c))
        for c in cycles]


@pytest.mark.parametrize("penalty", [F(2 ** 62), F(10 ** 30), F(1, 10 ** 30),
                                     F(1, 2 ** 63)])
def test_block_shift_search_keeps_a_penalty_past_int64_exact(penalty):
    # a meancobuchi penalty past int64 leaves its cycles' values exact, as
    # Python ints in object arrays, and both searches give the token
    # searches' reports.  2**62 stays in int64, where the submixing search
    # reads its statistics as Python ints rather than let a product by a
    # cycle length wrap; 2**63, below 2**64, is one that numpy would
    # otherwise hold as uint64
    spec = payoff.PayoffSpec("meancobuchi", penalty=penalty)
    letters = payoff.letter_table(spec, default_alphabet(spec))
    num, den = payoff.limit_value(spec, _cycle_stats(letters, 2),
                                  letters.den)
    # cycle 2 of the default alphabet is its one Buchi letter
    assert (num[2], den[2]) == (-penalty.numerator, penalty.denominator)
    bounds = SearchBounds(max_cycle=3, random_cases=300)
    for search, oracle in SEARCHES:
        assert search(spec, bounds, 0).to_json() \
            == oracle(spec, bounds, 0).to_json(), search.__name__


@pytest.mark.parametrize("check", ["cleared", "tokens", "another shift"])
def test_batch_hit_without_a_witness_is_an_error(monkeypatch, check):
    # under a shift-dependent valuer, a flagged word that the token check
    # clears (patched to, or on unbroken tokens) or refutes at another
    # shift never reads as a report: on the cycle path (mean, its cycle
    # statistics broken) and on the per-word path (discounted and
    # geomfirstone, their index valuer broken), whose witness also comes
    # from the check
    monkeypatch.setattr(verify, "_cycle_stats",
                        _first_letter_summed(verify._cycle_stats))
    monkeypatch.setattr(verify, "word_value", _plus(
        payoff.word_value, INDEX_MUTANTS[_rotation_sensitive]))
    real = verify.check_shift_invariance
    if check == "cleared":
        monkeypatch.setattr(verify, "check_shift_invariance",
                            lambda *args: None)
    elif check == "another shift":
        monkeypatch.setattr(verify, "check_shift_invariance", lambda *args: (
            (w := real(*args)) and dataclasses.replace(w, shift=w.shift + 1)))
    for name in ("mean", "discounted", "geomfirstone"):
        spec = parse_payoff_spec(name)
        with monkeypatch.context() as tokens:
            if check == "another shift":
                # the token check refutes where the index search does
                tokens.setattr(payoff, "evaluate_lasso", _rotation_sensitive(
                    payoff.evaluate_lasso, default_alphabet(spec)))
            with pytest.raises(AssertionError, match="disagree"):
                search_shift_invariance_violation(spec, SearchBounds(),
                                                  seed=1)


@pytest.mark.parametrize("penalty", [2 ** 31, 2 ** 32, 2 ** 62 // 6,
                                     2 ** 62, 2 ** 63 - 1])
def test_fast_violations_on_int64_statistics_match_python_ints(monkeypatch,
                                                              penalty):
    # the table `_widened` makes of a grid's rows distinct in any statistic
    # is the one a search decides: each comparison `_fast_violations` makes
    # on it, the shuffle above u and above v, is decided on every cell under
    # every tail at max_cycle 1-4 as on the same statistics read as Python
    # ints, though a meancobuchi penalty times a cycle length passes int64.
    # Its bound on the cross-products multiplies the penalty by a shuffle's
    # denominator, never by itself, so it keeps int64 at 2^31 and 2^32 and
    # widens from 2^62 // 6 on
    real = verify._above
    halves = []
    monkeypatch.setattr(verify, "_above", lambda *args: halves.append(
        real(*args)) or halves[-1])
    spec = payoff.PayoffSpec("meancobuchi", penalty=F(penalty))
    letters = payoff.letter_table(spec, default_alphabet(spec))
    tables = []
    for max_cycle in range(1, 5):
        st = _cycle_stats(letters, max_cycle)
        rows = np.column_stack(list(st.values()))
        first = np.unique(rows, axis=0, return_index=True)[1]
        narrow = {key: x[first] for key, x in st.items()}
        wide = {key: x if x.dtype == bool else x.astype(object)
                for key, x in narrow.items()}
        table = verify._widened(spec, narrow)
        for a, b in TAILS:
            for stats in (table, wide):
                _violations(spec, *_whole_grid(stats), a, b)
            decided, python = halves[-4:-2], halves[-2:]
            wrong = [int((x != y).sum()) for x, y in zip(decided, python)]
            assert wrong == [0, 0], (max_cycle, a, b, wrong)
        tables.append((table, narrow if penalty <= 2 ** 32 else wide))
    for table, want in tables:
        assert [(x.dtype, x.tolist()) for x in table.values()] \
            == [(x.dtype, x.tolist()) for x in want.values()]


@pytest.mark.parametrize("name", FAST_PAYOFFS + (f"meancobuchi:{2 ** 63}",))
def test_a_submixing_search_widens_its_table_once(monkeypatch, name):
    # the int64-or-exact question is decided once per class-determined
    # submixing search, on its keyed distinct rows, never per grid
    real = verify._widened
    calls = []
    monkeypatch.setattr(verify, "_widened", lambda spec, st: calls.append(
        sorted(st)) or real(spec, st))
    spec = parse_payoff_spec(name)
    search_submixing_violation(spec, SearchBounds(), seed=0)
    st = _cycle_stats(payoff.letter_table(spec, default_alphabet(spec)), 4)
    assert calls == [sorted(verify._form_reads(spec, st))]


def _default_words(k):
    # every index word with a prefix of 0-2 letters and a cycle of 1-4
    # letters over k letters
    for plen in range(3):
        for clen in range(1, 5):
            for prefix in itertools.product(range(k), repeat=plen):
                for cycle in itertools.product(range(k), repeat=clen):
                    yield prefix, cycle


@pytest.mark.parametrize("name", ORACLE_PAYOFFS)
def test_word_values_over_the_alphabet_table_match_evaluate_lasso(name):
    # the search's index valuer over the default alphabet's table, against
    # `evaluate_lasso` of the spelled lasso over its own letters' table
    spec = parse_payoff_spec(name)
    alphabet = default_alphabet(spec)
    letters = payoff.letter_table(spec, alphabet)
    for prefix, cycle in _default_words(len(alphabet)):
        value = evaluate_lasso(spec, verify._spelled(alphabet, prefix, cycle))
        assert payoff.word_value(spec, letters, prefix, cycle) == \
            (value.numerator, value.denominator), (prefix, cycle)


@pytest.mark.parametrize("name", FAST_PAYOFFS)
def test_only_the_pattern_free_closed_forms_ignore_the_pattern(name):
    # limsup, liminf and parity read no pattern: every tail gives them the
    # same grid, so a search's first hit is under the first tail; a word
    # form that reads the shuffle's L or S fails with no pattern at all
    spec = parse_payoff_spec(name)
    st = _cycle_stats(payoff.letter_table(spec, default_alphabet(spec)), 2)
    if spec.name in ("limsup", "liminf", "parity"):
        col = {key: x[:, None] for key, x in st.items()}
        row = {key: x[None, :] for key, x in st.items()}
        grids = [_violations(spec, col, row, *p) for p in TAILS]
        assert all((grid == grids[0]).all() for grid in grids)
        _violations(spec, st, st, None, None)
    else:
        with pytest.raises(TypeError):
            _violations(spec, st, st, None, None)


@pytest.mark.parametrize("name", ["limsup", "liminf", "parity", "mean",
                                  "posavg"])
def test_every_submixing_grid_and_seeded_block_is_decided_once(monkeypatch,
                                                               name):
    # one grid pass per tail, in order, whether or not the value form reads
    # the tail, and no seeded case drawn; every pass reads the same values
    # of the two words, valued once for the search
    spec = parse_payoff_spec(name)
    real = verify._fast_violations
    tails, values = [], []

    def counted(spec, su, sv, fu, fv, a, b):
        tails.append((a, b))
        values.append((fu, fv))
        return real(spec, su, sv, fu, fv, a, b)

    monkeypatch.setattr(verify, "_fast_violations", counted)
    monkeypatch.setattr(verify, "_drawn_blocks", None)
    report = search_submixing_violation(spec, SearchBounds(), seed=0)
    assert (report.verdict, report.quantities["cases"]) \
        == ("confirmed", len(TAILS) * 780 ** 2)
    assert tails == list(TAILS)
    fu, fv = values[0]
    assert all(pair[0] is fu and pair[1] is fv for pair in values)


def test_fast_submixing_search_spells_only_its_witness(monkeypatch):
    # a confirmed search builds no Lasso or ShufflePattern at all; a
    # refuted one builds its flagged case's two lassos and pattern
    def forbidden(*args):
        raise AssertionError("a seeded case was spelled")

    with monkeypatch.context() as patched:
        patched.setattr(verify, "Lasso", forbidden)
        patched.setattr(verify, "ShufflePattern", forbidden)
        report = search_submixing_violation(mean, SearchBounds(), seed=0)
    assert (report.verdict, report.quantities["cases"]) \
        == ("confirmed", len(TAILS) * 780 ** 2)
    built = collections.Counter()

    def counted(make):
        def build(*args):
            built[make.__name__] += 1
            return make(*args)
        return build

    monkeypatch.setattr(verify, "Lasso", counted(Lasso))
    monkeypatch.setattr(verify, "ShufflePattern", types.SimpleNamespace(
        alternating=counted(ShufflePattern.alternating)))
    report = search_submixing_violation(parse_payoff_spec("genmean:2"),
                                        SearchBounds(), seed=0)
    assert report.verdict == "refuted" and report.quantities["cases"] > 1
    assert built == {"Lasso": 2, "alternating": 1}


# -- subgame perfection ------------------------------------------------------------

def test_subgame_optimal_base_trivially_confirmed():
    arena = random_arena(4, 3, seed=6)
    vv = solve.brute_force_value(arena, mean)
    report = verify_subgame_perfect(arena, mean, vv.sigma_star, F(1, 8))
    assert report.verdict == "confirmed"
    assert report.quantities["base_meets_threshold"]
    assert report.quantities["weak_pairs"] == []


def test_subgame_crafted_fixture():
    arena, sigma, eps = build_weak_memory_fixture()
    report = verify_subgame_perfect(arena, mean, sigma, eps)
    assert report.verdict == "confirmed"
    assert not report.quantities["base_meets_threshold"]
    assert report.quantities["base_epsilon_optimal"]
    assert report.quantities["base_locally_optimal"]
    assert report.quantities["weak_pairs"] == ["m1|s"]


def test_subgame_suboptimal_base_reports_honestly():
    # a strictly suboptimal base (guarantee 0 at s, value 1) at epsilon 1/8:
    # the reset cannot help because the fresh row itself is weak; the report
    # surfaces the failed precondition instead of a confirmed verdict
    e2 = build_e2()
    sigma = PureStationaryStrategy(P1, {"s": "stay", "t": "loop"})
    report = verify_subgame_perfect(e2, mean, sigma, F(1, 8))
    assert report.verdict == "refuted"
    assert not report.quantities["base_epsilon_optimal"]


def _reachable_pairs_oracle(arena, strategy):
    """The (memory, state) pairs reachable from every state at the initial
    memory, by the breadth-first walk `verify` ran before it read the
    strategy's product: the strategy's owner plays its law, the opponent
    anything."""
    todo = [(strategy.initial, s) for s in arena.states]
    seen = set(todo)
    while todo:
        m, s = todo.pop()
        if arena.owner[s] == strategy.player:
            actions = [a for a, w in strategy.action_dist(m, s).items() if w > 0]
        else:
            actions = list(arena.available[s])
        for a in actions:
            for t, p in arena.transition[(s, a)].items():
                nxt = (strategy.next_memory(m, s, a, t), t)
                if p != 0 and nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
    return seen


def test_reachable_pairs_are_the_product_nodes_the_walk_finds():
    # random 1- to 3-memory strategies; sparse arenas at density 0 leave
    # some pairs unreached, so the walk's seeding is tested too
    unreached = 0
    for seed in range(0, 60, 4):
        rng = random.Random(seed)
        arena = random_arena(4, 3, seed=seed,
                             density=(F(0), F(1, 2))[seed % 2])
        for memories in (1, 2, 3):
            sigma = _random_memory_strategy(arena, rng, memories)
            reach = verify._reachable_pairs(arena, sigma)
            assert reach == _reachable_pairs_oracle(arena, sigma)
            unreached += len(arena.states) * memories - len(reach)
    assert unreached


@pytest.mark.parametrize("epsilon", [F(0), F(-1), F(-1, 4)])
def test_subgame_rejects_an_epsilon_that_is_not_positive(epsilon, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("values computed before epsilon was checked")

    monkeypatch.setattr(solve, "brute_force_value", no_work)
    with pytest.raises(ValueError, match=f"epsilon must be > 0, not {epsilon}$"):
        verify_subgame_perfect(
            build_e2(), mean,
            PureStationaryStrategy(P1, {"s": "go", "t": "loop"}), epsilon)


def test_weakened_base_generator_contract():
    for seed in (1001, 1002, 1003):
        arena = random_arena(4, 3, seed=seed)
        vv = solve.brute_force_value(arena, mean)
        cls = solve.classify_actions(arena, vv)
        eps = F(1, 8)
        base = weakened_base(arena, mean, vv, cls, eps, random.Random(seed))
        assert solve.locally_optimal(arena, cls, base) is None
        from stochgame.solve import product_values
        pv = product_values(arena, mean, base)
        for s in arena.states:
            assert pv[("m0", s)] >= vv.values[s] - eps


# -- sub-arena split inequality ------------------------------------------------------

@pytest.mark.parametrize("name, kind", [
    ("mean", "reward"), ("limsup", "reward"), ("liminf", "reward"),
    ("parity", "priority"), ("discounted", "discounted")],
    ids=["mean", "limsup", "liminf", "parity", "discounted"])
def test_value_bounded_by_split_maximum(name, kind):
    # splitting a maximizer state's actions into two sub-games: the value is
    # the larger of the two sub-game values at every state, and one side
    # keeps the whole value vector (the one holding sigma*'s pivot action)
    spec = parse_payoff_spec(name)
    checked = 0
    for seed in range(40):
        arena = random_arena(4, 3, seed=seed, kind=kind)
        pivots = [s for s in arena.player_states(P1)
                  if len(arena.available[s]) >= 2]
        if not pivots:
            continue
        pivot = pivots[0]
        actions = arena.available[pivot]
        val = solve.brute_force_value(arena, spec).values
        sides = [solve.brute_force_value(restrict(arena, pivot, side), spec).values
                 for side in (actions[:1], actions[1:])]
        for s in arena.states:
            assert val[s] == max(side[s] for side in sides), (seed, s)
        assert val in sides, seed
        checked += 1
    assert checked >= 10


# -- counter-example -----------------------------------------------------------------

def test_counterexample_triple_and_determinism():
    started = time.perf_counter()
    report = reproduce_counterexample()
    assert time.perf_counter() - started < 1.0
    assert report.verdict == "confirmed"
    assert report.quantities["payoffs"] == {
        "stationary_1": 0, "stationary_2": 0, "alternating": 1}
    assert report.to_json() == reproduce_counterexample().to_json()


def test_counterexample_run_length_tables():
    report = reproduce_counterexample()
    alt = report.quantities["alternating"]
    assert alt["run_lengths"][:4] == [1, 3, 4, 6]
    assert alt["reachable_mod3"] == [0, 1]
    assert report.quantities["stationary_1"]["letters_per_visit"] == 1
    assert report.quantities["stationary_2"]["letters_per_visit"] == 2
    assert report.quantities["stationary_1"]["forced_runs"][:3] == [2, 4, 6]


# -- doob suite ------------------------------------------------------------------------

def test_doob_suite_confirms():
    for seed in (3, 11):
        arena = random_arena(4, 3, seed=seed)
        report = doob_suite(arena, mean, trials=4000, seed=seed)
        assert report.verdict == "confirmed", report.quantities
        assert report.quantities["checks"]["horizon_zero_exact"]


def test_doob_suite_confirms_at_few_trials():
    # At seed 1127 the (sigma, tau_adv) chain stays transient for long: a
    # play can still change value after step 100, yet no value-changing
    # pair lies in a bottom class, so value changes stop almost surely.
    for seed in range(1110, 1140):
        kind, spec = (("reward", mean), ("priority", parity))[seed % 2]
        arena = random_arena(4, 3, seed=seed, kind=kind, density=F(1, 5))
        report = doob_suite(arena, spec, trials=20, seed=seed)
        assert report.verdict == "confirmed", (seed, report.quantities)
        assert report.quantities["value_changing_recurrent"] == []


@pytest.mark.parametrize("trials", [0, -3])
def test_doob_suite_rejects_trials_below_one(monkeypatch, trials):
    def no_work(*args, **kwargs):
        raise AssertionError("doob_suite started work on a bad trial count")
    monkeypatch.setattr(solve, "GridSolver", no_work)
    monkeypatch.setattr(solve, "brute_force_value", no_work)
    with pytest.raises(ValueError, match=f"trials must be >= 1, not {trials}$"):
        doob_suite(random_arena(3, 2, seed=4), mean, trials=trials, seed=0)


def test_value_changing_recurrent_names_the_pairs_in_a_bottom_class():
    # s (minimizer) may stay at 0 or go to t, where the maximizer may loop
    # at 5 or come back: v(s) = 0, v(t) = 5.  Under go/back both actions are
    # value-changing and {s, t} is the bottom class.
    arena = Arena(
        states=("s", "t"), owner={"s": P2, "t": P1},
        available={"s": ("stay", "go"), "t": ("back", "loop")},
        transition={("s", "stay"): {"s": F(1)}, ("s", "go"): {"t": F(1)},
                    ("t", "back"): {"s": F(1)}, ("t", "loop"): {"t": F(1)}},
        colour={("s", "stay"): reward(0), ("s", "go"): reward(0),
                ("t", "back"): reward(0), ("t", "loop"): reward(5)})
    values = solve.brute_force_value(arena, mean)
    cls = solve.classify_actions(arena, values)
    go = PureStationaryStrategy(P2, {"s": "go"})
    back = PureStationaryStrategy(P1, {"t": "back"})
    loop = PureStationaryStrategy(P1, {"t": "loop"})
    chain_back, chain_loop = (
        induce_chain(arena, sigma, go, [("s", sigma.initial, go.initial)])
        for sigma in (back, loop))
    assert _value_changing_recurrent(cls, chain_back) == [
        ("s", "go"), ("t", "back")]
    assert _value_changing_recurrent(cls, chain_loop) == []


def test_doob_suite_builds_each_chain_from_the_source_once(monkeypatch):
    # the (sigma, tau) and (sigma, tau_adv) chains, each seeded at the first
    # state alone, are built once and read by every stopped-value check
    induce = induce_chain
    seeds = []

    def counting(arena, sigma, tau, *rest):
        seeds.append(rest[0] if rest else None)
        return induce(arena, sigma, tau, *rest)

    bound = [module for name, module in sorted(sys.modules.items())
             if name.split(".")[0] == "stochgame"
             and getattr(module, "induce_chain", None) is induce]
    assert verify in bound and solve in bound
    for module in bound:
        monkeypatch.setattr(module, "induce_chain", counting)
    for seed, (kind, spec) in enumerate([("reward", mean), ("priority", parity),
                                         ("reward", mean)]):
        arena = random_arena(4, 3, seed=seed, kind=kind, density=F(1, 5))
        doob_suite(arena, spec, trials=20, seed=seed)
        assert seeds == [[(arena.states[0], "m0", "m0")]] * 2
        seeds.clear()


def test_doob_suite_finds_each_chains_bottom_classes_once(monkeypatch):
    # the first-hit stop set, the stopped-value checks and the recurrent
    # value changes all read the two chains' classes from one graph pass
    # each; the grid's chains, which `induce_chain` does not build, are
    # not counted
    real_induce, real_classes = induce_chain, bottom_classes
    built, passes = [], []

    def inducing(*args):
        built.append(real_induce(*args))
        return built[-1]

    def finding(chain):
        passes.append(chain)
        return real_classes(chain)

    for name, module in sorted(sys.modules.items()):
        if name.split(".")[0] == "stochgame":
            if getattr(module, "induce_chain", None) is real_induce:
                monkeypatch.setattr(module, "induce_chain", inducing)
            if getattr(module, "bottom_classes", None) is real_classes:
                monkeypatch.setattr(module, "bottom_classes", finding)
    assert chain_module.bottom_classes is finding
    for seed, (kind, spec) in enumerate([("reward", mean), ("priority", parity),
                                         ("reward", mean)]):
        arena = random_arena(4, 3, seed=seed, kind=kind, density=F(1, 5))
        doob_suite(arena, spec, trials=20, seed=seed)
        assert len(built) == 2
        assert [sum(p is chain for p in passes) for chain in built] == [1, 1]
        built.clear()
        passes.clear()


def _all_states_class_states(arena, sigma, tau) -> frozenset:
    """The states on the bottom-class nodes of the pair's chain from every
    state: the first-hit stop set read before the stopped-value checks took
    the chain from the source alone."""
    chain = induce_chain(arena, sigma, tau)
    return frozenset(chain.state_of(node)
                     for cls in bottom_classes(chain) for node in cls)


@pytest.mark.parametrize("kind, spec", [("reward", mean), ("priority", parity)])
@pytest.mark.parametrize("density", [F(1, 2), F(1, 5)])
def test_first_hit_stop_set_agrees_with_the_all_states_chain(kind, spec,
                                                             density):
    # for a pure stationary pair the states reachable from the source are
    # closed under successors, so the source chain's bottom classes are the
    # all-states classes it reaches
    for seed in range(50):
        arena = random_arena(4, 3, seed=seed, kind=kind, density=density)
        values = solve.brute_force_value(arena, spec)
        cls = solve.classify_actions(arena, values)
        rng = random.Random(seed)
        sigma = _sample_locally_optimal(arena, cls, P1, rng)
        tau = _sample_locally_optimal(arena, cls, P2, rng)
        source = arena.states[0]
        chain = induce_chain(arena, sigma, tau,
                             [(source, sigma.initial, tau.initial)])
        old = _all_states_class_states(arena, sigma, tau)
        reachable = {chain.state_of(i) for i in range(len(chain))}
        assert old & reachable == _class_states(chain)
        assert solve.stopped_value_exact(chain, values, ("first_hit", old)) \
            == solve.stopped_value_exact(
                chain, values, ("first_hit", _class_states(chain)))


# -- report plumbing ---------------------------------------------------------------------

def test_structured_report_omits_wall_clock():
    # the library holds no timer: the command line times its calls
    doc = json.loads(reproduce_counterexample().to_json())
    assert sorted(doc) == ["claim", "instance", "quantities", "verdict",
                           "witness"]
