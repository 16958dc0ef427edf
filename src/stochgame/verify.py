"""The theorem harness: half-positionality checks, submixing and
shift-invariance refutation searches, reset-strategy threshold checks, the
stopped-value suites, and the exact reproduction of the four-state
letter-game counter-example.

Searches are refuters: a refuted report always embeds a witness that
replays.  Both searches decide index words over one letter table.  A
class-determined payoff is valued by its value form (`payoff.limit_value`)
on integer cycle statistics: the shift-invariance search values every
cycle once and compares it with its rotation, and the submixing search
keys the cycles by a dict on the statistics the form reads, values each
distinct row once, and asks of every pair of rows, under every tail,
whether their shuffle beats both.  Other payoffs value index words one at
a time, through a memo of `word_value`, a discounted word in integers.
Each search spells only its first flagged case, and its witness comes from
the token check (`check_submixing`, `check_shift_invariance`), which must
agree with the index verdict.
Verdicts on the half-positional-only payoffs are budget-qualified: the
minimizer's responses range over a bounded class that is recorded in the
report.  Each memory candidate is decided against the stationary floor,
the best stationary guarantee, which the grid's one reduction
(`solve.GridSolver.reduce`) gives with the column that attains it at every
state: first on its one chain against that column, which holds it there
wherever the maximizer's best reply to a stationary strategy is
stationary, and only otherwise on its responses, enumerated until every
state is held to the floor.  So a candidate's guarantee is computed
exactly only where it beats the floor.  A candidate that beats the floor
refutes only where that response class is exact for the payoff
(`PayoffSpec.min_responses_exact`); elsewhere the verdict is inconclusive.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from . import solve
from .arena import P1, P2, Arena
from .chain import InducedChain, induce_chain, product_skeleton
from .fixtures import build_fig1, fig1_alternating_strategy
from .payoff import (
    INCREMENT, PRIORITY, REWARD, REWARD_BUCHI, VECTOR,
    ColourToken, Lasso, LetterTable, PayoffSpec, ShufflePattern,
    check_shift_invariance, check_submixing, colour_from_json, colour_to_json,
    discounted, increment, letter, letter_table, limit_value, priority,
    reward, reward_buchi, shuffle, vector, word_value,
)
from .strategy import (
    FiniteMemoryStrategy, PureStationaryStrategy, reset_strategy,
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

    def to_json(self) -> str:
        doc = {
            "claim": self.claim,
            "instance": self.instance,
            "verdict": self.verdict,
            "quantities": self.quantities,
            "witness": self.witness,
        }
        return json.dumps(doc, indent=1, sort_keys=True, default=str)


# ---------------------------------------------------------------------------
# Half-positionality

# The minimizer responses a bounded half-positionality sweep enumerates.
RESPONSE_CLASS = "deterministic stationary on the memory product"


def verify_halfpos(arena: Arena, spec: PayoffSpec,
                   budget: int = solve.DEFAULT_BUDGET,
                   memory_bound: int = 2, candidates: int = 12,
                   seed: int = 0) -> VerificationReport:
    """Check that a deterministic stationary strategy of the maximizer is
    unbeatable on this arena.

    Positional payoffs get the exact grid saddle point plus a
    re-verification of the certified strategy by the response fold on its
    own product (`solve.product_values`), not by the grid that certified
    it.  Half-positional-only payoffs
    get a bounded refutation sweep: seeded finite-memory candidates (up to
    `memory_bound` memories) try to beat the best stationary guarantee, the
    floor, against stationary responses on their memory products.  Each
    candidate is decided against the floor (`solve.guarantee_exceeds`),
    first on its pair chain with the grid's first column that attains the
    floor at every state, read with the floor and `best_stationary` (the
    first row attaining it everywhere, or null) off the grid's one
    reduction (`solve.GridSolver.reduce`).  Against that
    stationary reply the maximizer faces a decision process, where for
    these payoffs a stationary response is optimal (Gimbert 2007), so the
    column's maximum, the floor, bounds every candidate and one table
    decides it.  Where the column does not hold every state, or no column
    attains the floor, the candidate's responses are enumerated, the
    column's first, until every state is held to the floor, so its
    guarantee is exact only at the states where it beats the floor.  The
    first candidate that beats it somewhere is reported as the witness,
    with those exact guarantees, where the payoff's stationary responses are
    exact (`min_responses_exact`); elsewhere the report is inconclusive,
    with the response class and the beaten values and no witness.
    `quantities["stats"]` counts the response tables evaluated, one per
    candidate the column holds, and the tables the full enumeration would
    evaluate.
    `memory_bound` and `candidates` must be at least 1 (`ValueError`).
    """
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
            return VerificationReport(
                "halfpos", instance, "inconclusive",
                {"reason": str(e)})
        guaranteed = {s: v for (_, s), v in solve.product_values(
            arena, spec, values.sigma_star, budget).items()}
        bad = {s: (guaranteed[s], values.values[s])
               for s in arena.states if guaranteed[s] != values.values[s]}
        if bad:
            return VerificationReport(
                "halfpos", instance, "refuted",
                witness={"states": {s: list(map(str, v)) for s, v in bad.items()},
                         "sigma": values.sigma_star.choice})
        return VerificationReport(
            "halfpos", instance, "confirmed",
            {"values": {s: str(values.values[s]) for s in arena.states},
             "sigma_star": values.sigma_star.choice,
             "exact": True})

    # Bounded sweep for the half-positional-only payoffs.
    instance["memory_bound"] = memory_bound
    instance["candidates"] = candidates
    rng = random.Random(seed)
    try:
        grid = solve.GridSolver(arena, budget)
        maxmin, _, row, _, column = grid.reduce(spec)
        v_plus = dict(zip(arena.states, itertools.starmap(Fraction, maxmin)))
        tau = None if column is None else grid.strategy(P2, column)
        stats = {"response_tables": 0, "response_tables_full": 0}
        for _ in range(candidates):
            cand = _random_memory_strategy(arena, rng, memory_bound)
            check = solve.guarantee_exceeds(
                arena, spec, cand,
                {(cand.initial, s): v_plus[s] for s in arena.states}, budget,
                tau)
            stats["response_tables"] += check.tables
            stats["response_tables_full"] += check.total
            if check.above:
                beaten = {s: [str(v), str(v_plus[s])]
                          for (_, s), v in check.above.items()}
                if not spec.min_responses_exact:
                    return VerificationReport(
                        "halfpos", instance, "inconclusive",
                        {"reason": "a candidate beats the floor; "
                                   f"{spec.format()} is not flagged "
                                   "min_responses_exact",
                         "response_class": RESPONSE_CLASS,
                         "values": beaten, "stats": stats})
                return VerificationReport(
                    "halfpos", instance, "refuted", {"stats": stats},
                    witness={"strategy": cand.to_json(), "values": beaten})
    except solve.BudgetError as e:
        return VerificationReport(
            "halfpos", instance, "inconclusive", {"reason": str(e)})
    return VerificationReport(
        "halfpos", instance, "confirmed",
        {"stationary_values": {s: str(v_plus[s]) for s in arena.states},
         "best_stationary": (None if row is None
                             else grid.strategy(P1, row).choice),
         "candidates_swept": candidates,
         "response_class": RESPONSE_CLASS,
         "stats": stats,
         "exact": False})


# The weight of a pure law's one action, shared by every law the sweep draws.
_SURE = Fraction(1)


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
            choices[(m, s)] = {rng.choice(arena.available[s]): _SURE}
    return FiniteMemoryStrategy(P1, mems, mems[0], update, choices)


# ---------------------------------------------------------------------------
# Submixing / shift-invariance searches


# The (u, v) block lengths of the alternating shuffles the submixing search
# tries on the exhaustive cases of a payoff that is not class-determined.
SEARCH_PATTERNS = ((1, 1), (1, 2), (2, 1), (2, 2))
# Every tail (a, b) of 1..TAIL_MAX letters each, which a seeded submixing
# case draws (`_case_columns`), SEARCH_PATTERNS first.
TAIL_MAX = 3
TAILS = SEARCH_PATTERNS + tuple(
    tail for tail in itertools.product(range(1, TAIL_MAX + 1), repeat=2)
    if tail not in SEARCH_PATTERNS)
# The suffixes per word the shift-invariance search compares.
SHIFTS = 6
# The largest max_cycle: 19,530 cycles at 6, of at most 461 distinct rows.
MAX_CYCLE = 6


@dataclass(frozen=True)
class SearchBounds:
    """Sizes of the refutation searches, checked when constructed: cycles of
    1..max_cycle letters, for max_cycle <= MAX_CYCLE, and random_cases >= 0
    seeded cases, which only the per-word searches draw."""

    max_cycle: int = 4
    random_cases: int = 2000

    def __post_init__(self):
        n, cases = self.max_cycle, self.random_cases
        if not 1 <= n <= MAX_CYCLE:
            raise ValueError(f"max_cycle must be in 1..{MAX_CYCLE}, not {n}")
        if cases < 0:
            raise ValueError(f"random_cases must be >= 0, not {cases}")


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


# The seeded words and cases of the per-word searches are drawn and
# decided this many at a time; a search stops at the first block holding a
# violation.  A block keeps its drawn rows alive, so its size bounds the
# memory of any random_cases.  It does not change the rows (`_drawn_blocks`).
_CASE_BLOCK = 1024


def _cycle_stats(letters: LetterTable, max_cycle: int) -> dict:
    """The `payoff.limit_value` statistics of every cycle of 1..max_cycle
    letters over the table, in `_cycle_at` order: L, S, MX and MN as
    int64 arrays, with a trailing dimension axis for a vector table, and B
    over a reward-Buchi table or P, always true, over an increment table,
    as bool arrays."""
    nums = np.array(letters.nums, dtype=np.int64)
    kind = letters.letters[0].kind
    flags = np.array([tok.value[1] for tok in letters.letters]) \
        if kind == REWARD_BUCHI else None
    parts = []
    for n in range(1, max_cycle + 1):
        # every cycle of n letters, in `itertools.product` order
        at = np.indices((len(nums),) * n).reshape(n, -1).T
        vals = nums[at]
        parts.append({"L": np.full(len(vals), n), "S": vals.sum(1),
                      "MX": vals.max(1), "MN": vals.min(1)})
        if flags is not None:
            parts[-1]["B"] = flags[at].any(1)
        elif kind == INCREMENT:
            parts[-1]["P"] = np.ones(len(vals), dtype=bool)
    return {key: np.concatenate([part[key] for part in parts])
            for key in parts[0]}


# How a shuffle's extreme, Buchi and potential statistics join its words'.
_JOINS = {"MX": np.maximum, "MN": np.minimum, "B": np.logical_or,
          "P": np.logical_and}


class _Shuffled:
    """The `_cycle_stats` of a cycle with the value of the shuffles of u's
    and v's cycles under one tail, a letters of u for every b of v: a·Lv
    copies of u's cycle and b·Lu of v's, so L = (a+b)·Lu·Lv, S = a·Su·Lv
    + b·Sv·Lu, MX = max(MXu, MXv), MN = min(MNu, MNv), B = Bu or Bv and
    P = Pu and Pv, each built when it is read.  Its products are taken as
    they are: on tables that `_widened` let through, none wraps."""

    def __init__(self, su: dict, sv: dict, a: int, b: int):
        self.su, self.sv, self.a, self.b = su, sv, a, b

    def __getitem__(self, key: str) -> np.ndarray:
        su, sv, a, b = self.su, self.sv, self.a, self.b
        if key in _JOINS:
            return _JOINS[key](su[key], sv[key])
        Lu, Lv = su["L"], sv["L"]
        if key == "L":
            return (a + b) * Lu * Lv
        Su, Sv = su["S"], sv["S"]
        if Su.ndim == Lu.ndim:
            return a * Su * Lv + b * Sv * Lu
        # a vector's one dimension at a time, in a dimension-first array
        S = np.empty(Su.shape[-1:] + np.broadcast_shapes(Lu.shape, Lv.shape),
                     Su.dtype)
        for d, out in enumerate(S):
            np.add(a * Su[..., d] * Lv, b * Sv[..., d] * Lu, out=out)
        return np.moveaxis(S, 0, -1)


def _extent(*xs) -> int:
    """The largest magnitude in the ints and arrays xs, as a Python int."""
    flat = np.concatenate([np.ravel(x) for x in xs])
    return max(int(flat.max(initial=0)), -int(flat.min(initial=0)))


def _widened(spec: PayoffSpec, st: dict) -> dict:
    """The statistics `st` of a submixing grid's rows as they are, if no
    product the grid takes under any tail can reach 2^63, else with every
    non-bool column read as Python ints, in object arrays, on which nothing
    wraps.  For e the largest of TAIL_MAX and the statistics in magnitude,
    a shuffle's statistics are at most 2·e^3.  Over denominator 1 each
    number of a form's pair keeps its place: a numerator is a statistic,
    0 or 1, or a numerator the form also gives a word (meancobuchi's
    penalty's), and so is a denominator.  So for n the largest numerator
    and d the largest denominator of the words' value pairs, `_above`'s
    cross-products, a numerator times a denominator, are at most
    max(2·e^3, n)·max(2·e^3, d)."""
    e = _extent(TAIL_MAX, *(x for x in st.values() if x.dtype != bool))
    shuffled = 2 * e ** 3
    n, d = map(_extent, limit_value(spec, st, 1))
    if max(shuffled, n) * max(shuffled, d) < 2 ** 63:
        return st
    return {key: x if x.dtype == bool else x.astype(object)
            for key, x in st.items()}


def _fast_violations(spec: PayoffSpec, su: dict, sv: dict, fu: tuple,
                     fv: tuple, a, b) -> np.ndarray:
    """Does the shuffle of u's and v's cycles, taking a letters of u for
    every b of v, beat both components?  The payoff's value form
    (`payoff.limit_value`) values the shuffle on its `_Shuffled`
    statistics, over denominator 1, against fu and fv, the words' values
    under the same form, which depend on no tail, so a search reads them
    once.  The default alphabets' tables have denominator 1, so
    meancobuchi's penalty meets the true means.  It multiplies unchecked,
    on statistics a search passed through `_widened`."""
    w = limit_value(spec, _Shuffled(su, sv, a, b), 1)
    return _above(w, fu) & _above(w, fv)


def _above(x: tuple, y: tuple) -> np.ndarray:
    """Is x above y, two (numerator, positive denominator) pairs?  Over one
    int denominator the numerators are compared, else cross-multiplied."""
    (nx, dx), (ny, dy) = x, y
    if isinstance(dx, int) and dx == dy:
        return nx > ny
    return nx * dy > ny * dx


class _Reads(dict):
    """Statistics that record in `read` the keys read from them."""

    read = frozenset()

    def __getitem__(self, key: str):
        self.read |= {key}
        return super().__getitem__(key)


def _form_reads(spec: PayoffSpec, st: dict) -> list:
    """The keys of `st` that the payoff's value form reads, run on them as
    a word's statistics and through `_Shuffled` as a shuffle's: all that a
    submixing cell reads of its two cycles.  On arrays a form reads both
    sides of each branch (`payoff._where`)."""
    st = _Reads(st)
    limit_value(spec, st, 1)
    limit_value(spec, _Shuffled(st, st, 1, 1), 1)
    return [key for key in st if key in st.read]


def _cycle_at(pos: int, k: int) -> tuple:
    """The cycle at `pos` in `_cycle_stats` order, as letter indices: pos + 1
    in bijective base k, its digits 1..k read as letters 0..k-1."""
    return () if pos < 0 else _cycle_at(pos // k - 1, k) + (pos % k,)


def _rotations(k: int, max_cycle: int) -> np.ndarray:
    """The position of each exhaustive cycle of 1..max_cycle letters over k
    letters rotated by one, its first letter moved to its end.  Among its
    own length, the cycle's base-k number's top digit is its first letter."""
    parts, start = [], 0
    for n in range(1, max_cycle + 1):
        num, top = np.arange(k ** n), k ** (n - 1)
        parts.append(start + num % top * k + num // top)
        start += k ** n
    return np.concatenate(parts)


def search_submixing_violation(spec: PayoffSpec,
                               bounds: SearchBounds = SearchBounds(),
                               seed: int = 0) -> VerificationReport:
    """Look for a shuffle whose payoff beats both components:
    f(w) > max(f(u), f(v)), on words of letter indices into the default
    alphabet, read once into a `LetterTable`.

    A class-determined payoff's value form (`payoff.limit_value`) reads no
    prefix, and a shuffle's statistics read only its words' cycles and its
    tail (a, b).  So for each tail in `TAILS` the search decides the grid of
    every pair of cycles of 1..max_cycle letters, flagging a cell whose
    shuffle the form values above both words (`_fast_violations`), on the
    cycles that differ in a statistic the form reads (`_form_reads`), found
    by a dict from each row of those statistics to its first cycle, read
    as Python ints where a product could wrap (`_widened`).  The words'
    values depend on no tail, so each is read once per search; only the
    shuffle's is read per tail.  `cases` counts each grid's n^2 cells,
    whatever the seed.  Other payoffs compare the `_word_values` of each
    case's three index words (a discounted word walked in integers,
    `payoff._discounted_value`): the cycles of
    1..min(max_cycle, 2) letters under SEARCH_PATTERNS, then the seeded
    cases (`_drawn_blocks`).  Only the first flagged case is spelled and
    checked again on tokens (`check_submixing`) before it is reported: a
    case that check clears raises AssertionError."""
    alphabet = default_alphabet(spec)
    k = len(alphabet)
    letters = letter_table(spec, alphabet)
    tails = TAILS if spec.is_class_determined else SEARCH_PATTERNS
    instance = {"spec": spec.format(), "seed": seed,
                "max_cycle": bounds.max_cycle,
                "patterns": list(tails),
                "random_cases": bounds.random_cases}
    cases = 0

    def refuted(u, v, pattern) -> VerificationReport:
        witness = check_submixing(spec, _spelled(alphabet, *u),
                                  _spelled(alphabet, *v), pattern)
        if witness is None:
            raise AssertionError("index and token evaluations disagree")
        return VerificationReport("submixing", instance, "refuted",
                                  {"cases": cases}, _submix_witness_doc(witness))

    if spec.is_class_determined:
        st = _cycle_stats(letters, bounds.max_cycle)
        n = len(st["L"])
        st = {key: st[key] for key in _form_reads(spec, st)}
        # a cell reads only these: decide the grid of their distinct rows, in
        # first-appearance order, so that its first hit is the full grid's
        rows = np.column_stack([x.reshape(n, -1) for x in st.values()])
        seen: dict = {}
        for i, key in enumerate(map(tuple, rows.tolist())):
            seen.setdefault(key, i)
        first = list(seen.values())
        st = _widened(spec, {key: x[first] for key, x in st.items()})
        col = {key: x[:, None] for key, x in st.items()}
        row = {key: x[None, :] for key, x in st.items()}
        fu, fv = limit_value(spec, col, 1), limit_value(spec, row, 1)
        for a, b in tails:
            cases += n ** 2
            viol = _fast_violations(spec, col, row, fu, fv, a, b)
            if viol.any():
                u, v = (((), _cycle_at(first[i], k))
                        for i in np.argwhere(viol)[0])
                return refuted(u, v, ShufflePattern.alternating(a, b))
    else:
        value = _word_values(spec, letters)
        small = [((), c) for m in range(1, min(bounds.max_cycle, 2) + 1)
                 for c in itertools.product(range(k), repeat=m)]
        exhaustive = itertools.product(small, small, [
            ShufflePattern.alternating(a, b) for a, b in tails])
        drawn = _drawn_blocks(random.Random(seed),
                              _case_columns(k, bounds.max_cycle),
                              bounds.random_cases)
        seeded = (_case(row) for block in drawn for row in block.tolist())
        for cases, (u, v, pattern) in enumerate(
                itertools.chain(exhaustive, seeded), 1):
            (nu, du), (nv, dv) = value(u), value(v)
            w = shuffle(Lasso(*u), Lasso(*v), pattern)
            nw, dw = value((w.prefix, w.cycle))
            # the value pairs' denominators are positive
            if nw * du > nu * dw and nw * dv > nv * dw:
                return refuted(u, v, pattern)
    return VerificationReport(
        "submixing", instance, "confirmed", {"cases": cases})


def search_shift_invariance_violation(spec: PayoffSpec,
                                      bounds: SearchBounds = SearchBounds(),
                                      seed: int = 0) -> VerificationReport:
    """Look for a word valued unlike one of its first SHIFTS suffixes, each
    of which drops a prefix letter or, past the prefix, rotates the cycle.
    The words are letter indices into the default alphabet, read once into
    a `LetterTable`.

    A class-determined payoff's value form (`payoff.limit_value`) reads no
    prefix, so every cycle of 1..max_cycle letters is valued once, on the
    table's `_cycle_stats`, and compared with its rotation by one letter
    (`_rotations`), as integer pairs in lowest terms.  That decides every
    shift of every word with such a cycle, and `cases` counts the cycles,
    whatever the seed.  `discounted`, `geomfirstone` and `suffixtarget`
    walk each word's (prefix, cycle) pair through its suffixes, valued by
    `_word_values`, and counted in `cases`: the words with prefixes of 0..2
    letters and cycles of 1..min(max_cycle, 2), in `itertools.product`
    order, then the seeded words, prefixes of 0..3, cycles of 1..max_cycle.
    Only the first flagged word is spelled and checked again on tokens
    (`check_shift_invariance`), and the report carries that check's
    witness: a word it clears, or refutes at another shift or with other
    values, raises AssertionError."""
    alphabet = default_alphabet(spec)
    k = len(alphabet)
    letters = letter_table(spec, alphabet)
    instance = {"spec": spec.format(), "seed": seed,
                "max_cycle": bounds.max_cycle, "shifts": SHIFTS,
                "random_cases": bounds.random_cases}
    cases = 0

    def refuted(word, shift: int, values: list) -> VerificationReport:
        witness = check_shift_invariance(spec, _spelled(alphabet, *word),
                                         SHIFTS)
        if witness is None or (witness.shift, values) != (shift, [
                v.as_integer_ratio()
                for v in (witness.value, witness.shifted_value)]):
            raise AssertionError("index and token evaluations disagree")
        return VerificationReport(
            "shift-invariance", instance, "refuted", {"cases": cases},
            _shift_witness_doc(witness))

    if spec.is_class_determined:
        num, den = limit_value(spec, _cycle_stats(letters, bounds.max_cycle),
                               letters.den)
        g = np.gcd(num, den)
        num, den = num // g, den // g
        rotated = _rotations(k, bounds.max_cycle)
        hits = np.flatnonzero((num != num[rotated]) | (den != den[rotated]))
        if hits.size:
            i = int(hits[0])
            cases = i + 1
            return refuted(((), _cycle_at(i, k)), 1, [
                (int(num[j]), int(den[j])) for j in (i, rotated[i])])
        cases = len(num)
    else:
        value = _word_values(spec, letters)
        exhaustive = (
            (prefix, cycle) for plen in range(3)
            for clen in range(1, min(bounds.max_cycle, 2) + 1)
            for prefix in itertools.product(range(k), repeat=plen)
            for cycle in itertools.product(range(k), repeat=clen))
        drawn = _drawn_blocks(random.Random(seed),
                              _word_columns(k, bounds.max_cycle, 3),
                              bounds.random_cases)
        seeded = (_word(row, 3) for block in drawn for row in block.tolist())
        for cases, word in enumerate(itertools.chain(exhaustive, seeded), 1):
            prefix, cycle = word
            base = value(word)
            for shift in range(1, SHIFTS + 1):
                if prefix:
                    prefix = prefix[1:]
                else:
                    cycle = cycle[1:] + cycle[:1]
                val = value((prefix, cycle))
                if val != base:
                    return refuted(word, shift, [base, val])
    return VerificationReport(
        "shift-invariance", instance, "confirmed", {"cases": cases})


def _word_columns(k: int, max_cycle: int, max_prefix: int) -> list:
    """The (lo, hi) range of each column of a drawn word over k letters:
    its prefix length, max_prefix prefix letters, its cycle length and
    max_cycle cycle letters, of which `_word` reads the first ones."""
    return ([(0, max_prefix)] + [(0, k - 1)] * max_prefix
            + [(1, max_cycle)] + [(0, k - 1)] * max_cycle)


def _case_columns(k: int, max_cycle: int) -> list:
    """The (lo, hi) range of each column of a drawn submixing case: u's and
    v's words, max_prefix 2 each, then the pattern's number of (u, v)
    prefix block pairs, four prefix blocks and two tail blocks (`TAILS`)."""
    word = _word_columns(k, max_cycle, 2)
    return word + word + [(0, 2)] * 5 + [(1, TAIL_MAX)] * 2


def _drawn_blocks(rng: random.Random, columns: list, n: int):
    """n seeded cases, in arrays of at most _CASE_BLOCK rows with column j
    uniform over columns[j] = (lo, hi).  Each case reads one 32-bit word
    per column, in case order, from `rng.getrandbits`, and a word w becomes
    lo + (w * (hi - lo + 1) >> 32).  `getrandbits` lays out its words in
    stream order, least significant first, so the blocks hold the cases of
    one draw of all n, and the first n cases of a longer draw are these."""
    lo, hi = np.array(columns, dtype=np.int64).T
    for done in range(0, n, _CASE_BLOCK):
        size = 4 * len(columns) * min(_CASE_BLOCK, n - done)
        words = np.frombuffer(
            rng.getrandbits(8 * size).to_bytes(size, "little"), "<u4")
        yield lo + (words.reshape(-1, len(columns)) * (hi - lo + 1) >> 32)


def _word(row: list, max_prefix: int) -> tuple[tuple, tuple]:
    """A drawn word's prefix and cycle, as letter indices, from its row."""
    c = max_prefix + 1
    return tuple(row[1:1 + row[0]]), tuple(row[c + 1:c + 1 + row[c]])


def _spelled(alphabet, prefix, cycle) -> Lasso:
    """The lasso that an index word's prefix and cycle spell."""
    return Lasso(tuple(alphabet[i] for i in prefix),
                 tuple(alphabet[i] for i in cycle))


def _case(row: list) -> tuple[tuple, tuple, ShufflePattern]:
    """A drawn submixing case's u and v, as (prefix, cycle) pairs of letter
    indices, and its pattern, from its row."""
    w = (len(row) - 7) // 2  # each word's columns (`_case_columns`)
    pairs, blocks = row[2 * w], row[2 * w + 1:]
    return (_word(row, 2), _word(row[w:], 2),
            ShufflePattern(tuple(blocks[:2 * pairs]), tuple(blocks[4:])))


def _word_values(spec: PayoffSpec, letters: LetterTable):
    """`word_value` over `letters` as a function of a (prefix, cycle) pair of
    indices, through a memo that values each distinct pair once."""
    return functools.cache(lambda pair: word_value(spec, letters, *pair))


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
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, not {epsilon}")
    values = solve.brute_force_value(arena, spec, budget)
    classification = solve.classify_actions(arena, values)
    base_guaranteed = solve.product_values(arena, spec, sigma, budget)
    weak = solve.weakness_set(arena, spec, sigma, epsilon,
                              values=values.values,
                              guaranteed=base_guaranteed)
    sigma_hat = reset_strategy(sigma, weak, arena)
    hat_guaranteed = solve.product_values(arena, spec, sigma_hat, budget)

    def check(strategy, guaranteed) -> tuple[bool, dict]:
        reach = _reachable_pairs(arena, strategy)
        failures = {}
        for (m, s) in sorted(reach, key=str):
            if guaranteed[(m, s)] < values.values[s] - 2 * epsilon:
                failures[f"{m}|{s}"] = str(guaranteed[(m, s)])
        return not failures, failures

    base_ok, base_failures = check(sigma, base_guaranteed)
    hat_ok, hat_failures = check(sigma_hat, hat_guaranteed)
    offender = solve.locally_optimal(arena, classification, sigma)
    eps_optimal = all(base_guaranteed[(sigma.initial, s)]
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
        # the witness is written in finite-memory form, a stationary base too
        witness=None if hat_ok else {
            "failures": hat_failures,
            "strategy": FiniteMemoryStrategy.to_json(sigma)})
    return report


def _reachable_pairs(arena: Arena, strategy: FiniteMemoryStrategy) -> set:
    """(memory, state) pairs reachable from any state at the initial memory
    when the maximizer plays the strategy and the minimizer plays anything:
    the nodes of the strategy's product, seeded at the initial memory."""
    seeds = [(s, strategy.initial, strategy.initial) for s in arena.states]
    return {(m, s) for s, m, _ in product_skeleton(arena, seeds, strategy).nodes}


# Candidates `weakened_base` draws before it degrades.
WEAKENED_BASE_ATTEMPTS = 25


def weakened_base(arena: Arena, spec: PayoffSpec, values: solve.ValueVector,
                  classification: solve.ActionClassification,
                  epsilon: Fraction, rng: random.Random
                  ) -> FiniteMemoryStrategy:
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

    for _ in range(WEAKENED_BASE_ATTEMPTS):
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
        sigma = PureStationaryStrategy(P1, {"c1": action, "c2": "1", "c3": "1"})
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
    return report


# ---------------------------------------------------------------------------
# Stopped-value suites


def doob_suite(arena: Arena, spec: PayoffSpec, trials: int,
               seed: int, budget: int = solve.DEFAULT_BUDGET
               ) -> VerificationReport:
    """Optional-stopping checks for a sampled locally-optimal strategy pair
    (sigma, tau) from the first state s, decided from exact stopped values
    (`solve.stopped_value_exact`):

    - `horizon_zero_exact`, `first_hit_covered` (stopping at the first
      bottom-class state) and `fixed_horizon_covered` (25 steps): the
      stopped value equals v(s);
    - `submartingale_direction`: against `tau_adv`, a minimizer playing a
      value-changing action wherever one exists, the 25-step value is at
      least v(s);
    - `value_changes_stop`: no value-changing (state, action) pair is played
      on a bottom-class node of the (sigma, tau_adv) chain, so value changes
      stop almost surely.  The offending pairs, sorted, are reported as
      `value_changing_recurrent`.

    Monte Carlo only reports: `first_hit` (estimate, Hoeffding interval and
    exact reference) and `adversarial_estimate` are `trials` seeded runs of
    `solve.stopped_value_mc` for the first-hit and the adversarial checks.
    `trials` must be at least 1 (`ValueError`, raised before any work)."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, not {trials}")
    rng = random.Random(seed)
    values = solve.brute_force_value(arena, spec, budget)
    classification = solve.classify_actions(arena, values)
    sigma = _sample_locally_optimal(arena, classification, P1, rng)
    tau = _sample_locally_optimal(arena, classification, P2, rng)
    tau_adv = _adversarial_min(arena, classification)
    source = arena.states[0]
    ref = values.values[source]
    pair, adv_pair = (
        induce_chain(arena, sigma, minimizer,
                     [(source, sigma.initial, minimizer.initial)])
        for minimizer in (tau, tau_adv))
    hit = ("first_hit", _class_states(pair))
    fixed = ("horizon", 25)

    # Four seeds are drawn and two used, so that the reported estimates keep
    # the seeds of earlier releases (the outputs pinned in tests/golden/).
    _, hit_seed, _, adv_seed = (rng.randrange(2**32) for _ in range(4))
    first_hit = solve.stopped_value_mc(pair, values, hit, trials, hit_seed)
    adv = solve.stopped_value_mc(adv_pair, values, fixed, trials, adv_seed)
    recurrent = _value_changing_recurrent(classification, adv_pair)
    exact = solve.stopped_value_exact
    checks = {
        "horizon_zero_exact": exact(pair, values, ("horizon", 0)) == ref,
        "first_hit_covered": exact(pair, values, hit) == ref,
        "fixed_horizon_covered": exact(pair, values, fixed) == ref,
        "submartingale_direction": exact(adv_pair, values, fixed) >= ref,
        "value_changes_stop": not recurrent,
    }
    ok = all(checks.values())
    return VerificationReport(
        "doob", {"arena": arena.fingerprint(), "spec": spec.format(),
                 "seed": seed, "trials": trials},
        "confirmed" if ok else "refuted",
        {"checks": checks,
         "first_hit": {"estimate": first_hit.estimate,
                       "ci": [first_hit.ci_low, first_hit.ci_high],
                       "reference": str(first_hit.reference)},
         "adversarial_estimate": adv.estimate,
         "value_changing_recurrent": recurrent})


def _sample_locally_optimal(arena: Arena,
                            classification: solve.ActionClassification,
                            player: int, rng: random.Random
                            ) -> PureStationaryStrategy:
    choice = {}
    for s in arena.player_states(player):
        pool = classification.value_preserving_actions(arena, s)
        if not pool:
            raise solve.SolveError(f"no value-preserving action at state {s}")
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


def _class_states(chain: InducedChain) -> frozenset:
    """The states on the bottom-class nodes of a pair's chain."""
    return frozenset(chain.state_of(node)
                     for cls in chain.classes for node in cls)


def _value_changing_recurrent(classification: solve.ActionClassification,
                              chain: InducedChain) -> list[tuple[str, str]]:
    """The value-changing (state, action) pairs played on a bottom-class
    node of a pair's chain, sorted.  A graph fact: no stationary
    distribution is solved."""
    return sorted({(chain.state_of(node), mv.action)
                   for cls in chain.classes for node in cls
                   for mv in chain.moves[node]
                   if not classification.table[
                       (chain.state_of(node), mv.action)].value_preserving})
