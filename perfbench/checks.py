"""Independent checks of each workload's outputs.

They use the benchmark's own arithmetic (exact Fractions for the optimality
conditions, numpy floats for the strategy-pair values) and run outside the
timed region.  Each returns None or a one-line problem.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

# Float evaluations of a strategy pair must match the exact value this closely.
FLOAT_TOLERANCE = 1e-6
# Squarings of the lazy chain (I + P)/2: its 2**64-th power is the Cesaro
# limit of P to float precision on the arenas the benchmark generates.
DOUBLINGS = 64


# ---------------------------------------------------------------------------
# saddle


def saddle(arenas: dict, out: dict, specs_kinds, maximizer) -> str | None:
    """One-step optimality (Shapley's equation for `discounted`) in exact
    arithmetic, the best response against sigma* reproducing the values, and
    float re-evaluation of sigma* against each state's certificate for every
    payoff."""
    for spec, kind in specs_kinds:
        name = spec.name
        arena = arenas[kind]
        values, response = out[name]
        v = values.values
        if set(v) != set(arena.states):
            return f"{name}: values cover {sorted(v)}"
        if response.values != v:
            return f"{name}: best response to sigma* gives {response.values}, values {v}"
        problem = _one_step(arena, name, v, maximizer)
        if problem:
            return f"{name}: {problem}"
        for s in arena.states:
            tau, _ = values.best_response[s]
            floats = _pair_values(arena, name, values.sigma_star.choice | tau.choice)
            got = floats[arena.states.index(s)]
            if abs(got - float(v[s])) > FLOAT_TOLERANCE:
                return f"{name}: float evaluation {got} at {s}, exact {v[s]}"
    return None


def _one_step(arena, name: str, v: dict, maximizer) -> str | None:
    for s in arena.states:
        options = []
        for a in arena.available[s]:
            q = sum((p * v[t] for t, p in arena.transition[(s, a)].items()),
                    Fraction(0))
            if name == "discounted":
                r, lam = arena.colour[(s, a)].value
                q = r + lam * q
            options.append(q)
        best = max(options) if arena.owner[s] == maximizer else min(options)
        if best != v[s]:
            return f"one-step optimum {best} at {s}, value {v[s]}"
    return None


def _pair_values(arena, name: str, choice: dict) -> np.ndarray:
    """Float values of the stationary pair playing `choice` at every state.

    `discounted` solves (I - lam P) v = r.  The class-determined payoffs
    weigh each recurrent state t by the Cesaro limit L[s, t]: `mean` credits
    t with its own colour, and `limsup`, `liminf` and `parity` credit it with
    the max, the min or the parity of the max colour of its bottom class.
    """
    n = len(arena.states)
    index = {s: i for i, s in enumerate(arena.states)}
    p = np.zeros((n, n))
    r = np.zeros(n)
    lam = np.zeros(n)
    for s, i in index.items():
        a = choice[s]
        for t, prob in arena.transition[(s, a)].items():
            p[i, index[t]] += float(prob)
        colour = arena.colour[(s, a)].value
        if name == "discounted":
            r[i], lam[i] = float(colour[0]), float(colour[1])
        else:
            r[i] = float(colour)
    if name == "discounted":
        return np.linalg.solve(np.eye(n) - lam[:, None] * p, r)
    limit = (np.eye(n) + p) / 2
    for _ in range(DOUBLINGS):
        limit = limit @ limit
        limit /= limit.sum(axis=1, keepdims=True)
    if name == "mean":
        return limit @ r
    # reach[i, j]: j is reachable from i.  A state is recurrent when every
    # state it reaches reaches it back; its bottom class is what it reaches.
    reach = (p > 0) | np.eye(n, dtype=bool)
    for k in range(n):
        reach |= reach[:, k:k + 1] & reach[k:k + 1, :]
    credit = np.zeros(n)
    for i in range(n):
        if (reach[i] <= reach[:, i]).all():
            colours = r[reach[i]]
            credit[i] = {"limsup": colours.max(), "liminf": colours.min(),
                         "parity": colours.max() % 2}[name]
    return limit @ credit


# ---------------------------------------------------------------------------
# halfpos


# Range of a stationary value per payoff: an indicator, and the mean colour
# or the co-Buchi penalty.
HALFPOS_RANGE = {"posavg": (0, 1), "meancobuchi:100": (-100, 2)}


def halfpos(spec: str, states, verdict: str, quantities: dict,
            candidates: int) -> str | None:
    """The paper's theorem: every swept payoff is shift-invariant and
    submixing, so a deterministic stationary strategy must be optimal."""
    if verdict != "confirmed":
        return f"{spec}: verdict {verdict}"
    if quantities["candidates_swept"] != candidates:
        return f"{spec}: {quantities['candidates_swept']} candidates swept"
    values = quantities["stationary_values"]
    if set(values) != set(states):
        return f"{spec}: stationary values cover {sorted(values)}"
    lo, hi = HALFPOS_RANGE[spec]
    for s, v in values.items():
        if not lo <= Fraction(v) <= hi:
            return f"{spec}: stationary value {v} at {s} outside [{lo}, {hi}]"
    return None


# ---------------------------------------------------------------------------
# refute


# Letters of the compared prefixes when checking that w is the shuffle of u
# and v: far beyond the pre-period plus period of every witness found.
SHUFFLE_LETTERS = 1000


def refute(name: str, search: str, holds: bool, verdict: str, quantities: dict,
           witness: dict | None) -> str | None:
    """The verdict agrees with the catalog flag, and a witness still violates
    its property when recomputed from the witness document."""
    want = "confirmed" if holds else "refuted"
    if verdict != want:
        return f"{name} {search}: verdict {verdict}, catalog says {want}"
    if quantities["cases"] < 1:
        return f"{name} {search}: {quantities['cases']} cases"
    if verdict == "confirmed":
        return None
    f = _LASSO_PAYOFF[name]
    if search == "submixing":
        u, v, w = (_lasso(witness[k]) for k in ("u", "v", "w"))
        pattern = witness["pattern"]
        if _letters(w) != _shuffled(u, v, pattern["prefix"], pattern["tail"]):
            return f"{name}: w is not the shuffle of u and v by {pattern}"
        values = [f(*u), f(*v), f(*w)]
        if values[2] <= max(values[:2]):
            return f"{name}: shuffle value {values[2]} beats neither of {values[:2]}"
    else:
        word = _lasso(witness["word"])
        values = [f(*word), f(*_drop(word, witness["shift"]))]
        if values[0] == values[1]:
            return f"{name}: shift {witness['shift']} keeps the value {values[0]}"
    if values != [Fraction(x) for x in witness["values"]]:
        return f"{name}: recomputed values {values}, witness says {witness['values']}"
    return None


def _colour(obj):
    if isinstance(obj, (int, str)):
        return Fraction(obj)
    if set(obj) == {"reward", "discount"}:
        return Fraction(obj["reward"]), Fraction(obj["discount"])
    if set(obj) == {"vector"}:
        return tuple(Fraction(x) for x in obj["vector"])
    raise ValueError(f"unexpected colour {obj}")


def _lasso(doc: dict) -> tuple[list, list]:
    return [_colour(c) for c in doc["prefix"]], [_colour(c) for c in doc["cycle"]]


def _letter(word: tuple[list, list], n: int):
    prefix, cycle = word
    return prefix[n] if n < len(prefix) else cycle[(n - len(prefix)) % len(cycle)]


def _letters(word: tuple[list, list]) -> list:
    return [_letter(word, n) for n in range(SHUFFLE_LETTERS)]


def _shuffled(u, v, prefix: list, tail: list) -> list:
    """The first SHUFFLE_LETTERS letters of the interleaving: blocks taken
    alternately from u and v, the prefix blocks once, then the tail blocks
    over and over."""
    out, pos = [], [0, 0]
    blocks = list(prefix)
    while len(out) < SHUFFLE_LETTERS:
        if not blocks:
            blocks = list(tail)
        for i, size in enumerate(blocks):
            word = (u, v)[i % 2]
            out += [_letter(word, pos[i % 2] + k) for k in range(size)]
            pos[i % 2] += size
        blocks = []
    return out[:SHUFFLE_LETTERS]


def _drop(word: tuple[list, list], k: int) -> tuple[list, list]:
    """The word without its first k letters."""
    prefix, cycle = word
    if k <= len(prefix):
        return prefix[k:], cycle
    r = (k - len(prefix)) % len(cycle)
    return [], cycle[r:] + cycle[:r]


def _genmean(prefix, cycle) -> Fraction:
    means = [sum(c[i] for c in cycle) / len(cycle) for i in range(len(cycle[0]))]
    return Fraction(all(m > 0 for m in means))


def _discounted(prefix, cycle) -> Fraction:
    """Sum of r_i times the product of the discounts before letter i."""
    head, factor = Fraction(0), Fraction(1)
    for r, lam in prefix:
        head += factor * r
        factor *= lam
    loop, loop_factor = Fraction(0), Fraction(1)
    for r, lam in cycle:
        loop += loop_factor * r
        loop_factor *= lam
    return head + factor * loop / (1 - loop_factor)


def _geomfirstone(prefix, cycle) -> Fraction:
    """1 - 2**-n for the first letter 1 at index n, 0 if there is none."""
    for n, c in enumerate(prefix + cycle):
        if c == 1:
            return 1 - Fraction(1, 2 ** n)
    return Fraction(0)


# The payoffs the catalog marks as failing a property, evaluated on a lasso.
_LASSO_PAYOFF = {"genmean": _genmean, "discounted": _discounted,
                 "geomfirstone": _geomfirstone}


# ---------------------------------------------------------------------------
# doob


DOOB_CHECKS = ("horizon_zero_exact", "first_hit_covered", "fixed_horizon_covered",
               "submartingale_direction", "value_changes_stop")


def doob(exit_code: int, stdout: str) -> str | None:
    if exit_code != 0:
        return f"exit code {exit_code}"
    doc = json.loads(stdout)
    if doc["verdict"] != "confirmed":
        return f"verdict {doc['verdict']}"
    checks = doc["quantities"]["checks"]
    if set(checks) != set(DOOB_CHECKS) or not all(checks.values()):
        return f"checks {checks}"
    return None
