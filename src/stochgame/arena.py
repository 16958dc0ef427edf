"""Finite two-player stochastic arenas with perfect information.

States are partitioned between a maximizer (player 1) and a minimizer
(player 2); each (state, action) pair carries an exact rational transition
distribution and a colour token.  Probabilities are rationals end to end;
floats only ever appear in Monte Carlo summaries.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .payoff import (
    ColourToken, LetterTable, PayoffSpec, colour_from_json, colour_to_json,
    discounted, increment, letter, letter_table, priority, reward,
    reward_buchi, vector,
)

P1 = 1
P2 = 2


class ArenaError(ValueError):
    pass


@dataclass(frozen=True)
class Arena:
    states: tuple[str, ...]
    owner: dict[str, int]
    available: dict[str, tuple[str, ...]]
    transition: dict[tuple[str, str], dict[str, Fraction]]
    colour: dict[tuple[str, str], ColourToken]

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """Raise ArenaError unless the arena is well formed.  Each law is
        read in integers on the way (`_over_lcd`), and that table, keyed in
        `transition`'s order, is kept as `int_transition`'s."""
        if not self.states:
            raise ArenaError("arena has no states")
        if len(set(self.states)) != len(self.states):
            raise ArenaError("duplicate state names")
        laws = {}
        for s in self.states:
            if self.owner.get(s) not in (P1, P2):
                raise ArenaError(f"state {s} has no owner")
            acts = self.available.get(s)
            if not acts:
                raise ArenaError(f"available({s}) is empty")
            for a in acts:
                dist = self.transition.get((s, a))
                if dist is None:
                    raise ArenaError(f"no distribution at ({s},{a})")
                for t, p in dist.items():
                    if t not in self.owner:
                        raise ArenaError(f"({s},{a}) targets unknown state {t}")
                    if type(p) is bool or not isinstance(p, (int, Fraction)):
                        raise ArenaError(f"probability {p!r} at ({s},{a}) is "
                                         "not an int or a Fraction")
                # the law in integers, as `int_transition` reads it; the
                # zero weights it drops never leave [0, 1]
                d, nums = laws[(s, a)] = _over_lcd(dist)
                for t, n in nums.items():
                    if not 0 <= n <= d:
                        raise ArenaError(f"probability {dist[t]} at ({s},{a}) "
                                         "outside [0,1]")
                total = sum(nums.values())
                if total != d:
                    raise ArenaError(f"distribution at ({s},{a}) sums to "
                                     f"{Fraction(total, d)}")
                if (s, a) not in self.colour:
                    raise ArenaError(f"no colour at ({s},{a})")
        for (s, a) in self.transition:
            if a not in self.available.get(s, ()):
                raise ArenaError(f"transition at ({s},{a}) but {a} not available")
        for (s, a) in self.colour:
            if a not in self.available.get(s, ()):
                raise ArenaError(f"colour at ({s},{a}) but {a} not available")
        # every law is an available pair's, so `laws` holds them all
        object.__setattr__(self, "_int_transition",
                           {sa: laws[sa] for sa in self.transition})

    def player_states(self, player: int) -> tuple[str, ...]:
        return tuple(s for s in self.states if self.owner[s] == player)

    def int_transition(self) -> dict[tuple[str, str], tuple[int, dict[str, int]]]:
        """The transition table over integers: `(s, a) -> (d, {t: n})`, the
        successors of positive probability in the table's order, each with
        its probability's numerator over d, their lowest common
        denominator.  Built once, by `validate`, and kept: the skeleton
        walks read it many times per arena."""
        return self._int_transition

    def letters(self) -> dict[tuple[str, str], int]:
        """Each (state, action) pair's index in the letter order: the
        states in order, each with its actions in order.  A move's letter
        is its pair's index, and a payoff reads it in `letter_table`."""
        return {(s, a): k for k, (s, a) in enumerate(
            (s, a) for s in self.states for a in self.available[s])}

    def letter_table(self, spec: PayoffSpec) -> LetterTable:
        """The arena's colours in letter order, read for `spec` by
        `payoff.letter_table` once per payoff and cached."""
        tables = self.__dict__.get("_letter_tables")
        if tables is None:
            tables = {}
            object.__setattr__(self, "_letter_tables", tables)
        found = tables.get(spec)
        if found is None:
            colour = self.colour
            found = tables[spec] = letter_table(
                spec, [colour[(s, a)] for s in self.states
                       for a in self.available[s]])
        return found

    def dynamics(self) -> tuple:
        """A key equal for two arenas exactly when they have the same
        states, owners, available actions and `int_transition`, whatever
        their colours.  Built from strings and integers, never from the
        `Fraction` table: for each letter, its number of successors, then
        each one's state index and numerator, whose sum is the row's
        denominator.  Not cached: each workload reads it once per arena."""
        table = self.int_transition()
        index = {s: i for i, s in enumerate(self.states)}
        flat = []
        for s in self.states:
            for a in self.available[s]:
                row = table[(s, a)][1]
                flat.append(len(row))
                for t, n in row.items():
                    flat += (index[t], n)
        return (self.states, tuple(self.owner[s] for s in self.states),
                tuple(self.available[s] for s in self.states), tuple(flat))

    def fingerprint(self) -> str:
        """A short hash of the arena's printed form, computed on each read:
        each workload reads it once per arena."""
        return hashlib.sha256(print_arena(self).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class FinitePlay:
    """Alternating sequence s0 a1 s1 ... sn."""

    states: tuple[str, ...]
    actions: tuple[str, ...]

    def __post_init__(self):
        if len(self.states) != len(self.actions) + 1:
            raise ArenaError("play needs one more state than actions")

    @property
    def target(self) -> str:
        return self.states[-1]


# ---------------------------------------------------------------------------
# Game file format


def parse_arena(text: str) -> Arena:
    """Parse the JSON game document; errors carry positions (syntax) or the
    violated invariant (semantics).  A number with a fraction or an exponent
    is read exactly from its decimal text: 0.1 is 1/10."""
    try:
        doc = json.loads(text, parse_float=Fraction)
    except json.JSONDecodeError as e:
        raise ArenaError(f"syntax error at line {e.lineno} col {e.colno}: {e.msg}")
    state_list = _field(doc, "states", "game", list)
    action_list = _field(doc, "actions", "game", list)
    states, owner = [], {}
    for i, entry in enumerate(state_list):
        name = _field(entry, "name", f"states[{i}]", str)
        states.append(name)
        tag = entry.get("owner")
        if tag not in ("P1", "P2"):
            raise ArenaError(f"state {name}: owner must be P1 or P2")
        owner[name] = P1 if tag == "P1" else P2
    available: dict[str, list] = {s: [] for s in states}
    transition, colour = {}, {}
    for i, entry in enumerate(action_list):
        where = f"actions[{i}]"
        s = _field(entry, "state", where, str)
        a = _field(entry, "action", where, str)
        if s not in owner:
            raise ArenaError(f"action row for unknown state {s}")
        if a in available[s]:
            raise ArenaError(f"duplicate action {a} at state {s}")
        available[s].append(a)
        dist = {}
        for k, succ in enumerate(_field(entry, "successors", where, list)):
            at = f"{where}.successors[{k}]"
            t = _field(succ, "state", at, str)
            if t in dist:
                raise ArenaError(f"duplicate successor {t} at ({s},{a})")
            prob = _field(succ, "prob", at, (str, int, Fraction))
            try:
                if isinstance(prob, bool):
                    raise ValueError
                dist[t] = Fraction(prob)
            except (ValueError, OverflowError, ZeroDivisionError):
                raise ArenaError(f"{at}: field 'prob' is not a rational: {prob!r}") \
                    from None
        transition[(s, a)] = dist
        token = _field(entry, "colour", where)
        try:
            colour[(s, a)] = colour_from_json(token)
        except (TypeError, ValueError, OverflowError, ZeroDivisionError):
            raise ArenaError(f"{where}: field 'colour' is not a colour: {token!r}") \
                from None
    return Arena(tuple(states), owner,
                 {s: tuple(v) for s, v in available.items()}, transition, colour)


_JSON_KINDS = {str: "a string", list: "a list",
               (str, int, Fraction): "a number or a string"}


def _field(entry, key: str, where: str, kind=object):
    """`entry[key]`, or an ArenaError naming the field and its position if
    it is missing or not a `kind`."""
    try:
        value = entry[key]
    except (TypeError, KeyError):
        raise ArenaError(f"{where}: missing field {key!r}") from None
    if not isinstance(value, kind):
        raise ArenaError(f"{where}: field {key!r} must be {_JSON_KINDS[kind]}")
    return value


def print_arena(arena: Arena) -> str:
    """Inverse of parse_arena; emits states and actions in declaration order."""
    doc = {
        "states": [{"name": s, "owner": "P1" if arena.owner[s] == P1 else "P2"}
                   for s in arena.states],
        "actions": [
            {"state": s, "action": a,
             "colour": colour_to_json(arena.colour[(s, a)]),
             "successors": [{"state": t, "prob": str(p)}
                            for t, p in arena.transition[(s, a)].items()]}
            for s in arena.states for a in arena.available[s]
        ],
    }
    return json.dumps(doc, indent=1, sort_keys=False)


# ---------------------------------------------------------------------------
# Random generation


def random_arena(num_states: int, max_actions: int,
                 colour_lo: int = -2, colour_hi: int = 2,
                 density: Fraction = Fraction(1, 2), seed: int = 0,
                 kind: str = "reward") -> Arena:
    """Deterministic function of its arguments: same seed, same arena.

    Every action's support is non-empty by construction, weights are small
    integers normalized exactly.  `kind` wraps the same integer payload
    drawn in [colour_lo, colour_hi] into the requested colour token, so the
    arena structure is identical across kinds for a fixed seed.  A
    parameter out of its range raises `ArenaError`.
    """
    if num_states < 1:
        raise ArenaError(f"random_arena needs num_states >= 1, not {num_states}")
    if max_actions < 1:
        raise ArenaError(
            f"random_arena needs max_actions >= 1, not {max_actions}")
    if colour_hi < colour_lo:
        raise ArenaError(f"random_arena needs colour_hi >= colour_lo, "
                         f"not {colour_hi} < {colour_lo}")
    density = Fraction(density)
    if not (0 <= density <= 1):
        raise ArenaError(f"random_arena needs a density in [0, 1], not {density}")

    rng = random.Random(seed)
    states = tuple(f"s{i}" for i in range(num_states))
    owner = {s: rng.choice((P1, P2)) for s in states}
    available, transition, colour = {}, {}, {}
    dens = float(density)
    for s in states:
        n_act = rng.randint(1, max_actions)
        acts = tuple(f"a{j}" for j in range(n_act))
        available[s] = acts
        for a in acts:
            forced = rng.choice(states)
            support = [t for t in states if t == forced or rng.random() < dens]
            weights = [rng.randint(1, 4) for _ in support]
            total = sum(weights)
            transition[(s, a)] = {t: Fraction(w, total)
                                  for t, w in zip(support, weights)}
            payload = rng.randint(colour_lo, colour_hi)
            colour[(s, a)] = _wrap_colour(kind, payload, colour_lo, colour_hi)
    return Arena(states, owner, available, transition, colour)


def _wrap_colour(kind: str, payload: int, lo: int, hi: int) -> ColourToken:
    if kind == "reward":
        return reward(payload)
    if kind == "priority":
        return priority(payload - lo)
    if kind == "discounted":
        return discounted(payload, Fraction(1, 2))
    if kind == "vector2":
        # Second coordinate -1 - r makes the optimistic condition two-sided
        # (win iff mean >= 0 or mean <= -1) instead of trivially true.
        return vector(payload, -1 - payload)
    if kind == "cobuchi":
        return reward_buchi(payload, payload == hi)
    if kind == "increment":
        return increment(payload)
    if kind == "letter":
        return letter(chr(ord("a") + payload - lo))
    raise ArenaError(f"unknown colour kind {kind!r}")


# ---------------------------------------------------------------------------
# Play sampling (the step laws of the induced probability measure)


def sample_play(arena: Arena, sigma, tau, source: str, horizon: int,
                rng: random.Random) -> FinitePlay:
    """Sample `horizon` steps: the mover's strategy draws the action, the
    transition table draws the successor.  Deterministic given the stream.

    Each step takes exactly two `rng.random()` draws, action first, each
    read by `_draw` from the exact law.  `stochgame simulate` is the one
    reader, so nothing is precomputed or memoized."""
    if horizon < 0:
        raise ArenaError("horizon must be >= 0")
    if source not in arena.owner:
        raise ArenaError(f"unknown source state {source}")
    mem1 = sigma.initial
    mem2 = tau.initial
    states = [source]
    actions: list[str] = []
    s = source
    for _ in range(horizon):
        strat, mem = (sigma, mem1) if arena.owner[s] == P1 else (tau, mem2)
        a = _draw(strat.action_dist(mem, s), rng.random())
        t = _draw(arena.transition[(s, a)], rng.random())
        mem1 = sigma.next_memory(mem1, s, a, t)
        mem2 = tau.next_memory(mem2, s, a, t)
        actions.append(a)
        states.append(t)
        s = t
    return FinitePlay(tuple(states), tuple(actions))


def _draw(dist: dict, u: float):
    """The first key of `dist` whose float running sum, in the law's own
    order, exceeds the draw `u`, or the last key if none does."""
    acc = 0.0
    for key, w in dist.items():
        acc += float(w)
        if u < acc:
            return key
    return key


def _over_lcd(dist: dict) -> tuple[int, dict]:
    """`(d, {key: n})`: the positive weights of `dist`, in its order, as
    numerators over d, the lowest common denominator of its weights.  The
    weights are in lowest terms, so gcd(d, *numerators) is 1."""
    d = math.lcm(*(p.denominator for p in dist.values()))
    return d, {t: p.numerator * (d // p.denominator)
               for t, p in dist.items() if p}
