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
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .payoff import (
    ColourToken, Lasso, colour_from_json, colour_to_json,
    discounted, increment, letter, priority, reward, reward_buchi, vector,
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
        if not self.states:
            raise ArenaError("arena has no states")
        if len(set(self.states)) != len(self.states):
            raise ArenaError("duplicate state names")
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
                total = Fraction(0)
                for t, p in dist.items():
                    if t not in self.owner:
                        raise ArenaError(f"({s},{a}) targets unknown state {t}")
                    if not (0 <= p <= 1):
                        raise ArenaError(f"probability {p} at ({s},{a}) outside [0,1]")
                    total += p
                if total != 1:
                    raise ArenaError(f"distribution at ({s},{a}) sums to {total}")
                if (s, a) not in self.colour:
                    raise ArenaError(f"no colour at ({s},{a})")
        for (s, a) in self.transition:
            if a not in self.available.get(s, ()):
                raise ArenaError(f"transition at ({s},{a}) but {a} not available")
        for (s, a) in self.colour:
            if a not in self.available.get(s, ()):
                raise ArenaError(f"colour at ({s},{a}) but {a} not available")

    def player_states(self, player: int) -> tuple[str, ...]:
        return tuple(s for s in self.states if self.owner[s] == player)

    def support(self, s: str, a: str) -> tuple[str, ...]:
        return tuple(t for t, p in self.transition[(s, a)].items() if p > 0)

    def restrict(self, state: str, actions: Iterable[str]) -> "Arena":
        """Sub-arena with the given state's actions cut down to `actions`."""
        keep = tuple(a for a in self.available[state] if a in set(actions))
        if not keep:
            raise ArenaError(f"restriction leaves {state} without actions")
        avail = dict(self.available)
        avail[state] = keep
        trans = {(s, a): d for (s, a), d in self.transition.items()
                 if s != state or a in keep}
        col = {(s, a): c for (s, a), c in self.colour.items()
               if s != state or a in keep}
        return Arena(self.states, dict(self.owner), avail, trans, col)

    def step_laws(self) -> dict[tuple[str, str], tuple[tuple, tuple[float, ...]]]:
        """The transition table as the sampler reads it: `(s, a) ->
        (successors, cumulative float weights)` in the table's order, as
        `_cumulative` builds them (the last weight is infinite).  Built once
        and cached; the exact table stays the `Fraction` one."""
        cached = self.__dict__.get("_step_laws")
        if cached is None:
            cached = {sa: _cumulative(dist) for sa, dist in self.transition.items()}
            object.__setattr__(self, "_step_laws", cached)
        return cached

    def fingerprint(self) -> str:
        return hashlib.sha256(print_arena(self).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class FinitePlay:
    """Alternating sequence s0 a1 s1 ... sn.  Plays are syntactic: actions
    must be available but steps of probability zero are representable."""

    states: tuple[str, ...]
    actions: tuple[str, ...]

    def __post_init__(self):
        if len(self.states) != len(self.actions) + 1:
            raise ArenaError("play needs one more state than actions")
        if not self.states:
            raise ArenaError("play needs a source state")

    @property
    def source(self) -> str:
        return self.states[0]

    @property
    def target(self) -> str:
        return self.states[-1]

    def __len__(self) -> int:
        return len(self.actions)

    def check_in(self, arena: Arena) -> None:
        for i, a in enumerate(self.actions):
            if a not in arena.available[self.states[i]]:
                raise ArenaError(
                    f"action {a} not available at {self.states[i]} (step {i})")

    def colours(self, arena: Arena) -> tuple[ColourToken, ...]:
        return tuple(arena.colour[(self.states[i], a)]
                     for i, a in enumerate(self.actions))

    def tokens(self) -> tuple:
        """Flatten to ('s', name) / ('a', name) tokens, e.g. for shuffles."""
        out = [("s", self.states[0])]
        for i, a in enumerate(self.actions):
            out.append(("a", a))
            out.append(("s", self.states[i + 1]))
        return tuple(out)


@dataclass(frozen=True)
class LassoPlay:
    """prefix . cycle^omega where the cycle returns to its own source."""

    prefix: FinitePlay
    cycle: FinitePlay

    def __post_init__(self):
        if self.cycle.source != self.cycle.target:
            raise ArenaError("lasso cycle must return to its source")
        if self.prefix.target != self.cycle.source:
            raise ArenaError("lasso prefix must end at the cycle source")
        if not self.cycle.actions:
            raise ArenaError("lasso cycle must take at least one action")

    @property
    def source(self) -> str:
        return self.prefix.source

    def check_in(self, arena: Arena) -> None:
        self.prefix.check_in(arena)
        self.cycle.check_in(arena)

    def colour_word(self, arena: Arena):
        return Lasso(self.prefix.colours(arena), self.cycle.colours(arena))

    def unroll(self, steps: int) -> FinitePlay:
        states = list(self.prefix.states)
        actions = list(self.prefix.actions)
        i = 0
        while len(actions) < steps:
            actions.append(self.cycle.actions[i])
            states.append(self.cycle.states[i + 1])
            i = (i + 1) % len(self.cycle.actions)
        return FinitePlay(tuple(states), tuple(actions))


# ---------------------------------------------------------------------------
# Game file format


def parse_arena(text: str) -> Arena:
    """Parse the JSON game document; errors carry positions (syntax) or the
    violated invariant (semantics)."""
    try:
        doc = json.loads(text)
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
            prob = _field(succ, "prob", at, (str, int, float))
            try:
                dist[t] = Fraction(prob)
            except (ValueError, OverflowError):
                raise ArenaError(f"{at}: field 'prob' is not a rational: {prob!r}") \
                    from None
        transition[(s, a)] = dist
        token = _field(entry, "colour", where)
        try:
            colour[(s, a)] = colour_from_json(token)
        except (TypeError, ValueError):
            raise ArenaError(f"{where}: field 'colour' is not a colour: {token!r}") \
                from None
    return Arena(tuple(states), owner,
                 {s: tuple(v) for s, v in available.items()}, transition, colour)


_JSON_KINDS = {str: "a string", list: "a list",
               (str, int, float): "a number or a string"}


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
    arena structure is identical across kinds for a fixed seed.
    """
    clamped = {}
    if num_states < 1:
        clamped["num_states"] = num_states
        num_states = 1
    if max_actions < 1:
        clamped["max_actions"] = max_actions
        max_actions = 1
    if colour_hi < colour_lo:
        clamped["colour_hi"] = colour_hi
        colour_hi = colour_lo
    density = Fraction(density)
    if not (0 <= density <= 1):
        clamped["density"] = density
        density = min(max(density, Fraction(0)), Fraction(1))
    if clamped:
        warnings.warn(f"random_arena clamped parameters: {clamped}")

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

    Each step takes exactly two `rng.random()` draws, action first, and
    picks the first entry whose cumulative float weight (summed in the
    law's own order) exceeds the draw, or the last entry if none does.
    The successor laws come from `arena.step_laws()`, built once per arena.
    Within one call, the mover's action law and both next memories are
    memoized per product node (state, sigma's memory, tau's memory): every
    strategy's `action_dist` and `next_memory` are functions of their
    arguments, as `chain.induce_chain` also assumes.
    """
    if horizon < 0:
        raise ArenaError("horizon must be >= 0")
    if source not in arena.owner:
        raise ArenaError(f"unknown source state {source}")
    owner = arena.owner
    step_laws = arena.step_laws()
    draw = rng.random
    # (s, mem1, mem2) -> (actions, cumulative weights, {(a, t): memories})
    nodes: dict[tuple, tuple] = {}
    mem1 = sigma.initial_memory
    mem2 = tau.initial_memory
    states = [source]
    actions: list[str] = []
    s = source
    for _ in range(horizon):
        node = nodes.get((s, mem1, mem2))
        if node is None:
            strat, mem = (sigma, mem1) if owner[s] == P1 else (tau, mem2)
            node = nodes[(s, mem1, mem2)] = (
                *_cumulative(strat.action_dist(mem, s)), {})
        keys, cum, moves = node
        a = keys[bisect_right(cum, draw())]
        keys, cum = step_laws[(s, a)]
        t = keys[bisect_right(cum, draw())]
        nxt = moves.get((a, t))
        if nxt is None:
            nxt = moves[(a, t)] = (sigma.next_memory(mem1, s, a, t),
                                   tau.next_memory(mem2, s, a, t))
        mem1, mem2 = nxt
        actions.append(a)
        states.append(t)
        s = t
    return FinitePlay(tuple(states), tuple(actions))


def _cumulative(dist: dict) -> tuple[tuple, tuple[float, ...]]:
    """`(keys, cumulative float weights)` in the law's order, for
    `bisect_right`: the first key whose running sum exceeds a draw `u` in
    [0, 1).  The running maximum keeps the sums sorted even past a negative
    weight, and the last entry is infinite, so a draw at or above the float
    sum picks the last key."""
    acc = top = 0.0
    cum = []
    for w in dist.values():
        acc += float(w)
        top = max(top, acc)
        cum.append(top)
    if cum:
        cum[-1] = math.inf
    return tuple(dist), tuple(cum)
