"""Strategy representations and constructions: pure stationary and
finite-memory strategies, the reset strategy, the pivot-state projections,
and the minimizer's trigger strategy.

General history-dependent strategies are carried in finite-memory form only.
For a shift-invariant payoff the behaviour of a finite-memory strategy after
a history depends on the history only through the (memory, state) pair, which
is what makes the weakness set and the reset construction exactly checkable.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .arena import P2, Arena, FinitePlay, LassoPlay
from .payoff import Lasso, ShufflePattern


class StrategyError(ValueError):
    pass


@dataclass(frozen=True)
class PureStationaryStrategy:
    """Deterministic action choice depending only on the current state."""

    player: int
    choice: dict[str, str]

    @property
    def initial_memory(self):
        return 0

    def next_memory(self, m, s, a, t):
        return 0

    def action_dist(self, m, s: str) -> dict[str, Fraction]:
        return {self.choice[s]: Fraction(1)}

    def check_in(self, arena: Arena) -> None:
        for s in arena.player_states(self.player):
            a = self.choice.get(s)
            if a is None:
                raise StrategyError(f"no choice at state {s}")
            if a not in arena.available[s]:
                raise StrategyError(f"choice {a} not available at {s}")

    def as_finite_memory(self) -> "FiniteMemoryStrategy":
        return FiniteMemoryStrategy(
            player=self.player, memory_states=("m0",), initial="m0",
            update={}, choices={("m0", s): {a: Fraction(1)}
                                for s, a in self.choice.items()})

    def to_json(self) -> str:
        return json.dumps(dict(sorted(self.choice.items())), indent=1)


@dataclass(frozen=True)
class FiniteMemoryStrategy:
    """Mealy-style strategy: memory updated on every transition, action law
    per (memory, controlled state) with exact rational weights.

    Missing update entries default to keeping the current memory, so sparse
    tables stay total.
    """

    player: int
    memory_states: tuple
    initial: object
    update: dict[tuple, object]          # (m, s, a, t) -> m'
    choices: dict[tuple, dict[str, Fraction]]  # (m, s) -> action law

    @property
    def initial_memory(self):
        return self.initial

    def next_memory(self, m, s, a, t):
        return self.update.get((m, s, a, t), m)

    def action_dist(self, m, s: str) -> dict[str, Fraction]:
        try:
            return self.choices[(m, s)]
        except KeyError:
            raise StrategyError(f"no choice at memory {m}, state {s}")

    def check_in(self, arena: Arena) -> None:
        if self.initial not in self.memory_states:
            raise StrategyError("initial memory not a memory state")
        for m in self.memory_states:
            for s in arena.player_states(self.player):
                dist = self.choices.get((m, s))
                if not dist:
                    raise StrategyError(f"no choice at ({m}, {s})")
                for a, w in dist.items():
                    if not (0 <= w <= 1):
                        raise StrategyError(
                            f"weight {w} of {a} at ({m}, {s}) outside [0,1]")
                if sum(dist.values()) != 1:
                    raise StrategyError(f"choice at ({m}, {s}) does not sum to 1")
                for a in dist:
                    if a not in arena.available[s]:
                        raise StrategyError(f"choice {a} not available at {s}")
        for (m, s, a, t), m2 in self.update.items():
            if m2 not in self.memory_states:
                raise StrategyError(f"update at ({m},{s},{a},{t}) leaves memory set")

    def to_json(self) -> str:
        doc = {
            "memory_states": list(self.memory_states),
            "initial": self.initial,
            "update": [[m, s, a, t, m2]
                       for (m, s, a, t), m2 in sorted(self.update.items(),
                                                      key=lambda kv: str(kv))],
            "choice": [[m, s, {a: str(w) for a, w in dist.items()}]
                       for (m, s), dist in sorted(self.choices.items(),
                                                  key=lambda kv: str(kv))],
        }
        return json.dumps(doc, indent=1)


Strategy = Union[PureStationaryStrategy, FiniteMemoryStrategy]


def strategy_from_json(text: str, player: int) -> Strategy:
    """A stationary strategy `{state: action}` or a finite-memory one
    `{memory_states, initial, update, choice}` as `to_json` writes it."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise StrategyError("strategy document must be a JSON object")
    if "memory_states" not in doc:
        if not all(isinstance(a, str) for a in doc.values()):
            raise StrategyError("stationary strategy must map states to actions")
        return PureStationaryStrategy(player, dict(doc))
    missing = [k for k in ("initial", "update", "choice") if k not in doc]
    if missing:
        raise StrategyError(f"finite-memory strategy misses {', '.join(missing)}")
    try:
        memory_states = tuple(doc["memory_states"])
        update = {(m, s, a, t): m2 for m, s, a, t, m2 in doc["update"]}
        choices = {(m, s): {a: Fraction(w) for a, w in dist.items()}
                   for m, s, dist in doc["choice"]}
    except (TypeError, ValueError, AttributeError, ZeroDivisionError):
        raise StrategyError("finite-memory strategy needs a memory_states list, "
                            "[m, s, a, t, m'] update rows and "
                            "[m, s, {action: weight}] choice rows") from None
    return FiniteMemoryStrategy(player, memory_states, doc["initial"], update,
                                choices)


def as_finite_memory(strategy: Strategy) -> FiniteMemoryStrategy:
    if isinstance(strategy, PureStationaryStrategy):
        return strategy.as_finite_memory()
    return strategy


def enumerate_pure_stationary(arena: Arena, player: int):
    """All deterministic stationary strategies of the given player, in a
    fixed order."""
    states = arena.player_states(player)
    for combo in itertools.product(*(arena.available[s] for s in states)):
        yield PureStationaryStrategy(player, dict(zip(states, combo)))


def count_pure_stationary(arena: Arena, player: int) -> int:
    n = 1
    for s in arena.player_states(player):
        n *= len(arena.available[s])
    return n


# ---------------------------------------------------------------------------
# Weakness set and reset


@dataclass(frozen=True)
class WeaknessSet:
    """The (memory, state) pairs from which the frozen strategy is no longer
    good enough: guaranteed value below val(state) - 2*epsilon."""

    pairs: frozenset
    epsilon: Fraction
    guaranteed: dict[tuple, Fraction]
    values: dict[str, Fraction]

    def __contains__(self, pair) -> bool:
        return pair in self.pairs


def reset_strategy(sigma: Strategy, weak: WeaknessSet) -> FiniteMemoryStrategy:
    """Reset the memory to its initial state whenever the play enters a weak
    (memory, state) pair.  The reset applies once per step: if the initial
    row is itself weak at the state the memory still lands there (no loop).

    The reset is folded into the memory update, so the result is an ordinary
    finite-memory strategy over the same memory set and choice table.
    """
    fm = as_finite_memory(sigma)
    return _ResetStrategy(
        player=fm.player, memory_states=fm.memory_states, initial=fm.initial,
        update=dict(fm.update), choices=dict(fm.choices),
        weak_pairs=weak.pairs)


@dataclass(frozen=True)
class _ResetStrategy(FiniteMemoryStrategy):
    """Finite-memory strategy with the reset rule applied to defaulted
    (keep-memory) updates as well as the explicit table."""

    weak_pairs: frozenset = frozenset()

    def next_memory(self, m, s, a, t):
        m2 = self.update.get((m, s, a, t), m)
        return self.initial if (m2, t) in self.weak_pairs else m2


# ---------------------------------------------------------------------------
# Projections at a pivot state


@dataclass(frozen=True)
class PartitionAtState:
    """A two-way split of the actions available at a maximizer pivot state."""

    state: str
    side0: frozenset
    side1: frozenset

    def __post_init__(self):
        if not self.side0 or not self.side1:
            raise StrategyError("both action sides must be non-empty")
        if self.side0 & self.side1:
            raise StrategyError("action sides must be disjoint")

    def check_in(self, arena: Arena) -> None:
        if set(arena.available[self.state]) != self.side0 | self.side1:
            raise StrategyError("sides must cover the pivot's actions")

    def side(self, action: str) -> int:
        if action in self.side0:
            return 0
        if action in self.side1:
            return 1
        raise StrategyError(f"action {action} not at the pivot")

    def restricted(self, arena: Arena, side: int) -> Arena:
        return arena.restrict(self.state,
                              self.side0 if side == 0 else self.side1)


def _factorize(states, actions, pivot):
    """Split a play into factors between consecutive pivot visits.  Each
    factor is (side-index position, state list, action list); the final open
    factor keeps the trailing target state."""
    visits = [i for i, s in enumerate(states) if s == pivot]
    factors = []
    for k, i in enumerate(visits):
        j = visits[k + 1] if k + 1 < len(visits) else len(states) - 1
        if i == len(actions):
            factors.append((i, [states[i]], []))
        else:
            factors.append((i, list(states[i:j + 1]), list(actions[i:j])))
    return visits, factors


def project(play, split: PartitionAtState, side: int):
    """Keep only the factors whose leading pivot action lies on `side`,
    concatenated; cycles on the pivot taken on the other side are erased.

    Finite plays map to finite plays; lassos map to lassos or to finite
    plays when the cycle never leaves the other side.
    """
    if side not in (0, 1):
        raise StrategyError("side must be 0 or 1")
    if isinstance(play, FinitePlay):
        if play.source != split.state:
            raise StrategyError("projection needs plays from the pivot state")
        return _project_finite(play.states, play.actions, split, side)
    if isinstance(play, LassoPlay):
        return _project_lasso(play, split, side)
    raise StrategyError(f"cannot project {type(play).__name__}")


def _project_finite(states, actions, split, side) -> FinitePlay:
    pivot = split.state
    _, factors = _factorize(states, actions, pivot)
    out_states: list[str] = []
    out_actions: list[str] = []
    for _, fstates, factions in factors:
        if not factions:
            continue
        if split.side(factions[0]) != side:
            continue
        if out_states:
            out_states.pop()  # closing pivot is the next factor's opener
        out_states.extend(fstates)
        out_actions.extend(factions)
    if not out_states:
        return FinitePlay((pivot,), ())
    return FinitePlay(tuple(out_states), tuple(out_actions))


def _project_lasso(play: LassoPlay, split: PartitionAtState, side: int):
    pivot = split.state
    if play.source != pivot:
        raise StrategyError("projection needs plays from the pivot state")
    cyc_len = len(play.cycle.actions)
    if pivot not in play.cycle.states[:-1]:
        # Finitely many pivot visits: the infinite tail factor starts at the
        # last visit and belongs to a single side.
        unrolled = play.unroll(len(play.prefix.actions) + cyc_len)
        visits = [i for i, s in enumerate(unrolled.states) if s == pivot]
        last = visits[-1]
        tail_side = split.side(unrolled.actions[last])
        head = _project_finite(unrolled.states[:last + 1],
                               unrolled.actions[:last], split, side)
        if tail_side != side:
            return head
        # head ends at the pivot; glue the infinite tail onto it.
        pre_states = list(head.states[:-1]) + list(play.prefix.states[last:])
        pre_actions = list(head.actions) + list(play.prefix.actions[last:])
        prefix = FinitePlay(tuple(pre_states), tuple(pre_actions))
        return LassoPlay(prefix, play.cycle)
    # The cycle visits the pivot: factor one full period of the unrolled play.
    base = len(play.prefix.actions)
    unrolled = play.unroll(base + 2 * cyc_len)
    visits = [i for i, s in enumerate(unrolled.states) if s == pivot]
    period_start = next(i for i in visits if i >= base)
    period_end = period_start + cyc_len
    head = _project_finite(unrolled.states[:period_start + 1],
                           unrolled.actions[:period_start], split, side)
    per_states = unrolled.states[period_start:period_end + 1]
    per_actions = unrolled.actions[period_start:period_end]
    kept = _project_finite(per_states, per_actions, split, side)
    if not kept.actions:
        return head
    if kept.target != pivot:
        raise StrategyError("projected period does not close on the pivot")
    prefix = head if head.target == pivot else FinitePlay((pivot,), ())
    return LassoPlay(prefix, kept)


def factor_pattern(play: LassoPlay, split: PartitionAtState) -> ShufflePattern:
    """The factor sides of the lasso as a shuffle pattern over play tokens
    (2 tokens per action step), for the reconstruction property."""
    pivot = split.state
    base = len(play.prefix.actions)
    cyc_len = len(play.cycle.actions)
    if pivot not in play.cycle.states[:-1]:
        raise StrategyError("factor pattern needs a cycle through the pivot")
    unrolled = play.unroll(base + 2 * cyc_len)
    visits, factors = _factorize(unrolled.states, unrolled.actions, pivot)
    period_start = next(i for i in visits if i >= base)
    prefix_blocks: list[tuple[int, int]] = []
    tail_blocks: list[tuple[int, int]] = []
    for start, fstates, factions in factors:
        if not factions:
            continue
        length = 2 * len(factions)  # action + state tokens per step
        side = split.side(factions[0])
        target = tail_blocks if start >= period_start else prefix_blocks
        if start >= period_start + cyc_len:
            continue
        target.append((side, length))
    return ShufflePattern(_to_blocks(prefix_blocks, leading=0),
                          _to_blocks(tail_blocks, leading=0))


def _to_blocks(sided: list[tuple[int, int]], leading: int) -> tuple[int, ...]:
    """Collapse a (side, length) run into alternating u/v block lengths
    starting with side `leading`, inserting zero-length blocks as needed."""
    out: list[int] = []
    expect = leading
    for side, length in sided:
        while side != expect:
            out.append(0)
            expect ^= 1
        out.append(length)
        expect ^= 1
    if len(out) % 2:
        out.append(0)
    return tuple(out)


def play_tokens(play: LassoPlay) -> Lasso:
    """The lasso play as a token word: the opening state token is dropped so
    that concatenating factor blocks matches the shuffle letter model."""
    unrolled = play.unroll(len(play.prefix.actions) + len(play.cycle.actions))
    toks = unrolled.tokens()[1:]
    split = 2 * len(play.prefix.actions)
    return Lasso(tuple(toks[:split]), tuple(toks[split:]))


# ---------------------------------------------------------------------------
# The trigger strategy


def trigger_strategy(tau0: Strategy, tau1: Strategy,
                     split: PartitionAtState, arena: Arena
                     ) -> FiniteMemoryStrategy:
    """Combine two minimizer strategies of the side sub-arenas: after a visit
    to the pivot, play the strategy of the side of the action just taken,
    feeding it the projected history.

    Realized by running both memory automata and advancing only the side
    whose factor is open; the active automaton then reads exactly the
    projected play, which the tests verify by recomputing the projection
    from scratch.
    """
    t0 = as_finite_memory(tau0)
    t1 = as_finite_memory(tau1)
    for t, side in ((t0, 0), (t1, 1)):
        t.check_in(split.restricted(arena, side))
    memory_states = tuple((f, m0, m1)
                          for f in (0, 1)
                          for m0 in t0.memory_states
                          for m1 in t1.memory_states)
    update: dict[tuple, object] = {}
    choices: dict[tuple, dict[str, Fraction]] = {}
    for f, m0, m1 in memory_states:
        for s in arena.states:
            for a in arena.available[s]:
                nf = split.side(a) if s == split.state else f
                for t in arena.states:
                    if nf == 0:
                        nm = (nf, t0.next_memory(m0, s, a, t), m1)
                    else:
                        nm = (nf, m0, t1.next_memory(m1, s, a, t))
                    update[((f, m0, m1), s, a, t)] = nm
            if arena.owner[s] == P2:
                active = t0.action_dist(m0, s) if f == 0 else t1.action_dist(m1, s)
                choices[((f, m0, m1), s)] = dict(active)
    return FiniteMemoryStrategy(
        player=P2, memory_states=memory_states,
        initial=(0, t0.initial, t1.initial), update=update, choices=choices)
