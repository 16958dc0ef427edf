"""Strategy representations and constructions: finite-memory strategies,
with pure stationary strategies as their one-memory case, and the reset
strategy.

General history-dependent strategies are carried in finite-memory form only.
For a shift-invariant payoff the behaviour of a finite-memory strategy after
a history depends on the history only through the (memory, state) pair, which
is what makes the weakness set and the reset construction exactly checkable.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from types import MappingProxyType

from .arena import Arena


class StrategyError(ValueError):
    pass


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
                    # in integers, so that the half-positionality sweep
                    # orders no Fraction
                    if not (0 <= w.numerator <= w.denominator):
                        raise StrategyError(
                            f"weight {w} of {a} at ({m}, {s}) outside [0,1]")
                # a pure law's total is its one weight
                total = sum(dist.values()) if len(dist) != 1 \
                    else next(iter(dist.values()))
                if total != 1:
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


@functools.lru_cache(maxsize=4096)
def _sure(state: str, action: str) -> tuple[tuple, MappingProxyType]:
    """The `choices` entry of a stationary strategy playing `action` at
    `state`: the key ("m0", state) and the read-only law {action: 1}.
    Stationary strategies share their entries, since the certificates and
    responses of one solve hold many strategies over the same arena."""
    return ("m0", state), MappingProxyType({action: Fraction(1)})


class PureStationaryStrategy(FiniteMemoryStrategy):
    """Deterministic action choice depending only on the current state: the
    finite-memory strategy with the one memory "m0", no updates and the law
    {a: 1} at each ("m0", s).  It fills those fields and inherits all its
    behaviour; it also keeps its state -> action map as `choice`, which
    `to_json` writes bare."""

    def __init__(self, player: int, choice: dict[str, str]):
        super().__init__(player, ("m0",), "m0", {},
                         dict(itertools.starmap(_sure, choice.items())))
        object.__setattr__(self, "choice", choice)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def to_json(self) -> str:
        return json.dumps(dict(sorted(self.choice.items())), indent=1)


def strategy_from_json(text: str, player: int) -> FiniteMemoryStrategy:
    """A stationary strategy `{state: action}` or a finite-memory one
    `{memory_states, initial, update, choice}` as `to_json` writes it.  A
    weight is an int, a decimal read exactly from its text (0.1 is 1/10) or
    a string such as "1/3", never a bool."""
    doc = json.loads(text, parse_float=Fraction)
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
        memory_states = tuple(map(_memory, doc["memory_states"]))
        frozenset(memory_states)  # memories key the product nodes
        update = {(_memory(m), s, a, t): _memory(m2)
                  for m, s, a, t, m2 in doc["update"]}
        choices = {(_memory(m), s): {a: _weight(w) for a, w in dist.items()}
                   for m, s, dist in doc["choice"]}
    except (TypeError, ValueError, AttributeError, ZeroDivisionError,
            OverflowError):
        raise StrategyError("finite-memory strategy needs a memory_states list, "
                            "[m, s, a, t, m'] update rows and "
                            "[m, s, {action: weight}] choice rows") from None
    return FiniteMemoryStrategy(player, memory_states, _memory(doc["initial"]),
                                update, choices)


def _weight(value) -> Fraction:
    """A choice weight; `Fraction` alone would read a bool as 0 or 1."""
    if isinstance(value, bool):
        raise TypeError("a bool is no weight")
    return Fraction(value)


def _memory(value):
    """A memory as `to_json` wrote it: JSON lists are read back as the
    tuples they were written from (a memory may be a tuple, such as the
    state of a product of two memory automata)."""
    return tuple(map(_memory, value)) if isinstance(value, list) else value


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


def reset_strategy(sigma: FiniteMemoryStrategy, weak: WeaknessSet,
                   arena: Arena) -> FiniteMemoryStrategy:
    """Reset the memory to its initial state whenever the play enters a weak
    (memory, state) pair.  The reset applies once per step: if the initial
    row is itself weak at the state the memory still lands there (no loop).

    The reset is folded into the memory update over every (m, s, a, t) of
    the arena, so the result is an ordinary finite-memory strategy over the
    same memory set and choice table.
    """
    update: dict[tuple, object] = {}
    for m in sigma.memory_states:
        for s in arena.states:
            for a in arena.available[s]:
                for t in arena.states:
                    m2 = sigma.next_memory(m, s, a, t)
                    if (m2, t) in weak.pairs:
                        m2 = sigma.initial
                    if m2 != m:
                        update[(m, s, a, t)] = m2
    return FiniteMemoryStrategy(
        player=sigma.player, memory_states=sigma.memory_states,
        initial=sigma.initial, update=update, choices=dict(sigma.choices))
