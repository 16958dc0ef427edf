"""Exact analysis of the Markov chain induced by fixing both strategies:
bottom SCCs with stationary distributions, absorption probabilities, and
discounted linear systems.  All arithmetic is rational."""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .arena import P1, Arena
from .payoff import ColourToken, INCREMENT, colour_to_json


class ChainError(ValueError):
    pass


@dataclass(frozen=True)
class Move:
    """One action taken at a node: its strategy weight, colour, and the
    successor nodes with transition probabilities."""

    action: str
    weight: Fraction
    colour: ColourToken
    successors: tuple[tuple[int, Fraction], ...]


@dataclass(frozen=True)
class InducedChain:
    """Product of the arena with both strategies' memories.  Rows mix the
    mover's action weights with the transition table; rows sum to 1."""

    nodes: tuple[tuple, ...]          # (state, mem1, mem2)
    moves: tuple[tuple[Move, ...], ...]
    index: dict[tuple, int]

    def state_of(self, node: int) -> str:
        return self.nodes[node][0]

    def rows(self) -> tuple[dict[int, Fraction], ...]:
        cached = self.__dict__.get("_rows")
        if cached is None:
            cached = []
            for mvs in self.moves:
                out: dict[int, Fraction] = {}
                for mv in mvs:
                    for succ, p in mv.successors:
                        out[succ] = out.get(succ, Fraction(0)) + mv.weight * p
                cached.append(out)
            cached = tuple(cached)
            object.__setattr__(self, "_rows", cached)
        return cached

    def row(self, node: int) -> dict[int, Fraction]:
        return self.rows()[node]

    def __len__(self) -> int:
        return len(self.nodes)

    def to_document(self) -> str:
        """Debug printer mirroring the arena format."""
        doc = {
            "nodes": [{"name": "|".join(map(str, n))} for n in self.nodes],
            "moves": [
                {"node": i, "action": mv.action, "weight": str(mv.weight),
                 "colour": colour_to_json(mv.colour),
                 "successors": [{"node": j, "prob": str(p)}
                                for j, p in mv.successors]}
                for i in range(len(self.nodes)) for mv in self.moves[i]
            ],
        }
        return json.dumps(doc, indent=1)


@dataclass(frozen=True)
class RecurrentClassSummary:
    """One bottom SCC: exact stationary distribution plus the stationary
    colour weights its almost-sure payoff is computed from."""

    nodes: tuple[int, ...]
    stationary: dict[int, Fraction]
    colour_weights: tuple[tuple[ColourToken, Fraction], ...]
    has_potential: Optional[bool]   # increments a coboundary? (counter colours)

    def __post_init__(self):
        total = sum(self.stationary.values())
        if total != 1:
            raise ChainError(f"stationary weights sum to {total}")
        if any(w <= 0 for w in self.stationary.values()):
            raise ChainError("stationary weights must be positive")


def induce_chain(arena: Arena, sigma, tau,
                 seeds: Optional[Sequence[tuple]] = None) -> InducedChain:
    """Build the reachable product chain.  `seeds` defaults to every arena
    state paired with both initial memories."""
    if seeds is None:
        seeds = [(s, sigma.initial_memory, tau.initial_memory)
                 for s in arena.states]
    index: dict[tuple, int] = {}
    nodes: list[tuple] = []
    todo: list[tuple] = []

    def node_id(key: tuple) -> int:
        if key not in index:
            index[key] = len(nodes)
            nodes.append(key)
            todo.append(key)
        return index[key]

    for seed in seeds:
        node_id(seed)
    rows: dict[int, tuple[Move, ...]] = {}
    while todo:
        key = todo.pop()
        i = index[key]
        s, m1, m2 = key
        strat, mem = (sigma, m1) if arena.owner[s] == P1 else (tau, m2)
        dist = strat.action_dist(mem, s)
        total = sum(dist.values())
        if total != 1:
            raise ChainError(f"choice at {key} sums to {total}")
        mvs = []
        for a, w in dist.items():
            if w == 0:
                continue
            if a not in arena.available[s]:
                raise ChainError(f"strategy plays unavailable action {a} at {s}")
            succs = []
            for t, p in arena.transition[(s, a)].items():
                if p == 0:
                    continue
                n1 = sigma.next_memory(m1, s, a, t)
                n2 = tau.next_memory(m2, s, a, t)
                succs.append((node_id((t, n1, n2)), p))
            mvs.append(Move(a, w, arena.colour[(s, a)], tuple(succs)))
        rows[i] = tuple(mvs)
    return InducedChain(tuple(nodes), tuple(rows[i] for i in range(len(nodes))),
                        index)


# ---------------------------------------------------------------------------
# Exact linear algebra


def solve_linear(matrix: list[list[Fraction]],
                 rhs: list[Fraction]) -> list[Fraction]:
    """Gaussian elimination over the rationals.  Pivots prefer entries with
    small numerator*denominator bit size to limit coefficient blow-up."""
    n = len(matrix)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot, best = -1, None
        for r in range(col, n):
            x = a[r][col]
            if x != 0:
                size = x.numerator.bit_length() + x.denominator.bit_length()
                if best is None or size < best:
                    pivot, best = r, size
        if pivot < 0:
            raise ChainError("singular system")
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv if x else x for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y if y else x for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def _sccs(succ: list[list[int]]) -> list[list[int]]:
    """Iterative Tarjan; returns SCCs in reverse topological order."""
    n = len(succ)
    idx = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    out: list[list[int]] = []
    counter = 0
    for root in range(n):
        if idx[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work.pop()
            if pi == 0:
                idx[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            recurse = False
            for i in range(pi, len(succ[v])):
                w = succ[v][i]
                if idx[w] == -1:
                    work.append((v, i + 1))
                    work.append((w, 0))
                    recurse = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], idx[w])
            if recurse:
                continue
            if low[v] == idx[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                out.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return out


def bottom_sccs(chain: InducedChain) -> list[RecurrentClassSummary]:
    """Closed strongly connected components with their exact stationary
    distributions and stationary colour weights."""
    succ = [sorted({j for mv in chain.moves[i] for j, _ in mv.successors})
            for i in range(len(chain))]
    comps = _sccs(succ)
    classes = []
    for comp in comps:
        members = set(comp)
        if all(j in members for i in comp for j in succ[i]):
            classes.append(sorted(comp))
    if not classes:
        raise ChainError("finite chain must have a bottom SCC")
    return [_summarize(chain, cls) for cls in classes]


def _summarize(chain: InducedChain, cls: list[int]) -> RecurrentClassSummary:
    pos = {node: k for k, node in enumerate(cls)}
    n = len(cls)
    rows = chain.rows()
    # pi P = pi restricted to the class, with sum(pi) = 1 replacing one row.
    matrix = [[Fraction(0)] * n for _ in range(n)]
    rhs = [Fraction(0)] * n
    for node in cls:
        for succ, p in rows[node].items():
            matrix[pos[succ]][pos[node]] += p
    for k in range(n):
        matrix[k][k] -= 1
    matrix[n - 1] = [Fraction(1)] * n
    rhs[n - 1] = Fraction(1)
    pi = solve_linear(matrix, rhs)
    stationary = {node: pi[k] for k, node in enumerate(cls)}
    # Exactness check: the solved distribution really is stationary.
    back = {node: Fraction(0) for node in cls}
    for src in cls:
        w = stationary[src]
        for succ, p in rows[src].items():
            back[succ] += w * p
    if back != stationary:
        raise ChainError("solved class distribution is not stationary")
    weights: dict[ColourToken, Fraction] = {}
    for node in cls:
        for mv in chain.moves[node]:
            if mv.weight == 0:
                continue
            weights[mv.colour] = weights.get(mv.colour, Fraction(0)) \
                + stationary[node] * mv.weight
    colour_weights = tuple(weights.items())
    has_potential = None
    if all(tok.kind == INCREMENT for tok in weights):
        has_potential = _potential_exists(chain, cls)
    return RecurrentClassSummary(tuple(cls), stationary, colour_weights,
                                 has_potential)


def _potential_exists(chain: InducedChain, cls: list[int]) -> bool:
    """True iff a function phi on the class satisfies
    phi(succ) - phi(node) = increment(node, action) along every edge,
    i.e. every cycle of the class has increment sum zero."""
    phi: dict[int, Fraction] = {cls[0]: Fraction(0)}
    stack = [cls[0]]
    while stack:
        node = stack.pop()
        for mv in chain.moves[node]:
            if mv.weight == 0:
                continue
            inc = Fraction(mv.colour.value)
            for succ, p in mv.successors:
                want = phi[node] + inc
                if succ in phi:
                    if phi[succ] != want:
                        return False
                else:
                    phi[succ] = want
                    stack.append(succ)
    return True


def absorption(chain: InducedChain, source: int) -> dict[int, Fraction]:
    """Probability of absorption into each bottom SCC, keyed by the class's
    position in bottom_sccs(chain).  Sums to exactly 1."""
    classes = bottom_sccs(chain)
    return absorption_from(chain, classes)[source]


def absorption_from(chain: InducedChain,
                    classes: list[RecurrentClassSummary]
                    ) -> list[dict[int, Fraction]]:
    """Absorption probabilities for every node at once (one linear solve per
    class over the transient part)."""
    in_class = {}
    for ci, cls in enumerate(classes):
        for node in cls.nodes:
            in_class[node] = ci
    transient = [i for i in range(len(chain)) if i not in in_class]
    pos = {node: k for k, node in enumerate(transient)}
    rows = chain.rows()
    n = len(transient)
    base = [[Fraction(0)] * n for _ in range(n)]
    for node in transient:
        for succ, p in rows[node].items():
            if succ in pos:
                base[pos[node]][pos[succ]] -= p
    for k in range(n):
        base[k][k] += 1
    result = [dict() for _ in range(len(chain))]
    for ci, cls in enumerate(classes):
        members = set(cls.nodes)
        if n:
            rhs = [sum((p for succ, p in rows[node].items() if succ in members),
                       Fraction(0))
                   for node in transient]
            hit = solve_linear([row[:] for row in base], rhs)
        else:
            hit = []
        for node in range(len(chain)):
            if node in members:
                result[node][ci] = Fraction(1)
            elif node in pos:
                p = hit[pos[node]]
                if p != 0:
                    result[node][ci] = p
    for node in range(len(chain)):
        if sum(result[node].values()) != 1:
            raise ChainError(f"absorption from node {node} does not sum to 1")
    return result


def discounted_values(chain: InducedChain) -> list[Fraction]:
    """Unique solution of v = r + Lambda P v on the product chain, with
    per-(node, action) rewards and discounts from the colouring; one value
    per chain node."""
    n = len(chain)
    matrix = [[Fraction(0)] * n for _ in range(n)]
    rhs = [Fraction(0)] * n
    for i in range(n):
        matrix[i][i] += 1
        for mv in chain.moves[i]:
            if mv.colour.kind != "discounted":
                raise ChainError("discounted payoff needs reward-discount colours")
            r, lam = mv.colour.value
            rhs[i] += mv.weight * r
            for succ, p in mv.successors:
                matrix[i][succ] -= mv.weight * lam * p
    return solve_linear(matrix, rhs)
