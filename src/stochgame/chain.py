"""Exact analysis of the Markov chain induced by fixing both strategies:
bottom SCCs with stationary distributions, absorption probabilities, and
discounted linear systems.

Every result is an exact rational.  The linear systems behind them are
assembled from integer rows (each chain row as a denominator plus integer
numerators) and solved by fraction-free elimination in Python `int`s, so
no `Fraction` arithmetic happens inside an elimination."""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
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

    def int_rows(self) -> tuple[tuple[int, dict[int, int]], ...]:
        """The rows over integers: `(d, {succ: n})` with
        `row(node)[succ] == Fraction(n, d)` and `d` the least common
        denominator of the row."""
        cached = self.__dict__.get("_int_rows")
        if cached is None:
            cached = tuple(_integer_row((mv.weight, mv.successors) for mv in mvs)
                           for mvs in self.moves)
            object.__setattr__(self, "_int_rows", cached)
        return cached

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


def _integer_row(terms) -> tuple[int, dict[int, int]]:
    """Sum of `c * p` over `(c, successors)` terms and `(succ, p)`
    successors, as `(d, {succ: n})` in lowest terms."""
    parts = [(succ, c.numerator * p.numerator, c.denominator * p.denominator)
             for c, succs in terms if c for succ, p in succs]
    d = lcm(*(den for _, _, den in parts))
    row: dict[int, int] = {}
    for succ, num, den in parts:
        row[succ] = row.get(succ, 0) + num * (d // den)
    g = gcd(d, *row.values())
    if g > 1:
        d //= g
        row = {succ: n // g for succ, n in row.items()}
    return d, row


# ---------------------------------------------------------------------------
# Exact linear algebra


def solve_linear(matrix: list[list[Fraction]],
                 rhs: list[Fraction]) -> list[Fraction]:
    """Solve `matrix x = rhs` exactly; entries are `int`s or `Fraction`s.

    Fraction-free Gauss-Jordan elimination (Bareiss): each row is cleared
    to integers with the lcm of its denominators, and each step divides
    exactly by the previous pivot, so every entry stays an integer minor of
    the system.  The last pivot is the common denominator of the solution.
    The arguments are not modified."""
    n = len(matrix)
    a = []
    for row, b in zip(matrix, rhs):
        row = [*row, b]
        scale = lcm(*(x.denominator for x in row))
        a.append([x.numerator * (scale // x.denominator) for x in row])
    prev = 1
    for col in range(n):
        pivot, best = -1, 0
        for r in range(col, n):
            x = a[r][col]
            if x and (pivot < 0 or x.bit_length() < best):
                pivot, best = r, x.bit_length()
        if pivot < 0:
            raise ChainError("singular system")
        a[col], a[pivot] = a[pivot], a[col]
        # Entries left of `col` are never read again: other rows' are zero
        # and every diagonal ends equal to the last pivot.
        tail = a[col][col + 1:]
        p = a[col][col]
        for r in range(n):
            row = a[r]
            f = row[col]
            if r == col or (not f and p == prev):
                continue
            row[col + 1:] = [(p * x - f * y) // prev
                             for x, y in zip(row[col + 1:], tail)]
        prev = p
    return [Fraction(row[n], prev) for row in a]


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
    succ = [sorted(row) for _, row in chain.int_rows()]
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
    int_rows = chain.int_rows()
    rows = [int_rows[node] for node in cls]
    # pi P = pi restricted to the class, with sum(pi) = 1 replacing one row.
    # The unknowns are y = pi / d row by row, which keeps the matrix integer.
    matrix = [[0] * n for _ in range(n)]
    for k, (d, row) in enumerate(rows):
        for succ, num in row.items():
            matrix[pos[succ]][k] += num
        matrix[k][k] -= d
    matrix[n - 1] = [d for d, _ in rows]
    y = solve_linear(matrix, [0] * (n - 1) + [1])
    # Exactness check: the solved distribution really is stationary.  With
    # z = y over its common denominator, sum_src z_src n[src][k] == d_k z_k.
    common = lcm(*(x.denominator for x in y))
    z = [x.numerator * (common // x.denominator) for x in y]
    back = [0] * n
    for zk, (_, row) in zip(z, rows):
        for succ, num in row.items():
            back[pos[succ]] += zk * num
    if any(b != d * zk for b, zk, (d, _) in zip(back, z, rows)):
        raise ChainError("solved class distribution is not stationary")
    stationary = {node: d * x for node, x, (d, _) in zip(cls, y, rows)}
    # Colour weights sum pi_k * weight, over the common denominator of z
    # and the move weights.
    moves = [chain.moves[node] for node in cls]
    wden = lcm(*(mv.weight.denominator for mvs in moves for mv in mvs))
    weights: dict[ColourToken, int] = {}
    for mvs, zk, (d, _) in zip(moves, z, rows):
        for mv in mvs:
            w = mv.weight
            if w:
                weights[mv.colour] = weights.get(mv.colour, 0) \
                    + d * zk * w.numerator * (wden // w.denominator)
    colour_weights = tuple((tok, Fraction(v, common * wden))
                           for tok, v in weights.items())
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
    rows = chain.int_rows()
    n = len(transient)
    # d h_k - sum_{j transient} n_kj h_j = sum_{j in class} n_kj
    base = [[0] * n for _ in range(n)]
    for k, node in enumerate(transient):
        d, row = rows[node]
        base[k][k] = d
        for succ, num in row.items():
            if succ in pos:
                base[k][pos[succ]] -= num
    result = [dict() for _ in range(len(chain))]
    for ci, cls in enumerate(classes):
        members = set(cls.nodes)
        if n:
            rhs = [sum(num for succ, num in rows[node][1].items()
                       if succ in members)
                   for node in transient]
            hit = solve_linear(base, rhs)
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
    matrix = [[0] * n for _ in range(n)]
    rhs = []
    for i, mvs in enumerate(chain.moves):
        if any(mv.colour.kind != "discounted" for mv in mvs):
            raise ChainError("discounted payoff needs reward-discount colours")
        # d v_i - sum_j n_ij v_j = d sum_moves weight * reward, with n / d
        # the discounted row sum_moves weight * lambda * P
        d, row = _integer_row((mv.weight * mv.colour.value[1], mv.successors)
                              for mv in mvs)
        matrix[i][i] = d
        for succ, num in row.items():
            matrix[i][succ] -= num
        rhs.append(d * sum(mv.weight * mv.colour.value[0] for mv in mvs))
    return solve_linear(matrix, rhs)
