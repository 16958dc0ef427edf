"""Exact analysis of the Markov chain induced by fixing both strategies:
bottom SCCs with the letters of their moves, which they see infinitely
often, and, solved on first read, those moves' limit weights; and
first-passage quantities.
`product_skeleton` is the one product walk: it discovers the product's
nodes from seed nodes, with each player fixed to a strategy or left open,
and builds every node's options once, each with its integer row.  A
one-action option's row is the arena's integer row
(`Arena.int_transition`) with its successors renamed to product nodes;
only a mixed law's row is summed from its moves.  A chain is picked from
the skeleton by one option per node; `induce_chain` is the walk with both
players fixed, picked at its one option.  A move carries its letter
(`Arena.letters`), not its colour, so a skeleton and its chains serve
every colouring of the arena's dynamics; only the discounted equations
read colours, an arena's, on request (`discounted_rows`).

Every result is an exact rational.  The linear systems behind them are
assembled from integer rows (each chain row as a denominator plus integer
numerators) and solved by one solver, `solve_integer`: fraction-free
forward elimination and back substitution in Python `int`s, whose answer
is integer numerators over one positive denominator, so no `Fraction`
arithmetic happens inside a solve.  `solve_linear` is its `Fraction`
view.  One assembler, `first_passage`, builds every system d_k x_k =
base_k + sum_j n_kj x_j: absorption probabilities, discounted values and
`solve`'s first-hit stopped values; it and `discounted_values` return the
solver's `(nums, den)`, and `absorption_from` its rows over one
denominator.  Only the stationary solve, transposed and with a
normalisation row, assembles its own; its exactness checks (stationary,
positive, total 1) run on the solve's integer numerators over its
denominator."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence

from .arena import P1, Arena
from .payoff import scaled


class ChainError(ValueError):
    pass


@dataclass(frozen=True)
class Move:
    """One action taken at a node: its strategy weight, its letter (its
    (state, action) pair's index in `Arena.letters`), and the successor
    nodes with transition probabilities."""

    action: str
    weight: Fraction
    letter: int
    successors: tuple[tuple[int, Fraction], ...]


@dataclass(frozen=True)
class InducedChain:
    """Product of the arena with both strategies' memories, picked from a
    `ProductSkeleton`.  Rows mix the mover's action weights with the
    transition table; rows sum to 1.  `int_rows[i]` is node i's row over
    its least common denominator d, `(d, {succ: n})` with
    `row(i)[succ] == Fraction(n, d)`."""

    nodes: tuple[tuple, ...]          # (state, mem1, mem2)
    moves: tuple[tuple[Move, ...], ...]
    index: dict[tuple, int]
    int_rows: tuple[tuple[int, dict[int, int]], ...]

    def state_of(self, node: int) -> str:
        return self.nodes[node][0]

    def rows(self) -> tuple[dict[int, Fraction], ...]:
        return tuple(self.row(node) for node in range(len(self)))

    def row(self, node: int) -> dict[int, Fraction]:
        d, row = self.int_rows[node]
        return {succ: Fraction(n, d) for succ, n in row.items()}

    def __len__(self) -> int:
        return len(self.nodes)

    def discounted_rows(self, arena: Arena) -> tuple[Optional[Equation], ...]:
        """Each node's discounted equation under the arena's colours."""
        return tuple(_discounted_row(arena.colour, s, mvs)
                     for (s, _, _), mvs in zip(self.nodes, self.moves))

    @cached_property
    def classes(self) -> list[list[int]]:
        """`bottom_classes` of the chain, found on first read and kept."""
        return bottom_classes(self)


class RecurrentClassSummary:
    """One bottom SCC of a chain, as `payoff.class_value` reads it.  The
    graph pass gives its `nodes` and `letters`, the letter of each of its
    moves of positive weight, in node-then-move order, with equal letters
    kept apart: a play absorbed in the class takes each of those moves
    infinitely often, almost surely, and no other.  `int_weights` is
    `(den, weights)`, the moves' limit weights aligned with `letters` as
    integers over one denominator, solved on first read from the exact
    stationary distribution, which is checked to be positive, to sum to 1
    and to be really stationary.  Every payoff rule reads a max, a min, an
    any or a weighted sum of the colours, so a colour's moves count as one
    colour of their summed weight.  A summary holds no colour, so it
    serves every colouring of its chain."""

    def __init__(self, chain: InducedChain, nodes: Sequence[int]):
        self.chain = chain
        self.nodes = tuple(nodes)
        self.letters = tuple(mv.letter for node in self.nodes
                             for mv in chain.moves[node] if mv.weight)

    @cached_property
    def int_weights(self) -> tuple[int, tuple[int, ...]]:
        """(d, (n, ...)), from one solve: the limit weight of the move of
        `letters[i]` is the i-th n over d."""
        nodes = self.nodes
        pos = {node: k for k, node in enumerate(nodes)}
        n = len(nodes)
        rows = [self.chain.int_rows[node] for node in nodes]
        # pi P = pi restricted to the class, with sum(pi) = 1 replacing one
        # row.  The unknowns are y = pi / d row by row, which keeps the
        # matrix integer; the solve gives y = z / common.
        matrix = [[0] * n for _ in range(n)]
        for k, (d, row) in enumerate(rows):
            for succ, num in row.items():
                matrix[pos[succ]][k] += num
            matrix[k][k] -= d
        matrix[n - 1] = [d for d, _ in rows]
        z, common = solve_integer(matrix, [0] * (n - 1) + [1])
        # Exactness check: the solved distribution really is stationary,
        # sum_src z_src n[src][k] == d_k z_k.
        back = [0] * n
        for zk, (_, row) in zip(z, rows):
            for succ, num in row.items():
                back[pos[succ]] += zk * num
        if any(b != d * zk for b, zk, (d, _) in zip(back, z, rows)):
            raise ChainError("solved class distribution is not stationary")
        # pi_k = d_k y_k = mass_k / common, checked in integers
        mass = [d * zk for zk, (d, _) in zip(z, rows)]
        total = sum(mass)
        if total != common:
            raise ChainError(
                f"stationary weights sum to {Fraction(total, common)}")
        if any(m <= 0 for m in mass):
            raise ChainError("stationary weights must be positive")
        # A move's weight is pi_k * its strategy weight, over the common
        # denominator of z and the move weights, in the order of `letters`.
        moves = [self.chain.moves[node] for node in nodes]
        wden = lcm(*(mv.weight.denominator for mvs in moves for mv in mvs))
        weights = []
        for mvs, m in zip(moves, mass):
            for mv in mvs:
                w = mv.weight
                if w:
                    weights.append(m * w.numerator * (wden // w.denominator))
        return common * wden, tuple(weights)

    def has_potential(self, incs: Sequence[int]) -> bool:
        """Do the increments `incs[letter]` form a coboundary here?"""
        return _potential_exists(self.chain, self.nodes, incs)


def induce_chain(arena: Arena, sigma, tau,
                 seeds: Optional[Sequence[tuple]] = None) -> InducedChain:
    """The reachable chain of the fixed pair: `product_skeleton` with both
    players fixed, picked at its one option per node.  `seeds` defaults to
    every arena state paired with both initial memories."""
    if seeds is None:
        seeds = [(s, sigma.initial, tau.initial) for s in arena.states]
    skeleton = product_skeleton(arena, seeds, sigma, tau)
    return skeleton.pick((0,) * len(skeleton))


def _moves(arena: Arena, letters: dict, key: tuple, law: dict[str, Fraction],
           successor) -> tuple[Move, ...]:
    """The moves of the action law `law` at node `key`, whose state comes
    first; `successor(a, t)` is the node reached by action `a` and arena
    successor `t`.  Actions of weight 0 are left out, and so are successors
    of probability 0: a move's successors are those of the arena's
    `int_transition` row, in its order.  The weights must be non-negative
    and sum to 1, so each is at most 1.  `letters` is `arena.letters()`."""
    s = key[0]
    # a pure law's total is its one weight
    total = sum(law.values()) if len(law) != 1 else next(iter(law.values()))
    if total != 1:
        raise ChainError(f"choice at {key} sums to {total}")
    table = arena.int_transition()
    mvs = []
    for a, w in law.items():
        num = w.numerator
        if num < 0:
            raise ChainError(f"choice at {key} gives {a} the negative weight {w}")
        if not num:
            continue
        if a not in arena.available[s]:
            raise ChainError(f"strategy plays unavailable action {a} at {s}")
        dist = arena.transition[(s, a)]
        mvs.append(Move(a, w, letters[(s, a)], tuple(
            (successor(a, t), dist[t]) for t in table[(s, a)][1])))
    return tuple(mvs)


@dataclass(frozen=True)
class ProductSkeleton:
    """Every row a family of strategy pairs can induce on one product,
    built once.  `moves[i]` and `int_rows[i]` list node i's options in the
    same order (see `product_skeleton`).  A choice vector holds one option
    index per node, 0 at a fixed player's node, and `pick` turns it into
    that pair's chain."""

    nodes: tuple[tuple, ...]          # (state, mem1, mem2)
    index: dict[tuple, int]
    moves: tuple[tuple[tuple[Move, ...], ...], ...]
    int_rows: tuple[tuple[tuple[int, dict[int, int]], ...], ...]

    def pick(self, choice: Sequence[int]) -> InducedChain:
        return InducedChain(
            self.nodes, tuple(opts[k] for opts, k in zip(self.moves, choice)),
            self.index,
            tuple(opts[k] for opts, k in zip(self.int_rows, choice)))

    def discounted_rows(self, arena: Arena
                        ) -> tuple[tuple[Optional[Equation], ...], ...]:
        """Each node's options' discounted equations under the arena's
        colours, in the order of `moves`, to be picked like the rows."""
        colour = arena.colour
        return tuple(tuple(_discounted_row(colour, s, mvs) for mvs in opts)
                     for (s, _, _), opts in zip(self.nodes, self.moves))

    def __len__(self) -> int:
        return len(self.nodes)


def product_skeleton(arena: Arena, seeds: Sequence[tuple], sigma=None,
                     tau=None) -> ProductSkeleton:
    """The product of the arena with the maximizer strategy `sigma` and the
    minimizer strategy `tau`, walked from the nodes `seeds`, each (state,
    sigma's memory, tau's memory).  Nodes are numbered as found: the seeds
    in order, then each popped node's successors, in the order of its
    options' moves.  A player with a strategy is fixed: its nodes have one
    option, the strategy's law.  A player given None is open: its nodes
    have one option per available action, in the arena's order, and its
    memory follows the fixed player's updates, so from a seed (s, m, m) it
    shadows that memory; with both open, no memory changes.  Raises
    `ChainError` for a law that does not sum to 1 or plays an unavailable
    action, and for a memory update that leaves a fixed player's memory
    set."""
    # The strategy whose updates each memory coordinate follows: its own
    # player's, or the fixed player's when its player is open.
    follows1 = sigma if sigma is not None else tau
    follows2 = tau if tau is not None else sigma
    index: dict[tuple, int] = {}
    for seed in seeds:
        index.setdefault(seed, len(index))
    todo = list(index)
    letters = arena.letters()
    options: dict[int, tuple[tuple[Move, ...], ...]] = {}
    while todo:
        key = todo.pop()
        s, m1, m2 = key

        def successor(a, t):
            if follows1 is None:
                succ = (t, m1, m2)
            else:
                n1 = follows1.next_memory(m1, s, a, t)
                n2 = n1 if follows2 is follows1 and m2 == m1 else \
                    follows2.next_memory(m2, s, a, t)
                succ = (t, n1, n2)
            found = index.get(succ)
            if found is None:
                # a new node: its memories must lie in the memory sets
                for follows, old, new in ((follows1, m1, succ[1]),
                                          (follows2, m2, succ[2])):
                    if follows is not None \
                            and new not in follows.memory_states:
                        raise ChainError(f"memory update at ({old}, {s}, {a},"
                                         f" {t}) leaves the memory set")
                found = index[succ] = len(index)
                todo.append(succ)
            return found

        strategy, m = (sigma, m1) if arena.owner[s] == P1 else (tau, m2)
        laws = ([{a: _ONE} for a in arena.available[s]]
                if strategy is None else [strategy.action_dist(m, s)])
        options[index[key]] = tuple(_moves(arena, letters, key, law,
                                           successor) for law in laws)
    nodes = tuple(index)
    moves = tuple(options[i] for i in range(len(index)))
    table = arena.int_transition()
    return ProductSkeleton(
        nodes, index, moves,
        tuple(tuple(_option_row(table, s, mvs) for mvs in opts)
              for (s, _, _), opts in zip(nodes, moves)))


_ONE = Fraction(1)


def _option_row(table, s: str, mvs: Sequence[Move]
                ) -> tuple[int, dict[int, int]]:
    """The integer row of an option with moves `mvs` at state `s`, in
    lowest terms.  One move has weight 1, and its row is its arena row in
    `table` (`Arena.int_transition`) with the successors renamed to its
    product nodes; a mixed law's row is summed by `_integer_row`."""
    if len(mvs) == 1:
        (mv,) = mvs
        d, nums = table[(s, mv.action)]
        return d, dict(zip([succ for succ, _ in mv.successors], nums.values()))
    return _integer_row((mv.weight, mv.successors) for mv in mvs)


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


# A discounted equation (d, {succ: n}, b), see `_discounted_row`.
Equation = tuple[int, dict[int, int], Fraction]


def _discounted_row(colour: dict, s: str, mvs: Sequence[Move]
                    ) -> Optional[Equation]:
    """The discounted equation of a node at state `s` with moves `mvs`
    under an arena's `colour`, v = sum_moves weight * (reward + lambda *
    sum_succ p v_succ), as `(d, {succ: n}, b)`: n / d is the row sum_moves
    weight * lambda * P and b is d times the expected reward.  None if
    some move's colour is no reward-discount pair."""
    toks = [colour[(s, mv.action)] for mv in mvs]
    if any(tok.kind != "discounted" for tok in toks):
        return None
    d, row = _integer_row((mv.weight * tok.value[1], mv.successors)
                          for mv, tok in zip(mvs, toks))
    return d, row, d * sum(mv.weight * tok.value[0]
                           for mv, tok in zip(mvs, toks))


# ---------------------------------------------------------------------------
# Exact linear algebra


def solve_integer(matrix: Sequence[Sequence[int]], rhs: Sequence[int]
                  ) -> tuple[list[int], int]:
    """Solve `matrix x = rhs` exactly over `int` entries, as `(nums, den)`
    with x[i] == nums[i] / den, den > 0 and gcd(den, *nums) == 1.

    Fraction-free forward elimination (Bareiss): each step divides exactly
    by the previous pivot, so every entry stays an integer minor of the
    system, and the last pivot D is its determinant up to sign.  The pivot
    of a column is its entry of fewest bits.  Back substitution then finds
    the integers D x[i] (Cramer's numerators), each by one exact division.
    Raises `ChainError("singular system")`.  The arguments are not
    modified."""
    n = len(matrix)
    a = [[*row, b] for row, b in zip(matrix, rhs)]
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
        # Entries left of `col` are never read again.
        tail = a[col][col + 1:]
        p = a[col][col]
        for r in range(col + 1, n):
            row = a[r]
            f = row[col]
            if f or p != prev:
                row[col + 1:] = [(p * x - f * y) // prev
                                 for x, y in zip(row[col + 1:], tail)]
        prev = p
    # Row k reads a[k][k] x[k] + sum_{j>k} a[k][j] x[j] = a[k][n]; times D.
    nums = [0] * n
    for k in range(n - 1, -1, -1):
        row = a[k]
        nums[k] = (prev * row[n] - sum(map(mul, row[k + 1:n], nums[k + 1:]))
                   ) // row[k]
    den = prev
    if den < 0:
        den, nums = -den, [-x for x in nums]
    g = gcd(den, *nums)
    if g > 1:
        den //= g
        nums = [x // g for x in nums]
    return nums, den


def solve_linear(matrix: list[list[Fraction]],
                 rhs: list[Fraction]) -> list[Fraction]:
    """Solve `matrix x = rhs` exactly; entries are `int`s or `Fraction`s.
    A `Fraction` view of `solve_integer`, on each row cleared of its
    denominators."""
    rows = [scaled([*row, b])[0] for row, b in zip(matrix, rhs)]
    nums, den = solve_integer([row[:-1] for row in rows],
                              [row[-1] for row in rows])
    return [Fraction(x, den) for x in nums]


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


def bottom_classes(chain: InducedChain) -> list[list[int]]:
    """The nodes of each closed strongly connected component, sorted, in
    the order `bottom_sccs` summarizes them.  A graph pass only: no
    stationary distribution is solved."""
    succ = [sorted(row) for _, row in chain.int_rows]
    classes = []
    for comp in _sccs(succ):
        members = set(comp)
        if all(j in members for i in comp for j in succ[i]):
            classes.append(sorted(comp))
    if not classes:
        raise ChainError("finite chain must have a bottom SCC")
    return classes


def bottom_sccs(chain: InducedChain) -> list[RecurrentClassSummary]:
    """Closed strongly connected components, each summarized by its nodes
    and letters; stationary distributions are solved on first read."""
    return [RecurrentClassSummary(chain, cls) for cls in chain.classes]


def _potential_exists(chain: InducedChain, cls: Sequence[int],
                      incs: Sequence[int]) -> bool:
    """True iff a function phi on the class satisfies
    phi(succ) - phi(node) = incs[letter] along every edge of a move of
    that letter, i.e. every cycle of the class has increment sum zero."""
    phi: dict[int, int] = {cls[0]: 0}
    stack = [cls[0]]
    while stack:
        node = stack.pop()
        for mv in chain.moves[node]:
            if mv.weight == 0:
                continue
            inc = incs[mv.letter]
            for succ, p in mv.successors:
                want = phi[node] + inc
                if succ in phi:
                    if phi[succ] != want:
                        return False
                else:
                    phi[succ] = want
                    stack.append(succ)
    return True


def first_passage(rows: Sequence[tuple[int, dict[int, int]]],
                  free: Sequence[int], outside: Sequence,
                  base: Optional[Sequence] = None) -> tuple[list[int], int]:
    """Solve d_k x_k = base_k + sum_j n_kj y_j for x over the `free` nodes,
    in `free` order, from integer rows `rows[k] = (d_k, {j: n_kj})`, as
    `solve_integer`'s `(nums, den)`.  y_j is x_j at a free node and
    `outside[j]` elsewhere; `base`, 0 when None, is indexed by node like
    `rows`.  Rational outside and base values are cleared to one
    denominator, which joins den.  No free node, no solve."""
    if not free:
        return [], 1
    pos = {node: k for k, node in enumerate(free)}
    matrix = [[0] * len(free) for _ in free]
    rhs = []
    for k, node in enumerate(free):
        d, row = rows[node]
        matrix[k][k] = d
        b = 0 if base is None else base[node]
        for j, num in row.items():
            if j in pos:
                matrix[k][pos[j]] -= num
            else:
                b += num * outside[j]
        rhs.append(b)
    rhs, scale = scaled(rhs)
    nums, den = solve_integer(matrix, rhs)
    return nums, den * scale


def absorption_from(chain: InducedChain,
                    classes: list[RecurrentClassSummary]
                    ) -> tuple[list[dict[int, int]], int]:
    """Absorption probabilities for every node at once, as `(rows, den)`
    over one positive denominator: node i is absorbed in class ci with
    probability rows[i][ci] / den, and ci is absent where that is 0.  One
    first-passage solve per class over the transient part, with the
    class's indicator outside it; each node's probabilities must sum to
    1."""
    n = len(chain)
    rows = chain.int_rows
    absorbed = {node for cls in classes for node in cls.nodes}
    transient = [i for i in range(n) if i not in absorbed]
    solved = []
    for cls in classes:
        indicator = [0] * n
        for node in cls.nodes:
            indicator[node] = 1
        solved.append(first_passage(rows, transient, indicator))
    den = lcm(*(d for _, d in solved))
    result = [dict() for _ in range(n)]
    for ci, (cls, (nums, d)) in enumerate(zip(classes, solved)):
        for node in cls.nodes:
            result[node][ci] = den
        for node, p in zip(transient, nums):
            if p:
                result[node][ci] = p * (den // d)
    for node in range(n):
        if sum(result[node].values()) != den:
            raise ChainError(f"absorption from node {node} does not sum to 1")
    return result, den


def discounted_values(eqs: Sequence[Optional[Equation]]
                      ) -> tuple[list[int], int]:
    """Unique solution of v = r + Lambda P v on a product chain, from its
    `discounted_rows` under a colouring (one equation per node); one
    value per chain node, as integers over one denominator:
    v[i] == nums[i] / den."""
    if None in eqs:
        raise ChainError("discounted payoff needs reward-discount colours")
    return first_passage([(d, row) for d, row, _ in eqs], range(len(eqs)), (),
                         [b for _, _, b in eqs])
