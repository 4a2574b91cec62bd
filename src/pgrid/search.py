"""Brute-force oracles: ground truth for every closed-form value.

Minimum percolating sets come from iterative deepening on the seed count,
starting at the perimeter lower bound, with vertices of residual degree
below r forced into every candidate (nothing can ever infect them).

Each seed size s is one depth-first search over the free cells, choosing
them in ascending canonical index: the leaves are met in the order
``itertools.combinations`` yields them, and each leaf costs one closure.
Two prunes cut only subtrees that hold no percolating set of size s, so the
first percolating leaf, the reported witness, is the lexicographically
least minimum-size set, and results are identical run to run.

- Suffix prune (any r and topology).  The closure is monotone in the seed
  set, and every seed set below child j of a node lies inside the node's
  seeds plus all free cells from j on.  If that union does not percolate,
  neither does any set below child j or any later child, so the node stops.
  The test is skipped at the node's first child, where it repeats the test
  that admitted the node, and where the children are leaves, where it costs
  as much as the leaf it would save.
- Perimeter-gap prune (r = 2 on grids).  A cell that joins the infected
  set has at least two infected neighbors, so no round of closure raises
  the perimeter, while one more seed raises it by at most 4.  A node whose
  seeds' closure has perimeter p, with k seeds still to choose, can reach
  at most perimeter p + 4k, so it is cut when that is below the residual's.

The search keeps its path on an explicit stack, so deep levels (a 1 x 2000
path needs 1,001 seeds) never meet the recursion limit.  All oracles share
one node budget, counted in closure evaluations, prune tests included;
exceeding it raises an error carrying the bounds proven so far, never a
silent approximation.

The pollution sweeps behind ``mkmin_exact`` and ``mkmax_exact`` search one
pollution per orbit of the grid's reflections and rotations, since those
maps preserve the percolation number.  Their values are those of the full
sweep; their budgets count only the closures of the pollutions searched.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .engine import closure_mask
from .errors import BudgetExceededError, ParameterError
from .grid import CellSet, PollutedInstance, Shifts, Topology, _set_bits, _symmetries, grid
from .perimeter import min_perimeter, shape_perimeter

DEFAULT_NODE_BUDGET = 10**8


@dataclass(frozen=True)
class SearchResult:
    """Exact minimum with a canonical witness and the work that found it.

    ``witness`` percolates its instance, no smaller set does, and among the
    minimum-size sets it is lexicographically least in canonical cell order.
    ``nodes_explored`` counts every closure run.  The search tried the seed
    sizes ``start_bound`` to ``size``, and ``level_nodes[i]`` is the number
    of closures run at size ``start_bound + i``.  ``forced`` counts the seeds
    every percolating set contains, and the two prune counts say how often
    each prune cut the search.
    """

    size: int
    witness: CellSet
    nodes_explored: int
    start_bound: int = 0
    forced: int = 0
    level_nodes: tuple[int, ...] = ()
    suffix_prunes: int = 0
    perimeter_prunes: int = 0


class _OutOfBudget(Exception):
    pass


class _Budget:
    """The closure budget shared by every search of one call, and their work counts.

    ``start_bound``, ``forced`` and ``level_nodes`` describe the latest
    search; the prune counts add up over all of them.
    """

    __slots__ = (
        "limit", "used", "level", "start_bound", "forced", "level_nodes",
        "suffix_prunes", "perimeter_prunes",
    )

    def __init__(self, limit: int):
        if limit < 1:
            raise ParameterError(f"node budget must be >= 1, got {limit}")
        self.limit = limit
        self.used = 0
        self.level = 0
        self.start_bound = 0
        self.forced = 0
        self.level_nodes: list[int] = []
        self.suffix_prunes = 0
        self.perimeter_prunes = 0

    def tick(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise _OutOfBudget


def _min_search(
    shifts: Shifts,
    blocked: int,
    residual: int,
    r: int,
    s0: int,
    cap: int | None,
    bud: _Budget,
) -> tuple[int | None, int | None]:
    """Smallest percolating seed set for one instance, or None if above cap."""
    t = residual.bit_count()
    if t == 0:
        return 0, 0
    forced = residual & ~shifts.at_least(residual, r)
    hi = t if cap is None else min(cap, t)
    n_forced = forced.bit_count()
    lo = max(s0, n_forced, 1)
    bud.start_bound = lo
    bud.forced = n_forced
    bud.level_nodes = []
    if lo > hi:
        return None, None
    free = [1 << v for v in _set_bits(residual ^ forced)]
    # suffix[j] holds the free cells from j on
    suffix = [0] * (len(free) + 1)
    for j in range(len(free) - 1, -1, -1):
        suffix[j] = suffix[j + 1] | free[j]
    target = shifts.perimeter(residual) if r == 2 and not shifts.wrap else None
    for s in range(lo, hi + 1):
        bud.level = s
        used = bud.used
        seed_mask = _level_search(
            shifts, blocked, residual, r, forced, free, suffix, s - n_forced, target, bud
        )
        bud.level_nodes.append(bud.used - used)
        if seed_mask is not None:
            return s, seed_mask
    return None, None


def _level_search(
    shifts: Shifts,
    blocked: int,
    residual: int,
    r: int,
    forced: int,
    free: list[int],
    suffix: list[int],
    need: int,
    target: int | None,
    bud: _Budget,
) -> int | None:
    """First percolating ``forced`` plus ``need`` cells of ``free``, in combinations order.

    A node is a partial seed with ``k`` cells left to choose; its child ``j``
    adds ``free[j]``, for ascending j above the last cell the node holds.
    ``target`` is the residual's perimeter where the perimeter-gap prune
    applies, else None.
    """
    closure = closure_mask
    last = len(free)

    def gap_cut(seed: int, k: int) -> bool:
        bud.tick()
        if shifts.perimeter(closure(shifts, blocked, seed, r)) + 4 * k < target:
            bud.perimeter_prunes += 1
            return True
        return False

    if need == 0:
        bud.tick()
        return forced if closure(shifts, blocked, forced, r) == residual else None
    if target is not None and gap_cut(forced, need):
        return None
    # the node at depth d is seeds[d] and nexts[d] is its next child; its
    # first child is 0 at the root and else its parent's next, nexts[d - 1]
    seeds = [forced]
    nexts = [0]
    while nexts:
        d = len(nexts) - 1
        k = need - d
        j = nexts[d]
        if j > last - k:
            seeds.pop()
            nexts.pop()
            continue
        nexts[d] = j + 1
        seed = seeds[d]
        if k == 1:
            bud.tick()
            if closure(shifts, blocked, seed | free[j], r) == residual:
                return seed | free[j]
            continue
        if j > (nexts[d - 1] if d else 0):
            bud.tick()
            if closure(shifts, blocked, seed | suffix[j], r) != residual:
                bud.suffix_prunes += 1
                nexts[d] = last  # no child left: the next pass pops the node
                continue
        child = seed | free[j]
        if target is not None and gap_cut(child, k - 1):
            continue
        seeds.append(child)
        nexts.append(j + 1)
    return None


def min_percolating_exact(
    instance: PollutedInstance, r: int = 2, budget: int = DEFAULT_NODE_BUDGET
) -> SearchResult:
    """Exact m(G', r) for one polluted instance, with a canonical witness."""
    if r < 1:
        raise ParameterError(f"infection threshold must be >= 1, got {r}")
    spec = instance.spec
    residual = instance.residual.mask
    if residual == 0:
        return SearchResult(0, CellSet(spec), 0)
    shifts = Shifts.of(spec)
    s0 = shifts.perimeter_floor(residual) if spec.topology is Topology.GRID and r == 2 else 1
    bud = _Budget(budget)
    try:
        size, witness_mask = _min_search(shifts, instance.polluted.mask, residual, r, s0, None, bud)
    except _OutOfBudget:
        raise BudgetExceededError(
            f"budget of {budget} closure evaluations exhausted at seed size {bud.level}",
            nodes=bud.used,
            lower_bound=bud.level,
            upper_bound=residual.bit_count(),
        ) from None
    assert size is not None and witness_mask is not None
    return SearchResult(
        size,
        CellSet(spec, witness_mask),
        bud.used,
        bud.start_bound,
        bud.forced,
        tuple(bud.level_nodes),
        bud.suffix_prunes,
        bud.perimeter_prunes,
    )


def _sweep_setup(m: int, n: int, k: int, r: int):
    if r < 1:
        raise ParameterError(f"infection threshold must be >= 1, got {r}")
    spec = grid(m, n)
    if not 0 <= k <= spec.size:
        raise ParameterError(f"need 0 <= k <= {spec.size}, got k={k}")
    return spec, Shifts.of(spec)


def _pollutions(shifts: Shifts, k: int, r: int):
    """Every k-cell pollution in lexicographic order, as (cells, mask, residual, start bound).

    The start bound is the residual's perimeter floor for r = 2, and else the
    number of healthy cells with fewer than r healthy neighbors, which every
    percolating set must contain.
    """
    for combo in combinations(range(shifts.size), k):
        amask = 0
        for v in combo:
            amask |= 1 << v
        residual = shifts.full ^ amask
        if r == 2:
            s0 = shifts.perimeter_floor(residual)
        else:
            s0 = (residual & ~shifts.at_least(residual, r)).bit_count()
        yield combo, amask, residual, s0


class _Orbits:
    """Picks one pollution per orbit of the grid's automorphism group.

    Every automorphism maps a pollution onto one with the same percolation
    number, so a sweep need search only the least member of each orbit.  The
    sweeps meet pollutions in lexicographic order, so the first member of an
    orbit they meet is that least one, and the very first pollution needs no
    test.  The tables are built on the first test.
    """

    __slots__ = ("m", "n", "tables")

    def __init__(self, m: int, n: int):
        self.m = m
        self.n = n
        self.tables: list[tuple[int, ...]] | None = None

    def least(self, combo: tuple[int, ...]) -> bool:
        """Whether no image of the nonempty sorted ``combo`` sorts before it."""
        if self.tables is None:
            self.tables = _symmetries(self.m, self.n)
        first = combo[0]
        for q in self.tables:
            low = min(map(q.__getitem__, combo))
            if low < first or low == first and tuple(sorted(map(q.__getitem__, combo))) < combo:
                return False
        return True


def mkmin_exact(m: int, n: int, k: int, r: int = 2, budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Exact best case over pollution: min over all |A| = k of m(G - A, r).

    One pollution is searched per orbit of the grid's symmetries, and none
    whose start bound is no better than the best so far.  The value is that
    of the full sweep; ``budget`` counts the closures of the searches made.
    """
    spec, shifts = _sweep_setup(m, n, k, r)
    t = spec.size - k
    if t == 0:
        return 0
    floor = (min_perimeter(t) + 3) // 4 if r == 2 else 1
    bud = _Budget(budget)
    orbits = _Orbits(m, n)
    best: int | None = None
    try:
        for combo, amask, residual, s0 in _pollutions(shifts, k, r):
            if best is not None and (s0 >= best or not orbits.least(combo)):
                continue
            cap = None if best is None else best - 1
            size, _ = _min_search(shifts, amask, residual, r, s0, cap, bud)
            if size is not None and (best is None or size < best):
                best = size
                if best <= floor:
                    break
    except _OutOfBudget:
        raise BudgetExceededError(
            f"budget of {budget} closure evaluations exhausted",
            nodes=bud.used,
            lower_bound=floor,
            upper_bound=t if best is None else best,
        ) from None
    assert best is not None
    return best


def mkmax_exact(m: int, n: int, k: int, r: int = 2, budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Exact worst case over pollution: max over all |A| = k of m(G - A, r).

    One pollution is searched per orbit of the grid's symmetries.  The value
    is that of the full sweep; ``budget`` counts the closures of the searches
    made.
    """
    spec, shifts = _sweep_setup(m, n, k, r)
    t = spec.size - k
    if t == 0:
        return 0
    bud = _Budget(budget)
    orbits = _Orbits(m, n)
    best: int | None = None
    try:
        for combo, amask, residual, s0 in _pollutions(shifts, k, r):
            if best is not None and not orbits.least(combo):
                continue
            size, _ = _min_search(shifts, amask, residual, r, s0, None, bud)
            assert size is not None
            if best is None or size > best:
                best = size
                if best == t:
                    break
    except _OutOfBudget:
        raise BudgetExceededError(
            f"budget of {budget} closure evaluations exhausted",
            nodes=bud.used,
            lower_bound=0 if best is None else best,
            upper_bound=t,
        ) from None
    assert best is not None
    return best


@lru_cache(maxsize=None)
def _fixed_polyominoes(t: int) -> frozenset[frozenset[tuple[int, int]]]:
    """All polyominoes of t cells up to translation, grown cell by cell."""
    if t == 1:
        return frozenset({frozenset({(0, 0)})})
    out = set()
    for shape in _fixed_polyominoes(t - 1):
        for x, y in shape:
            for cand in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if cand in shape:
                    continue
                grown = set(shape)
                grown.add(cand)
                min_x = min(a for a, _ in grown)
                min_y = min(b for _, b in grown)
                out.add(frozenset((a - min_x, b - min_y) for a, b in grown))
    return frozenset(out)


def min_polyomino_perimeter_exact(t: int) -> int:
    """Minimum perimeter over all connected polyominoes of t cells, by enumeration."""
    if not 1 <= t <= 10:
        raise ParameterError(f"enumeration supports 1 <= t <= 10, got {t}")
    return min(shape_perimeter(shape) for shape in _fixed_polyominoes(t))
