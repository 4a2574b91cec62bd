"""Brute-force oracles: ground truth for every closed-form value.

Minimum percolating sets come from iterative deepening on the seed count,
starting at the perimeter lower bound, with vertices of residual degree
below r forced into every candidate (nothing can ever infect them).
Candidates are enumerated in lexicographic order over the canonical cell
index, so the reported witness is the lexicographically least minimum-size
set and results are identical run to run.  All oracles share one node
budget, counted in closure evaluations; exceeding it raises an error
carrying the bounds proven so far, never a silent approximation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .engine import closure_mask
from .errors import BudgetExceededError, ParameterError
from .grid import CellSet, PollutedInstance, Shifts, Topology, grid
from .perimeter import min_perimeter, perimeter_lower_bound, shape_perimeter

DEFAULT_NODE_BUDGET = 10**8


@dataclass(frozen=True)
class SearchResult:
    """Exact minimum with a canonical witness.

    ``witness`` percolates its instance, no smaller set does, and among the
    minimum-size sets it is lexicographically least in canonical cell order.
    """

    size: int
    witness: CellSet
    nodes_explored: int


class _OutOfBudget(Exception):
    pass


class _Budget:
    __slots__ = ("limit", "used", "level")

    def __init__(self, limit: int):
        if limit < 1:
            raise ParameterError(f"node budget must be >= 1, got {limit}")
        self.limit = limit
        self.used = 0
        self.level = 0

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
    unforced = residual ^ forced
    free = [v for v in range(shifts.size) if unforced >> v & 1]
    hi = t if cap is None else min(cap, t)
    lo = max(s0, forced.bit_count(), 1)
    for s in range(lo, hi + 1):
        bud.level = s
        need = s - forced.bit_count()
        for combo in combinations(free, need):
            seed_mask = forced
            for v in combo:
                seed_mask |= 1 << v
            bud.tick()
            if closure_mask(shifts, blocked, seed_mask, r) == residual:
                return s, seed_mask
    return None, None


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
    if spec.topology is Topology.GRID and r == 2:
        s0 = perimeter_lower_bound(instance)
    else:
        s0 = 1
    shifts = Shifts.of(spec)
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
    return SearchResult(size, CellSet(spec, witness_mask), bud.used)


def _sweep_setup(m: int, n: int, k: int, r: int):
    if r < 1:
        raise ParameterError(f"infection threshold must be >= 1, got {r}")
    spec = grid(m, n)
    if not 0 <= k <= spec.size:
        raise ParameterError(f"need 0 <= k <= {spec.size}, got k={k}")
    return spec, Shifts.of(spec)


def _residual_perimeter_floor(t: int, residual: int, shifts: Shifts) -> int:
    return (4 * t - 2 * shifts.shared_edges(residual) + 3) // 4


def mkmin_exact(m: int, n: int, k: int, r: int = 2, budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Exact best case over pollution: min over all |A| = k of m(G - A, r)."""
    spec, shifts = _sweep_setup(m, n, k, r)
    t = spec.size - k
    if t == 0:
        return 0
    floor = (min_perimeter(t) + 3) // 4 if r == 2 else 1
    bud = _Budget(budget)
    best: int | None = None
    try:
        for combo in combinations(range(spec.size), k):
            amask = 0
            for v in combo:
                amask |= 1 << v
            residual = shifts.full ^ amask
            s0 = _residual_perimeter_floor(t, residual, shifts) if r == 2 else 1
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
    """Exact worst case over pollution: max over all |A| = k of m(G - A, r)."""
    spec, shifts = _sweep_setup(m, n, k, r)
    t = spec.size - k
    if t == 0:
        return 0
    bud = _Budget(budget)
    best: int | None = None
    try:
        for combo in combinations(range(spec.size), k):
            amask = 0
            for v in combo:
                amask |= 1 << v
            residual = shifts.full ^ amask
            s0 = _residual_perimeter_floor(t, residual, shifts) if r == 2 else 1
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
