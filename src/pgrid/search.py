"""Brute-force oracles: ground truth for every closed-form value.

Minimum percolating sets come from iterative deepening on the seed count,
starting at the potential lower bound below, with vertices of residual degree
below r forced into every candidate (nothing can ever infect them).

Each seed size s is one depth-first search over the free cells, choosing
them in ascending canonical index: the leaves, sorted index tuples, are met
in lexicographic order, and each leaf costs one closure.
Two prunes cut only subtrees that hold no percolating set of size s, and a
symmetry rule cuts only subtrees that cannot hold the least percolating set,
so the first percolating leaf, the reported witness, is the lexicographically
least minimum-size set, and results are identical run to run.

- Suffix prune (any r and topology).  The closure is monotone in the seed
  set, and every seed set below child j of a node lies inside the node's
  seeds plus all free cells from j on.  If that union does not percolate,
  neither does any set below child j or any later child, so the node stops.
  The test is skipped at the node's first child, where it repeats the test
  that admitted the node, and where the children are leaves, where it costs
  as much as the leaf it would save.
- Gap prune (any r >= 2 and topology).  Let P(S) count the sides of the
  cells of S that face no cell of S: board edges and polluted cells are
  exposed, and on a torus the wrap edges are shared.  Let the potential be
  phi_r(S) = P(S) + (2r - 4)|S|.  A cell that joins with a >= r infected
  neighbors changes phi_r by 4 - 2a + 2r - 4 <= 0; the cells that join in
  one round can be added one at a time, each with at least r infected
  neighbors, so no round raises phi_r.  One seed raises it by at most 2r.
  So every percolating set has at least ceil(phi_r(residual) / 2r) seeds,
  the start bound for every r (at r = 2 it is ceil(P / 4)), and a node whose
  seeds' closure C still has k seeds to choose is cut when
  phi_r(C) + 2rk < phi_r(residual).  For r >= 2, phi_r >= 0 and k >= 1, so
  the prune is off wherever phi_r(residual) <= 2r, where it could cut nothing
  (a clean torus, or a torus with one polluted cell at r = 2), and at r = 1.
  Each admitted node keeps its closure, and its suffix tests, children and
  leaves close that closure plus their cells, since closure(A | B) =
  closure(closure(A) | B): the same closures, in fewer rounds.
- Symmetry rule (clean tori).  G is a group of board maps that send the
  pollution onto itself, and so the forced and the free cells onto
  themselves.  A node may add only a cell that no map of G fixing every cell
  it chose sends to a lower index.  Let W = w_0 < ... < w_(s-1) be the free
  cells of a percolating set that breaks this at w_d, through a map g that
  fixes w_0 .. w_(d-1) and sends w_d lower.  Then g(W) percolates too and
  holds w_0 .. w_(d-1) and g(w_d), which W lacks, while every cell of W
  below g(w_d) is one of w_0 .. w_(d-1), so g(W) sorts before W.  The least
  percolating set therefore keeps the rule at every depth, and the search
  still meets it first.  Only a clean torus takes a G, from its first level
  on: its translations take cell 0 to every cell, so the root may add cell 0
  alone, and below it G holds the reflections and turns, each followed by
  the translation that takes cell 0 back home, at most seven index tables.
  Grids and polluted tori search with no G.  On the boards the ``verify``
  suites search, the maps that keep a pollution cut no closure of a grid and
  cost the small one-hole tori more time than they saved; a larger polluted
  torus pays for their absence (a one-hole 6x5 torus about twice the
  closures).

The search keeps its path on an explicit stack, so deep levels (a 1 x 2000
path needs 1,001 seeds) never meet the recursion limit.  All oracles share
one node budget, counted in closure evaluations, prune tests included;
exceeding it raises an error carrying the bounds proven so far, never a
silent approximation.  A closure costs O(rounds * ceil(mn / 64)) word
operations, so with no budget given an oracle allows
floor(DEFAULT_NODE_BUDGET / ceil(mn / 64)) closures on an m x n board:
10^8 on boards of at most 64 cells, 6,103 on the largest, 2^20 cells.

The pollution sweeps behind ``mkmin_exact`` and ``mkmax_exact`` search one
pollution per orbit of the grid's reflections and rotations, since those
maps preserve the percolation number.  Their values are those of the full
sweep; their budgets count only the closures of the pollutions searched.
One walk lists the pollutions of both: a depth-first walk over the cells,
in index order, that yields them in lexicographic order and cuts each
branch whose residual perimeter, counted so far plus a bound on what the
undecided cells must add, exceeds a limit the caller may lower as it goes.
The bound is worked out only where it could cut: while the count plus
2(rows + m), an upper bound on it over the undecided rows, is within the
limit, the branch is kept at once.  ``mkmax_exact`` needs every pollution
and sets the limit to 4mn, which cuts nothing.  Every residual of one
``mkmin_exact`` sweep has the same size t, so its start bound
ceil(phi_r / 2r) beats the best b so far exactly when its perimeter is at
most 2r(b - 1) - (2r - 4)t, and that is its limit.

Both sweeps start from what they already know.  ``mkmin_exact`` first
takes a best so far b from one compact residual, a near-square or whole
lines of the short side in the bottom-left corner: at r = 2 the size of
the seeds on its hook, which one closure checks, and which meet the
residual's own start bound ceil(phi_2 / 4); at other r, or should the
seeds fail, the residual's exact value, by search.  Any residual that
beats b has phi_r <= 2r(b - 1), so the walk lists only those, and none at
all when b meets the floor ceil(phi_r / 2r) of the least perimeter of t
cells.  ``mkmax_exact`` first closes each of its 8 most recent witnesses
that avoid a pollution A, each of at most best seeds; one that percolates
G - A proves m(G - A) <= best, and A is skipped.  The compact residual is
itself one of the sweep's pollutions, and a skipped A cannot raise the
maximum, so both values are those of the full sweep; only the order of the
work and the budget counts change.

Polyominoes come from Redelmeier's walk on one bitmask: each is rooted at
its first cell, mid-way along the top row of a (2t - 1) x t board that holds
every cell within t - 1 steps, and a stack frame holds a polyomino, the cells
it may grow by and the cells offered on its path, none offered twice.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import isqrt
from operator import eq
from typing import Iterator

from .engine import closure_mask
from .errors import BudgetExceededError, ParameterError
from .grid import (
    CellSet,
    PollutedInstance,
    Shifts,
    _mask_of,
    _moved,
    _set_bits,
    _symmetries,
    grid,
)
from .perimeter import min_perimeter

#: closures times board words (64 cells each) that an oracle given no budget may spend
DEFAULT_NODE_BUDGET = 10**8


@dataclass(frozen=True)
class SearchResult:
    """Exact minimum with a canonical witness and the work that found it.

    ``witness`` percolates its instance, no smaller set does, and among the
    minimum-size sets it is lexicographically least in canonical cell order.
    ``nodes_explored`` counts every closure run.  The search tried the seed
    sizes ``start_bound`` to ``size``, and ``level_nodes[i]`` is the number
    of closures run at size ``start_bound + i``.  ``forced`` counts the seeds
    every percolating set contains, and the three prune counts say how often
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
    symmetry_prunes: int = 0


class _OutOfBudget(Exception):
    pass


class _Budget:
    """The closure budget shared by every search of one call, and their work counts.

    A ``limit`` of None allows floor(DEFAULT_NODE_BUDGET / ceil(cells / 64))
    closures, for a board of ``cells`` cells.  ``start_bound``, ``forced``
    and ``level_nodes`` describe the latest search, the level it ran out of
    budget in included; the prune counts add up over all of them.
    """

    #: the work counts that SearchResult and BudgetExceededError both carry
    WORK = (
        "start_bound", "forced", "level_nodes", "suffix_prunes", "perimeter_prunes",
        "symmetry_prunes",
    )
    __slots__ = ("limit", "used", "level") + WORK

    def __init__(self, limit: int | None, cells: int = 1):
        if limit is None:
            limit = DEFAULT_NODE_BUDGET // -(-cells // 64)
        if limit < 1:
            raise ParameterError(f"node budget must be >= 1, got {limit}")
        self.limit = limit
        self.used = 0
        self.level = 0
        self.start_bound = 0
        self.forced = 0
        self.level_nodes: tuple[int, ...] = ()
        self.suffix_prunes = 0
        self.perimeter_prunes = 0
        self.symmetry_prunes = 0

    def tick(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise _OutOfBudget

    def work(self) -> dict[str, object]:
        """The :attr:`WORK` counts by name."""
        return {name: getattr(self, name) for name in self.WORK}


#: the cells a search node may add, as a mask, and the maps that fix the cells
#: it chose, as index tables
_Stabilizer = tuple[int, tuple[tuple[int, ...], ...]]


def _stabilizer(maps: list[tuple[int, ...]]) -> _Stabilizer:
    """The mask of the cells that none of ``maps`` sends to a lower index, and ``maps``."""
    if not maps:
        return -1, ()
    cells = range(len(maps[0]))
    return _mask_of(bytes(map(eq, map(min, cells, *maps), cells)), "\x01"), tuple(maps)


def _torus_group(m: int, n: int) -> _Stabilizer:
    """The root of the symmetry rule on the clean ``m x n`` torus: cell 0 alone, and its maps.

    The maps are the :func:`grid._symmetries` tables, each followed by the
    translation that takes cell 0 back home, so all of them fix cell 0.  The
    translations take cell 0 to every cell, so the root may add cell 0 alone.
    """
    return 1, tuple(_moved(q, -q[0] % m, -(q[0] // m) % n, m, n) for q in _symmetries(m, n))


def _min_search(
    shifts: Shifts, blocked: int, residual: int, r: int, cap: int | None, bud: _Budget
) -> tuple[int | None, int | None]:
    """Smallest percolating seed set for one instance, or None if above cap.

    The seed sizes run up from the start bound: ceil(phi_r / 2r), which is
    :meth:`Shifts.seed_floor`, or the forced count or 1 if larger.  Each is one
    depth-first search over the free cells ``cells``, ascending: a node is a
    partial seed with ``k`` cells left to choose, and its child ``j`` adds
    ``cells[j]``, for ascending j above the last cell the node holds.  On a
    clean torus a child must also be a cell that the maps of
    :func:`_torus_group` fixing every cell the node chose send to no lower
    index.  A mask of free cells is made only when used: a table of them
    would take O(t^2) bits.
    """
    closure = closure_mask
    perimeter = shifts.perimeter
    t = residual.bit_count()
    forced = residual & ~shifts.at_least(residual, r)
    n_forced = forced.bit_count()
    # phi_r = perimeter + weight * cells, and one seed raises it by at most reach
    weight = 2 * r - 4
    reach = 2 * r
    target = perimeter(residual) + weight * t
    lo = max(-(-target // reach), n_forced, 1)
    hi = t if cap is None else min(cap, t)
    bud.start_bound = lo
    bud.forced = n_forced
    bud.level_nodes = ()
    if lo > hi:
        return None, None
    rest = residual ^ forced
    cells = list(_set_bits(rest))
    last = len(cells)
    # phi_r >= 0 for r >= 2, so no node is cut unless phi_r(residual) > 2r
    if r < 2 or target <= reach:
        target = None

    def gap_cut(seed: int, k: int) -> int | None:
        """The closure of ``seed``, or None when ``k`` more seeds cannot reach ``target``."""
        bud.tick()
        grown = closure(shifts, blocked, seed, r)
        phi = perimeter(grown) + weight * grown.bit_count() if weight else perimeter(grown)
        if phi + reach * k < target:
            bud.perimeter_prunes += 1
            return None
        return grown

    group = _torus_group(shifts.m, shifts.size // shifts.m) if shifts.wrap and not blocked else None
    for s in range(lo, hi + 1):
        bud.level = s
        used = bud.used
        need = s - n_forced
        try:
            if need == 0:
                bud.tick()
                if closure(shifts, blocked, forced, r) == residual:
                    return s, forced
                continue
            base = forced if target is None else gap_cut(forced, need)
            if base is None:
                continue
            # the node at depth d is seeds[d] and nexts[d] is its next child;
            # its first child is 0 at the root and else its parent's next,
            # nexts[d - 1]; bases[d] is a set between seeds[d] and its closure,
            # so closing it with more cells gives what closing seeds[d] with
            # them would; on a clean torus, stabs[d] is the _stabilizer of the
            # group's maps that fix the cells the node chose, the group's root
            # at the root
            seeds = [forced]
            bases = [base]
            nexts = [0]
            stabs = None if group is None else [group]
            while nexts:
                d = len(nexts) - 1
                k = need - d
                j = nexts[d]
                if j > last - k:
                    seeds.pop()
                    bases.pop()
                    nexts.pop()
                    if stabs:
                        stabs.pop()
                    continue
                nexts[d] = j + 1
                v = cells[j]
                if stabs and not stabs[d][0] >> v & 1:
                    bud.symmetry_prunes += 1
                    continue
                base = bases[d]
                cell = 1 << v
                if k == 1:
                    bud.tick()
                    if closure(shifts, blocked, base | cell, r) == residual:
                        return s, seeds[d] | cell
                    continue
                if j > (nexts[d - 1] if d else 0):
                    bud.tick()
                    # the free cells from j on
                    if closure(shifts, blocked, base | rest >> v << v, r) != residual:
                        bud.suffix_prunes += 1
                        nexts[d] = last  # no child left: the next pass pops the node
                        continue
                base |= cell
                if target is not None:
                    base = gap_cut(base, k - 1)
                    if base is None:
                        continue
                seeds.append(seeds[d] | cell)
                bases.append(base)
                nexts.append(j + 1)
                if stabs:
                    stabs.append(_stabilizer([q for q in stabs[d][1] if q[v] == v]))
        finally:
            bud.level_nodes += (bud.used - used,)
    return None, None


def min_percolating_exact(
    instance: PollutedInstance, r: int = 2, budget: int | None = None
) -> SearchResult:
    """Exact m(G', r) for one polluted instance, with a canonical witness.

    ``budget`` caps the closures run; None allows
    floor(DEFAULT_NODE_BUDGET / ceil(mn / 64)) on an m x n board.
    """
    if r < 1:
        raise ParameterError(f"infection threshold must be >= 1, got {r}")
    spec = instance.spec
    residual = instance.residual.mask
    bud = _Budget(budget, spec.size)
    if residual == 0:
        return SearchResult(0, CellSet(spec), 0)
    try:
        size, witness_mask = _min_search(
            Shifts.of(spec), instance.polluted.mask, residual, r, None, bud
        )
    except _OutOfBudget:
        raise BudgetExceededError(
            f"budget of {bud.limit} closure evaluations exhausted at seed size {bud.level}",
            nodes=bud.used,
            lower_bound=bud.level,
            upper_bound=residual.bit_count(),
            **bud.work(),
        ) from None
    assert size is not None and witness_mask is not None
    return SearchResult(size, CellSet(spec, witness_mask), bud.used, **bud.work())


def _sweep_setup(m: int, n: int, k: int, r: int):
    if r < 1:
        raise ParameterError(f"infection threshold must be >= 1, got {r}")
    spec = grid(m, n)
    if not 0 <= k <= spec.size:
        raise ParameterError(f"need 0 <= k <= {spec.size}, got k={k}")
    return spec, Shifts.of(spec)


def _pollutions(shifts: Shifts, k: int, limit: list[int]):
    """The k-cell pollutions of a grid whose residual perimeter is at most ``limit[0]``.

    Yields (cells, mask, residual), cells a sorted index tuple, in
    lexicographic order, less each pollution whose residual perimeter
    exceeds ``limit[0]`` when the walk reaches it.  The limit is read at every
    step, so the caller may lower it during the walk; a limit of 4mn cuts
    nothing.

    The walk decides the cells in index order, polluted before healthy.  A
    decided cell settles its edges to its left and upper neighbours and its
    own border sides, so the perimeter counted so far never falls.  The h
    healthy cells still to place span some R rows and C columns, with
    R * C >= h and C at least the undecided bottom-row cells beyond the
    pollution still to place, which must be healthy.  Each such row shows a
    right side at its rightmost cell and each such column a bottom side at its
    lowest.  The leftmost cell of each row and the highest of each column show
    one more side, unless it meets a decided healthy cell: the one left of the
    next cell, or one of those just above the undecided part.  So at least
    max(R + C, 2(R + C) - covered) sides are still to come, and a branch whose
    count plus that bound exceeds the limit holds no pollution to yield.  The
    undecided rows alone fit the h cells, so R + C <= rows + m and the bound
    is at most 2(rows + m): a branch whose count plus that is within the limit
    is kept without working the bound out.  Once all k cells are placed, or
    every undecided cell must be polluted, the pollution is settled and its
    perimeter is taken whole.
    """
    m, size, full = shifts.m, shifts.size, shifts.full
    bottom = size - m
    # a frame: next cell p, healthy cells so far, cells left to pollute, perimeter counted so far
    stack = [(0, 0, k, 0)]
    while stack:
        p, healthy, left, counted = stack.pop()
        if left == 0 or left == size - p:
            residual = healthy if left else healthy | full >> p << p
            if shifts.perimeter(residual) <= limit[0]:
                amask = full ^ residual
                # through a list: a tuple grown from an iterator is resized, which
                # strands its block on another size's free list, and a long sweep
                # fills those lists with thousands of tuples (peak RSS +2 MiB)
                yield tuple(list(_set_bits(amask))), amask, residual
            continue
        col = p % m
        west = col > 0 and healthy >> (p - 1) & 1
        rows = (size - p + m - 1) // m
        if counted + 2 * (rows + m) > limit[0]:
            # the fewest rows R plus columns C that the h healthy cells still
            # to place can span, with at least d of them in the bottom row
            h = size - p - left
            d = min(m, size - p) - left
            span = min(r + max(-(-h // r), d) for r in range(-(-h // m), rows + 1))
            # the decided cells just above the undecided part: the m before p,
            # but in the last row only those above the columns from p's on
            lo = max(p - m, 0)
            hi = p if p < bottom else p - col
            covered = (healthy >> lo & ((1 << (hi - lo)) - 1)).bit_count() + west
            if counted + max(span, 2 * span - covered) > limit[0]:
                continue
        north = p >= m and healthy >> (p - m) & 1
        exposed = (not west) + (not north) + (col == m - 1) + (p >= bottom)
        stack.append((p + 1, healthy | 1 << p, left, counted + exposed))
        stack.append((p + 1, healthy, left - 1, counted + west + north))


def _orbit_least(tables: list[tuple[int, ...]], combo: tuple[int, ...]) -> bool:
    """Whether no image of the nonempty sorted ``combo`` under ``tables`` sorts before it.

    Every automorphism maps a pollution onto one with the same percolation
    number, so a sweep need search only the least member of each orbit of
    :func:`grid._symmetries`.  The sweeps meet pollutions in lexicographic
    order, so the first member of an orbit they meet is that least one.
    """
    first = combo[0]
    for q in tables:
        low = min(map(q.__getitem__, combo))
        if low < first or low == first and tuple(sorted(map(q.__getitem__, combo))) < combo:
            return False
    return True


def _compact_residual(m: int, n: int, t: int) -> tuple[int, int]:
    """A residual of 1 <= t <= mn cells of least perimeter, in the bottom-left corner, and seeds.

    While t < s^2, s the short side, it is a near-square: rows of
    ceil(sqrt(t)) cells, the last one partial; after that, whole lines of s
    cells across the short side, the last one partial.  Built row by row from
    the bottom, each row a segment from the left edge and none longer than
    the row below: a Young diagram, whose perimeter is 2(L + H) for a bottom
    row of L cells and a first column of H.

    The seeds lie on its hook, the bottom row and the first column, a path
    of L + H - 1 cells: every other cell from the top of the column, and the
    end of the row, ceil((L + H) / 2) cells, the floor ceil(phi_2 / 4).  At
    r = 2 they percolate it: each other hook cell has two seeded neighbours
    on the path, and then each cell off the hook has its left and lower
    neighbours inside the diagram.
    """
    s = min(m, n)
    if t < s * s:
        w = isqrt(t - 1) + 1
        widths = [w] * (t // w) + [t % w]
    elif m >= n:
        # whole columns, the partial one growing up from the bottom row
        c, extra = divmod(t, n)
        widths = [c + 1] * extra + [c] * (n - extra)
    else:
        widths = [m] * (t // m) + [t % m]
    # only the last width may be 0, and its row may lie above the board
    residual = sum(((1 << w) - 1) << (n - 1 - up) * m for up, w in enumerate(widths) if w)
    corner = (n - 1) * m
    height = len(widths) - (widths[-1] == 0)
    # the hook from the top of the first column down and then along the bottom row
    hook = [corner - up * m for up in range(height - 1, 0, -1)]
    hook += range(corner, corner + widths[0])
    return residual, sum(1 << p for p in hook[::2]) | 1 << hook[-1]


def mkmin_exact(m: int, n: int, k: int, r: int = 2, budget: int | None = None) -> int:
    """Exact best case over pollution: min over all |A| = k of m(G - A, r).

    The sweep first takes a best so far b from one compact residual, from
    :func:`_compact_residual`: at r = 2 the size of its hook seeds, which
    one closure checks, and otherwise, or should they fail to percolate, the
    residual's exact value, by search.  It stops there if b is the floor
    every residual of t cells needs, or if k = 0, where that residual is the
    only one; there seeds above its own floor ceil(phi_2 / 4) would not give
    its value, and it is searched instead.  Where no cell of
    the board has r neighbours (r >= 3 one wide, r >= 4 two wide, r >= 5
    anywhere) that floor is t, since no residual cell can ever be infected,
    and the compact residual meets it.  Otherwise it
    searches one pollution per orbit of the grid's symmetries, and none whose
    start bound is no better than the best so far.  That bound is
    ceil(phi_r / 2r) with phi_r = perimeter + (2r - 4)t, and every residual
    has t = mn - k cells, so once the best is b only residuals of perimeter
    at most 2r(b - 1) - (2r - 4)t can beat it, and only those are listed.  The
    compact residual is one of the pollutions the sweep ranges over, so b
    is no less than the minimum and every residual below b is listed:
    starting from it changes only the order of the work, never the value,
    that of the full sweep.  ``budget`` counts the closures of the searches
    made, the compact residual's included; None allows
    floor(DEFAULT_NODE_BUDGET / ceil(mn / 64)).
    """
    spec, shifts = _sweep_setup(m, n, k, r)
    bud = _Budget(budget, spec.size)
    t = spec.size - k
    if t == 0:
        return 0
    reach = 2 * r
    # ceil((perimeter + (2r - 4)t) / 2r) is (perimeter + pad) // reach
    pad = (reach - 4) * t + reach - 1
    floor = max(1, (min_perimeter(t) + pad) // reach)
    if not shifts.at_least(shifts.full, r) & shifts.full:
        floor = t
    best: int | None = None
    try:
        residual, seeds = _compact_residual(m, n, t)
        blocked = shifts.full ^ residual
        if r == 2:
            bud.tick()
            if closure_mask(shifts, blocked, seeds, r) == residual:
                best = seeds.bit_count()
        # at k = 0 no walk follows, so seeds above the residual's own floor
        # leave its value unknown
        if best is None or (not k and best > shifts.seed_floor(residual, r)):
            best, _ = _min_search(shifts, blocked, residual, r, None, bud)
            assert best is not None
        if k and best > floor:
            tables = _symmetries(m, n)
            # a residual of perimeter above this needs best seeds or more
            limit = [reach * (best - 1) - (reach - 4) * t]
            for combo, amask, residual in _pollutions(shifts, k, limit):
                if not _orbit_least(tables, combo):
                    continue
                size, _ = _min_search(shifts, amask, residual, r, best - 1, bud)
                if size is not None:
                    best = size
                    limit[0] = reach * (best - 1) - (reach - 4) * t
                    if best <= floor:
                        break
    except _OutOfBudget:
        raise BudgetExceededError(
            f"budget of {bud.limit} closure evaluations exhausted",
            nodes=bud.used,
            lower_bound=floor,
            upper_bound=t if best is None else best,
        ) from None
    return best


def mkmax_exact(m: int, n: int, k: int, r: int = 2, budget: int | None = None) -> int:
    """Exact worst case over pollution: max over all |A| = k of m(G - A, r).

    One pollution is searched per orbit of the grid's symmetries.  Before a
    pollution A is searched, each of the 8 most recent search witnesses that
    avoids A is closed in G - A; every one of them has at most best seeds, so
    if one percolates, m(G - A) <= best, A cannot raise the best, and it is
    skipped.  The value is that of the full sweep; ``budget`` counts the
    closures of the searches made and of the witnesses tried, and None
    allows floor(DEFAULT_NODE_BUDGET / ceil(mn / 64)).
    """
    spec, shifts = _sweep_setup(m, n, k, r)
    bud = _Budget(budget, spec.size)
    t = spec.size - k
    if t == 0:
        return 0
    tables = _symmetries(m, n)
    best: int | None = None
    recent: deque[int] = deque(maxlen=8)

    def covered(amask: int, residual: int) -> bool:
        """Whether one of the ``recent`` witnesses that avoid ``amask`` percolates ``residual``."""
        for seeds in recent:
            if not seeds & amask:
                bud.tick()
                if closure_mask(shifts, amask, seeds, r) == residual:
                    return True
        return False

    try:
        for combo, amask, residual in _pollutions(shifts, k, [4 * spec.size]):
            if best is not None and (not _orbit_least(tables, combo) or covered(amask, residual)):
                continue
            size, witness = _min_search(shifts, amask, residual, r, None, bud)
            assert size is not None and witness is not None
            recent.appendleft(witness)
            if best is None or size > best:
                best = size
                if best == t:
                    break
    except _OutOfBudget:
        raise BudgetExceededError(
            f"budget of {bud.limit} closure evaluations exhausted",
            nodes=bud.used,
            lower_bound=0 if best is None else best,
            upper_bound=t,
        ) from None
    assert best is not None
    return best


def _fixed_polyominoes(t: int) -> Iterator[int]:
    """Every fixed polyomino of at most t cells, once, as a mask on a (2t - 1) x t board."""
    w = 2 * t - 1
    root = 1 << (t - 1)
    stack = [(0, root, root)]
    while stack:
        cells, untried, reached = stack.pop()
        while untried:
            cell = untried & -untried
            untried ^= cell
            grown = cells | cell
            yield grown
            if grown.bit_count() < t:
                new = (cell << 1 | cell >> 1 | cell << w | cell >> w) & -root & ~reached
                stack.append((grown, untried | new, reached | new))


def min_polyomino_perimeter_exact(t: int) -> int:
    """Minimum perimeter over all connected polyominoes of t cells, by enumeration."""
    if not 1 <= t <= 10:
        raise ParameterError(f"enumeration supports 1 <= t <= 10, got {t}")
    perimeter = Shifts.of(grid(2 * t - 1, t)).perimeter
    return min(perimeter(p) for p in _fixed_polyominoes(t) if p.bit_count() == t)
