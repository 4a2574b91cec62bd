"""Explicit witnesses achieving the extremal seed counts.

For favorable pollution (small k) the polluted set deletes the last columns
and the seeds alternate along the first column and first row of what is left.
For large k the residual is kept as close to a square as possible and seeded
the same way.  One builder, ``_extremal_masks``, makes both masks of every
branch by index arithmetic, with no coordinate lists, and the public
constructors wrap it.  For the worst-pollution lower bound the polluted set is
an independent set of interior degree-4 vertices.  Every witness returned here
is re-checked with the engine before it leaves this module; ``verify
theorem1`` takes the masks from the builder and closes each witness itself,
on one set of shift constants per board.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .engine import is_percolating
from .errors import InternalConsistencyError, OutOfHypothesisError, ParameterError
from .formulas import _check_grid_shape, independent_interior_capacity, mkmin
from .grid import CellSet, GridSpec, PollutedInstance, grid


@dataclass(frozen=True)
class ExtremalWitness:
    """A pollution placement and a seed set that together realize mkmin."""

    instance: PollutedInstance
    seeds: CellSet
    claimed_size: int


def _stride(count: int, step: int) -> int:
    """``count`` set bits, ``step`` apart, starting at bit 0."""
    return ((1 << step * count) - 1) // ((1 << step) - 1)


def _block(spec: GridSpec, cols: int, rows: int, col: int = 1, row: int = 1) -> int:
    """Mask of columns ``col .. col+cols-1`` times rows ``row .. row+rows-1``."""
    shift = (spec.n + 1 - row - rows) * spec.m + col - 1
    return ((1 << cols) - 1) * _stride(rows, spec.m) << shift


def _alternating_path_seeds(spec: GridSpec, cols: int, rows: int) -> int:
    """Every other vertex of the path down column 1 then right along row 1.

    The path starts at (1, rows), so seeds sit at its odd positions: the
    vertices (1, j) and, for i >= 2, (i, 1) with j and i of the parity of
    ``rows``; when the path has even length its last vertex (cols, 1) is
    added as well.  The result has ceil((cols + rows) / 2) vertices.
    """
    if cols == 0 or rows == 0:
        return 0
    m, bottom = spec.m, (spec.n - 1) * spec.m
    column = _stride((rows + 1) // 2, 2 * m) << (spec.n - rows) * m
    row = _stride((cols - rows % 2) // 2, 2) << 1 + rows % 2
    last = (cols + rows) % 2 << cols - 1
    return column | (row | last) << bottom


def _extremal_masks(spec: GridSpec, k: int) -> tuple[int, int]:
    """(polluted, seeds) masks of the extremal witness on the m x n grid ``spec``.

    The small-k geometry of :func:`pollution_small_k` and :func:`seeds_small_k`
    while k <= (m-n)n, k = 0 included, and that of :func:`extremal_large_k`
    after; at k = (m-n)n both leave the n by n square with the same seeds.
    No validation: 2 <= n <= m and 0 <= k <= mn are assumed.
    """
    m, n = spec.m, spec.n
    if k <= (m - n) * n:
        ell, rest = divmod(k, n)
        polluted = _block(spec, ell, n, m - ell + 1) | _block(spec, 1, rest, m - ell, n + 1 - rest)
        return polluted, _alternating_path_seeds(spec, m - ell, n)
    t = m * n - k
    x = isqrt(t)
    o = t - x * x
    residual = _block(spec, x, x)
    if 0 < o <= x:
        residual |= _block(spec, o, 1, 1, x + 1)
        cols, rows = x, x + 1
    elif o > x:
        residual |= _block(spec, x, 1, 1, x + 1) | _block(spec, 1, o - x, x + 1)
        cols = rows = x + 1
    else:
        cols = rows = x
    full = (1 << m * n) - 1
    return full ^ residual, _alternating_path_seeds(spec, cols, rows)


def _check_small_k(m: int, n: int, k: int) -> GridSpec:
    _check_grid_shape(m, n)
    if not 1 <= k <= (m - n) * n:
        raise ParameterError(f"need 1 <= k <= (m-n)n = {(m - n) * n}, got k={k}")
    return grid(m, n)


def pollution_small_k(m: int, n: int, k: int) -> CellSet:
    """The last floor(k/n) full columns plus leftovers down the next column's top."""
    spec = _check_small_k(m, n, k)
    return CellSet(spec, _extremal_masks(spec, k)[0])


def seeds_small_k(m: int, n: int, k: int) -> CellSet:
    """Alternating seeds along column 1 and row 1 of the surviving m-ell columns."""
    spec = _check_small_k(m, n, k)
    return CellSet(spec, _extremal_masks(spec, k)[1])


def _verified_witness(m: int, n: int, k: int) -> ExtremalWitness:
    spec = grid(m, n)
    polluted, seed_mask = _extremal_masks(spec, k)
    instance = PollutedInstance(spec, CellSet(spec, polluted))
    seeds = CellSet(spec, seed_mask)
    expected = mkmin(m, n, k)
    if instance.k != k or len(seeds) != expected or not is_percolating(instance, seeds, 2):
        raise InternalConsistencyError(
            f"witness for m={m}, n={n}, k={k} failed verification"
        )
    return ExtremalWitness(instance, seeds, expected)


def extremal_large_k(m: int, n: int, k: int) -> ExtremalWitness:
    """Pollute everything except a near-square residual in the lower-left corner.

    With t = mn - k, x = floor(sqrt(t)) and o = t - x*x the residual is the
    x by x square, plus o cells of a new top row when 0 < o <= x, plus that
    full row and o - x cells of a new right column when o > x.
    """
    _check_grid_shape(m, n)
    pivot = (m - n) * n
    if not pivot <= k <= m * n:
        raise ParameterError(f"need (m-n)n = {pivot} <= k <= {m * n}, got k={k}")
    return _verified_witness(m, n, k)


def construct_extremal(m: int, n: int, k: int) -> ExtremalWitness:
    """Engine-verified witness for any admissible k, dispatching on the branch."""
    _check_grid_shape(m, n)
    if not 0 <= k <= m * n:
        raise ParameterError(f"need 0 <= k <= {m * n}, got k={k}")
    return _verified_witness(m, n, k)


def pollution_max_independent(m: int, n: int, k: int) -> CellSet:
    """First k interior cells (i, j) with i + j even, columns first.

    Interior cells all have degree 4, and same-parity cells are never
    adjacent, so any prefix is an independent set.
    """
    if m < 3 or n < 3:
        raise ParameterError(f"need m, n >= 3 for interior vertices, got m={m}, n={n}")
    if k < 1:
        raise ParameterError(f"need k >= 1, got k={k}")
    cap = independent_interior_capacity(m, n)
    if k > cap:
        raise OutOfHypothesisError(
            f"k={k} exceeds the {m}x{n} grid's independent interior capacity {cap}"
        )
    spec = grid(m, n)
    cells = [(i, j) for i in range(2, m) for j in range(2, n) if (i + j) % 2 == 0]
    return CellSet.from_vertices(spec, cells[:k])
