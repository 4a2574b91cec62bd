"""Explicit witnesses achieving the extremal seed counts.

:func:`construct_extremal` is the one entry point for the best-case witness
of every k.  While k <= (m-n)n the polluted set deletes the last columns and
the seeds alternate along the first column and first row of what is left;
after that the residual is kept as close to a square as possible and seeded
the same way.  One builder, ``_extremal_masks``, makes both masks of every k
by index arithmetic, with no coordinate lists, on boards of either
orientation: the wide one here, and the tall one that ``mkmin_exact``
walks and starts its sweeps from.  For the
worst-pollution lower bound the polluted set is an independent set of
interior degree-4 vertices.  One check, ``_checked_masks``, counts a
witness's cells and closes it once; every witness returned here passes it,
and so does every construction row of ``verify theorem1``, on one set of
shift constants per board.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .engine import closure_mask
from .errors import InternalConsistencyError, OutOfHypothesisError, ParameterError
from .formulas import independent_interior_capacity, mkmin
from .grid import CellSet, GridSpec, PollutedInstance, Shifts, grid


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

    While k <= (m-n)n, k = 0 included, the pollution is the last floor(k/n)
    full columns plus the k mod n leftover cells down the top of the next
    column, and the seeds alternate down column 1 and along row 1 of the
    m - floor(k/n) columns left.  On a tall board, while k <= (n-m)m, it is
    the top floor(k/m) full rows plus the k mod m rightmost cells of the row
    below them, seeded the same way on the n - floor(k/m) rows left.  After
    that, with t = mn - k, x = floor(sqrt(t)) and o = t - x*x, everything is
    polluted except a lower-left residual: the x by x square, plus o cells of
    a new top row when 0 < o <= x, plus that full row and o - x cells of a new
    right column when o > x; it is seeded the same way.  Where the branches
    meet they leave the same square with the same seeds.  Every residual has
    the least perimeter of its cells on the board, and its ceil(phi_2 / 4)
    seeds percolate it at r = 2.  No validation: any m, n >= 1 and
    0 <= k <= mn are assumed.
    """
    m, n = spec.m, spec.n
    if k <= (m - n) * n:
        ell, rest = divmod(k, n)
        polluted = _block(spec, ell, n, m - ell + 1) | _block(spec, 1, rest, m - ell, n + 1 - rest)
        return polluted, _alternating_path_seeds(spec, m - ell, n)
    if k <= (n - m) * m:
        ell, rest = divmod(k, m)
        polluted = _block(spec, m, ell, 1, n - ell + 1)
        polluted |= _block(spec, rest, 1, m - rest + 1, n - ell)
        return polluted, _alternating_path_seeds(spec, m, n - ell)
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


def _checked_masks(spec: GridSpec, shifts: Shifts, k: int, expected: int) -> tuple[int, int]:
    """The masks of :func:`_extremal_masks`, checked: k polluted cells, ``expected``
    seeds, and one closure that infects the whole residual, or InternalConsistencyError."""
    polluted, seeds = _extremal_masks(spec, k)
    if (
        polluted.bit_count() != k
        or seeds.bit_count() != expected
        or closure_mask(shifts, polluted, seeds, 2) != shifts.full ^ polluted
    ):
        raise InternalConsistencyError(
            f"witness for m={spec.m}, n={spec.n}, k={k} failed verification"
        )
    return polluted, seeds


def construct_extremal(m: int, n: int, k: int) -> ExtremalWitness:
    """Engine-verified witness for any 0 <= k <= mn, in either regime."""
    expected = mkmin(m, n, k)  # checks 2 <= n <= m and 0 <= k <= mn
    spec = grid(m, n)
    polluted, seeds = _checked_masks(spec, Shifts.of(spec), k, expected)
    instance = PollutedInstance(spec, CellSet(spec, polluted))
    return ExtremalWitness(instance, CellSet(spec, seeds), expected)


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
