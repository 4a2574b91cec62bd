"""Closed-form percolation numbers for grids and tori with pollution.

All values concern 2-neighbor bootstrap percolation.  For an m x n grid
(2 <= n <= m) with k polluted vertices placed adversarially in the attacker's
favor, the minimum percolating-set size over the best pollution placement is

    ceil((n + m - floor(k/n)) / 2)      while k <= (m - n) * n,
    ceil(ceil(2 * sqrt(mn - k)) / 2)    afterwards,

and both expressions agree at the boundary.  :func:`mkmin` is the one path
to that value, and it checks the ranges; ``constructions.construct_extremal``
builds the matching witnesses.  Everything here is integer arithmetic;
square roots go through ``math.isqrt``.
"""

from __future__ import annotations

from math import isqrt

from .errors import InternalConsistencyError, OutOfHypothesisError, ParameterError


def _check_grid_shape(m: int, n: int) -> None:
    if not 2 <= n <= m:
        raise ParameterError(f"need 2 <= n <= m, got m={m}, n={n}")


def _check_args(m: int, n: int, k: int) -> None:
    _check_grid_shape(m, n)
    if not 0 <= k <= m * n:
        raise ParameterError(f"need 0 <= k <= {m * n}, got k={k}")


def ceil_two_sqrt(t: int) -> int:
    """Least s >= 0 with s*s >= 4*t, i.e. ceil(2*sqrt(t))."""
    if t < 0:
        raise ParameterError(f"need t >= 0, got {t}")
    s = isqrt(4 * t)
    return s if s * s >= 4 * t else s + 1


def percolation_number_grid(m: int, n: int) -> int:
    """m(P_m x P_n, 2) = ceil((m+n)/2), the folklore grid value."""
    if m < 2 or n < 2:
        raise ParameterError(f"need m, n >= 2, got m={m}, n={n}")
    return (m + n + 1) // 2


def percolation_number_torus(m: int, n: int) -> int:
    """m(C_m x C_n, 2) = ceil((m+n)/2) - 1; unchanged by deleting any one vertex."""
    if m < 3 or n < 3:
        raise ParameterError(f"need m, n >= 3, got m={m}, n={n}")
    return (m + n + 1) // 2 - 1


def mkmin(m: int, n: int, k: int) -> int:
    """Minimum percolating-set size under the most favorable k-vertex pollution."""
    _check_args(m, n, k)
    pivot = (m - n) * n
    small = (n + m - k // n + 1) // 2
    if k < pivot:
        return small
    large = (ceil_two_sqrt(m * n - k) + 1) // 2
    if k == pivot and small != large:
        # both expressions are provably equal at k = (m-n)n
        raise InternalConsistencyError(
            f"branch mismatch at k=(m-n)n: {small} != {large} for m={m}, n={n}, k={k}"
        )
    return large


def mkmin_remark_form(m: int, n: int, k: int) -> int:
    """Small-k value written as a deduction from the unpolluted grid number.

    With ell = floor(k/n): subtract floor(ell/2) when m+n is even and
    floor((ell+1)/2) when m+n is odd.  Agrees with :func:`mkmin` on its range.
    """
    _check_grid_shape(m, n)
    if not 1 <= k <= (m - n) * n:
        raise ParameterError(f"need 1 <= k <= (m-n)n = {(m - n) * n}, got k={k}")
    ell = k // n
    base = percolation_number_grid(m, n)
    if (m + n) % 2 == 0:
        return base - ell // 2
    return base - (ell + 1) // 2


def mkmin_lower_bound(m: int, n: int, k: int) -> int:
    """Lower bound on the best-pollution percolation number; tight for every k.

    Case on the residual cell count t = mn - k: while t exceeds n*n a width
    argument gives ceil((n + m - ell)/2); at t = x*x at most n*n the shape
    argument gives x; with a positive remainder it gives x + 1.
    """
    _check_grid_shape(m, n)
    if not 1 <= k < m * n:
        raise ParameterError(f"need 1 <= k < {m * n}, got k={k}")
    t = m * n - k
    if t > n * n:
        return (n + m - k // n + 1) // 2
    x = isqrt(t)
    return x if x * x == t else x + 1


def independent_interior_capacity(m: int, n: int) -> int:
    """Largest pairwise non-adjacent set of interior degree-4 vertices usable
    for worst-pollution lower bounds: ceil((m-2)(n-2)/2)."""
    if m < 2 or n < 2:
        raise ParameterError(f"need m, n >= 2, got m={m}, n={n}")
    return ((m - 2) * (n - 2) + 1) // 2


def mkmax_lower_bound(m: int, n: int, k: int) -> int:
    """Worst-pollution percolation number is at least m(G,2) + k while an
    independent interior degree-4 pollution set of size k exists."""
    if m < 2 or n < 2:
        raise ParameterError(f"need m, n >= 2, got m={m}, n={n}")
    if k < 0:
        raise ParameterError(f"need k >= 0, got k={k}")
    cap = independent_interior_capacity(m, n)
    if k > cap:
        raise OutOfHypothesisError(
            f"k={k} exceeds the independent interior capacity {cap} of the {m}x{n} grid"
        )
    return percolation_number_grid(m, n) + k
