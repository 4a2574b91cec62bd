"""Unit-square perimeter arithmetic.

A shape is a finite set of lattice cells, each drawn as a unit square.  Its
perimeter is ``4c - 2e`` where ``c`` counts cells and ``e`` counts shared
edges.  The minimum perimeter achievable with ``t`` cells has a closed form,
as does the variant where the shape's height is capped.  Because a cell
infected by two or more neighbors never increases the union's perimeter,
``ceil(perimeter / 4)`` of the residual region lower-bounds the size of any
percolating seed set on a grid.  Perimeters of actual cell sets are computed
only on masks, by :meth:`Shifts.perimeter`; this module holds the closed forms.
"""

from __future__ import annotations

from math import isqrt

from .errors import OutOfHypothesisError, ParameterError, UnsupportedTopologyError
from .grid import PollutedInstance, Shifts, Topology


def min_perimeter(t: int) -> int:
    """Minimum perimeter over all shapes of t unit squares.

    With x = floor(sqrt(t)) and remainder r = t - x*x the minimum is 4x when
    r = 0, 4x + 2 when 0 < r <= x, and 4x + 4 when x < r <= 2x.
    """
    if t < 1:
        raise ParameterError(f"cell count must be >= 1, got {t}")
    x = isqrt(t)
    r = t - x * x
    if r == 0:
        return 4 * x
    if r <= x:
        return 4 * x + 2
    return 4 * x + 4


def min_perimeter_height_bounded(t: int, x: int) -> int:
    """Minimum perimeter over shapes of t cells whose height is at most x.

    Requires t >= x*x so the shape can be a width-y block of height x plus a
    partial row: with y = floor(t/x) and r = t - x*y the minimum is 2x + 2y
    when r = 0, else 2x + 2y + 2.
    """
    if x < 1:
        raise ParameterError(f"height bound must be >= 1, got {x}")
    if t < x * x:
        raise OutOfHypothesisError(f"need t >= x^2, got t={t}, x={x}")
    y = t // x
    r = t - x * y
    base = 2 * x + 2 * y
    return base if r == 0 else base + 2


def perimeter_lower_bound(instance: PollutedInstance) -> int:
    """ceil(perimeter(residual)/4): no fewer seeds can ever percolate with r=2."""
    if instance.spec.topology is not Topology.GRID:
        raise UnsupportedTopologyError("perimeter bound needs a planar embedding")
    return Shifts.of(instance.spec).seed_floor(instance.residual.mask, 2)
