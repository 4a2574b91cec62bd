from math import isqrt

from hypothesis import given
from hypothesis import strategies as st
import pytest

import oracles
from pgrid import (
    CellSet,
    OutOfHypothesisError,
    ParameterError,
    PollutedInstance,
    UnsupportedTopologyError,
    ceil_two_sqrt,
    grid,
    min_perimeter,
    min_perimeter_height_bounded,
    perimeter_lower_bound,
    torus,
)
from pgrid.grid import Shifts
from pgrid.search import _fixed_polyominoes

cells_strategy = st.sets(
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)), max_size=20
)


@given(cells=cells_strategy, wrap=st.booleans())
def test_shape_perimeter_matches_exposed_side_count(cells, wrap):
    # a free shape moved onto a board that leaves a margin of one cell on
    # every side: the board's edges and the torus's wrap edges touch nothing
    moved = [(i + 7, j + 7) for i, j in cells]
    spec = torus(13, 13) if wrap else grid(13, 13)
    mask = oracles.mask_of_cells(13, 13, moved)
    assert Shifts.of(spec).perimeter(mask) == oracles.naive_perimeter(cells)


def test_min_perimeter_examples():
    assert min_perimeter(1) == 4
    assert min_perimeter(9) == 12
    assert min_perimeter(10) == 14
    assert min_perimeter(15) == 16
    with pytest.raises(ParameterError):
        min_perimeter(0)


@given(t=st.integers(1, 10**6))
def test_min_perimeter_equals_twice_ceil_two_sqrt(t):
    assert min_perimeter(t) == 2 * ceil_two_sqrt(t)


@given(cells=cells_strategy.filter(bool))
def test_no_shape_beats_the_minimal_perimeter(cells):
    assert oracles.naive_perimeter(cells) >= min_perimeter(len(cells))


def test_min_perimeter_height_bounded_examples():
    assert min_perimeter_height_bounded(12, 3) == 14
    assert min_perimeter_height_bounded(13, 3) == 16
    assert min_perimeter_height_bounded(9, 3) == 12
    with pytest.raises(OutOfHypothesisError):
        min_perimeter_height_bounded(8, 3)
    with pytest.raises(ParameterError):
        min_perimeter_height_bounded(5, 0)


def test_height_bounded_formula_matches_the_enumeration():
    # the walk roots each polyomino in the top row of a (2t - 1)-wide board,
    # so the row of its last cell gives the number of rows it spans
    t = 10
    w = 2 * t - 1
    perimeter = Shifts.of(grid(w, t)).perimeter
    best: dict[tuple[int, int], int] = {}
    for p in _fixed_polyominoes(t):
        key = (p.bit_count(), (p.bit_length() - 1) // w + 1)
        q = perimeter(p)
        best[key] = min(best.get(key, q), q)
    for cells in range(1, t + 1):
        for x in range(1, isqrt(cells) + 1):
            least = min(v for (c, rows), v in best.items() if c == cells and rows <= x)
            assert least == min_perimeter_height_bounded(cells, x), (cells, x)


@given(x=st.integers(1, 40), extra=st.integers(0, 400))
def test_height_bound_never_beats_the_free_minimum(x, extra):
    t = x * x + extra
    assert min_perimeter_height_bounded(t, x) >= min_perimeter(t)


def test_width_x_block_achieves_the_height_bounded_value():
    # a full x by y block plus a partial top row realizes 2x + 2y (+2)
    for x in range(1, 6):
        for y in range(x, 8):
            for r in range(x):
                t = x * y + r
                shape = [(a, b) for a in range(y) for b in range(x)]
                shape += [(a, x) for a in range(r)]
                if r:
                    assert oracles.naive_perimeter(shape) == 2 * x + 2 * y + 2
                    assert min_perimeter_height_bounded(t, x) <= 2 * x + 2 * y + 2
                else:
                    assert oracles.naive_perimeter(shape) == 2 * x + 2 * y


def test_perimeter_lower_bound_examples():
    assert perimeter_lower_bound(PollutedInstance.of(grid(8, 5), [])) == 7
    square_residual = PollutedInstance.of(
        grid(8, 5), [(i, j) for i in range(1, 9) for j in range(1, 6) if i > 4 or j > 4]
    )
    assert perimeter_lower_bound(square_residual) == 4
    spec = grid(3, 3)
    assert perimeter_lower_bound(PollutedInstance(spec, CellSet.full(spec))) == 0


@given(m=st.integers(2, 9), n=st.integers(2, 9))
def test_full_grid_bound_is_half_the_semiperimeter(m, n):
    assert perimeter_lower_bound(PollutedInstance.of(grid(m, n), [])) == (m + n + 1) // 2


def test_perimeter_lower_bound_rejects_torus():
    with pytest.raises(UnsupportedTopologyError):
        perimeter_lower_bound(PollutedInstance.of(torus(3, 3), []))


@given(
    shape=st.one_of(
        st.tuples(st.integers(1, 9), st.integers(1, 9)), st.sampled_from(oracles.EDGE_SHAPES)
    ),
    data=st.data(),
)
def test_mask_perimeter_matches_exposed_side_count(shape, data):
    m, n = shape
    cells = oracles.canonical_cells(m, n)
    residual = data.draw(st.sets(st.sampled_from(cells)))
    spec = grid(m, n)
    mask = oracles.mask_of_cells(m, n, residual)
    naive = oracles.naive_perimeter(residual)
    assert Shifts.of(spec).perimeter(mask) == naive
    assert Shifts.of(spec).seed_floor(mask, 2) == -(-naive // 4)
    instance = PollutedInstance.of(spec, [c for c in cells if c not in residual])
    assert perimeter_lower_bound(instance) == -(-naive // 4)


@st.composite
def polluted_boards(draw):
    """A grid or torus with sides 3 to 7, a pollution, and a cell set off it."""
    topology = draw(st.sampled_from(["grid", "torus"]))
    m, n = draw(st.integers(3, 7)), draw(st.integers(3, 7))
    cells = oracles.canonical_cells(m, n)
    polluted = draw(st.sets(st.sampled_from(cells), max_size=4))
    chosen = draw(st.sets(st.sampled_from([c for c in cells if c not in polluted])))
    return topology, m, n, polluted, chosen


@given(board=polluted_boards())
def test_mask_perimeter_counts_wrap_edges_as_shared(board):
    topology, m, n, _, cells = board
    spec = grid(m, n) if topology == "grid" else torus(m, n)
    mask = oracles.mask_of_cells(m, n, cells)
    assert Shifts.of(spec).perimeter(mask) == oracles.naive_exposed_sides(m, n, topology, cells)


@given(board=polluted_boards(), r=st.integers(1, 4))
def test_potential_never_rises_over_a_round(board, r):
    # phi_r = exposed sides + (2r - 4) cells: a cell that joins with a >= r
    # infected neighbors changes it by 2r - 2a <= 0
    topology, m, n, polluted, seeds = board
    infected = set()
    potentials = []
    for joining in oracles.naive_rounds(m, n, topology, polluted, seeds, r):
        infected |= joining
        exposed = oracles.naive_exposed_sides(m, n, topology, infected)
        potentials.append(exposed + (2 * r - 4) * len(infected))
    assert potentials == sorted(potentials, reverse=True)
