from hypothesis import given
from hypothesis import strategies as st
import pytest

from pgrid import (
    CellSet,
    EmptyGraphError,
    GridSpec,
    InvalidVertexError,
    ParameterError,
    PollutedInstance,
    Topology,
    Vertex,
    grid,
    min_degree,
    neighbors,
    torus,
)

from oracles import naive_adjacent

dims = st.integers(min_value=1, max_value=6)
torus_dims = st.integers(min_value=3, max_value=6)


def test_grid_spec_rejects_bad_dimensions():
    with pytest.raises(ParameterError):
        GridSpec(0, 3)
    with pytest.raises(ParameterError):
        GridSpec(3, -1)


def test_torus_requires_both_sides_at_least_three():
    with pytest.raises(ParameterError):
        torus(2, 3)
    with pytest.raises(ParameterError):
        torus(5, 2)
    assert torus(3, 3).topology is Topology.TORUS


def test_canonical_index_is_top_row_first():
    spec = grid(3, 2)
    assert [spec.index(v) for v in [(1, 2), (2, 2), (3, 2), (1, 1), (2, 1), (3, 1)]] == [
        0,
        1,
        2,
        3,
        4,
        5,
    ]
    assert list(spec.vertices()) == [
        Vertex(1, 2),
        Vertex(2, 2),
        Vertex(3, 2),
        Vertex(1, 1),
        Vertex(2, 1),
        Vertex(3, 1),
    ]


@given(m=dims, n=dims)
def test_index_vertex_roundtrip(m, n):
    spec = grid(m, n)
    for idx, v in enumerate(spec.vertices()):
        assert spec.index(v) == idx
        assert spec.vertex_at(idx) == v
    with pytest.raises(ParameterError):
        spec.vertex_at(spec.size)


def test_index_rejects_outside_vertices():
    spec = grid(3, 3)
    with pytest.raises(InvalidVertexError):
        spec.index((0, 1))
    with pytest.raises(InvalidVertexError):
        spec.index((1, 4))
    assert not spec.contains((4, 1))


def test_neighbors_grid_examples():
    spec = grid(3, 3)
    assert neighbors(spec, (2, 2)) == [(2, 3), (2, 1), (1, 2), (3, 2)]
    assert neighbors(spec, (1, 1)) == [(1, 2), (2, 1)]
    with pytest.raises(InvalidVertexError):
        neighbors(spec, (0, 0))


def test_neighbors_torus_wraps_in_order():
    assert neighbors(torus(3, 3), (1, 1)) == [(1, 2), (1, 3), (3, 1), (2, 1)]


@given(m=dims, n=dims)
def test_grid_degree_sum(m, n):
    spec = grid(m, n)
    degrees = [len(neighbors(spec, v)) for v in spec.vertices()]
    assert all(d <= 4 for d in degrees)
    assert sum(degrees) == 2 * (m * (n - 1) + n * (m - 1))


@given(m=torus_dims, n=torus_dims)
def test_torus_is_four_regular(m, n):
    spec = torus(m, n)
    assert all(len(neighbors(spec, v)) == 4 for v in spec.vertices())


@given(m=dims, n=dims, wrap=st.booleans())
def test_adjacency_is_symmetric(m, n, wrap):
    if wrap and (m < 3 or n < 3):
        m, n = max(m, 3), max(n, 3)
    spec = torus(m, n) if wrap else grid(m, n)
    for v in spec.vertices():
        for u in neighbors(spec, v):
            assert v in neighbors(spec, u)


def test_cellset_iterates_in_canonical_order():
    spec = grid(3, 2)
    cells = CellSet.from_vertices(spec, [(2, 1), (3, 2), (1, 1), (1, 2)])
    assert list(cells) == [(1, 2), (3, 2), (1, 1), (2, 1)]
    assert len(cells) == 4
    assert (3, 2) in cells
    assert (2, 2) not in cells
    assert (9, 9) not in cells


def test_cellset_operators():
    spec = grid(2, 2)
    a = CellSet.from_vertices(spec, [(1, 1), (2, 2)])
    b = CellSet.from_vertices(spec, [(2, 2), (2, 1)])
    assert set(a | b) == {(1, 1), (2, 1), (2, 2)}
    assert set(a & b) == {(2, 2)}
    assert set(a - b) == {(1, 1)}
    assert a.issubset(CellSet.full(spec))
    assert not a.issubset(b)
    assert set(a.complement()) == {(2, 1), (1, 2)}
    assert bool(CellSet(spec)) is False


def test_cellset_rejects_foreign_boards_and_bad_masks():
    a = CellSet.from_vertices(grid(2, 2), [(1, 1)])
    b = CellSet.from_vertices(grid(3, 2), [(1, 1)])
    with pytest.raises(ParameterError):
        a | b
    with pytest.raises(ParameterError):
        CellSet(grid(2, 2), 1 << 4)
    with pytest.raises(InvalidVertexError):
        CellSet.from_vertices(grid(2, 2), [(3, 1)])


@given(m=dims, n=dims, bits=st.integers(min_value=0))
def test_cellset_complement_partitions_board(m, n, bits):
    spec = grid(m, n)
    cells = CellSet(spec, bits % (1 << spec.size))
    assert len(cells) + len(cells.complement()) == spec.size
    assert (cells | cells.complement()) == CellSet.full(spec)
    assert not (cells & cells.complement())


def test_polluted_instance_residual():
    spec = grid(3, 3)
    instance = PollutedInstance.of(spec, [(1, 2), (2, 1)])
    assert instance.k == 2
    assert len(instance.residual) == 7
    assert (1, 2) not in instance.residual
    with pytest.raises(ParameterError):
        PollutedInstance(spec, CellSet.from_vertices(grid(2, 2), [(1, 1)]))


def test_min_degree_examples():
    assert min_degree(PollutedInstance.of(grid(3, 3), [])) == 2
    assert min_degree(PollutedInstance.of(torus(4, 4), [])) == 4
    assert min_degree(PollutedInstance.of(grid(3, 3), [(1, 2), (2, 1)])) == 0


@given(m=dims, n=dims, wrap=st.booleans(), data=st.data())
def test_min_degree_matches_coordinate_adjacency(m, n, wrap, data):
    if wrap and (m < 3 or n < 3):
        m, n = max(m, 3), max(n, 3)
    spec = torus(m, n) if wrap else grid(m, n)
    cells = [(v.i, v.j) for v in spec.vertices()]
    residual = data.draw(st.sets(st.sampled_from(cells), min_size=1))
    instance = PollutedInstance.of(spec, [c for c in cells if c not in residual])
    topology = spec.topology.value
    degrees = [sum(1 for u in residual if naive_adjacent(m, n, topology, u, v)) for v in residual]
    assert min_degree(instance) == min(degrees)


def test_min_degree_needs_a_residual_vertex():
    spec = grid(2, 2)
    with pytest.raises(EmptyGraphError):
        min_degree(PollutedInstance(spec, CellSet.full(spec)))
