import dataclasses
import random

from hypothesis import given
from hypothesis import strategies as st
import pytest

from pgrid import (
    CellSet,
    GridSpec,
    InvalidVertexError,
    ParameterError,
    PollutedInstance,
    Topology,
    Vertex,
    grid,
    torus,
)
from pgrid.grid import MAX_CELLS, Shifts, _Decode, _moved, _set_bits, _symmetries

from oracles import EDGE_SHAPES, canonical_cells, mask_of_cells, naive_adjacent, naive_symmetries

dims = st.integers(min_value=1, max_value=6)
torus_dims = st.integers(min_value=3, max_value=6)
shapes = st.one_of(st.tuples(dims, dims), st.sampled_from(EDGE_SHAPES))


def test_grid_spec_rejects_bad_dimensions():
    with pytest.raises(ParameterError):
        GridSpec(0, 3)
    with pytest.raises(ParameterError):
        GridSpec(3, -1)


def test_grid_spec_caps_the_cell_count():
    assert MAX_CELLS == 2**20
    assert GridSpec(1024, 1024).size == MAX_CELLS
    with pytest.raises(ParameterError, match="MAX_CELLS"):
        GridSpec(1025, 1024)
    with pytest.raises(ParameterError):
        torus(100000, 100000)


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


def _neighbor_masks(spec):
    """The neighbors of each cell, as masks read off ``Shifts.at_least(cell, 1)``."""
    shifts = Shifts.of(spec)
    return [shifts.at_least(1 << p, 1) & shifts.full for p in range(spec.size)]


@given(m=dims, n=dims)
def test_grid_degree_sum(m, n):
    degrees = [q.bit_count() for q in _neighbor_masks(grid(m, n))]
    assert all(d <= 4 for d in degrees)
    assert sum(degrees) == 2 * (m * (n - 1) + n * (m - 1))


@given(m=torus_dims, n=torus_dims)
def test_torus_is_four_regular(m, n):
    assert all(q.bit_count() == 4 for q in _neighbor_masks(torus(m, n)))


@given(m=dims, n=dims, wrap=st.booleans())
def test_adjacency_is_symmetric(m, n, wrap):
    if wrap and (m < 3 or n < 3):
        m, n = max(m, 3), max(n, 3)
    masks = _neighbor_masks(torus(m, n) if wrap else grid(m, n))
    for p, q in enumerate(masks):
        assert all(masks[u] >> p & 1 for u in _set_bits(q))


def test_cellset_iterates_in_canonical_order():
    spec = grid(3, 2)
    cells = CellSet.from_vertices(spec, [(2, 1), (3, 2), (1, 1), (1, 2)])
    assert list(cells) == [(1, 2), (3, 2), (1, 1), (2, 1)]
    assert len(cells) == 4
    assert (3, 2) in cells
    assert (2, 2) not in cells
    assert (9, 9) not in cells


@given(shape=shapes, data=st.data())
def test_cellset_iteration_matches_coordinate_scan(shape, data):
    m, n = shape
    cells = canonical_cells(m, n)
    bits = data.draw(st.integers(0, (1 << m * n) - 1))
    expected = [c for p, c in enumerate(cells) if bits >> p & 1]
    members = list(CellSet(grid(m, n), bits))
    # a plain tuple compares equal to a Vertex, so check the type and fields too
    assert [(v.i, v.j) for v in members] == expected
    assert all(type(v) is Vertex for v in members)
    assert CellSet.from_vertices(grid(m, n), reversed(expected)).mask == bits
    if m >= 3 and n >= 3:
        assert list(CellSet(torus(m, n), bits)) == expected


def _bit_scan(mask):
    return [p for p in range(mask.bit_length()) if mask >> p & 1]


@pytest.mark.parametrize(
    "mask",
    [0, 1, 1 << 7, 1 << 8, 1 << 9, 0b1110000000, 0xFF, 0x1FF, (1 << 13) - 1, 1 << 64 | 1, 0xA5 << 40],
)
def test_set_bits_examples_match_a_bit_scan(mask):
    assert list(_set_bits(mask)) == _bit_scan(mask)


@given(
    width=st.integers(1, 300),
    holes=st.sets(st.integers(0, 299), max_size=12),
    dense=st.booleans(),
)
def test_set_bits_matches_a_bit_scan_on_sparse_and_dense_masks(width, holes, dense):
    sparse = sum(1 << p for p in holes if p < width)
    mask = ((1 << width) - 1) ^ sparse if dense else sparse
    assert list(_set_bits(mask)) == _bit_scan(mask)


@pytest.mark.parametrize("count", [1, 2, 256, 257])
@pytest.mark.parametrize("share", [0.1, 0.9])
def test_the_grouped_decode_matches_the_per_mask_decode(count, share):
    # 256 masks take one-byte labels and 257 two; the masks' union covers a
    # share of the board on either side of the quarter that selects the decode
    rng = random.Random(count)
    size = 2000
    masks = [0] * count
    for p in range(size):
        if rng.random() < share:
            masks[rng.randrange(count)] |= 1 << p
    decode = _Decode(masks, size)
    assert [list(decode[t]) for t in range(count)] == [list(_set_bits(x)) for x in masks]


def test_iteration_reaches_both_corners_of_the_largest_board():
    spec = grid(1024, 1024)
    assert spec.size == MAX_CELLS
    mask = 1 | 1 << (MAX_CELLS - 1)
    assert list(_set_bits(mask)) == [0, MAX_CELLS - 1]
    members = list(CellSet(spec, mask))
    assert [(type(v), v.i, v.j) for v in members] == [(Vertex, 1, 1024), (Vertex, 1024, 1)]


def _small_boards():
    """Every grid and torus of at most 36 cells, each as its shape and maker."""
    for m in range(1, 37):
        for n in range(1, 36 // m + 1):
            yield m, n, grid
            if m >= 3 and n >= 3:
                yield m, n, torus


def _assert_members(cells, expected):
    members = list(cells)
    assert [(v.i, v.j) for v in members] == expected
    assert all(type(v) is Vertex for v in members)


@pytest.mark.parametrize("percent", [0, 5, 25, 100])
def test_both_iteration_paths_yield_the_canonical_vertices(percent):
    # a set of under a quarter of a fresh board builds each Vertex; a denser one
    # builds the board's table, which every later set of that spec reads
    rng = random.Random(percent)
    paths = set()
    for m, n, make in _small_boards():
        chosen = set(rng.sample(range(m * n), -(-m * n * percent // 100)))
        mask = sum(1 << p for p in chosen)
        expected = [c for p, c in enumerate(canonical_cells(m, n)) if p in chosen]
        spec, twin = make(m, n), make(m, n)
        dense = 4 * len(chosen) >= m * n
        paths.add(dense)
        _assert_members(CellSet(spec, mask), expected)
        assert ("_cells" in vars(spec)) == dense
        list(CellSet.full(spec))
        assert "_cells" in vars(spec)
        _assert_members(CellSet(spec, mask), expected)
        # an equal spec has its own table, or none yet
        _assert_members(CellSet(twin, mask), expected)
        assert ("_cells" in vars(twin)) == dense
    # one cell is a quarter of a board of at most four cells, so 5% takes both paths
    assert paths == {0: {False}, 5: {False, True}, 25: {True}, 100: {True}}[percent]


def test_the_vertex_table_leaves_the_spec_value_alone():
    spec, twin = grid(5, 4), grid(5, 4)
    before = (dataclasses.fields(GridSpec), hash(spec), repr(spec))
    list(CellSet.full(spec))
    assert "_cells" in vars(spec) and "_cells" not in vars(twin)
    assert (dataclasses.fields(GridSpec), hash(spec), repr(spec)) == before
    assert spec == twin and hash(spec) == hash(twin) and repr(spec) == repr(twin)
    assert spec != grid(4, 5) and spec != GridSpec(5, 4, Topology.TORUS)


def test_cellset_operators():
    spec = grid(2, 2)
    a = CellSet.from_vertices(spec, [(1, 1), (2, 2)])
    b = CellSet.from_vertices(spec, [(2, 2), (2, 1)])
    assert set(CellSet(spec, a.mask | b.mask)) == {(1, 1), (2, 1), (2, 2)}
    assert set(CellSet(spec, a.mask & b.mask)) == {(2, 2)}
    assert set(CellSet(spec, a.mask & ~b.mask)) == {(1, 1)}
    assert a.mask & ~CellSet.full(spec).mask == 0
    assert a.mask & ~b.mask != 0
    assert set(a.complement()) == {(2, 1), (1, 2)}
    assert bool(CellSet(spec)) is False


def test_cellset_rejects_foreign_boards_and_bad_masks():
    # the top-left cell has mask 1 on either board, yet the sets differ
    a = CellSet.from_vertices(grid(2, 2), [(1, 2)])
    b = CellSet.from_vertices(grid(3, 2), [(1, 2)])
    assert a.mask == b.mask == 1 and a != b
    with pytest.raises(ParameterError):
        PollutedInstance(grid(3, 2), a)
    with pytest.raises(ParameterError):
        CellSet(grid(2, 2), 1 << 4)
    with pytest.raises(InvalidVertexError):
        CellSet.from_vertices(grid(2, 2), [(3, 1)])


@pytest.mark.parametrize("spec", [grid(3, 2), torus(3, 4)], ids=["grid", "torus"])
@pytest.mark.parametrize("vertex", [(0, 1), (4, 1), (1, 0), (2, 5)])
def test_from_vertices_names_the_off_board_vertex(spec, vertex):
    message = f"vertex {vertex} outside {spec.m}x{spec.n} board"
    with pytest.raises(InvalidVertexError) as exc:
        CellSet.from_vertices(spec, [(1, 1), vertex])
    assert str(exc.value) == message
    with pytest.raises(InvalidVertexError) as exc:
        CellSet.from_vertices(spec, [Vertex(*vertex)])
    assert str(exc.value) == message


@given(m=dims, n=dims, bits=st.integers(min_value=0))
def test_cellset_complement_partitions_board(m, n, bits):
    spec = grid(m, n)
    cells = CellSet(spec, bits % (1 << spec.size))
    assert len(cells) + len(cells.complement()) == spec.size
    assert cells.mask | cells.complement().mask == CellSet.full(spec).mask
    assert not cells.mask & cells.complement().mask


def test_polluted_instance_residual():
    spec = grid(3, 3)
    instance = PollutedInstance.of(spec, [(1, 2), (2, 1)])
    assert instance.k == 2
    assert len(instance.residual) == 7
    assert (1, 2) not in instance.residual
    with pytest.raises(ParameterError):
        PollutedInstance(spec, CellSet.from_vertices(grid(2, 2), [(1, 1)]))


def test_min_degree_examples():
    # the least residual degree is the largest d whose at_least mask covers the residual
    def min_degree(spec, polluted=()):
        residual = PollutedInstance.of(spec, polluted).residual.mask
        at_least = Shifts.of(spec).at_least
        return next((d for d in (4, 3, 2, 1) if not residual & ~at_least(residual, d)), 0)

    assert min_degree(grid(3, 3)) == 2
    assert min_degree(torus(4, 4)) == 4
    assert min_degree(grid(3, 3), [(1, 2), (2, 1)]) == 0


@given(shape=shapes, wrap=st.booleans(), data=st.data())
def test_min_degree_matches_coordinate_adjacency(shape, wrap, data):
    # at_least(residual, d) keeps exactly the residual cells with d or more
    # residual neighbors, for every d, on grids and on tori
    m, n = shape
    if wrap and (m < 3 or n < 3):
        m, n = max(m, 3), max(n, 3)
    spec = torus(m, n) if wrap else grid(m, n)
    topology = spec.topology.value
    cells = canonical_cells(m, n)
    residual = data.draw(st.sets(st.sampled_from(cells)))
    mask = mask_of_cells(m, n, residual)
    at_least = Shifts.of(spec).at_least
    degree = {v: sum(naive_adjacent(m, n, topology, u, v) for u in residual) for v in residual}
    for d in range(1, 5):
        expected = {v for v in residual if degree[v] >= d}
        assert set(CellSet(spec, mask & at_least(mask, d))) == expected, d


@pytest.mark.parametrize("m,n", [(1, 4), (4, 1), (2, 3), (3, 2), (3, 3), (4, 4), (5, 3)])
def test_symmetry_tables_are_the_grid_automorphisms(m, n):
    cells = canonical_cells(m, n)
    tables = _symmetries(m, n)
    for q in tables:
        assert sorted(q) == list(range(m * n))
        for p, u in enumerate(cells):
            for s, v in enumerate(cells):
                images = cells[q[p]], cells[q[s]]
                assert naive_adjacent(m, n, "grid", *images) == naive_adjacent(m, n, "grid", u, v)
    group = {tuple(cells.index(g[c]) for c in cells) for g in naive_symmetries(m, n)}
    identity = tuple(range(m * n))
    assert identity not in tables
    assert len(set(tables)) == len(tables) == len(group) - 1
    assert set(tables) | {identity} == group


@pytest.mark.parametrize("m", range(3, 7))
@pytest.mark.parametrize("n", range(3, 7))
def test_symmetry_tables_are_the_torus_translations_and_reflections(m, n):
    # every grid table and the identity, each followed by every translation
    cells = canonical_cells(m, n)
    point = [tuple(range(m * n))] + _symmetries(m, n)
    tables = [_moved(q, dx, dy, m, n) for dy in range(n) for dx in range(m) for q in point][1:]
    neighbours = [
        (p, s)
        for p, u in enumerate(cells)
        for s, v in enumerate(cells)
        if naive_adjacent(m, n, "torus", u, v)
    ]
    for q in tables:
        assert sorted(q) == list(range(m * n))
        for p, s in neighbours:
            assert naive_adjacent(m, n, "torus", cells[q[p]], cells[q[s]])
    group = {tuple(cells.index(g[c]) for c in cells) for g in naive_symmetries(m, n, "torus")}
    identity = tuple(range(m * n))
    assert len(group) == (8 if m == n else 4) * m * n
    assert identity not in tables
    assert len(set(tables)) == len(tables) == len(group) - 1
    assert set(tables) | {identity} == group
