from hypothesis import given
from hypothesis import strategies as st
import pytest

from pgrid import (
    CellSet,
    InvariantError,
    ParameterError,
    ParseError,
    PollutedInstance,
    grid,
    parse_instance,
    torus,
    write_instance,
)

import oracles

SAMPLE_DOC = """pgrid v1
m=8 n=5 topology=grid
o.....XX
......XX
o.....XX
.......X
o.o.o.oX
"""

SAMPLE_POLLUTED = {(8, 1), (8, 2), (8, 3), (8, 4), (8, 5), (7, 3), (7, 4), (7, 5)}
SAMPLE_SEEDS = {(1, 5), (1, 3), (1, 1), (3, 1), (5, 1), (7, 1)}


def test_parse_sample_document():
    instance, seeds = parse_instance(SAMPLE_DOC)
    assert instance.spec == grid(8, 5)
    assert instance.k == 8
    assert set(instance.polluted) == SAMPLE_POLLUTED
    assert set(seeds) == SAMPLE_SEEDS


def test_write_sample_document_is_canonical():
    spec = grid(8, 5)
    instance = PollutedInstance(spec, CellSet.from_vertices(spec, SAMPLE_POLLUTED))
    assert write_instance(instance, CellSet.from_vertices(spec, SAMPLE_SEEDS)) == SAMPLE_DOC


def test_empty_two_by_two_document():
    doc = write_instance(PollutedInstance.of(grid(2, 2), []))
    assert doc == "pgrid v1\nm=2 n=2 topology=grid\n..\n..\n"
    instance, seeds = parse_instance(doc)
    assert instance.k == 0
    assert not seeds


def test_torus_header_round_trips():
    instance = PollutedInstance.of(torus(3, 4), [(2, 2)])
    doc = write_instance(instance)
    assert "topology=torus" in doc.splitlines()[1]
    parsed, _ = parse_instance(doc)
    assert parsed == instance


def test_parse_accepts_missing_trailing_newline():
    instance, _ = parse_instance(SAMPLE_DOC.rstrip("\n"))
    assert instance.k == 8


def test_parse_skips_leading_comment_lines():
    commented = "# example instance\n# second remark\n" + SAMPLE_DOC
    instance, seeds = parse_instance(commented)
    assert instance.k == 8
    assert len(seeds) == 6


def test_parse_errors_carry_document_positions():
    with pytest.raises(ParseError) as err:
        parse_instance("pgrid v2\nm=2 n=2 topology=grid\n..\n..\n")
    assert err.value.line == 1

    with pytest.raises(ParseError) as err:
        parse_instance("pgrid v1\nm=2 rows=2\n..\n..\n")
    assert err.value.line == 2

    with pytest.raises(ParseError) as err:
        parse_instance("pgrid v1\nm=3 n=2 topology=grid\n...\n..\n")
    assert err.value.line == 4
    assert err.value.column == 3

    with pytest.raises(ParseError) as err:
        parse_instance("pgrid v1\nm=2 n=2 topology=grid\n..\n.z\n")
    assert err.value.line == 4
    assert err.value.column == 2

    with pytest.raises(ParseError) as err:
        parse_instance("pgrid v1\nm=2 n=2 topology=grid\n..\n")
    assert err.value.line == 4

    with pytest.raises(ParseError) as err:
        parse_instance("pgrid v1\nm=2 n=2 topology=grid\n..\n..\nstray\n")
    assert err.value.line == 5


def test_comment_lines_shift_error_positions():
    with pytest.raises(ParseError) as err:
        parse_instance("# note\npgrid v1\nm=2 n=2 topology=grid\n..\n.z\n")
    assert err.value.line == 5
    assert err.value.column == 2


def test_parse_rejects_boards_above_the_cell_cap():
    with pytest.raises(ParseError, match="MAX_CELLS") as err:
        parse_instance("pgrid v1\nm=100000 n=100000 topology=grid\n")
    assert err.value.line == 2


def test_parse_rejects_torus_with_short_side():
    with pytest.raises(ParseError) as err:
        parse_instance("pgrid v1\nm=2 n=3 topology=torus\n..\n..\n..\n")
    assert err.value.line == 2


def test_write_rejects_seed_on_polluted_cell():
    spec = grid(2, 2)
    instance = PollutedInstance.of(spec, [(1, 1)])
    with pytest.raises(InvariantError):
        write_instance(instance, CellSet.from_vertices(spec, [(1, 1)]))


def test_write_rejects_foreign_seed_board():
    instance = PollutedInstance.of(grid(2, 2), [])
    with pytest.raises(ParameterError):
        write_instance(instance, CellSet.from_vertices(grid(3, 3), [(1, 1)]))


@given(
    m=st.integers(1, 6),
    n=st.integers(1, 6),
    polluted_bits=st.integers(min_value=0),
    seed_bits=st.integers(min_value=0),
)
def test_round_trip_identity(m, n, polluted_bits, seed_bits):
    spec = grid(m, n)
    polluted = CellSet(spec, polluted_bits % (1 << spec.size))
    seeds = CellSet(spec, seed_bits % (1 << spec.size) & ~polluted.mask)
    instance = PollutedInstance(spec, polluted)
    parsed, parsed_seeds = parse_instance(write_instance(instance, seeds))
    assert parsed == instance
    assert parsed_seeds == seeds


@st.composite
def coordinate_boards(draw):
    """A board with disjoint polluted and seeded coordinate sets."""
    wrap = draw(st.booleans())
    if wrap:
        m, n = draw(st.integers(3, 6)), draw(st.integers(3, 6))
    else:
        small = st.tuples(st.integers(1, 7), st.integers(1, 7))
        m, n = draw(st.one_of(small, st.sampled_from(oracles.EDGE_SHAPES)))
    cells = oracles.canonical_cells(m, n)
    polluted = draw(st.sets(st.sampled_from(cells)))
    seeds = draw(st.sets(st.sampled_from(cells)).map(lambda s: s - polluted))
    return m, n, "torus" if wrap else "grid", polluted, seeds


@given(board=coordinate_boards())
def test_write_matches_text_built_from_coordinates(board):
    m, n, topology, polluted, seeds = board
    cells = oracles.canonical_cells(m, n)
    chars = ["X" if c in polluted else "o" if c in seeds else "." for c in cells]
    rows = ["".join(chars[p : p + m]) for p in range(0, m * n, m)]
    expected = "\n".join(["pgrid v1", f"m={m} n={n} topology={topology}", *rows]) + "\n"
    spec = torus(m, n) if topology == "torus" else grid(m, n)
    instance = PollutedInstance.of(spec, polluted)
    assert write_instance(instance, CellSet.from_vertices(spec, seeds)) == expected
    parsed, parsed_seeds = parse_instance(expected)
    assert set(parsed.polluted) == polluted
    assert set(parsed_seeds) == seeds
