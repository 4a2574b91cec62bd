import dataclasses
import gc
import importlib
import pickle
import sys
import tracemalloc
from collections import deque
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

import oracles
from pgrid import (
    CellSet,
    InvariantError,
    ParameterError,
    PollutedInstance,
    Vertex,
    construct_extremal,
    grid,
    is_percolating,
    parse_instance,
    percolate,
    render_trace,
    torus,
)
from pgrid.engine import closure_mask
from pgrid.grid import Shifts

SAMPLE_DOC = """pgrid v1
m=8 n=5 topology=grid
o.....XX
......XX
o.....XX
.......X
o.o.o.oX
"""


@st.composite
def small_instances(draw, topologies=("grid",)):
    topology = draw(st.sampled_from(topologies))
    low, high = (3, 6) if topology == "torus" else (1, 7)
    m = draw(st.integers(low, high))
    n = draw(st.integers(low, high))
    spec = torus(m, n) if topology == "torus" else grid(m, n)
    cells = list(spec.vertices())
    polluted = draw(st.sets(st.sampled_from(cells)))
    residual = [v for v in cells if v not in polluted]
    seeds = draw(st.sets(st.sampled_from(residual))) if residual else set()
    instance = PollutedInstance.of(spec, polluted)
    return instance, CellSet.from_vertices(spec, seeds)


def _cells(cellset):
    return {(v.i, v.j) for v in cellset}


def test_two_by_two_percolates_in_one_round():
    spec = grid(2, 2)
    instance = PollutedInstance.of(spec, [])
    trace = percolate(instance, CellSet.from_vertices(spec, [(1, 1), (2, 2)]), 2)
    assert trace.percolated
    assert trace.round_count == 1
    assert len(trace.final) == 4


def test_sample_witness_percolates():
    instance, seeds = parse_instance(SAMPLE_DOC)
    trace = percolate(instance, seeds, 2)
    assert trace.percolated
    assert len(trace.final) == 32


def test_isolated_vertex_blocks_percolation():
    spec = grid(3, 3)
    instance = PollutedInstance.of(spec, [(1, 2), (2, 1)])
    trace = percolate(instance, CellSet.from_vertices(spec, [(2, 2), (3, 3), (2, 3)]), 2)
    assert not trace.percolated
    assert _cells(trace.final) == {(2, 2), (2, 3), (3, 2), (3, 3)}


def test_anti_diagonal_percolates_three_by_three():
    spec = grid(3, 3)
    instance = PollutedInstance.of(spec, [])
    assert is_percolating(instance, CellSet.from_vertices(spec, [(1, 3), (2, 2), (3, 1)]), 2)
    assert not is_percolating(instance, CellSet.from_vertices(spec, [(1, 1), (1, 2)]), 2)


def test_seeding_the_whole_residual_percolates_immediately():
    spec = grid(3, 2)
    instance = PollutedInstance.of(spec, [(2, 2)])
    trace = percolate(instance, instance.residual, 2)
    assert trace.percolated
    assert trace.round_count == 0


def test_rejects_bad_inputs():
    spec = grid(2, 2)
    instance = PollutedInstance.of(spec, [(1, 1)])
    with pytest.raises(ParameterError):
        percolate(instance, CellSet(spec), 0)
    with pytest.raises(InvariantError):
        percolate(instance, CellSet.from_vertices(spec, [(1, 1)]), 2)
    with pytest.raises(ParameterError):
        percolate(instance, CellSet.from_vertices(grid(3, 3), [(1, 1)]), 2)


@given(case=small_instances(topologies=("grid", "torus")), r=st.integers(1, 5))
@settings(max_examples=150)
def test_trace_invariants(case, r):
    instance, seeds = case
    trace = percolate(instance, seeds, r)
    assert trace.rounds[0] == seeds
    assert trace.round_count == len(trace.rounds) - 1
    seen = 0
    for idx, cells in enumerate(trace.rounds):
        if idx > 0:
            assert cells
        assert not cells.mask & instance.polluted.mask
        assert not cells.mask & seen
        seen |= cells.mask
    assert CellSet(instance.spec, seen) == trace.final
    assert trace.percolated == (trace.final == instance.residual)
    assert is_percolating(instance, seeds, r) == trace.percolated


@given(case=small_instances(topologies=("grid", "torus")), r=st.integers(1, 5))
@settings(max_examples=100, deadline=None)
def test_final_matches_sequential_reference_closure(case, r):
    instance, seeds = case
    spec = instance.spec
    expected = oracles.naive_closure(
        spec.m,
        spec.n,
        spec.topology.value,
        _cells(instance.polluted),
        _cells(seeds),
        r,
    )
    assert _cells(percolate(instance, seeds, r).final) == expected


@given(case=small_instances(topologies=("grid", "torus")), r=st.integers(1, 5))
@settings(max_examples=150, deadline=None)
def test_rounds_match_simultaneous_reference(case, r):
    instance, seeds = case
    spec = instance.spec
    expected = oracles.naive_rounds(
        spec.m,
        spec.n,
        spec.topology.value,
        _cells(instance.polluted),
        _cells(seeds),
        r,
    )
    assert [_cells(cells) for cells in percolate(instance, seeds, r).rounds] == expected


def _every_small_case():
    """Every (pollution, seeds) assignment on each grid of at most 6 cells, 1-wide
    boards included, then every seed set on the clean 3x3 and 4x3 tori and on
    each with one hole at cell 0, a corner where both kinds of wrap meet."""
    for m in range(1, 7):
        for n in range(1, 6 // m + 1):
            cells = oracles.canonical_cells(m, n)
            for states in product("._o", repeat=m * n):
                polluted = {c for c, s in zip(cells, states) if s == "_"}
                seeds = {c for c, s in zip(cells, states) if s == "o"}
                yield grid(m, n), cells, polluted, seeds
    for m in (3, 4):
        cells = oracles.canonical_cells(m, 3)
        for hole in (set(), {cells[0]}):
            free = [c for c in cells if c not in hole]
            for bits in range(1 << len(free)):
                yield torus(m, 3), cells, hole, {c for p, c in enumerate(free) if bits >> p & 1}


def test_closure_matches_references_on_every_small_board():
    # reaches both topologies at every inline step, r = 1 to 4, the early
    # return at r = 5, and boards where the row-end masks not_first and
    # not_last are 0
    for spec, cells, polluted, seeds in _every_small_case():
        index = {c: p for p, c in enumerate(cells)}

        def mask(group):
            return sum(1 << index[c] for c in group)

        shifts = Shifts.of(spec)
        blocked, seed_mask = mask(polluted), mask(seeds)
        instance = PollutedInstance(spec, CellSet(spec, blocked))
        for r in range(1, 6):
            reference = (spec.m, spec.n, spec.topology.value, polluted, seeds, r)
            expected = [mask(step) for step in oracles.naive_rounds(*reference)]
            logged = []
            final = closure_mask(shifts, blocked, seed_mask, r, logged)
            assert [seed_mask, *logged] == expected, (spec, polluted, seeds, r)
            assert final == closure_mask(shifts, blocked, seed_mask, r)
            assert final == mask(oracles.naive_closure(*reference)), (spec, polluted, seeds, r)
            trace = percolate(instance, CellSet(spec, seed_mask), r)
            assert [step.mask for step in trace.rounds] == expected


@given(case=small_instances(), r=st.integers(1, 3), drop=st.data())
@settings(max_examples=100)
def test_monotone_in_seed_set(case, r, drop):
    instance, seeds = case
    smaller = CellSet.from_vertices(
        instance.spec, drop.draw(st.sets(st.sampled_from(sorted(_cells(seeds)))) if seeds else st.just(set()))
    )
    small_final = percolate(instance, smaller, r).final.mask
    assert small_final & ~percolate(instance, seeds, r).final.mask == 0


@given(case=small_instances(topologies=("grid", "torus")), r=st.integers(1, 3))
@settings(max_examples=75)
def test_percolating_again_from_final_is_idempotent(case, r):
    instance, seeds = case
    final = percolate(instance, seeds, r).final
    again = percolate(instance, final, r)
    assert again.final == final
    assert again.round_count == 0


@given(case=small_instances())
@settings(max_examples=100)
def test_cumulative_perimeter_never_increases_at_threshold_two(case):
    instance, seeds = case
    trace = percolate(instance, seeds, 2)
    previous = None
    cumulative = set()
    for cells in trace.rounds:
        cumulative |= _cells(cells)
        p = oracles.naive_perimeter(cumulative)
        if previous is not None:
            assert p <= previous
        previous = p


def _clean_trace(spec):
    """The trace of the extremal witness of a clean board, built on ``spec``."""
    witness = construct_extremal(spec.m, spec.n, 0)
    instance = PollutedInstance(spec, CellSet(spec, witness.instance.polluted.mask))
    return percolate(instance, CellSet(spec, witness.seeds.mask))


def _listed(cells):
    members = list(cells)
    assert all(type(v) is Vertex for v in members)
    return [(v.i, v.j) for v in members]


def _expected(spec, masks):
    cells = oracles.canonical_cells(spec.m, spec.n)
    return [[c for p, c in enumerate(cells) if mask >> p & 1] for mask in masks]


def test_round_iteration_is_the_same_before_and_after_the_shared_decode():
    spec, twin = grid(30, 20), grid(30, 20)
    trace = _clean_trace(spec)
    masks = [cells.mask for cells in trace.rounds]
    expected = _expected(spec, masks)
    decode = trace.rounds[0]._decode[0]
    assert all(cells._decode == (decode, t) for t, cells in enumerate(trace.rounds))
    assert "_decoded" not in vars(decode)
    # the first round read decodes them all, on a spec with no table of vertices
    assert _listed(trace.rounds[7]) == expected[7]
    assert "_decoded" in vars(decode) and "_cells" not in vars(spec)
    assert [_listed(cells) for cells in trace.rounds] == expected
    # the final set builds the table, which the rounds then read
    assert _listed(trace.final) == _expected(spec, [trace.final.mask])[0]
    assert "_cells" in vars(spec)
    assert [_listed(cells) for cells in trace.rounds] == expected
    # an equal but distinct spec has no table, and its trace its own decode
    other = _clean_trace(twin)
    assert [_listed(CellSet(twin, mask)) for mask in masks] == expected
    assert [_listed(cells) for cells in other.rounds] == expected
    assert "_cells" not in vars(twin)
    # a round kept after its trace is dropped keeps the decode, made or not
    kept, unread = trace.rounds[5], _clean_trace(twin).rounds[5]
    del trace, other
    gc.collect()
    assert _listed(kept) == _listed(unread) == expected[5]


def test_a_round_is_valued_as_a_plain_cell_set():
    spec = grid(12, 9)
    trace = _clean_trace(spec)
    decode = trace.rounds[0]._decode[0]
    # before the decode, then after the lists of the first pass made it
    for decoded in (False, True):
        assert ("_decoded" in vars(decode)) == decoded
        for cells in trace.rounds:
            plain = CellSet(spec, cells.mask)
            assert dataclasses.fields(cells) == dataclasses.fields(plain)
            assert cells == plain and hash(cells) == hash(plain) and repr(cells) == repr(plain)
            assert dataclasses.asdict(cells) == dataclasses.asdict(plain)
        copy = pickle.loads(pickle.dumps(trace))
        assert copy == trace
        assert [list(cells) for cells in copy.rounds] == [list(cells) for cells in trace.rounds]


def test_only_traces_that_infect_a_quarter_of_the_board_share_a_decode():
    # two diagonal seeds infect a 2x2 block: a quarter of 4x4, under a quarter of 5x4
    for m, shared in ((4, True), (5, False)):
        spec = grid(m, 4)
        trace = percolate(PollutedInstance.of(spec), CellSet.from_vertices(spec, [(1, 1), (2, 2)]))
        assert len(trace.final) == 4
        assert all(hasattr(cells, "_decode") == shared for cells in trace.rounds)
        assert [_listed(cells) for cells in trace.rounds] == [[(2, 2), (1, 1)], [(1, 2), (2, 1)]]


def test_a_trace_of_more_rounds_than_the_cap_decodes_round_by_round(monkeypatch):
    # a real trace above 65,536 rounds would hold gigabytes of round masks;
    # pgrid.grid is also the name of the board maker, so fetch the module
    grid_module = importlib.import_module("pgrid.grid")
    spec = grid(14, 11)
    shared = _clean_trace(spec)
    rounds = len(shared.rounds)
    monkeypatch.setattr(grid_module, "_MAX_GROUPED_ROUNDS", rounds - 1)
    alone = _clean_trace(spec)
    assert not any(hasattr(cells, "_decode") for cells in alone.rounds)
    monkeypatch.setattr(grid_module, "_MAX_GROUPED_ROUNDS", rounds)
    assert all(hasattr(cells, "_decode") for cells in _clean_trace(spec).rounds)
    assert alone == shared
    expected = _expected(spec, [cells.mask for cells in alone.rounds])
    assert [_listed(cells) for cells in alone.rounds] == expected
    assert [_listed(cells) for cells in shared.rounds] == expected
    for style in ("svg", "ascii"):
        assert render_trace(alone, style) == render_trace(shared, style)


def test_a_decoded_trace_holds_about_four_bytes_a_cell_beyond_its_masks():
    spec = grid(150, 150)
    witness = construct_extremal(150, 150, 0)
    instance = PollutedInstance(spec, CellSet(spec, witness.instance.polluted.mask))
    seeds = CellSet(spec, witness.seeds.mask)
    spec._cells  # the board's table of vertices is the spec's, not the trace's
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = percolate(instance, seeds)
        made = tracemalloc.get_traced_memory()[0] - before
        for cells in trace.rounds:
            deque(cells, 0)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    masks = sum(sys.getsizeof(cells.mask) for cells in trace.rounds)
    rounds = len(trace.rounds)
    assert rounds == 298 and trace.percolated
    # the round objects and their handles cost a few hundred bytes each; the
    # decode keeps 4 bytes a cell, and every cell of this board is in a round
    assert made - masks <= 320 * rounds, (made, masks)
    assert held - made <= 4.5 * spec.size, (held - made, spec.size)
