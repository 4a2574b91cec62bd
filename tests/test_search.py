from collections import Counter
from functools import cache
from itertools import combinations
import os
from pathlib import Path
import subprocess
import sys
import tracemalloc

from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest

from pgrid import (
    BudgetExceededError,
    ParameterError,
    PollutedInstance,
    Vertex,
    construct_extremal,
    grid,
    min_percolating_exact,
    min_perimeter,
    min_perimeter_height_bounded,
    min_polyomino_perimeter_exact,
    mkmax_exact,
    mkmin,
    mkmin_exact,
    torus,
)
from pgrid import search
from pgrid.engine import closure_mask
from pgrid.grid import Shifts, _symmetries
from pgrid.search import _fixed_polyominoes, _orbit_least, _pollutions

from oracles import (
    canonical_cells,
    naive_adjacent,
    naive_exposed_sides,
    naive_fixed_polyominoes,
    naive_min_percolating,
    naive_perimeter,
    naive_pollution_numbers,
    naive_symmetries,
)


def _cells(cellset):
    return {(v.i, v.j) for v in cellset}


SMALL_BOARDS = [
    ("grid", 2, 2),
    ("grid", 3, 2),
    ("grid", 2, 3),
    ("grid", 3, 3),
    ("grid", 4, 2),
    ("grid", 1, 4),
    ("grid", 4, 1),
    ("torus", 3, 3),
    ("torus", 4, 3),
    # the boards above are too small for the suffix prune to fire, while on
    # these both prunes cut some search; the naive oracle limits them to r <= 3
    ("grid", 4, 4),
    ("grid", 5, 3),
    ("torus", 4, 4),
]


@st.composite
def tiny_instances(draw):
    topology, m, n = draw(st.sampled_from(SMALL_BOARDS))
    spec = grid(m, n) if topology == "grid" else torus(m, n)
    cells = [(v.i, v.j) for v in spec.vertices()]
    polluted = draw(st.sets(st.sampled_from(cells), max_size=3))
    r = draw(st.integers(1, 5 if m * n <= 12 else 3))
    return spec, frozenset(polluted), r


def test_min_percolating_full_grid_3x3():
    result = min_percolating_exact(PollutedInstance.of(grid(3, 3), []))
    assert result.size == 3
    assert result.nodes_explored >= 1


def test_min_percolating_full_torus_3x3():
    result = min_percolating_exact(PollutedInstance.of(torus(3, 3), []))
    assert result.size == 2
    assert _cells(result.witness) == {(1, 3), (2, 2)}


def test_min_percolating_punctured_square_needs_four():
    # residual is an 8-cycle; only the two alternating 4-sets percolate
    instance = PollutedInstance.of(grid(3, 3), [(2, 2)])
    result = min_percolating_exact(instance)
    assert result.size == 4
    assert _cells(result.witness) == {(1, 3), (3, 3), (1, 1), (3, 1)}


def test_min_percolating_empty_residual():
    instance = PollutedInstance.of(grid(2, 2), [(1, 1), (2, 1), (1, 2), (2, 2)])
    result = min_percolating_exact(instance)
    assert result.size == 0
    assert not result.witness
    assert result.nodes_explored == 0


def test_min_percolating_forces_cut_off_corner():
    instance = PollutedInstance.of(grid(3, 3), [(1, 2), (2, 1)])
    result = min_percolating_exact(instance)
    assert Vertex(1, 1) in result.witness


def test_min_percolating_is_deterministic():
    witness = construct_extremal(8, 5, 24)
    first = min_percolating_exact(witness.instance)
    second = min_percolating_exact(witness.instance)
    assert first == second
    assert first.size == 4
    assert _cells(first.witness) == {(1, 4), (3, 4), (4, 3), (1, 1)}
    assert first.nodes_explored == 19


@pytest.mark.parametrize(
    "spec,r,size,nodes,witness_mask",
    [
        (grid(5, 5), 2, 5, 29, 0x100415),
        (grid(6, 5), 2, 6, 34, 0x100102B),
        # without symmetry breaking: 2,259 closures
        (torus(5, 5), 2, 4, 344, 0x8105),
        # without symmetry breaking: 395; without the phi_3 start bound and
        # gap prune as well: 1,213
        (torus(4, 4), 3, 6, 331, 0x8525),
        (grid(3, 3), 4, 8, 1, 0x1EF),
        (grid(2, 2), 5, 4, 1, 0xF),
        # trying every 7-set in order takes 93,689 closures
        (grid(7, 6), 2, 7, 53, 0x80020202B),
        # without the phi_3 start bound and gap prune: 161,662 and 64,554
        (grid(6, 5), 3, 15, 420, 0x2D4A542F),
        (torus(5, 5), 3, 9, 823, 0x102C88B),
    ],
)
def test_min_percolating_search_order_is_frozen(spec, r, size, nodes, witness_mask):
    result = min_percolating_exact(PollutedInstance.of(spec), r, budget=10_000)
    assert (result.size, result.nodes_explored, result.witness.mask) == (size, nodes, witness_mask)
    assert sum(result.level_nodes) == nodes
    assert result.start_bound + len(result.level_nodes) - 1 == size


@pytest.mark.parametrize("spec,r", [(grid(5, 5), 2), (torus(5, 5), 2), (torus(4, 4), 3)])
def test_nodes_explored_counts_every_closure(spec, r, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return closure_mask(*args)

    monkeypatch.setattr(search, "closure_mask", counted)
    result = min_percolating_exact(PollutedInstance.of(spec), r)
    assert result.nodes_explored == len(calls)
    assert result.suffix_prunes + result.perimeter_prunes + result.symmetry_prunes > 0


@pytest.mark.parametrize("spec,r", [(grid(5, 5), 2), (grid(4, 4), 3), (torus(4, 3), 2)])
def test_budget_stops_one_closure_past_the_limit(spec, r):
    instance = PollutedInstance.of(spec)
    nodes = min_percolating_exact(instance, r).nodes_explored
    for b in range(1, nodes):
        with pytest.raises(BudgetExceededError) as exc:
            min_percolating_exact(instance, r, budget=b)
        assert exc.value.nodes == b + 1
    assert min_percolating_exact(instance, r, budget=nodes).nodes_explored == nodes


def test_budget_error_carries_the_search_counts():
    instance = PollutedInstance.of(grid(7, 6))
    with pytest.raises(BudgetExceededError) as exc:
        min_percolating_exact(instance, budget=20)
    err = exc.value
    assert str(err) == "budget of 20 closure evaluations exhausted at seed size 7"
    assert (err.nodes, err.lower_bound, err.upper_bound) == (21, 7, 42)
    assert (err.start_bound, err.forced, err.level_nodes) == (7, 0, (21,))
    assert (err.suffix_prunes, err.perimeter_prunes, err.symmetry_prunes) == (0, 8, 0)


@pytest.mark.parametrize("budget", [30, 300, 2000])
def test_budget_error_counts_the_partial_last_level(budget):
    # 2,308 closures in levels of 1, 11, 169, 1,738 and 389: budget 30 stops in
    # the third level, 300 in the fourth and 2000 in the last, and in each the
    # search skips cells that are not least in their orbit
    instance = PollutedInstance.of(torus(6, 5))
    done = min_percolating_exact(instance)
    with pytest.raises(BudgetExceededError) as exc:
        min_percolating_exact(instance, budget=budget)
    err = exc.value
    assert sum(err.level_nodes) == err.nodes == budget + 1
    assert err.level_nodes[:-1] == done.level_nodes[: len(err.level_nodes) - 1]
    assert 0 < err.level_nodes[-1] <= done.level_nodes[len(err.level_nodes) - 1]
    assert err.start_bound == done.start_bound
    assert err.lower_bound == done.start_bound + len(err.level_nodes) - 1
    assert err.suffix_prunes <= done.suffix_prunes
    assert err.symmetry_prunes <= done.symmetry_prunes


def test_search_memory_is_linear_in_the_board():
    # a mask per free cell and per suffix of them would take O(t^2) bits:
    # the clean 200x200 grid then reached a tracemalloc peak of 308 MiB
    instance = PollutedInstance.of(grid(200, 200))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            min_percolating_exact(instance, budget=50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_deep_level_needs_no_recursion():
    # a 1 x 2000 path needs 1,001 seeds: the start bound is already 1,001
    instance = PollutedInstance.of(grid(1, 2000))
    result = min_percolating_exact(instance)
    assert result.size == result.start_bound == 1001
    for b in (1, 500, 1000):
        with pytest.raises(BudgetExceededError) as exc:
            min_percolating_exact(instance, budget=b)
        assert exc.value.nodes == b + 1


def test_default_budget_scales_with_the_board_words(monkeypatch):
    # floor(DEFAULT_NODE_BUDGET / ceil(mn / 64)): boards of at most 64 cells keep it whole
    limits = {cells: search._Budget(None, cells).limit for cells in (1, 64, 65, 128, 129, 2**20)}
    assert limits == {
        1: 10**8, 64: 10**8, 65: 5 * 10**7, 128: 5 * 10**7, 129: 33_333_333, 2**20: 6_103
    }
    assert search._Budget(7, 2**20).limit == 7
    # every oracle takes the scaled default when given no budget: 9x9 is two words
    monkeypatch.setattr(search, "DEFAULT_NODE_BUDGET", 10)
    for oracle in (
        lambda: min_percolating_exact(PollutedInstance.of(grid(9, 9))),
        lambda: mkmin_exact(9, 9, 1, 3),
        lambda: mkmax_exact(9, 9, 1),
    ):
        with pytest.raises(BudgetExceededError, match="budget of 5 closure") as exc:
            oracle()
        assert exc.value.nodes == 6


def test_min_percolating_rejects_bad_threshold_and_budget():
    instance = PollutedInstance.of(grid(2, 2), [])
    with pytest.raises(ParameterError):
        min_percolating_exact(instance, r=0)
    with pytest.raises(ParameterError):
        min_percolating_exact(instance, budget=0)


def test_every_oracle_checks_its_budget_even_with_nothing_to_search():
    # a fully polluted board leaves nothing to search, yet budget 0 is still refused
    spec = grid(2, 2)
    polluted = PollutedInstance.of(spec, list(spec.vertices()))
    assert min_percolating_exact(polluted, budget=1).size == 0
    assert mkmin_exact(2, 2, 4, budget=1) == mkmax_exact(2, 2, 4, budget=1) == 0
    for oracle, args in (
        (min_percolating_exact, (polluted,)),
        (mkmin_exact, (2, 2, 4)),
        (mkmax_exact, (2, 2, 4)),
    ):
        with pytest.raises(ParameterError, match="node budget must be >= 1, got 0"):
            oracle(*args, budget=0)


@given(case=tiny_instances())
@settings(max_examples=120, deadline=None)
def test_start_bound_is_at_most_the_naive_minimum(case):
    spec, polluted, r = case
    result = min_percolating_exact(PollutedInstance.of(spec, polluted), r=r)
    expected_size, _ = naive_min_percolating(spec.m, spec.n, spec.topology.value, polluted, r)
    assert result.start_bound <= expected_size


@st.composite
def residual_instances(draw):
    """A grid with sides 1 to 6 or a torus with sides 3 to 6, a pollution that
    leaves at least one cell, and an r in 1..5."""
    topology = draw(st.sampled_from(["grid", "torus"]))
    low = 1 if topology == "grid" else 3
    m, n = draw(st.integers(low, 6)), draw(st.integers(low, 6))
    cells = canonical_cells(m, n)
    polluted = draw(st.sets(st.sampled_from(cells), max_size=len(cells) - 1))
    return topology, m, n, polluted, draw(st.integers(1, 5))


@given(case=residual_instances())
@settings(max_examples=200, deadline=None)
def test_start_bound_is_the_potential_or_forced_floor(case):
    topology, m, n, polluted, r = case
    residual = [c for c in canonical_cells(m, n) if c not in polluted]
    t = len(residual)
    phi = naive_exposed_sides(m, n, topology, residual) + (2 * r - 4) * t
    forced = sum(
        1 for v in residual if sum(naive_adjacent(m, n, topology, u, v) for u in residual) < r
    )
    spec = grid(m, n) if topology == "grid" else torus(m, n)
    # the start bound is fixed before the first closure, so one closure shows it
    try:
        got = min_percolating_exact(PollutedInstance.of(spec, polluted), r, budget=1).start_bound
    except BudgetExceededError as exc:
        got = exc.start_bound
    assert got == max(-(-phi // (2 * r)), forced, 1)


def test_min_percolating_budget_error_carries_bounds():
    instance = PollutedInstance.of(grid(3, 3), [])
    with pytest.raises(BudgetExceededError) as exc:
        min_percolating_exact(instance, budget=1)
    err = exc.value
    assert err.nodes == 2
    assert err.lower_bound == 3
    assert err.upper_bound == 9


@given(case=tiny_instances())
@settings(max_examples=120, deadline=None)
def test_min_percolating_matches_naive_enumeration(case):
    spec, polluted, r = case
    instance = PollutedInstance.of(spec, polluted)
    expected_size, expected_witness = naive_min_percolating(
        spec.m, spec.n, spec.topology.value, polluted, r
    )
    result = min_percolating_exact(instance, r=r)
    assert result.size == expected_size
    assert _cells(result.witness) == expected_witness


def _closed_under(g, cells):
    """The least superset of ``cells`` that the map ``g`` sends onto itself."""
    closed = set(cells)
    while not {g[c] for c in closed} <= closed:
        closed |= {g[c] for c in closed}
    return closed


@st.composite
def symmetric_instances(draw, boards):
    """A pollution closed under a random map of a board drawn from ``(topology, m, n,
    largest r)`` entries, the identity and the empty pollution included, and an r."""
    topology, m, n, r_max = draw(st.sampled_from(boards))
    g = draw(st.sampled_from(naive_symmetries(m, n, topology)))
    cells = draw(st.sets(st.sampled_from(canonical_cells(m, n)), max_size=2))
    spec = grid(m, n) if topology == "grid" else torus(m, n)
    return PollutedInstance.of(spec, _closed_under(g, cells)), draw(st.integers(1, r_max))


# boards on which the naive oracle stays fast
NAIVE_SYMMETRIC_BOARDS = [
    ("grid", 3, 3, 3), ("grid", 4, 3, 3), ("grid", 3, 4, 3), ("grid", 4, 4, 2),
    ("grid", 5, 3, 2), ("torus", 3, 3, 3), ("torus", 4, 3, 3), ("torus", 3, 4, 3),
    ("torus", 4, 4, 2), ("torus", 5, 3, 2),
]


@given(case=symmetric_instances(NAIVE_SYMMETRIC_BOARDS))
@settings(max_examples=150, deadline=None)
def test_symmetric_pollutions_match_naive_enumeration(case):
    instance, r = case
    spec = instance.spec
    polluted = _cells(instance.polluted)
    result = min_percolating_exact(instance, r=r)
    expected_size, expected_witness = naive_min_percolating(
        spec.m, spec.n, spec.topology.value, polluted, r
    )
    assert (result.size, _cells(result.witness)) == (expected_size, expected_witness)


def _plain_search(instance, r):
    """min_percolating_exact's search with no symmetry breaking: size and witness mask."""
    shifts = Shifts.of(instance.spec)
    residual = instance.residual.mask
    if not residual:
        return 0, 0
    bud = search._Budget(10**6)
    # a context rather than the fixture: hypothesis runs many examples per test
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_torus_group", lambda m, n: None)
        return search._min_search(shifts, instance.polluted.mask, residual, r, None, bud)


# boards whose stabilizers run several cells deep on the clean tori; the plain
# search stays below 0.1 s
MIDSIZE_SYMMETRIC_BOARDS = [
    ("torus", 5, 5, 2), ("torus", 6, 5, 2), ("torus", 5, 4, 2), ("torus", 4, 4, 3),
    ("torus", 5, 3, 3), ("grid", 6, 6, 2), ("grid", 5, 5, 3), ("grid", 6, 4, 3),
]


@given(case=symmetric_instances(MIDSIZE_SYMMETRIC_BOARDS))
# the clean tori, the only boards whose search breaks symmetry
@example(case=(PollutedInstance.of(torus(5, 5)), 2))
@example(case=(PollutedInstance.of(torus(6, 4)), 2))
@example(case=(PollutedInstance.of(torus(5, 4)), 3))
@example(case=(PollutedInstance.of(torus(4, 4)), 3))
@settings(max_examples=60, deadline=None)
def test_symmetric_pollutions_match_the_plain_search(case):
    instance, r = case
    result = min_percolating_exact(instance, r)
    assert (result.size, result.witness.mask) == _plain_search(instance, r)


# grids and polluted tori, some of them symmetric, then every torus with sides
# 3 to 6, clean and with one polluted cell
GROUP_CASES = [
    ("grid", 5, 5, []),
    ("grid", 4, 4, [(2, 2), (3, 3)]),
    ("grid", 1, 6, [(1, 1), (1, 6)]),
    ("torus", 4, 4, []),
    ("torus", 5, 3, []),
    ("torus", 6, 4, [(1, 1), (4, 1), (1, 3), (4, 3)]),
    ("torus", 5, 5, [(1, 1), (2, 2), (3, 3), (4, 4), (5, 5)]),
    ("torus", 4, 5, [(1, 1), (2, 1), (3, 4)]),
] + [
    ("torus", m, n, polluted)
    for m in range(3, 7)
    for n in range(3, 7)
    for polluted in ([], [(2, 1)])
    if (m, n, polluted) not in ((4, 4, []), (5, 3, []))
]


def _refuse(*args):
    raise AssertionError("symmetry group built")


@pytest.mark.parametrize("topology,m,n,polluted", GROUP_CASES)
def test_symmetry_group_is_the_maps_that_keep_the_pollution(topology, m, n, polluted, monkeypatch):
    # a clean torus searches with the naive maps that fix cell 0, each of which
    # keeps its empty pollution; every other board searches with no group
    spec = grid(m, n) if topology == "grid" else torus(m, n)
    if topology == "grid" or polluted:
        monkeypatch.setattr(search, "_torus_group", _refuse)
        result = min_percolating_exact(PollutedInstance.of(spec, polluted))
        assert result.symmetry_prunes == 0
        return
    cells = canonical_cells(m, n)
    kept = set()
    for g in naive_symmetries(m, n, topology):
        q = tuple(cells.index(g[c]) for c in cells)
        if q[0] == 0:
            kept.add(q)
    kept.discard(tuple(range(m * n)))
    # the translations take cell 0 to every cell: one orbit, so the root adds cell 0
    mask, maps = search._torus_group(m, n)
    assert mask == 1
    assert len(maps) == len(kept) and set(maps) == kept


def test_grids_and_polluted_tori_never_build_a_group(monkeypatch):
    # both fail a level before they succeed
    monkeypatch.setattr(search, "_symmetries", _refuse)
    for spec, polluted, r in ((grid(6, 6), [], 3), (torus(5, 5), [(1, 1), (3, 4)], 2)):
        result = min_percolating_exact(PollutedInstance.of(spec, polluted), r)
        assert len(result.level_nodes) > 1
        assert result.symmetry_prunes == 0
    with pytest.raises(AssertionError, match="symmetry group built"):
        min_percolating_exact(PollutedInstance.of(torus(3, 3)))


def test_clean_torus_first_level_costs_one_closure():
    # one seed percolates nothing at r = 2; the group's root tries cell 0 alone
    result = min_percolating_exact(PollutedInstance.of(torus(5, 5)))
    assert result.level_nodes == (1, 5, 60, 278)
    assert result.start_bound == 1


@pytest.mark.parametrize(
    "m,n,k,expected",
    [(3, 3, 1, 3), (2, 2, 1, 2), (3, 2, 1, 3), (3, 3, 0, 3), (2, 2, 4, 0)],
)
def test_mkmin_exact_frozen_values(m, n, k, expected):
    assert mkmin_exact(m, n, k) == expected


@pytest.mark.parametrize(
    "m,n,k,expected",
    [
        (4, 4, 1, 5), (3, 3, 0, 3), (2, 2, 1, 2), (3, 3, 1, 4), (3, 3, 9, 0),
        (5, 4, 2, 7), (5, 5, 1, 6), (5, 5, 2, 7),
    ],
)
def test_mkmax_exact_frozen_values(m, n, k, expected):
    assert mkmax_exact(m, n, k) == expected


def test_mkmax_exact_searches_one_pollution_per_orbit():
    # searching all 120 pollutions takes 969 closures; their 21 orbits, 258
    assert mkmax_exact(4, 4, 2, budget=500) == 6


# 4x4 stops at k = 1 and runs r = 3 at k = 0 only: the naive oracle needs ~15 s
# for 4x4, r = 3, k = 1.
SWEEP_CASES = [
    (k, m, n) for m, n in [(2, 2), (3, 2), (3, 3), (2, 4), (4, 2), (4, 3)] for k in (0, 1, 2)
] + [(0, 4, 4), (1, 4, 4)]


@pytest.mark.parametrize("k,m,n", SWEEP_CASES)
def test_sweep_oracles_match_naive(k, m, n):
    for r in (1, 2) if (m, n, k) == (4, 4, 1) else (1, 2, 3):
        numbers = naive_pollution_numbers(m, n, k, r)
        assert mkmin_exact(m, n, k, r) == min(numbers)
        assert mkmax_exact(m, n, k, r) == max(numbers)


@pytest.mark.parametrize("m,n", [(1, 4), (4, 1), (2, 2), (3, 2), (2, 4), (3, 3), (4, 3), (4, 4)])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_one_pollution_per_orbit_is_searched(m, n, k):
    group = naive_symmetries(m, n)
    orbits = set()
    for a in combinations(canonical_cells(m, n), k):
        orbits.add(frozenset(frozenset(g[c] for c in a) for g in group))
    tables = _symmetries(m, n)
    least = [_orbit_least(tables, combo) for combo in combinations(range(m * n), k)]
    assert sum(least) == len(orbits)


@pytest.mark.parametrize(
    "m,n",
    [(3, 2), (3, 3), (4, 2)]
    + [(m, n) for n in range(2, 6) for m in range(n, 16) if 17 <= m * n <= 30],
)
def test_mkmin_exact_agrees_with_closed_form(m, n):
    for k in range(m * n + 1):
        assert mkmin_exact(m, n, k) == mkmin(m, n, k)


def test_pollutions_match_naive_perimeter():
    # every board of at most 12 cells, one-wide ones included, and every k
    boards = [(m, n) for m in range(1, 13) for n in range(1, 12 // m + 1)]
    limits = (0, 4, 8, 10, 14, 18)
    for m, n in boards:
        cells = canonical_cells(m, n)
        shifts = Shifts.of(grid(m, n))
        for k in range(m * n + 1):
            perimeters = {
                combo: naive_perimeter(c for p, c in enumerate(cells) if p not in combo)
                for combo in combinations(range(m * n), k)
            }
            for limit in limits + (4 * m * n,):
                got = list(_pollutions(shifts, k, [limit]))
                assert [g[0] for g in got] == [c for c, per in perimeters.items() if per <= limit]
                for combo, amask, residual in got:
                    assert amask == sum(1 << p for p in combo)
                    assert residual == (1 << m * n) - 1 - amask


@pytest.mark.parametrize(
    "m,n,k,after,lowered", [(4, 3, 4, 5, 12), (3, 4, 6, 40, 10), (12, 1, 5, 30, 18)]
)
def test_pollutions_follow_a_lowered_limit(m, n, k, after, lowered):
    cells = canonical_cells(m, n)
    combos = list(combinations(range(m * n), k))
    perimeter = {
        combo: naive_perimeter(c for p, c in enumerate(cells) if p not in combo) for combo in combos
    }
    limit = [4 * m * n]
    walk = _pollutions(Shifts.of(grid(m, n)), k, limit)
    head = [next(walk)[0] for _ in range(after)]
    assert head == combos[:after]
    limit[0] = lowered
    tail = [c for c in combos[after:] if perimeter[c] <= lowered]
    assert 0 < len(tail) < len(combos) - after
    assert [g[0] for g in walk] == tail


def test_sweep_oracles_validate_inputs():
    with pytest.raises(ParameterError):
        mkmin_exact(3, 3, 10)
    with pytest.raises(ParameterError):
        mkmax_exact(3, 3, -1)
    with pytest.raises(ParameterError):
        mkmin_exact(3, 3, 1, r=0)


def _assert_sweep_error(exc, value, nodes, lower_bound, upper_bound):
    assert (exc.nodes, exc.lower_bound, exc.upper_bound) == (nodes, lower_bound, upper_bound)
    assert exc.lower_bound <= value <= exc.upper_bound
    assert (exc.start_bound, exc.forced, exc.level_nodes) == (0, 0, ())
    assert (exc.suffix_prunes, exc.perimeter_prunes, exc.symmetry_prunes) == (0, 0, 0)


def test_mkmin_exact_budget_error_carries_bounds(monkeypatch):
    # one closure checks the hook seeds, which meet the floor of 3
    assert mkmin_exact(3, 3, 1, budget=1) == 3
    # at r = 3 the compact residual's search gives 12 over the floor 11, and
    # the walk runs out before it finds 11
    with pytest.raises(BudgetExceededError) as exc:
        mkmin_exact(5, 5, 3, 3, budget=100)
    _assert_sweep_error(exc.value, 11, 101, 11, 12)
    # ceil((min_perimeter(30) + 2 * 30) / 6) = 14; the r = 3 floor was 1
    with pytest.raises(BudgetExceededError) as exc:
        mkmin_exact(6, 5, 0, 3, budget=1)
    _assert_sweep_error(exc.value, mkmin_exact(6, 5, 0, 3), 2, 14, 30)
    # at r = 2 with every residual cell a seed the best starts at t = 8, and
    # the walk runs out before it finds 3
    monkeypatch.setattr(search, "_compact_residual", _whole)
    with pytest.raises(BudgetExceededError) as exc:
        mkmin_exact(3, 3, 1, budget=10)
    _assert_sweep_error(exc.value, 3, 11, 3, 8)


def test_mkmin_exact_r3_row_is_frozen():
    # listing every pollution took ~40 s; the phi_3 walk lists only those
    # that can beat the best so far
    expected = [13, 12, 11, 11, 10, 10, 9, 9, 9, 8, 8, 8, 7, 7, 6, 5, 5, 5, 4, 4, 3, 3, 2, 1, 0]
    assert [mkmin_exact(6, 4, k, 3) for k in range(25)] == expected


# every board of at most 9 cells, one-wide ones included; at 10 cells the naive
# oracle alone takes ~6 s for every k and r = 1..3, at 12 cells ~100 s
NAIVE_SWEEP_BOARDS = [(m, n) for m in range(1, 10) for n in range(1, 9 // m + 1)]


@cache
def _naive_numbers(m, n, k, r):
    return naive_pollution_numbers(m, n, k, r)


def test_compact_residual_has_the_least_perimeter_on_its_board():
    for m in range(1, 151):
        for n in range(1, 150 // m + 1):
            s = min(m, n)
            perimeter = Shifts.of(grid(m, n)).perimeter
            for t in range(1, m * n + 1):
                mask, _ = search._compact_residual(m, n, t)
                assert mask.bit_count() == t and mask >> m * n == 0, (m, n, t)
                assert mask >> (n - 1) * m & 1, (m, n, t)  # the bottom-left cell
                least = min_perimeter(t) if t < s * s else min_perimeter_height_bounded(t, s)
                assert perimeter(mask) == least, (m, n, t)


def test_hook_seeds_percolate_the_compact_residual_at_its_floor():
    for m in range(1, 151):
        for n in range(1, 150 // m + 1):
            shifts = Shifts.of(grid(m, n))
            for t in range(1, m * n + 1):
                mask, seeds = search._compact_residual(m, n, t)
                assert closure_mask(shifts, shifts.full ^ mask, seeds, 2) == mask, (m, n, t)
                assert seeds.bit_count() == shifts.seed_floor(mask, 2), (m, n, t)


_real_compact_residual = search._compact_residual


def _whole(m, n, t):
    """The compact residual with every one of its cells a seed: they percolate, t of them."""
    mask, _ = _real_compact_residual(m, n, t)
    return mask, mask


def _short(m, n, t):
    """The compact residual with its hook seeds less one: below its floor, so they fail."""
    mask, seeds = _real_compact_residual(m, n, t)
    return mask, seeds & seeds - 1


@pytest.mark.parametrize("poor", [_short, _whole])
def test_mkmin_exact_value_does_not_depend_on_the_hook_seeds(poor, monkeypatch):
    searched = []

    def min_search(shifts, blocked, residual, r, cap, bud):
        searched.append(cap is None)
        return real_search(shifts, blocked, residual, r, cap, bud)

    real_search = search._min_search
    monkeypatch.setattr(search, "_min_search", min_search)
    monkeypatch.setattr(search, "_compact_residual", poor)
    for m, n in NAIVE_SWEEP_BOARDS:
        for k in range(m * n + 1):
            assert mkmin_exact(m, n, k) == min(_naive_numbers(m, n, k, 2)), (m, n, k)
    if poor is _short:
        # seeds that fail send every sweep with t > 0 to the compact residual's search
        assert searched.count(True) == sum(m * n for m, n in NAIVE_SWEEP_BOARDS)
    else:
        # seeds that percolate above the floor leave the minimum to the walk
        assert searched.count(False) > 0


def test_mkmin_exact_searches_no_compact_residual_at_r2(monkeypatch):
    calls = []

    def min_search(shifts, blocked, residual, r, cap, bud):
        calls.append(residual)
        return real_search(shifts, blocked, residual, r, cap, bud)

    real_search = search._min_search
    monkeypatch.setattr(search, "_min_search", min_search)
    assert [mkmin_exact(14, 14, k) for k in range(197)] == [mkmin(14, 14, k) for k in range(197)]
    compact = {_real_compact_residual(14, 14, t)[0] for t in range(1, 197)}
    assert not compact.intersection(calls)


def _scattered(m, n, t):
    """A poor first residual: t cells, one colour of a checkerboard first.

    At r >= 2 it falls apart into isolated cells, so the walk must find the
    minimum.
    """
    order = sorted(range(m * n), key=lambda p: ((p % m + p // m) % 2, p))
    return sum(1 << p for p in order[:t])


def test_mkmin_exact_value_does_not_depend_on_the_compact_residual(monkeypatch):
    calls = []

    def scattered(m, n, t):
        calls.append((m, n, t))
        # no seeds percolate it, so the sweep searches it at every r
        return _scattered(m, n, t), 0

    monkeypatch.setattr(search, "_compact_residual", scattered)
    poorer = 0
    for m, n in NAIVE_SWEEP_BOARDS:
        cells = canonical_cells(m, n)
        for k in range(m * n + 1):
            for r in (1, 2, 3):
                best = min(_naive_numbers(m, n, k, r))
                assert mkmin_exact(m, n, k, r) == best, (m, n, k, r)
                if 0 < k < m * n:
                    kept = _scattered(m, n, m * n - k)
                    polluted = [c for p, c in enumerate(cells) if not kept >> p & 1]
                    instance = PollutedInstance.of(grid(m, n), polluted)
                    poorer += min_percolating_exact(instance, r).size > best
    # the sweeps on 2 <= n <= m boards of up to 30 cells, against the closed form
    for m, n in [(m, n) for n in range(2, 6) for m in range(n, 31 // n)]:
        assert [mkmin_exact(m, n, k) for k in range(m * n + 1)] == [
            mkmin(m, n, k) for k in range(m * n + 1)
        ], (m, n)
    # the scattered residual needs more seeds than the sweep's value in 126 of
    # the 321 cases with 0 < k < mn, so there the walk found the minimum
    assert calls and poorer == 126


def _no_walk(*args):
    raise AssertionError("pollution walk started")


@pytest.mark.parametrize("m,n", [(1, 1), (1, 9), (9, 1), (3, 3), (4, 3), (3, 4)])
def test_mkmin_exact_at_k0_searches_the_clean_board_alone(m, n, monkeypatch):
    monkeypatch.setattr(search, "_pollutions", _no_walk)
    for r in (1, 2, 3, 4):
        assert mkmin_exact(m, n, 0, r) == naive_min_percolating(m, n, "grid", set(), r)[0]


def test_mkmin_exact_needs_no_walk_where_no_cell_has_r_neighbours(monkeypatch):
    # every residual then needs all its t cells; the walk used to list nearly
    # every pollution anyway (mkmin_exact(20, 1, 10, 3) took ~2 s)
    monkeypatch.setattr(search, "_pollutions", _no_walk)
    one_wide = [(m, n, r) for m, n in NAIVE_SWEEP_BOARDS if min(m, n) == 1 for r in (3, 4)]
    for m, n, r in one_wide + [(3, 3, 5), (4, 2, 4), (2, 4, 4)]:
        for k in range(m * n + 1):
            assert mkmin_exact(m, n, k, r) == min(_naive_numbers(m, n, k, r)), (m, n, k, r)
    assert mkmin_exact(20, 1, 10, 3) == mkmin_exact(10, 2, 10, 4) == 10


def test_mkmin_exact_needs_no_walk_where_the_compact_residual_meets_the_floor(monkeypatch):
    # t = 121, 100, 81 and 64 cells: the squares 11x11 to 8x8 need their side
    # in seeds, the floor ceil(min_perimeter(t) / 4), so the sweep ends before
    # the walk, which spends ~61 s on these four before it meets the square
    monkeypatch.setattr(search, "_pollutions", _no_walk)
    assert [mkmin_exact(14, 14, k) for k in (75, 96, 115, 132)] == [11, 10, 9, 8]


def test_mkmax_exact_witness_cache_keeps_the_naive_maximum():
    for m, n in NAIVE_SWEEP_BOARDS:
        for k in range(m * n + 1):
            for r in (2, 3):
                assert mkmax_exact(m, n, k, r) == max(_naive_numbers(m, n, k, r)), (m, n, k, r)


@pytest.mark.parametrize(
    "oracle,args,closures",
    [
        (mkmax_exact, (4, 4, 2), 258),
        (mkmax_exact, (5, 5, 2), 1_340),
        (mkmax_exact, (6, 5, 2), 3_970),
        (mkmin_exact, (6, 4, 0, 3), 1_099),
        (mkmin_exact, (6, 4, 2, 3), 831),
    ],
)
def test_sweep_closure_counts_are_frozen(oracle, args, closures):
    # each sweep's exact closure count: the walk lists mkmax_exact's pollutions
    # in combinations order, and the symmetry rule cuts no closure here; the
    # mkmax_exact counts include the witnesses tried (359, 1,792 and 6,330
    # closures without them), the mkmin_exact ones the compact residual
    # (709 without it on (6, 4, 2) at r = 3, where it costs more than it saves)
    oracle(*args, budget=closures)
    with pytest.raises(BudgetExceededError) as exc:
        oracle(*args, budget=closures - 1)
    assert exc.value.nodes == closures


@pytest.mark.parametrize("m,n", [(8, 2), (5, 5), (1, 12)])
def test_mkmin_exact_budget_errors_are_frozen(m, n):
    for k in range(m * n + 1):
        # the closed form covers boards at least two cells wide
        value = mkmin(m, n, k) if 2 <= n <= m else mkmin_exact(m, n, k)
        # (nodes, lower_bound, upper_bound) of a BudgetExceededError, or the
        # value returned, under the budgets 1, 3, 10 and 30
        outcomes = []
        for budget in (1, 3, 10, 30):
            try:
                outcomes.append(mkmin_exact(m, n, k, budget=budget))
            except BudgetExceededError as exc:
                outcomes.append((exc.nodes, exc.lower_bound, exc.upper_bound))
                assert exc.lower_bound <= value <= exc.upper_bound, (m, n, k, budget)
                assert (exc.start_bound, exc.forced, exc.level_nodes) == (0, 0, ())
                assert (exc.suffix_prunes, exc.perimeter_prunes, exc.symmetry_prunes) == (0, 0, 0)
        # the hook seeds cost one closure and the walk lists no pollution, so
        # every k returns its value under all four budgets
        assert outcomes == [value] * 4, (m, n, k)


def test_fixed_polyomino_counts():
    # OEIS A001168, the fixed polyominoes of t cells
    expected = {1: 1, 2: 2, 3: 6, 4: 19, 5: 63, 6: 216, 7: 760, 8: 2725, 9: 9910, 10: 36446}
    assert Counter(p.bit_count() for p in _fixed_polyominoes(10)) == expected


def test_fixed_polyominoes_match_naive_growth():
    t = 7
    w = 2 * t - 1
    shapes = []
    for p in _fixed_polyominoes(t):
        cells = [(q % w, q // w) for q in range(p.bit_length()) if p >> q & 1]
        min_x = min(x for x, _ in cells)
        min_y = min(y for _, y in cells)
        shapes.append(frozenset((x - min_x, y - min_y) for x, y in cells))
    assert len(set(shapes)) == len(shapes)
    for size in range(1, t + 1):
        assert {s for s in shapes if len(s) == size} == naive_fixed_polyominoes(size)


def test_polyomino_enumeration_keeps_no_cache():
    code = (
        "import tracemalloc\n"
        "from pgrid.search import min_polyomino_perimeter_exact\n"
        "tracemalloc.start()\n"
        "assert min_polyomino_perimeter_exact(9) == 12\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 2**20


def test_min_polyomino_perimeter_table():
    table = {1: 4, 2: 6, 3: 8, 4: 8, 5: 10, 6: 10, 7: 12, 8: 12}
    for t, expected in table.items():
        assert min_polyomino_perimeter_exact(t) == expected
        assert min_perimeter(t) == expected


def test_min_polyomino_perimeter_range():
    with pytest.raises(ParameterError):
        min_polyomino_perimeter_exact(0)
    with pytest.raises(ParameterError):
        min_polyomino_perimeter_exact(11)
