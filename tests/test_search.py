from itertools import combinations

from hypothesis import given, settings
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
    min_polyomino_perimeter_exact,
    mkmax_exact,
    mkmin,
    mkmin_exact,
    torus,
)
from pgrid import search
from pgrid.engine import closure_mask
from pgrid.search import _fixed_polyominoes, _Orbits

from oracles import (
    canonical_cells,
    naive_min_percolating,
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
        (torus(5, 5), 2, 4, 2259, 0x8105),
        (torus(4, 4), 3, 6, 3030, 0x8525),
        (grid(3, 3), 4, 8, 1, 0x1EF),
        (grid(2, 2), 5, 4, 1, 0xF),
        # trying every 7-set in order takes 93,689 closures
        (grid(7, 6), 2, 7, 53, 0x80020202B),
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
    assert result.suffix_prunes + result.perimeter_prunes > 0


@pytest.mark.parametrize("spec,r", [(grid(5, 5), 2), (grid(4, 4), 3), (torus(4, 3), 2)])
def test_budget_stops_one_closure_past_the_limit(spec, r):
    instance = PollutedInstance.of(spec)
    nodes = min_percolating_exact(instance, r).nodes_explored
    for b in range(1, nodes):
        with pytest.raises(BudgetExceededError) as exc:
            min_percolating_exact(instance, r, budget=b)
        assert exc.value.nodes == b + 1
    assert min_percolating_exact(instance, r, budget=nodes).nodes_explored == nodes


def test_deep_level_needs_no_recursion():
    # a 1 x 2000 path needs 1,001 seeds: the start bound is already 1,001
    instance = PollutedInstance.of(grid(1, 2000))
    result = min_percolating_exact(instance)
    assert result.size == result.start_bound == 1001
    for b in (1, 500, 1000):
        with pytest.raises(BudgetExceededError) as exc:
            min_percolating_exact(instance, budget=b)
        assert exc.value.nodes == b + 1


def test_min_percolating_rejects_bad_threshold_and_budget():
    instance = PollutedInstance.of(grid(2, 2), [])
    with pytest.raises(ParameterError):
        min_percolating_exact(instance, r=0)
    with pytest.raises(ParameterError):
        min_percolating_exact(instance, budget=0)


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
    # searching all 120 pollutions takes 13,360 closures; their 21 orbits, 2,670
    assert mkmax_exact(4, 4, 2, budget=3000) == 6


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
    least = _Orbits(m, n).least
    assert sum(map(least, combinations(range(m * n), k))) == len(orbits)


@pytest.mark.parametrize("m,n", [(3, 2), (3, 3), (4, 2)])
def test_mkmin_exact_agrees_with_closed_form(m, n):
    for k in range(m * n + 1):
        assert mkmin_exact(m, n, k) == mkmin(m, n, k)


def test_sweep_oracles_validate_inputs():
    with pytest.raises(ParameterError):
        mkmin_exact(3, 3, 10)
    with pytest.raises(ParameterError):
        mkmax_exact(3, 3, -1)
    with pytest.raises(ParameterError):
        mkmin_exact(3, 3, 1, r=0)


def test_mkmin_exact_budget_error_carries_bounds():
    with pytest.raises(BudgetExceededError) as exc:
        mkmin_exact(3, 3, 1, budget=1)
    err = exc.value
    assert err.lower_bound == 3
    assert err.upper_bound == 8


def test_fixed_polyomino_counts():
    expected = {1: 1, 2: 2, 3: 6, 4: 19, 5: 63, 6: 216, 7: 760, 8: 2725}
    for t, count in expected.items():
        assert len(_fixed_polyominoes(t)) == count


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
