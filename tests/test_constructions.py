from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from oracles import mask_of_cells, naive_adjacent, naive_extremal
from pgrid import (
    CellSet,
    OutOfHypothesisError,
    ParameterError,
    construct_extremal,
    grid,
    is_percolating,
    mkmin,
    pollution_max_independent,
)
from pgrid.constructions import _extremal_masks
from pgrid.grid import Shifts


@st.composite
def shapes_with_k(draw, max_side=16):
    n = draw(st.integers(2, max_side))
    m = draw(st.integers(n, max_side))
    k = draw(st.integers(0, m * n))
    return m, n, k


def _cells(cellset):
    return {(v.i, v.j) for v in cellset}


def test_pollution_small_k_reference_sets():
    assert _cells(construct_extremal(8, 5, 8).instance.polluted) == {
        (8, j) for j in range(1, 6)
    } | {(7, 5), (7, 4), (7, 3)}
    assert _cells(construct_extremal(8, 5, 11).instance.polluted) == {
        (i, j) for i in (7, 8) for j in range(1, 6)
    } | {(6, 5)}
    assert _cells(construct_extremal(8, 5, 5).instance.polluted) == {(8, j) for j in range(1, 6)}


@given(case=shapes_with_k())
def test_pollution_small_k_has_exactly_k_cells(case):
    m, n, k = case
    if not 1 <= k <= (m - n) * n:
        return
    assert len(construct_extremal(m, n, k).instance.polluted) == k


def test_seeds_small_k_reference_sets():
    assert _cells(construct_extremal(8, 5, 8).seeds) == {
        (1, 5), (1, 3), (1, 1), (3, 1), (5, 1), (7, 1)
    }
    assert _cells(construct_extremal(8, 5, 11).seeds) == {
        (1, 5), (1, 3), (1, 1), (3, 1), (5, 1), (6, 1)
    }


def test_seeds_small_k_percolate_their_instance():
    witness = construct_extremal(6, 4, 4)
    assert len(witness.seeds) == 5
    assert is_percolating(witness.instance, witness.seeds, 2)


def test_extremal_large_k_square_case():
    witness = construct_extremal(8, 5, 24)
    assert _cells(witness.instance.residual) == {
        (i, j) for i in range(1, 5) for j in range(1, 5)
    }
    assert _cells(witness.seeds) == {(1, 4), (1, 2), (2, 1), (4, 1)}
    assert witness.claimed_size == 4


def test_extremal_large_k_partial_row_case():
    witness = construct_extremal(8, 5, 22)
    assert len(witness.instance.residual) == 18
    assert len(witness.seeds) == 5
    assert witness.claimed_size == 5


def test_extremal_large_k_empty_residual():
    witness = construct_extremal(8, 5, 40)
    assert not witness.instance.residual
    assert not witness.seeds
    assert witness.claimed_size == 0


@given(case=shapes_with_k())
@settings(max_examples=150)
def test_construct_extremal_is_engine_verified_and_tight(case):
    m, n, k = case
    witness = construct_extremal(m, n, k)
    assert witness.instance.k == k
    assert len(witness.seeds) == witness.claimed_size == mkmin(m, n, k)
    assert not witness.seeds.mask & witness.instance.polluted.mask
    assert all(v.i == 1 or v.j == 1 for v in witness.seeds)


def test_construct_extremal_matches_coordinate_reference():
    cases = 0
    for n in range(2, 11):
        for m in range(n, 100 // n + 1):
            for k in range(m * n + 1):
                witness = construct_extremal(m, n, k)
                polluted, seeds = naive_extremal(m, n, k)
                assert witness.instance.polluted.mask == mask_of_cells(m, n, polluted), (m, n, k)
                assert witness.seeds.mask == mask_of_cells(m, n, seeds), (m, n, k)
                # the tall board, which only mkmin_exact builds
                polluted, seeds = naive_extremal(n, m, k)
                masks = mask_of_cells(n, m, polluted), mask_of_cells(n, m, seeds)
                assert _extremal_masks(grid(n, m), k) == masks, (n, m, k)
                cases += 1
    assert cases == 8728


def test_construct_extremal_examples():
    assert construct_extremal(8, 5, 8).claimed_size == 6
    assert construct_extremal(8, 5, 15).claimed_size == 5
    assert construct_extremal(20, 13, 100).claimed_size == mkmin(20, 13, 100)
    assert construct_extremal(2, 2, 4).claimed_size == 0


def test_construct_extremal_validates_range():
    with pytest.raises(ParameterError):
        construct_extremal(5, 8, 3)
    with pytest.raises(ParameterError):
        construct_extremal(8, 5, 41)


def test_pollution_max_independent_examples():
    assert _cells(pollution_max_independent(4, 4, 1)) == {(2, 2)}
    assert _cells(pollution_max_independent(5, 5, 4)) == {(2, 2), (2, 4), (3, 3), (4, 2)}
    assert _cells(pollution_max_independent(5, 5, 2)) == {(2, 2), (2, 4)}  # i-major prefix
    assert _cells(pollution_max_independent(3, 3, 1)) == {(2, 2)}


def test_pollution_max_independent_validates_range():
    with pytest.raises(OutOfHypothesisError):
        pollution_max_independent(4, 4, 3)
    with pytest.raises(ParameterError):
        pollution_max_independent(4, 4, 0)
    with pytest.raises(ParameterError):
        pollution_max_independent(2, 4, 1)


@given(m=st.integers(3, 9), n=st.integers(3, 9), k=st.data())
def test_pollution_max_independent_is_independent_and_interior(m, n, k):
    cap = ((m - 2) * (n - 2) + 1) // 2
    kk = k.draw(st.integers(1, cap))
    cells = pollution_max_independent(m, n, kk)
    assert len(cells) == kk
    members = list(cells)
    for v in members:
        assert 2 <= v.i <= m - 1 and 2 <= v.j <= n - 1
        assert not any(naive_adjacent(m, n, "grid", u, v) for u in members)


def test_pollution_max_independent_min_degree():
    from pgrid import PollutedInstance

    spec = grid(5, 5)
    residual = PollutedInstance(spec, pollution_max_independent(5, 5, 4)).residual.mask
    at_least = Shifts.of(spec).at_least
    assert residual & ~at_least(residual, 1) == 0
    assert (3, 2) in CellSet(spec, residual & ~at_least(residual, 2))  # (3,2) keeps only (3,1)
