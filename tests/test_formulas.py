from math import isqrt
import random

from hypothesis import given
from hypothesis import strategies as st
import pytest

from pgrid import (
    OutOfHypothesisError,
    ParameterError,
    ceil_two_sqrt,
    independent_interior_capacity,
    min_perimeter,
    mkmax_lower_bound,
    mkmin,
    mkmin_lower_bound,
    mkmin_remark_form,
    percolation_number_grid,
    percolation_number_torus,
)

from oracles import (
    canonical_cells,
    naive_box_perimeter,
    naive_closure,
    naive_extremal,
    naive_queue_closure,
)


@st.composite
def grid_shapes(draw, max_side=30):
    n = draw(st.integers(2, max_side))
    m = draw(st.integers(n, max_side))
    return m, n


@st.composite
def shapes_with_k(draw, max_side=30):
    m, n = draw(grid_shapes(max_side))
    k = draw(st.integers(0, m * n))
    return m, n, k


def test_ceil_two_sqrt_examples():
    assert ceil_two_sqrt(0) == 0
    assert ceil_two_sqrt(16) == 8
    assert ceil_two_sqrt(18) == 9
    with pytest.raises(ParameterError):
        ceil_two_sqrt(-1)


@given(t=st.integers(0, 10**12))
def test_ceil_two_sqrt_is_least_integer_with_square_at_least_4t(t):
    s = ceil_two_sqrt(t)
    assert s * s >= 4 * t
    assert s == 0 or (s - 1) * (s - 1) < 4 * t


def test_grid_percolation_number_examples():
    assert percolation_number_grid(8, 5) == 7
    assert percolation_number_grid(2, 2) == 2
    assert percolation_number_grid(3, 3) == 3
    with pytest.raises(ParameterError):
        percolation_number_grid(1, 5)


def test_torus_percolation_number_examples():
    assert percolation_number_torus(4, 4) == 3
    assert percolation_number_torus(3, 3) == 2
    assert percolation_number_torus(5, 4) == 4
    with pytest.raises(ParameterError):
        percolation_number_torus(2, 4)


def test_mkmin_reference_values():
    assert mkmin(8, 5, 8) == 6
    assert mkmin(8, 5, 11) == 6
    assert mkmin(8, 5, 22) == 5
    assert mkmin(8, 5, 24) == 4


def test_mkmin_edge_values():
    assert mkmin(8, 5, 15) == 5  # branch boundary, both expressions agree
    assert mkmin(8, 5, 0) == percolation_number_grid(8, 5)
    assert mkmin(8, 5, 40) == 0
    with pytest.raises(ParameterError):
        mkmin(5, 8, 3)
    with pytest.raises(ParameterError):
        mkmin(8, 5, 41)
    with pytest.raises(ParameterError):
        mkmin(8, 5, -1)


@given(shape=shapes_with_k())
def test_mkmin_is_non_increasing_in_k(shape):
    m, n, k = shape
    if k < m * n:
        assert mkmin(m, n, k) >= mkmin(m, n, k + 1)


@given(shape=grid_shapes())
def test_mkmin_at_the_branch_boundary_is_n(shape):
    m, n = shape
    assert mkmin(m, n, (m - n) * n) == n


def test_int_forms_match_the_values_rebuilt_with_isqrt():
    # mkmin and mkmin_lower_bound share no code with this rebuild of both
    # branch values, with ceil(ceil(2 sqrt t) / 2) = ceil(sqrt t)
    for n in range(2, 13):
        for m in range(n, 150 // n + 1):
            pivot = (m - n) * n
            for k in range(m * n + 1):
                t = m * n - k
                x = isqrt(t)
                ell, rem = k // n, t - x * x
                small = (n + m - ell + 1) // 2
                large = x + (rem > 0)
                if k == pivot:
                    assert small == large, (m, n, k)
                assert mkmin(m, n, k) == (small if k < pivot else large)
                if 0 < k < m * n:
                    assert mkmin_lower_bound(m, n, k) == (small if t > n * n else large)


def test_mkmin_is_a_quarter_of_the_best_box_perimeter():
    # theorem 1 at its lower leg: ceil(P / 4) seeds, where no t-cell residual
    # shows fewer than the P sides of the oracle's best box
    rows = [(m, n, t) for n in range(2, 21) for m in range(n, 400 // n + 1) for t in range(1, m * n + 1)]
    assert len(rows) == 188_952
    wrong = [
        (m, n, t) for m, n, t in rows if -(-naive_box_perimeter(m, n, t) // 4) != mkmin(m, n, m * n - t)
    ]
    assert wrong == []


def test_queue_closure_matches_the_rescanning_closure():
    rng = random.Random(7)
    for m, n in [(1, 1), (2, 2), (3, 2), (2, 3), (4, 4), (6, 3), (5, 1)]:
        cells = canonical_cells(m, n)
        for _ in range(40):
            polluted = set(rng.sample(cells, rng.randint(0, len(cells) // 3)))
            healthy = [c for c in cells if c not in polluted]
            seeds = set(rng.sample(healthy, rng.randint(0, len(healthy))))
            expected = naive_closure(m, n, "grid", polluted, seeds, 2)
            assert naive_queue_closure(m, n, polluted, seeds) == expected, (m, n, polluted, seeds)


def test_mkmin_seeds_percolate_the_oracle_extremal_residual():
    # theorem 1 at its upper leg: the oracle's witness has k polluted cells and
    # mkmin seeds, and its seeds close over the rest of the board
    rows = 0
    for n in range(2, 11):
        for m in range(n, 100 // n + 1):
            cells = set(canonical_cells(m, n))
            for k in range(m * n + 1):
                polluted, seeds = naive_extremal(m, n, k)
                assert (len(polluted), len(seeds)) == (k, mkmin(m, n, k)), (m, n, k)
                assert naive_queue_closure(m, n, polluted, seeds) == cells - polluted, (m, n, k)
                rows += 1
    assert rows == 8728


def test_mkmin_remark_form_examples():
    assert mkmin_remark_form(8, 5, 8) == 6
    assert mkmin_remark_form(6, 4, 4) == 5
    assert mkmin_remark_form(8, 5, 15) == 5
    with pytest.raises(ParameterError):
        mkmin_remark_form(8, 5, 16)
    with pytest.raises(ParameterError):
        mkmin_remark_form(8, 5, 0)
    with pytest.raises(ParameterError):
        mkmin_remark_form(4, 4, 1)


@given(shape=grid_shapes(), k=st.data())
def test_remark_form_agrees_with_mkmin_on_its_range(shape, k):
    m, n = shape
    if (m - n) * n < 1:
        return
    kk = k.draw(st.integers(1, (m - n) * n))
    assert mkmin_remark_form(m, n, kk) == mkmin(m, n, kk)


def test_mkmin_lower_bound_examples():
    assert mkmin_lower_bound(8, 5, 8) == 6
    assert mkmin_lower_bound(8, 5, 24) == 4
    assert mkmin_lower_bound(8, 5, 22) == 5
    with pytest.raises(ParameterError):
        mkmin_lower_bound(8, 5, 0)
    with pytest.raises(ParameterError):
        mkmin_lower_bound(8, 5, 40)


@given(shape=grid_shapes(), k=st.data())
def test_lower_bound_is_tight_for_every_k(shape, k):
    m, n = shape
    kk = k.draw(st.integers(1, m * n - 1))
    assert mkmin_lower_bound(m, n, kk) == mkmin(m, n, kk)


def test_capacity_examples():
    assert independent_interior_capacity(4, 4) == 2
    assert independent_interior_capacity(8, 5) == 9
    assert independent_interior_capacity(2, 5) == 0
    assert independent_interior_capacity(3, 3) == 1


def test_mkmax_lower_bound_examples():
    assert mkmax_lower_bound(4, 4, 1) == 5
    assert mkmax_lower_bound(8, 5, 9) == 16
    assert mkmax_lower_bound(6, 3, 0) == percolation_number_grid(6, 3)
    with pytest.raises(OutOfHypothesisError):
        mkmax_lower_bound(8, 5, 10)
    with pytest.raises(ParameterError):
        mkmax_lower_bound(8, 5, -1)
    with pytest.raises(ParameterError):
        mkmax_lower_bound(1, 5, 0)


@given(t=st.integers(0, 10**9))
def test_large_branch_links_to_the_perimeter_minimum(t):
    if t == 0:
        assert ceil_two_sqrt(0) == 0
        return
    assert (ceil_two_sqrt(t) + 1) // 2 == (min_perimeter(t) + 3) // 4
