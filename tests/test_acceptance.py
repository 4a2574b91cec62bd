"""Acceptance gate: eight release criteria, one printed line each.

Each test prints ``[criterion N] PASS/FAIL: ...`` on the real stdout (capture
is lifted for just that line) and then asserts, so a red criterion is both
visible in the log and a test failure.
"""

import time

import pytest

from oracles import naive_adjacent
from pgrid import (
    CellSet,
    PollutedInstance,
    ceil_two_sqrt,
    construct_extremal,
    grid,
    is_percolating,
    min_percolating_exact,
    min_perimeter,
    min_polyomino_perimeter_exact,
    mkmin,
    mkmin_exact,
    mkmin_lower_bound,
    perimeter_lower_bound,
    pollution_max_independent,
    torus,
    verify_perimeter,
)


_CAPTURE = None


@pytest.fixture(autouse=True)
def _live_output(capfd):
    # pytest captures at the fd level, so even sys.__stdout__ is silenced;
    # stash the fixture so _report can lift capture for its one line
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


def _shapes(max_cells: int, max_side: int | None = None):
    top = max_cells if max_side is None else max_side
    return [
        (m, n)
        for n in range(2, top + 1)
        for m in range(n, top + 1)
        if (max_side is not None or m * n <= max_cells)
    ]


def test_criterion_1_reference_values():
    t0 = time.perf_counter()
    expected = {8: 6, 11: 6, 22: 5, 24: 4}
    bad = []
    for k, value in expected.items():
        if mkmin(8, 5, k) != value:
            bad.append(f"mkmin(8,5,{k}) != {value}")
            continue
        witness = construct_extremal(8, 5, k)
        if len(witness.seeds) != value or not is_percolating(
            witness.instance, witness.seeds, 2
        ):
            bad.append(f"construction for k={k} is not a {value}-seed witness")
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 1.0
    detail = (
        f"8x5 values 6,6,5,4 at k=8,11,22,24 with engine-verified witnesses "
        f"({elapsed:.2f} s)"
    )
    _report(1, ok, detail if not bad else "; ".join(bad))


def test_criterion_2_oracle_certifies_formula():
    checks = 0
    bad = []
    for m, n in _shapes(12):
        for k in range(m * n + 1):
            checks += 1
            if mkmin_exact(m, n, k, 2) != mkmin(m, n, k):
                bad.append(f"(m,n,k)=({m},{n},{k})")
    _report(
        2,
        not bad,
        f"exact oracle equals closed form on all {checks} cases with mn <= 12"
        if not bad
        else "oracle mismatch at " + ", ".join(bad),
    )


def test_criterion_3_constructions_scale_to_twenty():
    t0 = time.perf_counter()
    checks = 0
    bad = []
    for m, n in _shapes(0, max_side=20):
        for k in range(m * n + 1):
            checks += 1
            expected = mkmin(m, n, k)
            witness = construct_extremal(m, n, k)
            if len(witness.seeds) != expected:
                bad.append(f"size off at ({m},{n},{k})")
            elif perimeter_lower_bound(witness.instance) > expected:
                bad.append(f"perimeter bound above value at ({m},{n},{k})")
            elif 1 <= k < m * n and mkmin_lower_bound(m, n, k) != expected:
                bad.append(f"lower bound differs at ({m},{n},{k})")
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60.0
    _report(
        3,
        ok,
        f"{checks} engine-verified constructions up to 20x20 match the formula "
        f"and both bounds ({elapsed:.1f} s)"
        if not bad
        else "; ".join(bad[:5]),
    )


def test_criterion_4_perimeter_formulas():
    t0 = time.perf_counter()
    bad = []
    for t in range(1, 9):
        if min_polyomino_perimeter_exact(t) != min_perimeter(t):
            bad.append(f"enumeration differs at t={t}")
    mismatches = sum(
        1 for t in range(1, 10**6 + 1) if min_perimeter(t) != 2 * ceil_two_sqrt(t)
    )
    if mismatches:
        bad.append(f"square-root identity fails {mismatches} times")
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 30.0
    _report(
        4,
        ok,
        f"minimal perimeter matches enumeration for t <= 8 and the square-root "
        f"identity up to 10^6 ({elapsed:.1f} s)"
        if not bad
        else "; ".join(bad),
    )


def test_criterion_5_perimeter_monotone_on_traces():
    t0 = time.perf_counter()
    report = verify_perimeter(8, 100, seed=0)
    rows = [r for r in report.rows if r.suite == "perimeter.trace"]
    elapsed = time.perf_counter() - t0
    ok = len(rows) == 100 and all(r.passed for r in rows) and elapsed < 5.0
    _report(
        5,
        ok,
        f"cumulative perimeter non-increasing on all 100 seeded 8x5 traces "
        f"({elapsed:.1f} s)",
    )


def test_criterion_6_removal_monotonicity():
    from itertools import combinations

    bad = []
    checks = 0
    for m, n in _shapes(12):
        spec = grid(m, n)
        base = min_percolating_exact(PollutedInstance(spec, CellSet(spec))).size
        verts = list(spec.vertices())
        for size in (1, 2, 3):
            for combo in combinations(verts, size):
                if size > 1 and any(
                    naive_adjacent(m, n, "grid", a, b) for a, b in combinations(combo, 2)
                ):
                    continue
                checks += 1
                val = min_percolating_exact(PollutedInstance.of(spec, combo)).size
                if val < base:
                    bad.append(f"({m},{n}) minus {sorted(combo)}: {val} < {base}")
    _report(
        6,
        not bad,
        f"no removal among {checks} single/independent pollutions lowered the "
        f"oracle value"
        if not bad
        else "; ".join(bad[:3]),
    )


def test_criterion_7_torus_values_and_removals():
    bad = []
    for m, n in ((3, 3), (4, 3), (4, 4)):
        spec = torus(m, n)
        expected = (m + n + 1) // 2 - 1
        base = min_percolating_exact(PollutedInstance(spec, CellSet(spec))).size
        if base != expected:
            bad.append(f"{m}x{n} torus: {base} != {expected}")
            continue
        for v in spec.vertices():
            val = min_percolating_exact(PollutedInstance.of(spec, [v])).size
            if val != expected:
                bad.append(f"{m}x{n} torus minus ({v.i},{v.j}): {val}")
    _report(
        7,
        not bad,
        "torus values equal the closed form and survive any single removal"
        if not bad
        else "; ".join(bad[:3]),
    )


def test_criterion_8_worst_pollution_bound():
    bad = []
    equalities = []
    for m, n in ((4, 4), (5, 4)):
        for k in (1, 2):
            instance = PollutedInstance(grid(m, n), pollution_max_independent(m, n, k))
            bound = (m + n + 1) // 2 + k
            val = min_percolating_exact(instance).size
            if val < bound:
                bad.append(f"({m},{n},{k}): {val} < {bound}")
            elif val == bound:
                equalities.append(f"({m},{n},{k})={val}")
    info = "; equality observed at " + ", ".join(equalities) if equalities else ""
    _report(
        8,
        not bad,
        f"independent interior pollution forces the lower bound on 4x4 and 5x4{info}"
        if not bad
        else "; ".join(bad),
    )
