import csv
import io
import json
import time

import pytest

import pgrid.cli as cli
import pgrid.constructions as constructions
import pgrid.verify as verify_module
from pgrid import (
    CSV_COLUMNS,
    BudgetExceededError,
    CellSet,
    CheckRow,
    InternalConsistencyError,
    ParameterError,
    PercolationTrace,
    SuiteReport,
    construct_extremal,
    grid,
    is_percolating,
    mkmin,
    mkmin_lower_bound,
    verify_monotonicity,
    verify_perimeter,
    verify_theorem1,
    verify_torus_and_max,
)
from pgrid.grid import Shifts


def _signature(report):
    return [
        (row.suite, row.m, row.n, row.k, row.expected, row.actual, row.passed, row.note)
        for row in report.rows
    ]


def test_theorem1_suite_passes_on_small_limits():
    report = verify_theorem1(4, 5)
    assert report.name == "theorem1"
    assert report.limits == {"max_mn_exhaustive": 4, "max_mn_construction": 5}
    assert report.seed is None
    assert report.passed
    oracle = [r for r in report.rows if r.suite == "theorem1.oracle-certified"]
    construction = [r for r in report.rows if r.suite == "theorem1.construction-only"]
    assert len(oracle) == 5 and len(construction) == 5
    assert {(r.m, r.n) for r in report.rows} == {(2, 2)}


def test_theorem1_suite_validates_limits():
    with pytest.raises(ParameterError):
        verify_theorem1(3, 400)
    with pytest.raises(ParameterError):
        verify_theorem1(12, 3)


def test_theorem1_suite_rejects_exhaustive_boards_beyond_oracle_reach():
    start = time.perf_counter()
    with pytest.raises(ParameterError, match="out of oracle reach"):
        verify_theorem1(401, 4)
    with pytest.raises(ParameterError, match="out of oracle reach"):
        verify_theorem1(405, 400)
    assert time.perf_counter() - start < 1.0


def test_theorem1_suite_rejects_construction_sweeps_beyond_the_cap(monkeypatch):
    start = time.perf_counter()
    with pytest.raises(ParameterError, match="beyond mn = 400"):
        verify_theorem1(4, 401)
    with pytest.raises(ParameterError, match="beyond mn = 400"):
        verify_theorem1(4, 1000)
    assert time.perf_counter() - start < 1.0
    # the cap itself is accepted; the sweep is skipped, as it takes ~12 s
    monkeypatch.setattr(verify_module, "_grid_shapes", lambda max_mn, min_n=2: [])
    assert verify_theorem1(4, 400).limits["max_mn_construction"] == 400


def test_construction_rows_match_the_public_constructors():
    rebuilt = []
    for n in range(2, 8):
        for m in range(n, 60 // n + 1):
            shifts = Shifts.of(grid(m, n))
            for k in range(m * n + 1):
                witness = construct_extremal(m, n, k)
                assert is_percolating(witness.instance, witness.seeds, 2)
                expected = mkmin(m, n, k)
                actual = len(witness.seeds)
                ok, note = actual == expected, ""
                bound = shifts.seed_floor(witness.instance.residual.mask, 2)
                if bound > expected:
                    ok, note = False, f"perimeter bound {bound} exceeds the formula value"
                if ok and 1 <= k < m * n and mkmin_lower_bound(m, n, k) != expected:
                    ok, note = False, "rectangle-style bound disagrees with the formula value"
                rebuilt.append(("theorem1.construction-only", m, n, k, expected, actual, ok, note))
    rows = [sig for sig in _signature(verify_theorem1(4, 60)) if sig[0] == rebuilt[0][0]]
    assert len(rows) == 2_764
    assert rows == sorted(rebuilt)


def _lowest(mask, count):
    """The ``count`` lowest set bits of ``mask``."""
    out = 0
    for _ in range(count):
        low = mask & -mask
        out |= low
        mask ^= low
    return out


@pytest.mark.parametrize(
    "breach",
    [
        # one seed too few
        lambda full, polluted, seeds: (polluted, seeds & seeds - 1),
        # one seed too many, which still percolates: only the seed count sees it
        lambda full, polluted, seeds: (polluted, seeds | _lowest(full ^ polluted ^ seeds, 1)),
        # the leftover polluted cell healthy again, the 5x2 block still
        # percolating: only the pollution count sees it
        lambda full, polluted, seeds: (polluted & polluted - 1, seeds),
        # as many seeds as the formula asks, along the top row, where they
        # infect nothing: only the closure sees it
        lambda full, polluted, seeds: (polluted, _lowest(full ^ polluted, seeds.bit_count())),
    ],
    ids=["seed-dropped", "seed-added", "cell-freed", "seeds-moved"],
)
def test_a_broken_construction_fails_its_own_row(breach, monkeypatch, capsys):
    build = constructions._extremal_masks

    def broken(spec, k):
        polluted, seeds = build(spec, k)
        if (spec.m, spec.n, k) == (6, 2, 3):
            return breach((1 << spec.size) - 1, polluted, seeds)
        return polluted, seeds

    monkeypatch.setattr(constructions, "_extremal_masks", broken)
    with pytest.raises(InternalConsistencyError, match="witness for m=6, n=2, k=3 failed"):
        construct_extremal(6, 2, 3)
    assert construct_extremal(6, 2, 4).claimed_size == mkmin(6, 2, 4)
    report = verify_theorem1(4, 12)
    assert [(row.suite, row.m, row.n, row.k) for row in report.failures] == [
        ("theorem1.construction-only", 6, 2, 3)
    ]
    row = report.failures[0]
    assert row.passed is False and row.expected == 4 and row.note == ""
    assert row.actual == "construction failed: witness for m=6, n=2, k=3 failed verification"
    assert cli.run(["verify", "theorem1", "--max-exhaustive", "4", "--max-construction", "12"]) == 3
    assert "FAIL theorem1.construction-only m=6 n=2 k=3: expected 4" in capsys.readouterr().out


def _t1_failures(capsys):
    """The failing rows of theorem 1 at limits 4 and 12, once from the API and
    once from the CLI, which must exit 3."""
    failures = verify_theorem1(4, 12).failures
    assert cli.run(["verify", "theorem1", "--max-exhaustive", "4", "--max-construction", "12"]) == 3
    assert "FAIL theorem1." in capsys.readouterr().out
    return [(row.suite, row.m, row.n, row.k, row.actual, row.passed, row.note) for row in failures]


def test_an_oracle_out_of_budget_fails_its_row(monkeypatch, capsys):
    real = verify_module.mkmin_exact

    def out_of_budget(m, n, k, r):
        if (m, n, k) == (2, 2, 1):
            raise BudgetExceededError("budget of 1 closure evaluations exhausted", 2, 1, 3)
        return real(m, n, k, r)

    monkeypatch.setattr(verify_module, "mkmin_exact", out_of_budget)
    assert _t1_failures(capsys) == [
        (
            "theorem1.oracle-certified", 2, 2, 1,
            "budget exceeded: budget of 1 closure evaluations exhausted", False, "",
        )
    ]


def test_a_perimeter_bound_above_the_formula_fails_its_row(monkeypatch, capsys):
    real = Shifts.seed_floor
    # only on the 6x2 board, whose shapes the oracle rows at limit 4 never search
    monkeypatch.setattr(Shifts, "seed_floor", lambda self, x, r: real(self, x, r) + (self.m == 6))
    failures = _t1_failures(capsys)
    assert [k for _, _, _, k, _, _, _ in failures] == list(range(13))
    for suite, m, n, k, actual, passed, note in failures:
        value = mkmin(6, 2, k)
        assert (suite, m, n, actual, passed) == ("theorem1.construction-only", 6, 2, value, False)
        assert note == f"perimeter bound {value + 1} exceeds the formula value"


def test_a_lower_bound_off_by_one_fails_its_row(monkeypatch, capsys):
    real = verify_module.mkmin_lower_bound
    monkeypatch.setattr(
        verify_module, "mkmin_lower_bound", lambda m, n, k: real(m, n, k) + ((m, n, k) == (6, 2, 5))
    )
    assert _t1_failures(capsys) == [
        (
            "theorem1.construction-only", 6, 2, 5, mkmin(6, 2, 5), False,
            "rectangle-style bound disagrees with the formula value",
        )
    ]


def test_a_trace_whose_perimeter_rises_fails_its_row(monkeypatch, capsys):
    spec = grid(8, 5)

    def rising(instance, seeds, r):
        # one cell (perimeter 4), then a second cell far from it (perimeter 8)
        rounds = (CellSet(spec, 1), CellSet(spec, 1 << 20))
        return PercolationTrace(instance, rounds, CellSet(spec, 1 | 1 << 20), False, 1)

    monkeypatch.setattr(verify_module, "percolate", rising)
    traces = [row for row in verify_perimeter(1, 2).rows if row.suite == "perimeter.trace"]
    assert [(row.k, row.actual, row.passed) for row in traces] == [
        (0, "perimeter rose 4 -> 8", False),
        (1, "perimeter rose 4 -> 8", False),
    ]
    assert cli.run(["verify", "perimeter", "--max-t", "1", "--trace-samples", "2"]) == 3
    assert "FAIL perimeter.trace m=8 n=5 k=0" in capsys.readouterr().out


@pytest.mark.parametrize("min_n", [1, 2, 3])
def test_grid_shapes_are_every_shape_within_the_limit_in_order(min_n):
    for max_mn in range(130):
        expected = [
            (m, n)
            for n in range(min_n, max_mn + 1)
            for m in range(n, max_mn + 1)
            if m * n <= max_mn
        ]
        assert verify_module._grid_shapes(max_mn, min_n) == expected


def test_monotonicity_suite_rows():
    report = verify_monotonicity(4)
    assert report.passed
    skip = [r for r in report.rows if r.suite == "monotonicity.skip"]
    single = [r for r in report.rows if r.suite == "monotonicity.single"]
    independent = [r for r in report.rows if r.suite == "monotonicity.independent"]
    assert len(skip) == 1 and skip[0].passed
    assert "star graph" in skip[0].actual
    assert len(single) == 4
    assert len(independent) == 2  # the two diagonals of the 2x2 board
    assert all(r.expected == 2 for r in single)
    assert all(r.note.startswith("removed (") for r in single + independent)


def test_monotonicity_suite_rejects_large_boards():
    with pytest.raises(ParameterError):
        verify_monotonicity(17)


@pytest.mark.parametrize("max_mn", [3, 0, -3])
def test_monotonicity_suite_rejects_limits_below_the_smallest_grid(max_mn):
    # below 4 the suite would pass on its skip row alone
    with pytest.raises(ParameterError, match="smallest grid is 2x2"):
        verify_monotonicity(max_mn)


def test_monotonicity_passes_at_full_scale():
    assert verify_monotonicity(16).passed


def test_torus_and_max_passes_at_full_scale():
    assert verify_torus_and_max(16).passed


def test_perimeter_suite_structure_and_reproducibility():
    first = verify_perimeter(3, 2, seed=7)
    second = verify_perimeter(3, 2, seed=7)
    assert first.passed
    assert first.seed == 7
    assert len(first.rows) == 6  # 3 formula + 1 identity + 2 traces
    assert _signature(first) == _signature(second)
    identity = [r for r in first.rows if r.suite == "perimeter.identity"]
    assert identity[0].k == 10**6 and identity[0].actual == 0
    traces = [r for r in first.rows if r.suite == "perimeter.trace"]
    assert all(r.expected == "non-increasing" for r in traces)
    assert all("|seeds|=" in r.note for r in traces)


def _identity_row(report):
    (row,) = [r for r in report.rows if r.suite == "perimeter.identity"]
    return row


def test_perimeter_identity_row_counts_every_t_where_min_perimeter_is_wrong(monkeypatch):
    real = verify_module.min_perimeter
    bad = {1, 2, 2500, 10**6}  # 4 * 2500 = 100^2 ends the run where ceil(2 sqrt t) = 100
    monkeypatch.setattr(verify_module, "min_perimeter", lambda t: real(t) + (t in bad))
    row = _identity_row(verify_perimeter(1, 0))
    assert (row.k, row.actual, row.passed) == (10**6, len(bad), False)
    monkeypatch.setattr(
        verify_module, "min_perimeter", lambda t: real(t) - 2 * (5000 <= t < 6000)
    )
    row = _identity_row(verify_perimeter(1, 0))
    assert (row.actual, row.passed) == (1000, False)


@pytest.mark.parametrize("above", [5000, 10**6 - 1])
def test_perimeter_identity_row_fails_when_ceil_two_sqrt_is_wrong(monkeypatch, above):
    real = verify_module.ceil_two_sqrt
    monkeypatch.setattr(verify_module, "ceil_two_sqrt", lambda t: real(t) + (t > above))
    row = _identity_row(verify_perimeter(1, 0))
    assert row.actual >= 1 and not row.passed


def test_perimeter_suite_validates_limits():
    with pytest.raises(ParameterError):
        verify_perimeter(0, 10)
    with pytest.raises(ParameterError):
        verify_perimeter(9, 10)
    with pytest.raises(ParameterError):
        verify_perimeter(8, -1)
    start = time.perf_counter()
    with pytest.raises(ParameterError, match="trace_samples <= 10000"):
        verify_perimeter(1, 10_001)
    assert time.perf_counter() - start < 1.0
    assert len(verify_perimeter(1, 10_000).rows) == 10_002


def test_torus_and_max_suite_rows():
    report = verify_torus_and_max(9)
    assert report.passed
    formula = [r for r in report.rows if r.suite == "torus.formula"]
    removal = [r for r in report.rows if r.suite == "torus.removal"]
    bound = [r for r in report.rows if r.suite == "mkmax.bound"]
    assert [(r.m, r.n, r.expected, r.actual) for r in formula] == [(3, 3, 2, 2)]
    assert len(removal) == 9 and all(r.actual == 2 for r in removal)
    assert [(r.m, r.n, r.k, r.expected, r.actual) for r in bound] == [(3, 3, 1, 4, 4)]
    assert bound[0].note == "bound met with equality"


def test_torus_and_max_suite_rejects_large_boards():
    with pytest.raises(ParameterError):
        verify_torus_and_max(17)


@pytest.mark.parametrize("max_mn", [8, 0, -1])
def test_torus_and_max_suite_rejects_limits_below_the_smallest_torus(max_mn):
    # below 9 the suite would pass with no check at all
    with pytest.raises(ParameterError, match="smallest torus is 3x3"):
        verify_torus_and_max(max_mn)


def test_rows_are_sorted():
    report = verify_torus_and_max(9)
    keys = [
        (r.suite, -1 if r.m is None else r.m, -1 if r.n is None else r.n,
         -1 if r.k is None else r.k, r.note)
        for r in report.rows
    ]
    assert keys == sorted(keys)


def test_csv_round_trip_and_format():
    report = verify_monotonicity(4)
    text = report.to_csv()
    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed[0] == list(CSV_COLUMNS)
    assert len(parsed) == len(report.rows) + 1
    skip_lines = [line for line in parsed[1:] if line[0] == "monotonicity.skip"]
    assert len(skip_lines) == 1
    assert skip_lines[0][1:4] == ["", "", ""]
    for line in parsed[1:]:
        assert line[6] in ("true", "false")
        assert len(line[7].split(".")[1]) == 3


def test_json_document_shape():
    report = verify_torus_and_max(9)
    text = report.to_json()
    assert text.endswith("\n")
    doc = json.loads(text)
    assert doc["suite"] == "torus-max"
    assert doc["passed"] is True
    assert doc["checks"] == len(report.rows)
    assert doc["failed"] == 0
    assert doc["limits"] == {"max_mn": 9}
    assert all("note" in row for row in doc["rows"])


def _indented_json(report):
    doc = {
        "suite": report.name,
        "limits": report.limits,
        "seed": report.seed,
        "passed": report.passed,
        "checks": len(report.rows),
        "failed": len(report.failures),
        "rows": [
            {
                "suite": row.suite,
                "m": row.m,
                "n": row.n,
                "k": row.k,
                "expected": row.expected,
                "actual": row.actual,
                "pass": row.passed,
                "elapsed_ms": round(row.elapsed_ms, 3),
                "note": row.note,
            }
            for row in report.rows
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_json_matches_the_indented_encoder_byte_for_byte():
    odd = [
        CheckRow("odd", None, 2, 0, "non-increasing", None, False, 1.23456, note='a "quoted", \n é'),
        CheckRow("odd", 1, 1, 1, 2, 2.5, True, 0.0),
    ]
    for report in (
        verify_theorem1(12, 60),
        SuiteReport("empty", {}, None, []),
        SuiteReport("odd", {"rows": 1}, 7, odd),
    ):
        assert report.to_json() == _indented_json(report)


def test_report_failure_accounting():
    rows = [
        CheckRow("demo", 2, 2, 0, 1, 1, True, 0.5),
        CheckRow("demo", 2, 2, 1, 1, 2, False, 0.5, note="off by one"),
    ]
    report = SuiteReport("demo", {}, None, rows)
    assert not report.passed
    assert report.failures == [rows[1]]
    assert report.summary_line() == "suite demo: 2 checks, 1 passed, 1 failed"
    assert json.loads(report.to_json())["failed"] == 1
