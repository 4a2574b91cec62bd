"""Tests of the benchmark's own arithmetic and checkers.

Run from the repository root with ``python3 -m pytest bench/test_bench.py``.
None of these import ``pgrid``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402


def test_median_with_count():
    assert stats.median_with_count([3.0, 1.0, 2.0]) == (2.0, 3)
    assert stats.median_with_count([4.0, 1.0, 2.0, 3.0]) == (2.5, 4)
    with pytest.raises(ValueError):
        stats.median_with_count([])


def test_self_times_subtract_nested_children():
    # root 0..10 holds a 1..4 (which holds b 2..3) and c 5..9
    spans = [(1, None, 0.0, 10.0), (2, 1, 1.0, 4.0), (3, 2, 2.0, 3.0), (4, 1, 5.0, 9.0)]
    got = stats.self_times(spans)
    assert got == pytest.approx({1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0})
    assert sum(got.values()) == pytest.approx(10.0)


def test_loglog_slope_recovers_exponents():
    cells = [100**2, 200**2, 300**2]
    assert stats.loglog_slope([(x, 3e-7 * x) for x in cells]) == pytest.approx(1.0)
    assert stats.loglog_slope([(x, 2e-9 * x**1.5) for x in cells]) == pytest.approx(1.5)
    assert stats.loglog_slope([(10_000, 0.5)]) == 0.0
    assert stats.loglog_slope([(10_000, 0.0), (40_000, 0.1)]) == 0.0


def test_tracer_self_times_account_for_the_op():
    t = tracer.Tracer()
    leaf = t._wrap_hot(lambda: sum(range(2000)), "formulas.ceil_two_sqrt")

    def body():
        for _ in range(5):
            leaf()
        return sum(range(5000))

    outer = t._wrap_span(body, "perimeter.shape_perimeter")
    t.begin_op("synthetic")
    outer()
    leaf()
    t.end_op()
    m = t.layer_metrics(1, {})
    assert m["formulas.calls"][0] == 6
    assert m["perimeter.calls"][0] == 1
    assert m["formulas.self_s"][0] > 0 and m["perimeter.self_s"][0] > 0
    layers = sum(v for k, (v, _) in m.items() if k.endswith(".self_s"))
    root = t.span_end[-1] - t.span_start[-1]
    assert layers == pytest.approx(root)
    assert m["traced_wall_s"][0] == pytest.approx(root)


def test_benchmark_json_lists_every_traced_metric():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    emitted = {k: unit for k, (_, unit) in tracer.Tracer().layer_metrics(1, {}).items()}
    emitted["trace_overhead_s"] = "s"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == emitted
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_rel", "op_rel_p50", "setup_s", "peak_rss_mb"}


def test_timed_passes_take_each_sample_relative_to_the_yardsticks_around_it(monkeypatch):
    ops = [SimpleNamespace(name=name, run=lambda: None, fingerprint=lambda out: 0) for name in "ab"]
    ticks = iter(range(1000))
    sticks = iter([2.0, 4.0, 6.0])
    monkeypatch.setattr(run.time, "perf_counter", lambda: float(next(ticks)))
    monkeypatch.setattr(run, "yardstick", lambda: next(sticks))
    phase = run.timed_passes(ops, {"a": 0, "b": 0}, seconds=0.0)
    # op a takes one tick between yardsticks of 2 and 4, op b one tick between 4 and 6
    assert phase.op_ms == {"a": [1000.0], "b": [1000.0]}
    assert phase.op_rel == {"a": [pytest.approx(1 / 3)], "b": [pytest.approx(1 / 5)]}
    assert phase.yardstick_ms == [4000.0, 6000.0]
    assert (phase.attempted, phase.failed) == (2, 0)


def _rounds(m, n, wrap, polluted, seeds, r=2):
    """Simultaneous rounds computed directly, for building test traces."""
    when = {c: 0 for c in seeds}
    rounds = [sorted(seeds, key=checks.canonical_key)]
    while True:
        t = len(rounds) - 1
        new = [
            (i, j)
            for j in range(n, 0, -1)
            for i in range(1, m + 1)
            if (i, j) not in when
            and (i, j) not in polluted
            and sum(1 for u in checks.neighbours(m, n, wrap, (i, j)) if when.get(u, math.inf) <= t) >= r
        ]
        if not new:
            return rounds, sorted(when, key=checks.canonical_key)
        for c in new:
            when[c] = t + 1
        rounds.append(new)


def test_check_trace_accepts_a_correct_trace():
    seeds = {(1, 1), (2, 2), (3, 3), (4, 4), (5, 5)}
    polluted = {(5, 1)}
    rounds, final = _rounds(5, 5, False, polluted, seeds)
    assert len(rounds) > 2
    assert checks.check_trace(5, 5, False, polluted, seeds, rounds, final, len(final) == 24) == []


def test_check_trace_rejects_corrupted_traces():
    seeds = {(1, 1), (2, 2), (3, 3), (4, 4)}
    rounds, final = _rounds(4, 4, False, set(), seeds)
    assert final == sorted(final, key=checks.canonical_key) and len(final) == 16

    def errors(rs, fin, percolated=True, polluted=frozenset()):
        return checks.check_trace(4, 4, False, set(polluted), seeds, rs, fin, percolated)

    assert errors(rounds, final) == []
    # dropping the last round leaves a final set that is not a fixpoint
    cut = rounds[:-1]
    cut_final = sorted({c for rs in cut for c in rs}, key=checks.canonical_key)
    assert any("fixpoint" in e for e in errors(cut, cut_final, percolated=False))
    # a cell moved one round early had too few infected neighbours
    early = [list(rs) for rs in rounds]
    moved = early[2].pop()
    early[1].append(moved)
    early[1].sort(key=checks.canonical_key)
    assert any("fewer than" in e for e in errors(early, final))
    # an infected polluted cell, and a wrong percolation flag
    assert any("polluted" in e for e in errors(rounds, final, polluted={rounds[-1][0]}))
    assert any("percolated" in e for e in errors(rounds, final, percolated=False))


def test_perimeter_bound_counts_exposed_sides():
    # 3x2 board: the full residual has perimeter 10, so ceil(10/4) = 3
    assert checks.perimeter_bound(3, 2, set()) == 3
    # removing a corner keeps the perimeter at 10
    assert checks.perimeter_bound(3, 2, {(1, 1)}) == 3
    # a 1x1 board has perimeter 4; polluting the middle of a 3x3 board adds 4
    assert checks.perimeter_bound(1, 1, set()) == 1
    assert checks.perimeter_bound(3, 3, {(2, 2)}) == 4


def test_closed_forms_and_report_sizes():
    assert checks.mkmin_closed(8, 5, 24) == 4
    assert checks.mkmin_closed(8, 5, 0) == checks.grid_number(8, 5) == 7
    assert checks.mkmin_closed(8, 5, 40) == 0
    # report sizes pgrid prints for these limits
    assert checks.theorem1_rows(14, 4) == 88
    assert checks.theorem1_rows(16, 4) == 138
    assert checks.perimeter_rows(8, 100) == 109
    assert checks.monotonicity_rows(12) == 491


def test_board_document_and_mask_decoding():
    doc = checks.board_document(3, 2, "grid", {(3, 2)}, {(1, 1)})
    assert doc == "pgrid v1\nm=3 n=2 topology=grid\n..X\no..\n"
    # bit (n - j) * m + (i - 1): (3, 2) is bit 2 and (1, 1) is bit 3
    assert checks.cells_of_mask(0b1100, 3, 2) == [(3, 2), (1, 1)]
