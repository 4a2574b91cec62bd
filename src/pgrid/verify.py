"""Sweep suites certifying formulas against oracles and constructions.

Each suite returns a :class:`SuiteReport` of independent check rows.  A row
records the parameters, the claimed (expected) value, the measured (actual)
value, a pass flag, and elapsed milliseconds; a failing row never aborts the
sweep.  Reports serialize to CSV with the fixed column set
``suite,m,n,k,expected,actual,pass,elapsed_ms`` and to JSON (which adds the
per-row ``note`` field).  Rows are sorted by parameters and all sampling is
driven by an explicit recorded seed, so any two runs with the same limits
produce identical reports apart from the timing column.
"""

from __future__ import annotations

import csv
import io
import json
import random
import time
from dataclasses import dataclass
from itertools import chain, combinations, repeat
from math import isqrt
from operator import ne
from typing import Iterator, TextIO

from .constructions import _checked_masks, pollution_max_independent
from .engine import closure_mask
from .errors import BudgetExceededError, InternalConsistencyError, ParameterError
from .formulas import (
    ceil_two_sqrt,
    independent_interior_capacity,
    mkmin,
    mkmin_lower_bound,
    percolation_number_grid,
    percolation_number_torus,
)
from .grid import CellSet, PollutedInstance, Shifts, _set_bits, grid, torus
from .perimeter import min_perimeter
from .search import min_percolating_exact, min_polyomino_perimeter_exact, mkmin_exact

CSV_COLUMNS = ("suite", "m", "n", "k", "expected", "actual", "pass", "elapsed_ms")

_IDENTITY_LIMIT = 10**6
_ROW_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": "))
_TRACE_M, _TRACE_N = 8, 5
_TRACE_MAX_POLLUTION = 13
# Largest sweeps accepted.  The construction rows grow about as the square of
# the limit: 400 checks 189,796 rows, in 5-6 s at a peak RSS of 45 MiB with
# --csv or --json on a 2-vCPU host, where 1,000 would check 1,401,085.  The
# oracle rows reach the same boards: 400 and 400 check 379,592 rows in ~12 s.
# 10,000 trace samples take ~1 s and 22 MiB.
_MAX_CONSTRUCTION_MN = 400
_MAX_EXHAUSTIVE_MN = 400
_MAX_TRACE_SAMPLES = 10_000


@dataclass(frozen=True, slots=True)
class CheckRow:
    suite: str
    m: int | None
    n: int | None
    k: int | None
    expected: object
    actual: object
    passed: bool
    elapsed_ms: float
    note: str = ""


@dataclass
class SuiteReport:
    name: str
    limits: dict[str, int]
    seed: int | None
    rows: list[CheckRow]

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)

    @property
    def failures(self) -> list[CheckRow]:
        return [row for row in self.rows if not row.passed]

    def summary_line(self) -> str:
        failed = len(self.failures)
        return (
            f"suite {self.name}: {len(self.rows)} checks, "
            f"{len(self.rows) - failed} passed, {failed} failed"
        )

    def write(self, out: TextIO, style: str) -> None:
        """Write the report to ``out`` as ``"csv"`` or ``"json"``, one row at a time.

        The JSON is what ``json.dumps(doc, sort_keys=True, indent=2)`` would
        write, yet only its short head goes through the pure-Python encoder
        that ``indent`` forces: each row is one C-encoded line that
        ``_ROW_ENCODER``'s separators lay out at the rows' indent.
        """
        if style == "csv":
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for row in self.rows:
                writer.writerow(
                    [
                        row.suite,
                        "" if row.m is None else row.m,
                        "" if row.n is None else row.n,
                        "" if row.k is None else row.k,
                        row.expected,
                        row.actual,
                        "true" if row.passed else "false",
                        f"{row.elapsed_ms:.3f}",
                    ]
                )
            return
        doc = {
            "suite": self.name,
            "limits": self.limits,
            "seed": self.seed,
            "passed": self.passed,
            "checks": len(self.rows),
            "failed": len(self.failures),
            "rows": [],
        }
        head = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        if not self.rows:
            out.write(head)
            return
        # sorted keys and a two-space indent leave exactly one top-level rows line
        before, after = head.split('\n  "rows": [],', 1)
        out.write(before + '\n  "rows": [')
        encode = _ROW_ENCODER.encode
        sep = "\n    {\n      "
        for row in self.rows:
            out.write(
                sep
                + encode(
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
                )[1:-1]
                + "\n    }"
            )
            sep = ",\n    {\n      "
        out.write("\n  ]," + after)

    def to_csv(self) -> str:
        buf = io.StringIO()
        self.write(buf, "csv")
        return buf.getvalue()

    def to_json(self) -> str:
        buf = io.StringIO()
        self.write(buf, "json")
        return buf.getvalue()


def _ms(t0: float) -> float:
    return (time.perf_counter() - t0) * 1000.0


def _sorted_rows(rows: list[CheckRow]) -> list[CheckRow]:
    def key(row: CheckRow):
        return (
            row.suite,
            -1 if row.m is None else row.m,
            -1 if row.n is None else row.n,
            -1 if row.k is None else row.k,
            row.note,
        )

    return sorted(rows, key=key)


def _grid_shapes(max_mn: int, min_n: int = 2) -> list[tuple[int, int]]:
    """Shapes m x n with min_n <= n <= m and mn <= max_mn, by n and then m."""
    return [(m, n) for n in range(min_n, isqrt(max_mn) + 1) for m in range(n, max_mn // n + 1)]


def verify_theorem1(max_mn_exhaustive: int, max_mn_construction: int) -> SuiteReport:
    """Certify the extremal formula: oracle equality on small boards, then
    engine-verified constructions plus both lower bounds on larger ones."""
    if max_mn_exhaustive < 4 or max_mn_construction < 4:
        raise ParameterError("limits must be >= 4 (the smallest grid is 2x2)")
    if max_mn_exhaustive > _MAX_EXHAUSTIVE_MN:
        raise ParameterError(
            f"exhaustive boards beyond mn = {_MAX_EXHAUSTIVE_MN} are out of oracle reach, "
            f"got {max_mn_exhaustive}"
        )
    if max_mn_construction > _MAX_CONSTRUCTION_MN:
        raise ParameterError(
            f"construction boards beyond mn = {_MAX_CONSTRUCTION_MN} are out of reach, "
            f"got {max_mn_construction}"
        )
    # the rows in report order: construction-only, then oracle-certified, each by m, n, k
    rows: list[CheckRow] = []
    for m, n in sorted(_grid_shapes(max_mn_construction)):
        spec = grid(m, n)
        shifts = Shifts.of(spec)
        for k in range(m * n + 1):
            t0 = time.perf_counter()
            expected = mkmin(m, n, k)
            note = ""
            actual: object
            try:
                polluted, _ = _checked_masks(spec, shifts, k, expected)
            except InternalConsistencyError as exc:
                actual = f"construction failed: {exc}"
                ok = False
            else:
                actual = expected
                ok = True
                bound = shifts.seed_floor(shifts.full ^ polluted, 2)
                if bound > expected:
                    ok = False
                    note = f"perimeter bound {bound} exceeds the formula value"
                if ok and 1 <= k < m * n and mkmin_lower_bound(m, n, k) != expected:
                    ok = False
                    note = "rectangle-style bound disagrees with the formula value"
            rows.append(
                CheckRow("theorem1.construction-only", m, n, k, expected, actual, ok, _ms(t0), note)
            )
    for m, n in sorted(_grid_shapes(max_mn_exhaustive)):
        for k in range(m * n + 1):
            t0 = time.perf_counter()
            expected = mkmin(m, n, k)
            note = ""
            actual: object
            try:
                actual = mkmin_exact(m, n, k, 2)
                ok = actual == expected
            except BudgetExceededError as exc:
                actual = f"budget exceeded: {exc}"
                ok = False
                # what the oracle proved before it stopped; the CSV shows only actual
                note = (
                    f"lower bound {exc.lower_bound}, upper bound {exc.upper_bound}, "
                    f"nodes explored {exc.nodes}"
                )
            rows.append(
                CheckRow("theorem1.oracle-certified", m, n, k, expected, actual, ok, _ms(t0), note)
            )
    limits = {
        "max_mn_exhaustive": max_mn_exhaustive,
        "max_mn_construction": max_mn_construction,
    }
    return SuiteReport("theorem1", limits, None, rows)


def verify_monotonicity(max_mn: int) -> SuiteReport:
    """Removing one vertex, or any independent set of up to three vertices,
    never lowers the exact percolation number of a grid."""
    if max_mn < 4:
        raise ParameterError("max_mn must be >= 4 (the smallest grid is 2x2)")
    if max_mn > 16:
        raise ParameterError("boards beyond mn = 16 are out of oracle reach")
    rows: list[CheckRow] = [
        CheckRow(
            "monotonicity.skip",
            None,
            None,
            None,
            "minimum degree >= r is required for the single-removal bound",
            "skipped: the classic counterexample is a star graph, outside grid scope",
            True,
            0.0,
            note="non-product graphs are a non-goal",
        )
    ]
    for m, n in _grid_shapes(max_mn):
        spec = grid(m, n)
        shifts = Shifts.of(spec)
        base = min_percolating_exact(PollutedInstance(spec, CellSet(spec))).size
        for size in (1, 2, 3):
            suite = "monotonicity.single" if size == 1 else "monotonicity.independent"
            for combo in combinations(range(spec.size), size):
                mask = sum(1 << p for p in combo)
                if mask & shifts.at_least(mask, 1):
                    continue
                t0 = time.perf_counter()
                val = min_percolating_exact(PollutedInstance(spec, CellSet(spec, mask))).size
                note = "removed " + " ".join(f"({v.i},{v.j})" for v in map(spec.vertex_at, combo))
                rows.append(
                    CheckRow(suite, m, n, size, base, val, val >= base, _ms(t0), note)
                )
    return SuiteReport("monotonicity", {"max_mn": max_mn}, None, _sorted_rows(rows))


def _ceil_two_sqrt_runs(limit: int) -> Iterator[tuple[int, int, int]]:
    """``(first, last, s)`` per run of t <= limit on which ceil(2*sqrt(t)) = s,
    namely floor((s-1)^2/4) < t <= floor(s^2/4) for s >= 2: no square roots."""
    s, last = 1, 0
    while last < limit:
        s += 1
        first, last = last + 1, min(s * s // 4, limit)
        yield first, last, s


def verify_perimeter(max_t: int, trace_samples: int, seed: int = 0) -> SuiteReport:
    """Minimal-perimeter formula vs. polyomino enumeration, the square-root
    identity, and per-round perimeter monotonicity on sampled traces.

    The identity row counts the t <= 10^6 where ``min_perimeter(t)`` differs
    from 2s on the run of t where ceil(2*sqrt(t)) = s, plus the run ends where
    ``ceil_two_sqrt`` differs from s.
    """
    if not 1 <= max_t <= 8:
        raise ParameterError(f"need 1 <= max_t <= 8, got {max_t}")
    if not 0 <= trace_samples <= _MAX_TRACE_SAMPLES:
        raise ParameterError(f"need 0 <= trace_samples <= {_MAX_TRACE_SAMPLES}, got {trace_samples}")
    rows: list[CheckRow] = []
    for t in range(1, max_t + 1):
        t0 = time.perf_counter()
        expected = min_perimeter(t)
        actual = min_polyomino_perimeter_exact(t)
        rows.append(
            CheckRow("perimeter.formula", None, None, t, expected, actual, actual == expected, _ms(t0))
        )

    t0 = time.perf_counter()
    runs = list(_ceil_two_sqrt_runs(_IDENTITY_LIMIT))
    identity = chain.from_iterable(repeat(2 * s, last + 1 - first) for first, last, s in runs)
    mismatches = sum(map(ne, map(min_perimeter, range(1, _IDENTITY_LIMIT + 1)), identity))
    mismatches += sum(ceil_two_sqrt(t) != s for first, last, s in runs for t in {first, last})
    rows.append(
        CheckRow(
            "perimeter.identity",
            None,
            None,
            _IDENTITY_LIMIT,
            0,
            mismatches,
            mismatches == 0,
            _ms(t0),
            note=f"mismatch count over t in [1, {_IDENTITY_LIMIT}]",
        )
    )

    rng = random.Random(seed)
    shifts = Shifts.of(grid(_TRACE_M, _TRACE_N))
    cells = range(shifts.size)
    for sample in range(trace_samples):
        t0 = time.perf_counter()
        polluted = sum(1 << i for i in rng.sample(cells, rng.randint(0, _TRACE_MAX_POLLUTION)))
        residual = list(_set_bits(shifts.full ^ polluted))
        seeds = sum(1 << i for i in rng.sample(residual, rng.randint(0, len(residual))))
        rounds = [seeds]
        closure_mask(shifts, polluted, seeds, 2, rounds)
        cumulative = 0
        previous: int | None = None
        detail = "non-increasing"
        ok = True
        for cells_in_round in rounds:
            cumulative |= cells_in_round
            p = shifts.perimeter(cumulative)
            if previous is not None and p > previous:
                ok = False
                detail = f"perimeter rose {previous} -> {p}"
                break
            previous = p
        rows.append(
            CheckRow(
                "perimeter.trace",
                _TRACE_M,
                _TRACE_N,
                sample,
                "non-increasing",
                detail,
                ok,
                _ms(t0),
                note=f"|polluted|={polluted.bit_count()} |seeds|={seeds.bit_count()}",
            )
        )
    limits = {"max_t": max_t, "trace_samples": trace_samples}
    return SuiteReport("perimeter", limits, seed, rows)


def verify_torus_and_max(max_mn: int) -> SuiteReport:
    """Torus formula with single-removal invariance, and the worst-pollution
    lower bound under independent interior pollution."""
    if max_mn < 9:
        raise ParameterError("max_mn must be >= 9 (the smallest torus is 3x3)")
    if max_mn > 16:
        raise ParameterError("boards beyond mn = 16 are out of oracle reach")
    rows: list[CheckRow] = []
    for m, n in ((3, 3), (4, 3), (4, 4)):
        if m * n > max_mn:
            continue
        spec = torus(m, n)
        expected = percolation_number_torus(m, n)
        t0 = time.perf_counter()
        base = min_percolating_exact(PollutedInstance(spec, CellSet(spec))).size
        rows.append(
            CheckRow("torus.formula", m, n, 0, expected, base, base == expected, _ms(t0))
        )
        for v in spec.vertices():
            t0 = time.perf_counter()
            val = min_percolating_exact(PollutedInstance.of(spec, [v])).size
            rows.append(
                CheckRow(
                    "torus.removal",
                    m,
                    n,
                    1,
                    expected,
                    val,
                    val == expected,
                    _ms(t0),
                    note=f"removed ({v.i},{v.j})",
                )
            )
    for m, n in _grid_shapes(max_mn, min_n=3):
        cap = independent_interior_capacity(m, n)
        for k in (1, 2):
            if k > cap:
                continue
            t0 = time.perf_counter()
            instance = PollutedInstance(grid(m, n), pollution_max_independent(m, n, k))
            bound = percolation_number_grid(m, n) + k
            val = min_percolating_exact(instance).size
            note = "bound met with equality" if val == bound else ""
            rows.append(
                CheckRow("mkmax.bound", m, n, k, bound, val, val >= bound, _ms(t0), note)
            )
    return SuiteReport("torus-max", {"max_mn": max_mn}, None, _sorted_rows(rows))
