"""Arithmetic behind the benchmark's reported numbers.

Kept free of any import from ``pgrid`` so the tests in ``test_bench.py`` can
check it on synthetic data.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence


def median_with_count(samples: Sequence[float]) -> tuple[float, int]:
    """Median of the samples and how many there were."""
    if not samples:
        raise ValueError("median of no samples")
    return statistics.median(samples), len(samples)


def loglog_slope(points: Iterable[tuple[float, float]]) -> float:
    """Least-squares slope of log(y) against log(x).

    A cost that grows linearly with x gives 1.0, a quadratic one 2.0.  Points
    with a non-positive coordinate carry no information on a log scale and are
    skipped; fewer than two distinct x values give 0.0.
    """
    logs = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({lx for lx, _ in logs}) < 2:
        return 0.0
    mx = sum(lx for lx, _ in logs) / len(logs)
    my = sum(ly for _, ly in logs) / len(logs)
    sxx = sum((lx - mx) ** 2 for lx, _ in logs)
    sxy = sum((lx - mx) * (ly - my) for lx, ly in logs)
    return sxy / sxx


def self_times(spans: Iterable[tuple[int, int | None, float, float]]) -> dict[int, float]:
    """Self time of every span: its duration minus the time its children cover.

    ``spans`` are ``(span_id, parent_id, start, end)``.  Children of one span
    run one after another on a single thread, so the time they cover is the
    sum of their durations.
    """
    spans = list(spans)
    out = {sid: end - start for sid, _, start, end in spans}
    for sid, parent, start, end in spans:
        if parent is not None:
            out[parent] -= end - start
    return out
