"""Correctness checks written independently of ``pgrid``.

Nothing here imports the package: the rules are re-derived from the board
conventions the package documents (1-based ``(i, j)`` cells, column ``i``,
row ``j`` with row 1 at the bottom, canonical order top row first and left to
right).  A rewrite of the engine, geometry or search is therefore checked
against code that did not change with it.  Every check returns a list of
error strings; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import io
import json
import re
from itertools import combinations
from math import isqrt

Cell = tuple[int, int]


def canonical_key(cell: Cell) -> tuple[int, int]:
    """Sort key of the documented canonical order: top row first, then left to right."""
    i, j = cell
    return (-j, i)


def cells_of_mask(mask: int, m: int, n: int) -> list[Cell]:
    """Decode a bitmask over canonical indices (bit ``(n - j) * m + (i - 1)``)."""
    out = []
    for b, bit in enumerate(reversed(bin(mask)[2:])):
        if bit == "1":
            out.append((b % m + 1, n - b // m))
    return out


def neighbours(m: int, n: int, wrap: bool, cell: Cell) -> list[Cell]:
    i, j = cell
    if wrap:
        return [(i, j % n + 1), (i, (j - 2) % n + 1), ((i - 2) % m + 1, j), (i % m + 1, j)]
    out = []
    for a, b in ((i, j + 1), (i, j - 1), (i - 1, j), (i + 1, j)):
        if 1 <= a <= m and 1 <= b <= n:
            out.append((a, b))
    return out


def closure(m: int, n: int, wrap: bool, polluted: set[Cell], seeds: set[Cell], r: int) -> set[Cell]:
    """Naive r-neighbour closure: add every eligible cell until nothing changes."""
    infected = set(seeds)
    changed = True
    while changed:
        changed = False
        for j in range(1, n + 1):
            for i in range(1, m + 1):
                c = (i, j)
                if c in infected or c in polluted:
                    continue
                if sum(1 for u in neighbours(m, n, wrap, c) if u in infected) >= r:
                    infected.add(c)
                    changed = True
    return infected


def check_trace(
    m: int,
    n: int,
    wrap: bool,
    polluted: set[Cell],
    seeds: set[Cell],
    rounds: list[list[Cell]],
    final: list[Cell],
    percolated: bool,
    r: int = 2,
) -> list[str]:
    """Check a round-by-round trace against the simultaneous-round rules.

    ``rounds[t]`` and ``final`` are the cells as the program iterated them.
    A cell joins round t+1 exactly when it has at least r infected neighbours
    after round t and had fewer after round t-1; polluted cells never join;
    ``final`` is the union of the rounds and a fixpoint; ``percolated`` holds
    exactly when every healthy cell is infected.
    """
    errors: list[str] = []
    if not rounds:
        return ["trace has no rounds"]
    when: dict[Cell, int] = {}
    for t, cells in enumerate(rounds):
        if t > 0 and not cells:
            errors.append(f"round {t} is empty")
        if cells != sorted(cells, key=canonical_key):
            errors.append(f"round {t} is not in canonical order")
        for c in cells:
            if not (1 <= c[0] <= m and 1 <= c[1] <= n):
                errors.append(f"round {t} has cell {c} outside the board")
            elif c in polluted:
                errors.append(f"polluted cell {c} infected in round {t}")
            elif c in when:
                errors.append(f"cell {c} infected twice")
            else:
                when[c] = t
    if set(rounds[0]) != seeds:
        errors.append("round 0 differs from the seed set")
    for t, cells in enumerate(rounds[1:], start=1):
        for c in cells:
            before = [when.get(u, t) for u in neighbours(m, n, wrap, c)]
            if sum(1 for s in before if s <= t - 1) < r:
                errors.append(f"cell {c} joined round {t} with fewer than {r} infected neighbours")
            elif sum(1 for s in before if s <= t - 2) >= r:
                errors.append(f"cell {c} joined round {t} but was eligible in round {t - 1}")
    keys = [canonical_key(c) for c in final]
    if len(final) != len(when) or any(c not in when for c in final) or keys != sorted(keys):
        errors.append("final set differs from the union of the rounds in canonical order")
    del keys
    for j in range(1, n + 1):
        for i in range(1, m + 1):
            c = (i, j)
            if c in when or c in polluted:
                continue
            if sum(1 for u in neighbours(m, n, wrap, c) if u in when) >= r:
                errors.append(f"final set is not a fixpoint: {c} has {r} infected neighbours")
                break
    healthy = m * n - len(polluted)
    if percolated != (len(when) == healthy):
        errors.append(f"percolated={percolated} but {len(when)} of {healthy} healthy cells infected")
    return errors[:20]


def perimeter_bound(m: int, n: int, polluted: set[Cell]) -> int:
    """ceil(exposed sides of the residual / 4), where the residual is the board minus ``polluted``."""

    def healthy(i: int, j: int) -> bool:
        return 1 <= i <= m and 1 <= j <= n and (i, j) not in polluted

    exposed = sum(
        1
        for j in range(1, n + 1)
        for i in range(1, m + 1)
        if (i, j) not in polluted
        for a, b in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1))
        if not healthy(a, b)
    )
    return (exposed + 3) // 4


def board_document(m: int, n: int, topology: str, polluted: set[Cell], seeds: set[Cell]) -> str:
    """The canonical pgrid v1 text of a board."""
    lines = ["pgrid v1", f"m={m} n={n} topology={topology}"]
    for j in range(n, 0, -1):
        lines.append(
            "".join(
                "X" if (i, j) in polluted else "o" if (i, j) in seeds else "."
                for i in range(1, m + 1)
            )
        )
    return "\n".join(lines) + "\n"


def ascii_final_frame(m: int, n: int, polluted: set[Cell], rounds: list[list[Cell]]) -> list[str]:
    """Rows of the last ASCII frame: X polluted, o seed, 1-9 then + by round, . never."""
    when = {c: t for t, cells in enumerate(rounds) for c in cells}

    def ch(c: Cell) -> str:
        if c in polluted:
            return "X"
        if c not in when:
            return "."
        t = when[c]
        return "o" if t == 0 else str(t) if t <= 9 else "+"

    return ["".join(ch((i, j)) for i in range(1, m + 1)) for j in range(n, 0, -1)]


def check_svg(svg: str, n_polluted: int, round_sizes: list[int], percolated: bool) -> list[str]:
    errors = []
    expected = 1 + n_polluted + sum(round_sizes)
    if svg.count("<rect ") != expected:
        errors.append(f"svg has {svg.count('<rect ')} rects, expected {expected}")
    for t in range(len(round_sizes)):
        if f'data-round="{t}"' not in svg:
            errors.append(f"svg lacks the group of round {t}")
    if f"percolated: {'true' if percolated else 'false'}" not in svg:
        errors.append("svg description disagrees on percolation")
    return errors


# Closed forms, re-derived from the paper's statements.

def grid_number(m: int, n: int) -> int:
    """m(P_m x P_n, 2) = ceil((m + n) / 2)."""
    return (m + n + 1) // 2


def torus_number(m: int, n: int) -> int:
    """m(C_m x C_n, 2) = ceil((m + n) / 2) - 1."""
    return (m + n + 1) // 2 - 1


def mkmin_closed(m: int, n: int, k: int) -> int:
    """Best-case percolation number of an m x n grid (m >= n) with k polluted cells."""
    if k == m * n:
        return 0
    if k <= (m - n) * n:
        return (n + m - k // n + 1) // 2
    t = m * n - k
    s = isqrt(4 * t)
    if s * s < 4 * t:
        s += 1
    return (s + 1) // 2


# Expected report sizes of the certification suites.

def grid_shapes(max_mn: int, min_n: int = 2) -> list[tuple[int, int]]:
    return [(m, n) for n in range(min_n, max_mn + 1) for m in range(n, max_mn // n + 1)]


def theorem1_rows(max_exhaustive: int, max_construction: int) -> int:
    return sum(m * n + 1 for m, n in grid_shapes(max_exhaustive)) + sum(
        m * n + 1 for m, n in grid_shapes(max_construction)
    )


def perimeter_rows(max_t: int, samples: int) -> int:
    return max_t + 1 + samples


def torus_max_rows(max_mn: int) -> int:
    rows = sum(1 + m * n for m, n in ((3, 3), (4, 3), (4, 4)) if m * n <= max_mn)
    for m, n in grid_shapes(max_mn, min_n=3):
        capacity = ((m - 2) * (n - 2) + 1) // 2
        rows += sum(1 for k in (1, 2) if k <= capacity)
    return rows


def monotonicity_rows(max_mn: int) -> int:
    rows = 1
    for m, n in grid_shapes(max_mn):
        cells = [(i, j) for j in range(1, n + 1) for i in range(1, m + 1)]
        rows += len(cells)
        for size in (2, 3):
            for combo in combinations(cells, size):
                if all(b not in neighbours(m, n, False, a) for a, b in combinations(combo, 2)):
                    rows += 1
    return rows


def check_json_report(text: str, rows: int) -> list[str]:
    doc = json.loads(text)
    errors = []
    if doc.get("passed") is not True or doc.get("failed") != 0:
        errors.append("report does not say passed")
    if doc.get("checks") != rows or len(doc.get("rows", [])) != rows:
        errors.append(f"report has {doc.get('checks')} checks, expected {rows}")
    for row in doc.get("rows", []):
        if row["pass"] is not True:
            errors.append(f"row failed: {row}")
            break
        if row["suite"].startswith("theorem1.") and row["expected"] != mkmin_closed(row["m"], row["n"], row["k"]):
            errors.append(f"row expects a value other than the closed form: {row}")
            break
    return errors


def check_csv_report(text: str, rows: int) -> list[str]:
    table = list(csv.reader(io.StringIO(text)))
    errors = []
    if not table or table[0] != ["suite", "m", "n", "k", "expected", "actual", "pass", "elapsed_ms"]:
        return ["report has no CSV header"]
    body = table[1:]
    if len(body) != rows:
        errors.append(f"report has {len(body)} rows, expected {rows}")
    if any(row[6] != "true" for row in body):
        errors.append("report has failing rows")
    for row in body:
        if row[0].startswith("theorem1.") and row[4] != str(mkmin_closed(*map(int, row[1:4]))):
            errors.append(f"row expects a value other than the closed form: {row}")
            break
    return errors


_SUMMARY = re.compile(r"^suite (\S+): (\d+) checks, (\d+) passed, (\d+) failed$")


def check_summary(text: str, suite: str, rows: int) -> list[str]:
    match = _SUMMARY.match(text.strip())
    if match is None:
        return [f"unexpected summary {text!r}"]
    name, checks, passed, failed = match.group(1), *map(int, match.groups()[1:])
    if name != suite or checks != rows or passed != rows or failed != 0:
        return [f"summary {text.strip()!r}, expected {rows} passed checks of suite {suite}"]
    return []
