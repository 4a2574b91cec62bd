"""Naive reference implementations used as an independent route in tests.

Everything here is set-based with repeated full rescans: no bitmasks, no
counters, no forced seeds, no pruning.  Slow, but simple enough to audit at
a glance.  Only suitable for tiny boards.  Adjacency is decided from
coordinate differences rather than neighbor lists so the two code paths
share nothing.
"""

from __future__ import annotations

from itertools import combinations


def naive_adjacent(m: int, n: int, topology: str, u, v) -> bool:
    (i1, j1), (i2, j2) = u, v
    di = abs(i1 - i2)
    dj = abs(j1 - j2)
    if topology == "torus":
        di = min(di, m - di)
        dj = min(dj, n - dj)
    return di + dj == 1


def naive_closure(m, n, topology, polluted, seeds, r):
    """Sequential closure: infect one eligible vertex at a time until stuck."""
    cells = {(i, j) for i in range(1, m + 1) for j in range(1, n + 1)}
    blocked = set(polluted)
    infected = set(seeds)
    progress = True
    while progress:
        progress = False
        for v in sorted(cells - infected - blocked):
            count = sum(1 for u in infected if naive_adjacent(m, n, topology, u, v))
            if count >= r:
                infected.add(v)
                progress = True
                break
    return infected


def naive_rounds(m, n, topology, polluted, seeds, r):
    """Simultaneous rounds: each later set holds the cells that join together.

    Every healthy, uninfected cell is tested against the infected set as it
    stood at the end of the previous round; the result lists the seed set
    followed by each nonempty round.
    """
    cells = {(i, j) for i in range(1, m + 1) for j in range(1, n + 1)}
    blocked = set(polluted)
    infected = set(seeds)
    rounds = [set(seeds)]
    while True:
        joining = {
            v
            for v in cells - infected - blocked
            if sum(1 for u in infected if naive_adjacent(m, n, topology, u, v)) >= r
        }
        if not joining:
            return rounds
        rounds.append(joining)
        infected |= joining


def canonical_cells(m: int, n: int):
    """Cells in the package's canonical order: top row first, left to right."""
    return [(i, j) for j in range(n, 0, -1) for i in range(1, m + 1)]


def naive_min_percolating(m, n, topology, polluted, r):
    """Exhaustive minimum by size, first witness in canonical order."""
    residual = [c for c in canonical_cells(m, n) if c not in set(polluted)]
    target = set(residual)
    for s in range(len(residual) + 1):
        for combo in combinations(residual, s):
            if naive_closure(m, n, topology, polluted, combo, r) == target:
                return s, set(combo)
    raise AssertionError("unreachable: seeding the whole residual percolates")


def naive_mkmin(m, n, k, r):
    return min(
        naive_min_percolating(m, n, "grid", set(a), r)[0]
        for a in combinations(canonical_cells(m, n), k)
    )


def naive_mkmax(m, n, k, r):
    return max(
        naive_min_percolating(m, n, "grid", set(a), r)[0]
        for a in combinations(canonical_cells(m, n), k)
    )


def naive_perimeter(cells) -> int:
    """Perimeter as the count of cell sides not shared with another cell."""
    shape = set(cells)
    exposed = 0
    for i, j in shape:
        for u in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
            if u not in shape:
                exposed += 1
    return exposed
