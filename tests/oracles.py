"""Naive reference implementations used as an independent route in tests.

Everything here is set-based: no bitmasks, no forced seeds, no pruning.
Most routines rescan the board in full and suit only tiny boards;
:func:`naive_queue_closure` keeps a neighbour counter per cell and a queue,
which closes boards of a few hundred cells quickly.  Simple enough to audit
at a glance.  Adjacency is decided from coordinate differences rather than
neighbor lists so the two code paths share nothing.
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


def naive_queue_closure(m, n, polluted, seeds):
    """2-neighbour closure on the m x n grid by counters and a queue.

    Each healthy cell counts its infected neighbours and joins at 2; a cell
    that joins goes on the queue, and is taken off it to count itself at
    each of its four neighbours.  Every cell is queued at most once.
    """
    blocked = set(polluted)
    infected = set(seeds)
    counts = {}
    queue = list(infected)
    while queue:
        i, j = queue.pop()
        for v in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
            if 1 <= v[0] <= m and 1 <= v[1] <= n and v not in blocked and v not in infected:
                counts[v] = counts.get(v, 0) + 1
                if counts[v] == 2:
                    infected.add(v)
                    queue.append(v)
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


def mask_of_cells(m: int, n: int, cells) -> int:
    """Bitmask with bit p set when the p-th canonical cell is in ``cells``."""
    shape = set(cells)
    return sum(1 << p for p, c in enumerate(canonical_cells(m, n)) if c in shape)


# Boards one cell wide or high, and boards of 63, 64 and 65 cells, where
# row-end masks and machine-word boundaries are easiest to get wrong.
EDGE_SHAPES = [
    (1, 1), (1, 9), (9, 1), (63, 1), (1, 63), (9, 7), (7, 9),
    (64, 1), (1, 64), (8, 8), (16, 4), (65, 1), (1, 65), (13, 5), (5, 13),
]


def naive_min_percolating(m, n, topology, polluted, r):
    """Exhaustive minimum by size, first witness in canonical order."""
    residual = [c for c in canonical_cells(m, n) if c not in set(polluted)]
    target = set(residual)
    for s in range(len(residual) + 1):
        for combo in combinations(residual, s):
            if naive_closure(m, n, topology, polluted, combo, r) == target:
                return s, set(combo)
    raise AssertionError("unreachable: seeding the whole residual percolates")


def naive_pollution_numbers(m, n, k, r):
    """m(G - A, r) for every k-cell pollution A of the grid; min and max give mkmin, mkmax."""
    return [
        naive_min_percolating(m, n, "grid", set(a), r)[0]
        for a in combinations(canonical_cells(m, n), k)
    ]


def naive_symmetries(m, n, topology="grid"):
    """The board's automorphisms as dicts cell -> image, closed under composition.

    Generated from the reflections (i, j) -> (m+1-i, j) and (i, n+1-j), on a
    square board also the transpose (i, j) -> (j, i), and on a torus also the
    unit translations (i, j) -> (i mod m + 1, j) and (i, j mod n + 1).
    """
    cells = canonical_cells(m, n)
    moves = [lambda i, j: (m + 1 - i, j), lambda i, j: (i, n + 1 - j)]
    if m == n:
        moves.append(lambda i, j: (j, i))
    if topology == "torus":
        moves += [lambda i, j: (i % m + 1, j), lambda i, j: (i, j % n + 1)]
    group = [{c: c for c in cells}]
    seen = {tuple(cells)}
    for g in group:  # the list grows while it is walked, until no new map appears
        for move in moves:
            h = {c: move(*g[c]) for c in cells}
            key = tuple(h[c] for c in cells)
            if key not in seen:
                seen.add(key)
                group.append(h)
    return group


def naive_alternating_path(cols, rows):
    """Every other cell of the path from (1, rows) down column 1 and along row 1, plus its end."""
    path = [(1, j) for j in range(rows, 0, -1)] + [(i, 1) for i in range(2, cols + 1)]
    return set(path[::2]) | set(path[-1:])


def naive_extremal(m, n, k):
    """Polluted and seeded cells of the extremal witness for mkmin(m, n, k).

    While k <= (m-n)n the pollution deletes the last k // n columns and the
    top k % n cells of the column before them; on a tall board, while
    k <= (n-m)m, it deletes the top k // m rows and the right k % m cells of
    the row below them.  Beyond that the healthy cells are an x by x square
    in the lower-left corner (x*x <= mn - k < (x+1)^2), then the rest along a
    new top row, left to right, and up a new right column.  Either way the
    seeds alternate along the healthy region's first column and bottom row.
    """
    cells = canonical_cells(m, n)
    if k <= (m - n) * n:
        width = m - k // n
        healthy = {(i, j) for i, j in cells if i < width or i == width and j <= n - k % n}
        return set(cells) - healthy, naive_alternating_path(width, n)
    if k <= (n - m) * m:
        height = n - k // m
        healthy = {(i, j) for i, j in cells if j < height or j == height and i <= m - k % m}
        return set(cells) - healthy, naive_alternating_path(m, height)
    t = m * n - k
    x = 0
    while (x + 1) * (x + 1) <= t:
        x += 1
    extra = [(i, x + 1) for i in range(1, x + 1)] + [(x + 1, j) for j in range(1, x + 1)]
    healthy = {(i, j) for i in range(1, x + 1) for j in range(1, x + 1)}
    healthy |= set(extra[: t - x * x])
    width = max(i for i, _ in healthy) if healthy else 0
    height = max(j for _, j in healthy) if healthy else 0
    return set(cells) - healthy, naive_alternating_path(width, height)


def naive_perimeter(cells) -> int:
    """Perimeter as the count of cell sides not shared with another cell."""
    shape = set(cells)
    exposed = 0
    for i, j in shape:
        for u in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
            if u not in shape:
                exposed += 1
    return exposed


def naive_exposed_sides(m: int, n: int, topology: str, cells) -> int:
    """Four sides per cell, less two for each adjacent pair of cells in the set.

    Adjacency comes from :func:`naive_adjacent`, so on a torus the wrap edges
    count as shared, while board edges and sides facing cells outside the set
    stay exposed.
    """
    shape = sorted(set(cells))
    pairs = sum(1 for u, v in combinations(shape, 2) if naive_adjacent(m, n, topology, u, v))
    return 4 * len(shape) - 2 * pairs


def naive_fixed_polyominoes(t: int) -> set[frozenset[tuple[int, int]]]:
    """Every polyomino of t cells up to translation, grown one cell at a time
    and translated so that its least x and least y are 0."""
    shapes = {frozenset({(0, 0)})}
    for _ in range(t - 1):
        grown = set()
        for shape in shapes:
            for x, y in shape:
                for cand in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                    if cand not in shape:
                        cells = shape | {cand}
                        min_x = min(a for a, _ in cells)
                        min_y = min(b for _, b in cells)
                        grown.add(frozenset((a - min_x, b - min_y) for a, b in cells))
        shapes = grown
    return shapes


def naive_box_perimeter(m: int, n: int, t: int) -> int:
    """Sides shown by the best t-cell box of at most n rows and m columns.

    Twice the least h + w with h <= n, w <= m and hw >= t; no t cells of an
    m x n grid show fewer, as their bounding box shows no more sides than
    they do.  Each height h is tried with its narrowest width ceil(t / h).
    """
    return 2 * min(h + -(-t // h) for h in range(1, n + 1) if -(-t // h) <= m)
