"""Host graphs, vertex sets, and polluted instances.

A host graph is an ``m x n`` grid (Cartesian product of two paths) or torus
(product of two cycles).  Vertices are 1-based pairs ``(i, j)`` with column
``i`` in ``[1, m]`` and row ``j`` in ``[1, n]``.  Cell sets are immutable and
backed by a single bitmask over the canonical cell index, which enumerates
rows top down (``j = n`` first) and columns left to right, so index ``p`` is
vertex ``(p % m + 1, n - p // m)``.  Degrees and perimeters are computed only
on masks, through :class:`Shifts`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import Iterable, Iterator, NamedTuple

from .errors import InvalidVertexError, ParameterError

#: Largest board, in cells, that :class:`GridSpec` accepts: every cell set is a
#: big int with a bit per cell, so a huge board would exhaust memory, not fail.
#: The closed forms in ``formulas`` take no board and stay uncapped.
MAX_CELLS = 2**20


class Topology(str, Enum):
    GRID = "grid"
    TORUS = "torus"


class Vertex(NamedTuple):
    i: int
    j: int


@dataclass(frozen=True)
class GridSpec:
    """Shape and topology of a host graph."""

    m: int
    n: int
    topology: Topology = Topology.GRID

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ParameterError(f"dimensions must be positive, got {self.m}x{self.n}")
        if self.topology is Topology.TORUS and (self.m < 3 or self.n < 3):
            # cycles of length < 3 would need multi-edges
            raise ParameterError(f"torus sides must be >= 3, got {self.m}x{self.n}")
        if self.m * self.n > MAX_CELLS:
            raise ParameterError(f"{self.m}x{self.n} board exceeds MAX_CELLS = {MAX_CELLS}")

    @property
    def size(self) -> int:
        return self.m * self.n

    def contains(self, v: tuple[int, int]) -> bool:
        i, j = v
        return 1 <= i <= self.m and 1 <= j <= self.n

    def index(self, v: tuple[int, int]) -> int:
        """Canonical index of a vertex: row-major with the top row (j = n) first."""
        if not self.contains(v):
            raise InvalidVertexError(f"vertex {tuple(v)} outside {self.m}x{self.n} board")
        i, j = v
        return (self.n - j) * self.m + (i - 1)

    def vertex_at(self, index: int) -> Vertex:
        """Inverse of :meth:`index`."""
        if not 0 <= index < self.size:
            raise ParameterError(f"index {index} out of range for {self.m}x{self.n} board")
        return Vertex(index % self.m + 1, self.n - index // self.m)

    def vertices(self) -> Iterator[Vertex]:
        """All vertices in canonical index order."""
        for j in range(self.n, 0, -1):
            for i in range(1, self.m + 1):
                yield Vertex(i, j)


def grid(m: int, n: int) -> GridSpec:
    return GridSpec(m, n, Topology.GRID)


def torus(m: int, n: int) -> GridSpec:
    return GridSpec(m, n, Topology.TORUS)


class Shifts(NamedTuple):
    """Bitmask constants for moving a cell set one step in each direction.

    Bit ``p`` has its left/right neighbors at ``p -/+ 1`` and its up/down
    neighbors at ``p -/+ m``.  Row ends are cleared before a sideways shift;
    on the torus they, and the top and bottom rows, rotate in instead.
    """

    m: int
    size: int
    full: int
    first: int
    last: int
    not_first: int
    not_last: int
    wrap: bool

    @classmethod
    def of(cls, spec: GridSpec) -> "Shifts":
        full = (1 << spec.size) - 1
        first = full // ((1 << spec.m) - 1)
        last = first << (spec.m - 1)
        wrap = spec.topology is Topology.TORUS
        return cls(spec.m, spec.size, full, first, last, full ^ first, full ^ last, wrap)

    def at_least(self, x: int, r: int) -> int:
        """Cells with at least ``r`` neighbors in ``x``; bits off the board may be set."""
        m, size, _, first, last, not_first, not_last, wrap = self
        if wrap:
            a = (x & not_last) << 1 | (x & last) >> (m - 1)
            b = (x & not_first) >> 1 | (x & first) << (m - 1)
            c = x << m | x >> (size - m)
            d = x >> m | x << (size - m)
        else:
            a = (x & not_last) << 1
            b = (x & not_first) >> 1
            c = x << m
            d = x >> m
        if r == 2:
            return a & b | c & d | (a | b) & (c | d)
        if r == 1:
            return a | b | c | d
        if r == 3:
            return a & b & (c | d) | c & d & (a | b)
        if r == 4:
            return a & b & c & d
        return 0

    def perimeter(self, x: int) -> int:
        """Sides of the cells of ``x`` that face no cell of ``x``: 4c - 2e, e the edges inside.

        Board edges are exposed; on a torus the wrap edges count as shared.
        """
        shared = (x & x >> 1 & self.not_last).bit_count() + (x & x >> self.m).bit_count()
        if self.wrap:
            shared += (x & x >> (self.m - 1) & self.first).bit_count()
            shared += (x & x >> (self.size - self.m)).bit_count()
        return 4 * x.bit_count() - 2 * shared

    def seed_floor(self, x: int, r: int) -> int:
        """ceil(phi_r / 2r), phi_r = perimeter + (2r - 4)|x|: no fewer seeds percolate ``x``."""
        return (self.perimeter(x) + (2 * r - 4) * x.bit_count() + 2 * r - 1) // (2 * r)


@dataclass(frozen=True)
class CellSet:
    """Immutable set of vertices of one host graph, stored as a bitmask."""

    spec: GridSpec
    mask: int = 0

    def __post_init__(self) -> None:
        if self.mask < 0 or self.mask >> self.spec.size:
            raise ParameterError("mask has bits outside the board")

    @classmethod
    def from_vertices(cls, spec: GridSpec, vertices: Iterable[tuple[int, int]]) -> "CellSet":
        m, n = spec.m, spec.n
        mask = 0
        for v in vertices:
            i, j = v
            if not (1 <= i <= m and 1 <= j <= n):
                raise InvalidVertexError(f"vertex {tuple(v)} outside {m}x{n} board")
            mask |= 1 << ((n - j) * m + i - 1)
        return cls(spec, mask)

    @classmethod
    def full(cls, spec: GridSpec) -> "CellSet":
        return cls(spec, (1 << spec.size) - 1)

    def __contains__(self, v: tuple[int, int]) -> bool:
        return self.spec.contains(v) and bool(self.mask >> self.spec.index(v) & 1)

    def __iter__(self) -> Iterator[Vertex]:
        """Members in canonical index order (top row first, left to right).

        The cost is that of :func:`_set_bits`, one C-level pass over the
        board's size/8 bytes plus a Python step per member, and each
        :class:`Vertex` is built the way ``Vertex._make`` builds it, without
        the Python-level ``__new__``.
        """
        m, n = self.spec.m, self.spec.n
        new = tuple.__new__
        return (new(Vertex, (p % m + 1, n - p // m)) for p in _set_bits(self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def complement(self) -> "CellSet":
        return CellSet(self.spec, ((1 << self.spec.size) - 1) ^ self.mask)


@dataclass(frozen=True)
class PollutedInstance:
    """A host graph together with its set of polluted (permanently closed) vertices."""

    spec: GridSpec
    polluted: CellSet

    def __post_init__(self) -> None:
        if self.polluted.spec != self.spec:
            raise ParameterError("polluted set belongs to a different board")

    @classmethod
    def of(cls, spec: GridSpec, polluted: Iterable[tuple[int, int]] = ()) -> "PollutedInstance":
        return cls(spec, CellSet.from_vertices(spec, polluted))

    @property
    def residual(self) -> CellSet:
        """The healthy vertices, i.e. the board minus the polluted set."""
        return self.polluted.complement()

    @property
    def k(self) -> int:
        return len(self.polluted)


def _symmetries(m: int, n: int) -> list[tuple[int, ...]]:
    """Index permutations of the ``m x n`` grid's automorphisms, the identity left out.

    Entry ``p`` of a table is the image of cell ``p``.  The maps are the two
    reflections and the half turn, and on a square board also the two
    transposes and the two quarter turns; maps that fix every cell of a
    one-wide board, and repeats, are dropped.  On a torus each is followed by
    a translation through :func:`_moved`.
    """
    cells = range(m * n)
    rows = [cells[p : p + m] for p in range(0, m * n, m)]
    # (m-1-x, y), (x, n-1-y) and the half turn, then on a square board (y, x)
    # and each of the first three after it; every table is built from a list,
    # as a tuple grown from an iterator is resized and strands its block on
    # another length's free list
    maps = [
        tuple(list(chain.from_iterable(map(reversed, rows)))),
        tuple(list(chain.from_iterable(reversed(rows)))),
        tuple(reversed(cells)),
    ]
    if m == n:
        swap = tuple(list(chain.from_iterable(zip(*rows))))
        maps += [swap] + [tuple(list(map(q.__getitem__, swap))) for q in maps]
    identity = tuple(cells)
    tables = []
    for table in maps:
        if table != identity and table not in tables:
            tables.append(table)
    return tables


def _moved(table: tuple[int, ...], dx: int, dy: int, m: int, n: int) -> tuple[int, ...]:
    """``table`` followed by the torus translation of dx columns right and dy rows down."""
    return tuple([(c + dx) % m + (c // m + dy) % n * m for c in table])


# bytes.translate table that sends every nonzero byte to 1
_NONZERO = bytes([0]) + bytes([1]) * 255
# the positions of the set bits of each byte value, ascending
_BYTE_BITS = tuple(tuple(k for k in range(8) if b >> k & 1) for b in range(256))


def _set_bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask`` in ascending order.

    One C-level pass over the mask's bytes (``to_bytes``, ``translate`` and
    ``find``, which jumps from one nonzero byte to the next), plus a Python
    step per nonzero byte and per set bit, read off :data:`_BYTE_BITS`: a
    sparse mask on a large board costs little more than its bytes.
    """
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    find = data.translate(_NONZERO).find
    i = find(1)
    while i >= 0:
        base = i << 3
        for k in _BYTE_BITS[data[i]]:
            yield base + k
        i = find(1, i + 1)


def _paint(canvas: bytearray, mask: int, char: str) -> None:
    """Write ``char`` at every cell of ``mask`` on a canvas of one byte per cell.

    The cost is that of :func:`_set_bits` plus one byte store per cell.
    """
    code = ord(char)
    for p in _set_bits(mask):
        canvas[p] = code


def _rows(canvas: bytearray, m: int) -> list[str]:
    """A canvas as text rows of ``m`` cells, top row first."""
    text = canvas.decode("ascii")
    return [text[p : p + m] for p in range(0, len(text), m)]


def _mask_of(cells: bytes, char: str) -> int:
    """Inverse of :func:`_paint`: the mask of the cells that hold ``char``."""
    code = ord(char)
    table = b"0" * code + b"1" + b"0" * (255 - code)
    return int(cells.translate(table)[::-1], 2)
