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

import sys
from array import array
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import accumulate, chain, compress, cycle, repeat
from typing import Iterable, Iterator, NamedTuple, Sequence

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

    @cached_property
    def _cells(self) -> tuple[Vertex, ...]:
        """Every vertex in canonical index order, built on first use at C speed.

        About 64 bytes a cell, a 56-byte :class:`Vertex` and its slot in the
        table, held while the spec lives.  A cached property, not a field, so ``==``, ``hash``
        and ``repr`` see only the shape and topology.
        """
        m, n = self.m, self.n
        rows = chain.from_iterable(map(repeat, range(n, 0, -1), repeat(m)))
        return tuple(map(tuple.__new__, repeat(Vertex), zip(cycle(range(1, m + 1)), rows)))


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

        A set of at least a quarter of the board selects its members from the
        spec's table of vertices, which it builds for every later set of the
        same spec, in C: :func:`_flags` and ``compress`` take a few passes over
        the board's cells.  A sparser set decodes its indices with
        :meth:`_indices` and reads each member off the table when the spec has
        built it, or else builds each :class:`Vertex` the way ``Vertex._make``
        does, so iterating a few cells of a large board allocates no table.
        """
        spec, mask = self.spec, self.mask
        if 4 * mask.bit_count() >= spec.size:
            return compress(spec._cells, _flags(mask, spec.size))
        cells = vars(spec).get("_cells")
        if cells is not None:
            return map(cells.__getitem__, self._indices())
        m, n = spec.m, spec.n
        new = tuple.__new__
        return (new(Vertex, (p % m + 1, n - p // m)) for p in self._indices())

    def _indices(self) -> Iterable[int]:
        """Canonical indices of the members, ascending.

        A round of a trace that :func:`_trace_rounds` gave a shared decode reads
        its indices from it, decoded for every round at once when the first is
        read; any other set decodes its mask with :func:`_set_bits`, one
        C-level pass over its size/8 bytes plus a Python step per member.
        """
        shared = getattr(self, "_decode", None)
        if shared is None:
            return _set_bits(self.mask)
        decode, t = shared
        return decode[t]

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


#: Most rounds whose cells :func:`_trace_rounds` decodes together, so that a
#: round's label fits in two bytes; a longer trace decodes round by round.
_MAX_GROUPED_ROUNDS = 2**16

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


# bytes.translate table that sends the digits b"0" and b"1" to the bytes 0 and 1
_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _flags(mask: int, size: int) -> bytes:
    """One byte per cell of a ``size``-cell board in canonical order: 1 in ``mask``, 0 not.

    Four C-level passes over ``size`` bytes: ``format``, a reversal, ``encode`` and ``translate``.
    """
    return format(mask, f"0{size}b")[::-1].encode().translate(_DIGITS)


def _round_cells(masks: Sequence[int], size: int) -> bytes:
    """The members of the disjoint ``masks``, mask after mask, each ascending, as C ints.

    All the masks are decoded at once.  Mask t gets the label t, spread over
    bit planes: plane k is the union (the masks are disjoint, so the sum) of
    the masks whose index has bit k set.  Each plane becomes one byte per
    cell, read as a big int, where up to eight planes, each shifted by its
    bit, add up to a byte of every cell's label with no carry between cells.
    Beyond 256 masks a label takes two bytes, its low and high byte
    interleaved in the machine's order.  The labels of the union's cells then
    send each cell to its mask's array, and the arrays are joined.  So the
    cost is log2(len(masks)) sums of half the masks, about log2(len(masks)) + 4
    C-level passes over the board's cells and a C-level step per member, and
    the result holds 4 bytes a member.
    """
    bits = max(1, (len(masks) - 1).bit_length())
    # plane k takes the masks whose index has bit k set: 2^k skipped, 2^k taken, ...
    picks = (cycle(bytes(1 << k) + b"\x01" * (1 << k)) for k in range(bits))
    planes = [sum(compress(masks, pick)) for pick in picks]

    def label_bytes(planes: list[int]) -> bytes:
        lanes = (int.from_bytes(_flags(plane, size), "little") for plane in planes)
        return sum(lane << k for k, lane in enumerate(lanes)).to_bytes(size, "little")

    labels: Sequence[int] = label_bytes(planes[:8])
    if bits > 8:
        # a little-endian machine stores a two-byte number's low byte first
        wide = bytearray(2 * size)
        wide[sys.byteorder == "big" :: 2] = labels
        wide[sys.byteorder == "little" :: 2] = label_bytes(planes[8:])
        labels = memoryview(wide).cast("H")
    union = _flags(sum(masks), size)
    buckets = [array("i") for _ in masks]
    # array.append(bucket, p) for every member p, in ascending p, at C speed
    to = map(buckets.__getitem__, compress(labels, union))
    deque(map(array.append, to, compress(range(size), union)), 0)
    # one block, not an array per mask, each with its header and spare room
    return b"".join(buckets)


def _trace_rounds(spec: GridSpec, masks: list[int], infected: int) -> tuple[CellSet, ...]:
    """A trace's rounds as cell sets, ``infected`` the union of the disjoint ``masks``.

    Where the rounds infect at least a quarter of the board and number at
    most :data:`_MAX_GROUPED_ROUNDS`, each round gets a handle, outside its
    fields, on one decode of every round by :func:`_round_cells`, made when
    the first round's cells are read and kept while any round lives.  A
    sparser trace costs that decode more passes over the board than its
    rounds' own :func:`_set_bits` take, so its rounds get none.
    """
    rounds = tuple(CellSet(spec, mask) for mask in masks)
    if 4 * infected.bit_count() >= spec.size and len(masks) <= _MAX_GROUPED_ROUNDS:
        decode = _Decode(masks, spec.size)
        # one attribute: a second would give every round a dict of its own
        for t, cells in enumerate(rounds):
            object.__setattr__(cells, "_decode", (decode, t))
    return rounds


class _Decode:
    """The rounds of one trace, decoded together by :func:`_round_cells` when first read."""

    def __init__(self, masks: list[int], size: int) -> None:
        self.masks = masks
        self.size = size

    @cached_property
    def _decoded(self) -> tuple[bytes, array]:
        starts = array("i", accumulate(map(int.bit_count, self.masks), initial=0))
        return _round_cells(self.masks, self.size), starts

    def __getitem__(self, t: int) -> memoryview:
        """The members of round ``t``, ascending."""
        cells, starts = self._decoded
        return memoryview(cells).cast("i")[starts[t] : starts[t + 1]]


def _paint(canvas: bytearray, cells: CellSet, char: str) -> None:
    """Write ``char`` at every cell of ``cells`` on a canvas of m-cell rows, each with its newline.

    The cost is that of :meth:`CellSet._indices` plus one byte store per cell.
    """
    code = ord(char)
    m = cells.spec.m
    for p in cells._indices():
        canvas[p + p // m] = code


def _mask_of(cells: bytes, char: str) -> int:
    """The mask of the cells that hold ``char``, on a canvas of one byte per cell."""
    code = ord(char)
    table = b"0" * code + b"1" + b"0" * (255 - code)
    return int(cells.translate(table)[::-1], 2)
