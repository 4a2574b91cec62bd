"""Host graphs, vertex sets, and polluted instances.

A host graph is an ``m x n`` grid (Cartesian product of two paths) or torus
(product of two cycles).  Vertices are 1-based pairs ``(i, j)`` with column
``i`` in ``[1, m]`` and row ``j`` in ``[1, n]``.  Cell sets are immutable and
backed by a single bitmask over the canonical cell index, which enumerates
rows top down (``j = n`` first) and columns left to right.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, NamedTuple

from .errors import EmptyGraphError, InvalidVertexError, ParameterError


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


def neighbors(spec: GridSpec, v: tuple[int, int]) -> list[Vertex]:
    """Adjacent vertices in the order up, down, left, right.

    On the torus every vertex has exactly four neighbors because edges wrap;
    on the grid, boundary vertices simply omit the missing directions.
    """
    if not spec.contains(v):
        raise InvalidVertexError(f"vertex {tuple(v)} outside {spec.m}x{spec.n} board")
    i, j = v
    if spec.topology is Topology.TORUS:
        m, n = spec.m, spec.n
        return [
            Vertex(i, j % n + 1),
            Vertex(i, (j - 2) % n + 1),
            Vertex((i - 2) % m + 1, j),
            Vertex(i % m + 1, j),
        ]
    out = []
    if j < spec.n:
        out.append(Vertex(i, j + 1))
    if j > 1:
        out.append(Vertex(i, j - 1))
    if i > 1:
        out.append(Vertex(i - 1, j))
    if i < spec.m:
        out.append(Vertex(i + 1, j))
    return out


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

    def shared_edges(self, x: int) -> int:
        """Grid edges with both ends in ``x``."""
        return (x & x >> 1 & self.not_last).bit_count() + (x & x >> self.m).bit_count()


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
        mask = 0
        for v in vertices:
            mask |= 1 << spec.index(v)
        return cls(spec, mask)

    @classmethod
    def full(cls, spec: GridSpec) -> "CellSet":
        return cls(spec, (1 << spec.size) - 1)

    def __contains__(self, v: tuple[int, int]) -> bool:
        return self.spec.contains(v) and bool(self.mask >> self.spec.index(v) & 1)

    def __iter__(self) -> Iterator[Vertex]:
        """Members in canonical index order (top row first, left to right)."""
        mask = self.mask
        while mask:
            low = mask & -mask
            yield self.spec.vertex_at(low.bit_length() - 1)
            mask ^= low

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def _check_same_board(self, other: "CellSet") -> None:
        if self.spec != other.spec:
            raise ParameterError("cell sets belong to different boards")

    def __or__(self, other: "CellSet") -> "CellSet":
        self._check_same_board(other)
        return CellSet(self.spec, self.mask | other.mask)

    def __and__(self, other: "CellSet") -> "CellSet":
        self._check_same_board(other)
        return CellSet(self.spec, self.mask & other.mask)

    def __sub__(self, other: "CellSet") -> "CellSet":
        self._check_same_board(other)
        return CellSet(self.spec, self.mask & ~other.mask)

    def issubset(self, other: "CellSet") -> bool:
        self._check_same_board(other)
        return self.mask & ~other.mask == 0

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


def min_degree(instance: PollutedInstance) -> int:
    """Minimum degree of the residual graph (polluted vertices removed)."""
    residual = instance.residual.mask
    if not residual:
        raise EmptyGraphError("every vertex is polluted")
    shifts = Shifts.of(instance.spec)
    return next((d for d in (4, 3, 2, 1) if not residual & ~shifts.at_least(residual, d)), 0)
