"""Plain-text board documents (format "pgrid v1").

A document is a header line ``pgrid v1``, a metadata line
``m=<int> n=<int> topology=<grid|torus>``, then exactly ``n`` rows of ``m``
characters, top row (``j = n``) first.  Cell characters: ``.`` healthy,
``X`` polluted, ``o`` healthy and seeded.  Lines starting with ``#`` before
the header are comments and are ignored.  A seeded polluted cell has no
representation, so writers reject that combination up front.
"""

from __future__ import annotations

import re

from .errors import InvariantError, ParameterError, ParseError
from .grid import CellSet, GridSpec, PollutedInstance, Topology, _mask_of, _paint

HEADER = "pgrid v1"
CH_HEALTHY = "."
CH_POLLUTED = "X"
CH_SEED = "o"

_META_RE = re.compile(r"^m=(\d+) n=(\d+) topology=(grid|torus)$")
_BAD_CELL_RE = re.compile(f"[^{re.escape(CH_HEALTHY + CH_POLLUTED + CH_SEED)}]")


def parse_instance(text: str) -> tuple[PollutedInstance, CellSet]:
    """Parse a document into an instance and its (possibly empty) seed set.

    Error line and column numbers are 1-based positions in the original text,
    counting any leading comment lines.  Linear in the document's length:
    rows are checked with one regex scan each and read into masks whole.
    """
    lines = text.splitlines()
    start = 0
    while start < len(lines) and lines[start].startswith("#"):
        start += 1
    if start >= len(lines) or lines[start] != HEADER:
        raise ParseError(f"expected header {HEADER!r}", start + 1)
    meta_no = start + 2
    if meta_no > len(lines):
        raise ParseError("missing metadata line 'm=<int> n=<int> topology=<grid|torus>'", meta_no)
    meta = _META_RE.match(lines[meta_no - 1])
    if meta is None:
        raise ParseError("metadata must be 'm=<int> n=<int> topology=<grid|torus>'", meta_no)
    try:
        m, n = int(meta.group(1)), int(meta.group(2))
    except ValueError:
        # int() refuses a number of thousands of digits
        raise ParseError("a board side has too many digits", meta_no) from None
    try:
        spec = GridSpec(m, n, Topology(meta.group(3)))
    except ParameterError as exc:
        raise ParseError(str(exc), meta_no) from exc

    body = lines[meta_no : meta_no + spec.n]
    for row, line in enumerate(body, start=meta_no + 1):
        if len(line) != spec.m:
            raise ParseError(
                f"row has {len(line)} cells, expected {spec.m}", row, min(len(line), spec.m) + 1
            )
        bad = _BAD_CELL_RE.search(line)
        if bad is not None:
            raise ParseError(f"invalid cell character {bad.group()!r}", row, bad.start() + 1)
    if len(body) < spec.n:
        raise ParseError(f"expected {spec.n} rows, found {len(body)}", meta_no + 1 + len(body))
    for extra in range(meta_no + spec.n, len(lines)):
        if lines[extra].strip():
            raise ParseError("unexpected content after the last row", extra + 1)

    cells = "".join(body).encode("ascii")
    instance = PollutedInstance(spec, CellSet(spec, _mask_of(cells, CH_POLLUTED)))
    return instance, CellSet(spec, _mask_of(cells, CH_SEED))


def write_instance(instance: PollutedInstance, seeds: CellSet | None = None) -> str:
    """Render an instance (and optional seed set) as a pgrid v1 document.

    Costs C-level passes over the board (the canvas, which holds each row's
    newline, the size/8 bytes of each mask and one decode) plus a Python step
    per polluted and seeded cell, each painted once.
    """
    spec = instance.spec
    if seeds is None:
        seeds = CellSet(spec)
    if seeds.spec != spec:
        raise ParameterError("seed set belongs to a different board")
    if seeds.mask & instance.polluted.mask:
        raise InvariantError("a seed on a polluted cell cannot be represented")

    canvas = bytearray((CH_HEALTHY * spec.m + "\n") * spec.n, "ascii")
    _paint(canvas, instance.polluted, CH_POLLUTED)
    _paint(canvas, seeds, CH_SEED)
    meta = f"m={spec.m} n={spec.n} topology={spec.topology.value}"
    return f"{HEADER}\n{meta}\n{canvas.decode('ascii')}"
