"""ASCII and SVG visualization of percolation traces.

ASCII emits one frame per round.  Within a frame: 'X' polluted, 'o' seed,
digits 1-9 (then '+') for the round a cell was infected, '.' not yet or
never infected.  SVG emits the board once with one group per round carrying
the same information.  Tori are drawn as flat boards with a wrap annotation.
ASCII paints each round once into one canvas, which holds each row's
newline, and decodes every frame from it, so it is linear in its output,
and it refuses a trace of more than ``_MAX_ASCII_CELLS`` cells in all
frames.  SVG decodes each round's mask once with :func:`grid._set_bits`:
one C-level pass over the board's size/8 bytes plus a Python step per cell
drawn.  Its output is linear in the cells drawn, so on a large board a
trace of many sparse rounds (the clean 150x150 board has 298 rounds of ~75
cells) costs rounds x size/8 byte steps beyond its output.

A document is made as pieces: the header, then one string per SVG group or
ASCII frame, joined once from its cells and ending in its newline, then the
footer.  ``render_trace`` joins them, so its tracemalloc peak is about twice
the document (1.73 MiB, peak 3.48 MiB, for the clean 150x150 SVG), and
``pgrid render`` writes them out as they are made, holding one piece at a
time beside the trace.
"""

from __future__ import annotations

from typing import Iterator

from .engine import PercolationTrace
from .errors import ParameterError
from .grid import Topology, _paint, _set_bits

#: Largest ASCII trace, in cells over all (rounds + 1) frames: the clean 300x300
#: board's 598 frames draw 53.8M, where the clean 1024x1024 board's need gigabytes.
_MAX_ASCII_CELLS = 2**26
_CELL_PX = 20
_POLLUTED_FILL = "#404040"
_BOARD_FILL = "#f2f2f2"
_SEED_FILL = "#d62728"
_ROUND_FILLS = (
    "#1f77b4",
    "#2ca02c",
    "#9467bd",
    "#e377c2",
    "#17becf",
    "#bcbd22",
    "#ff7f0e",
    "#8c564b",
    "#7f7f7f",
)


def _header(trace: PercolationTrace) -> str:
    spec = trace.instance.spec
    wrap = " (edges wrap)" if spec.topology is Topology.TORUS else ""
    return f"{spec.topology.value} {spec.m}x{spec.n}{wrap}"


def _ascii_frames(trace: PercolationTrace) -> Iterator[str]:
    spec = trace.instance.spec
    m = spec.m
    # one byte per cell plus a newline closing each row, so a frame is one decode
    canvas = bytearray((b"." * m + b"\n") * spec.n)
    _paint(canvas, trace.instance.polluted.mask, "X", m)
    yield f"{_header(trace)}\n"
    for frame, cells in enumerate(trace.rounds):
        _paint(canvas, cells.mask, "o123456789"[frame] if frame <= 9 else "+", m)
        yield f"round {frame}:\n{canvas.decode('ascii')}"
    yield f"percolated: {'true' if trace.percolated else 'false'}\n"


def _svg_groups(trace: PercolationTrace) -> Iterator[str]:
    spec = trace.instance.spec
    m = spec.m
    width = m * _CELL_PX
    height = spec.n * _CELL_PX
    # a cell's <rect> joins a piece made once per column, one per row and one
    # per group, so no number is formatted per cell
    starts = [f'<rect x="{x}" y="' for x in range(0, width, _CELL_PX)]
    middles = [
        f'{y}" width="{_CELL_PX}" height="{_CELL_PX}" fill="' for y in range(0, height, _CELL_PX)
    ]

    def group(opening: str, mask: int, fill: str) -> str:
        end = f'{fill}" stroke="#ffffff"/>\n'
        rects = (starts[p % m] + middles[p // m] + end for p in _set_bits(mask))
        return "".join([opening, *rects, "</g>\n"])

    yield (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f"<desc>{_header(trace)}; rounds: {trace.round_count}; "
        f"percolated: {'true' if trace.percolated else 'false'}</desc>\n"
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="{_BOARD_FILL}"/>\n'
    )
    yield group('<g id="polluted">\n', trace.instance.polluted.mask, _POLLUTED_FILL)
    for t, cells in enumerate(trace.rounds):
        fill = _SEED_FILL if t == 0 else _ROUND_FILLS[(t - 1) % len(_ROUND_FILLS)]
        yield group(f'<g id="round-{t}" data-round="{t}">\n', cells.mask, fill)
    yield "</svg>\n"


def _pieces(trace: PercolationTrace, style: str) -> Iterator[str]:
    """The document of :func:`render_trace` as pieces to write out in order.

    The style and the ascii cap are checked here, before the first piece is made.
    """
    if style == "svg":
        return _svg_groups(trace)
    if style != "ascii":
        raise ParameterError(f"unknown render style {style!r}")
    spec = trace.instance.spec
    cells = (trace.round_count + 1) * spec.size
    if cells > _MAX_ASCII_CELLS:
        raise ParameterError(
            f"an ascii trace of {spec.m}x{spec.n} in {trace.round_count + 1} frames "
            f"draws {cells} cells, above {_MAX_ASCII_CELLS}; use --style svg"
        )
    return _ascii_frames(trace)


def render_trace(trace: PercolationTrace, style: str = "ascii") -> str:
    """Render a trace as an ascii frame sequence or a single SVG document."""
    return "".join(_pieces(trace, style))
