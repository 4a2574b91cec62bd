"""ASCII and SVG visualization of percolation traces.

ASCII emits one frame per round.  Within a frame: 'X' polluted, 'o' seed,
digits 1-9 (then '+') for the round a cell was infected, '.' not yet or
never infected.  SVG emits the board once with one group per round carrying
the same information.  Tori are drawn as flat boards with a wrap annotation.
ASCII paints each round once into one canvas and slices every frame from
it, so it is linear in its output.  SVG decodes each round's mask once with
:func:`grid._set_bits`: one C-level pass over the board's size/8 bytes plus
a Python step per cell drawn.  Its output is linear in the cells drawn, so
on a large board a trace of many sparse rounds (the clean 150x150 board has
298 rounds of ~75 cells) costs rounds x size/8 byte steps beyond its output.
"""

from __future__ import annotations

from .engine import PercolationTrace
from .errors import ParameterError
from .grid import Topology, _paint, _rows, _set_bits

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


def _render_ascii(trace: PercolationTrace) -> str:
    spec = trace.instance.spec
    canvas = bytearray(b"." * spec.size)
    _paint(canvas, trace.instance.polluted.mask, "X")
    lines = [_header(trace)]
    for frame, cells in enumerate(trace.rounds):
        _paint(canvas, cells.mask, "o123456789"[frame] if frame <= 9 else "+")
        lines.append(f"round {frame}:")
        lines += _rows(canvas, spec.m)
    lines.append(f"percolated: {'true' if trace.percolated else 'false'}")
    return "\n".join(lines) + "\n"


def _render_svg(trace: PercolationTrace) -> str:
    spec = trace.instance.spec
    m = spec.m
    width = m * _CELL_PX
    height = spec.n * _CELL_PX
    # a cell's <rect> joins a piece made once per column, one per row and one
    # per group, so no number is formatted per cell; pieces per row and fill
    # would be up to 11n strings, 5.5x the peak memory on a 1 x 2^18 board
    starts = [f'<rect x="{x}" y="' for x in range(0, width, _CELL_PX)]
    middles = [
        f'{y}" width="{_CELL_PX}" height="{_CELL_PX}" fill="' for y in range(0, height, _CELL_PX)
    ]

    def rects(mask: int, fill: str) -> list[str]:
        end = f'{fill}" stroke="#ffffff"/>'
        return [starts[p % m] + middles[p // m] + end for p in _set_bits(mask)]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f"<desc>{_header(trace)}; rounds: {trace.round_count}; "
        f"percolated: {'true' if trace.percolated else 'false'}</desc>",
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="{_BOARD_FILL}"/>',
    ]
    parts.append('<g id="polluted">')
    parts += rects(trace.instance.polluted.mask, _POLLUTED_FILL)
    parts.append("</g>")
    for t, cells in enumerate(trace.rounds):
        fill = _SEED_FILL if t == 0 else _ROUND_FILLS[(t - 1) % len(_ROUND_FILLS)]
        parts.append(f'<g id="round-{t}" data-round="{t}">')
        parts += rects(cells.mask, fill)
        parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_trace(trace: PercolationTrace, style: str = "ascii") -> str:
    """Render a trace as an ascii frame sequence or a single SVG document."""
    if style == "ascii":
        return _render_ascii(trace)
    if style == "svg":
        return _render_svg(trace)
    raise ParameterError(f"unknown render style {style!r}")
