import re
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

import pgrid.render as render
from pgrid import (
    CellSet,
    ParameterError,
    PollutedInstance,
    construct_extremal,
    grid,
    parse_instance,
    percolate,
    render_trace,
    torus,
    write_instance,
)

import oracles
from test_fileformat import SAMPLE_DOC, coordinate_boards


def _trace(spec, polluted, seeds, r=2):
    instance = PollutedInstance.of(spec, polluted)
    return percolate(instance, CellSet.from_vertices(spec, seeds), r)


def test_ascii_two_by_two_frames():
    text = render_trace(_trace(grid(2, 2), [], [(1, 2), (2, 1)]))
    assert text == (
        "grid 2x2\n"
        "round 0:\n"
        "o.\n"
        ".o\n"
        "round 1:\n"
        "o1\n"
        "1o\n"
        "percolated: true\n"
    )


def test_ascii_frame_zero_matches_file_body():
    instance, seeds = parse_instance(SAMPLE_DOC)
    text = render_trace(percolate(instance, seeds, 2))
    frame0 = text.splitlines()[2 : 2 + instance.spec.n]
    body = write_instance(instance, seeds).splitlines()[2:]
    assert frame0 == body


def test_ascii_no_seeds_single_frame():
    text = render_trace(_trace(grid(2, 2), [(2, 2)], []))
    assert text == (
        "grid 2x2\n"
        "round 0:\n"
        ".X\n"
        "..\n"
        "percolated: false\n"
    )


def test_ascii_torus_header_notes_wrap():
    text = render_trace(_trace(torus(3, 3), [], [(1, 3), (2, 2)]))
    assert text.startswith("torus 3x3 (edges wrap)\n")
    assert text.rstrip().endswith("percolated: true")


def test_ascii_rounds_past_nine_use_plus():
    text = render_trace(_trace(grid(12, 1), [], [(1, 1)], r=1))
    frames = text.splitlines()
    assert frames[-2] == "o123456789++"
    assert frames[-1] == "percolated: true"


def test_svg_structure():
    trace = _trace(grid(2, 2), [(2, 2)], [(1, 2), (2, 1)])
    text = render_trace(trace, style="svg")
    assert text.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
    assert text.endswith("</svg>\n")
    assert "<desc>grid 2x2; rounds: 1; percolated: true</desc>" in text
    assert '<g id="polluted">' in text
    assert '<rect x="20" y="0" width="20" height="20" fill="#404040" stroke="#ffffff"/>' in text
    assert '<g id="round-0" data-round="0">' in text
    assert '<g id="round-1" data-round="1">' in text
    assert 'fill="#d62728"' in text


def test_svg_is_deterministic():
    trace = _trace(grid(4, 3), [(2, 2)], [(1, 3), (1, 1), (4, 2)])
    assert render_trace(trace, style="svg") == render_trace(trace, style="svg")


def test_unknown_style_rejected():
    trace = _trace(grid(2, 2), [], [(1, 1)])
    with pytest.raises(ParameterError):
        render_trace(trace, style="png")


def _spec(m, n, topology):
    return torus(m, n) if topology == "torus" else grid(m, n)


@settings(deadline=None)
@given(board=coordinate_boards(), r=st.integers(1, 3))
def test_ascii_matches_frames_built_from_coordinates(board, r):
    m, n, topology, polluted, seeds = board
    rounds = oracles.naive_rounds(m, n, topology, polluted, seeds, r)
    when = {c: t for t, cells in enumerate(rounds) for c in cells}
    healthy = {c for c in oracles.canonical_cells(m, n) if c not in polluted}
    lines = [f"{topology} {m}x{n}" + (" (edges wrap)" if topology == "torus" else "")]
    for frame in range(len(rounds)):
        lines.append(f"round {frame}:")
        for j in range(n, 0, -1):
            row = ""
            for i in range(1, m + 1):
                t = when.get((i, j), frame + 1)
                if (i, j) in polluted:
                    row += "X"
                else:
                    row += "." if t > frame else "o123456789+"[min(t, 10)]
            lines.append(row)
    lines.append(f"percolated: {'true' if set(when) == healthy else 'false'}")
    spec = _spec(m, n, topology)
    trace = percolate(PollutedInstance.of(spec, polluted), CellSet.from_vertices(spec, seeds), r)
    assert render_trace(trace) == "\n".join(lines) + "\n"


_GROUP = re.compile(r'<g id="([^"]+)"[^>]*>\n(.*?)</g>', re.S)
_RECT = re.compile(r'<rect x="(\d+)" y="(\d+)" width="20" height="20"')


@settings(deadline=None)
@given(board=coordinate_boards())
def test_svg_rects_match_cells_built_from_coordinates(board):
    m, n, topology, polluted, seeds = board
    rounds = oracles.naive_rounds(m, n, topology, polluted, seeds, 2)
    order = oracles.canonical_cells(m, n)

    def rects(cells):
        return [((i - 1) * 20, (n - j) * 20) for i, j in order if (i, j) in cells]

    expected = [("polluted", rects(polluted))]
    expected += [(f"round-{t}", rects(cells)) for t, cells in enumerate(rounds)]
    spec = _spec(m, n, topology)
    trace = percolate(PollutedInstance.of(spec, polluted), CellSet.from_vertices(spec, seeds), 2)
    svg = render_trace(trace, style="svg")
    groups = [
        (name, [(int(x), int(y)) for x, y in _RECT.findall(body)])
        for name, body in _GROUP.findall(svg)
    ]
    assert groups == expected


def _svg_from_cells(m, n, topology, polluted, rounds, percolated):
    """The SVG document built cell by cell, each <rect> formatted on its own."""
    fills = [
        "#1f77b4", "#2ca02c", "#9467bd", "#e377c2", "#17becf", "#bcbd22", "#ff7f0e", "#8c564b", "#7f7f7f"
    ]
    width, height = 20 * m, 20 * n
    wrap = " (edges wrap)" if topology == "torus" else ""
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f"<desc>{topology} {m}x{n}{wrap}; rounds: {len(rounds) - 1}; "
        f"percolated: {'true' if percolated else 'false'}</desc>",
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#f2f2f2"/>',
    ]
    groups = [('<g id="polluted">', polluted, "#404040")]
    for t, cells in enumerate(rounds):
        fill = "#d62728" if t == 0 else fills[(t - 1) % 9]
        groups.append((f'<g id="round-{t}" data-round="{t}">', cells, fill))
    for opening, cells, fill in groups:
        lines.append(opening)
        for i, j in oracles.canonical_cells(m, n):
            if (i, j) in cells:
                x, y = (i - 1) * 20, (n - j) * 20
                lines.append(
                    f'<rect x="{x}" y="{y}" width="20" height="20" fill="{fill}" stroke="#ffffff"/>'
                )
        lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "m, n, topology, polluted, seeds",
    [
        (13, 11, "torus", [(7, 6), (2, 10), (13, 1), (9, 3)], [(1, 1)]),
        (13, 3, "grid", [(5, 2), (12, 1), (13, 2)], [(1, 1)]),
        (21, 2, "grid", [(4, 1), (20, 2)], [(1, 2)]),
    ],
)
def test_svg_matches_a_document_built_cell_by_cell(m, n, topology, polluted, seeds):
    rounds = oracles.naive_rounds(m, n, topology, polluted, seeds, 1)
    # ten or more rounds after the seeds, so the round fills wrap around
    assert len(rounds) >= 12
    healthy = {c for c in oracles.canonical_cells(m, n) if c not in polluted}
    percolated = set().union(*rounds) == healthy
    spec = _spec(m, n, topology)
    trace = percolate(PollutedInstance.of(spec, polluted), CellSet.from_vertices(spec, seeds), 1)
    assert render_trace(trace, "svg") == _svg_from_cells(m, n, topology, set(polluted), rounds, percolated)


def test_ascii_cap_counts_every_frame(monkeypatch):
    trace = percolate(PollutedInstance.of(grid(4, 3)), construct_extremal(4, 3, 0).seeds)
    assert trace.round_count > 1
    cells = (trace.round_count + 1) * 12
    monkeypatch.setattr(render, "_MAX_ASCII_CELLS", cells)
    assert render_trace(trace).endswith("percolated: true\n")
    monkeypatch.setattr(render, "_MAX_ASCII_CELLS", cells - 1)
    with pytest.raises(ParameterError, match="use --style svg"):
        render_trace(trace)
    assert render_trace(trace, "svg").endswith("</svg>\n")


def test_ascii_cap_admits_the_clean_300x300_trace():
    trace = percolate(PollutedInstance.of(grid(300, 300)), construct_extremal(300, 300, 0).seeds)
    assert (trace.round_count + 1) * 300 * 300 <= render._MAX_ASCII_CELLS


def test_render_pieces_end_in_newlines_one_per_group_or_frame():
    trace = _trace(grid(5, 4), [(3, 2)], [(1, 1), (5, 4), (2, 3)])
    for style, opening in (("svg", "<g id="), ("ascii", "round ")):
        pieces = list(render._pieces(trace, style))
        assert "".join(pieces) == render_trace(trace, style)
        assert all(piece.endswith("\n") for piece in pieces)
        body = pieces[1:-1]
        assert len(body) == trace.round_count + 1 + (style == "svg")
        assert all(piece.startswith(opening) and piece.count(opening) == 1 for piece in body)


def test_render_pieces_are_checked_before_the_first_is_made(monkeypatch):
    trace = _trace(grid(4, 3), [], [(1, 1), (4, 3)])
    with pytest.raises(ParameterError, match="unknown render style"):
        render._pieces(trace, "png")
    monkeypatch.setattr(render, "_MAX_ASCII_CELLS", 11)
    with pytest.raises(ParameterError, match="use --style svg"):
        render._pieces(trace, "ascii")


@pytest.mark.parametrize("style", ["svg", "ascii"])
def test_render_peak_memory_is_about_twice_the_document(style):
    # the pieces, then the document joined from them, and nothing per cell
    trace = percolate(PollutedInstance.of(grid(100, 100)), construct_extremal(100, 100, 0).seeds)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        document = render_trace(trace, style)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * len(document), (peak, len(document))
