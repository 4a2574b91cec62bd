"""The benchmark's three workloads, built from a seed.

Each workload turns a seed into a fixed list of ops.  An op runs only calls
into ``pgrid``'s public API, so its time is the program's; the harness
times it, checks its output with ``checks`` and counts any failure.  Calls go
through module attributes (``pgrid.percolate``) so the tracer's wrappers are
seen.  Why each workload exists is recorded in ``README.md``.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
from dataclasses import dataclass, field
from typing import Callable

import pgrid
import pgrid.cli

import checks


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    fingerprint: Callable[[object], object]
    cells: int = 0  # board cells, for the large-board scaling series
    counters: Callable[[object], dict[str, int]] = field(default=lambda out: {})


# -- large-board --------------------------------------------------------------

CLEAN_SIDES = (50, 100, 150)


@dataclass
class Board:
    m: int
    n: int
    wrap: bool
    instance: object
    seeds: object
    polluted_cells: set
    seed_cells: set


def _board(instance, seeds) -> Board:
    spec = instance.spec
    m, n = spec.m, spec.n
    return Board(
        m,
        n,
        spec.topology.value == "torus",
        instance,
        seeds,
        set(checks.cells_of_mask(instance.polluted.mask, m, n)),
        set(checks.cells_of_mask(seeds.mask, m, n)),
    )


def _scattered(rng: random.Random, spec, pollution: float, seeding: float) -> tuple[object, object]:
    """Random pollution and random seeds among the healthy cells."""
    cells = [(i, j) for j in range(spec.n, 0, -1) for i in range(1, spec.m + 1)]
    polluted = rng.sample(cells, int(len(cells) * pollution))
    taken = set(polluted)
    healthy = [c for c in cells if c not in taken]
    seeds = rng.sample(healthy, int(len(cells) * seeding))
    return pgrid.PollutedInstance.of(spec, polluted), pgrid.CellSet.from_vertices(spec, seeds)


def _pipeline(board: Board, ascii_frames: bool):
    """The full single-board path: file format, engine, iteration, bound, render."""

    def run():
        doc = pgrid.write_instance(board.instance, board.seeds)
        parsed = pgrid.parse_instance(doc)
        trace = pgrid.percolate(board.instance, board.seeds, 2)
        final = list(trace.final)
        rounds = [list(cells) for cells in trace.rounds]
        bound = None if board.wrap else pgrid.perimeter_lower_bound(board.instance)
        svg = pgrid.render_trace(trace, "svg")
        text = pgrid.render_trace(trace, "ascii") if ascii_frames else None
        return doc, parsed, trace, final, rounds, bound, svg, text

    return run


def _board_check(board: Board):
    def check(out) -> list[str]:
        doc, parsed, trace, final, rounds, bound, svg, text = out
        m, n = board.m, board.n
        topology = "torus" if board.wrap else "grid"
        errors = []
        if doc != checks.board_document(m, n, topology, board.polluted_cells, board.seed_cells):
            errors.append("document differs from the canonical text")
        if parsed != (board.instance, board.seeds):
            errors.append("document does not parse back to the same board")
        errors += checks.check_trace(
            m, n, board.wrap, board.polluted_cells, board.seed_cells, rounds, final, trace.percolated
        )
        if trace.round_count != len(rounds) - 1:
            errors.append("round_count disagrees with the rounds")
        if len(trace.rounds) != len(rounds) or any(
            checks.cells_of_mask(c.mask, m, n) != cells for c, cells in zip(trace.rounds, rounds)
        ):
            errors.append("iteration disagrees with the round masks")
        if not board.wrap and bound != checks.perimeter_bound(m, n, board.polluted_cells):
            errors.append(f"perimeter bound {bound} differs from ceil(exposed sides / 4)")
        errors += checks.check_svg(svg, len(board.polluted_cells), [len(r) for r in rounds], trace.percolated)
        if text is not None:
            lines = text.splitlines()
            frames = [k for k, line in enumerate(lines) if line.startswith("round ")]
            last = lines[frames[-1] + 1 : frames[-1] + 1 + n] if frames else []
            if len(frames) != len(rounds) or last != checks.ascii_final_frame(m, n, board.polluted_cells, rounds):
                errors.append("ascii frames disagree with the trace")
        return errors

    return check


def _board_fingerprint(out) -> tuple:
    doc, parsed, trace, final, rounds, bound, svg, text = out
    return (
        hash(doc),
        hash((parsed[0].polluted.mask, parsed[1].mask)),
        hash(tuple(c.mask for c in trace.rounds)),
        hash(trace.final.mask),
        trace.percolated,
        trace.round_count,
        hash(tuple(final)),
        hash(tuple(tuple(r) for r in rounds)),
        bound,
        hash(svg),
        hash(text),
    )


def large_board(seed: int) -> list[Op]:
    rng = random.Random(seed)
    boards: list[tuple[str, Board, bool]] = []
    for side in CLEAN_SIDES:
        witness = pgrid.construct_extremal(side, side, 0)
        boards.append((f"clean-{side}", _board(witness.instance, witness.seeds), True))
    # Near-square residual of 75^2 + o cells in the corner of a 110^2 board.
    residual = 75 * 75 + rng.randint(1, 75)
    witness = pgrid.construct_extremal(110, 110, 110 * 110 - residual)
    boards.append(("large-k-110", _board(witness.instance, witness.seeds), False))
    boards.append(("scattered-125", _board(*_scattered(rng, pgrid.grid(125, 125), 0.10, 0.05)), False))
    spec = pgrid.torus(75, 75)
    offset = rng.randrange(75)
    diagonal = [(i, (i + offset) % 75 + 1) for i in range(1, 76)]
    boards.append((
        "diagonal-torus-75",
        _board(pgrid.PollutedInstance.of(spec), pgrid.CellSet.from_vertices(spec, diagonal)),
        False,
    ))
    boards.append(("scattered-torus-100x50", _board(*_scattered(rng, pgrid.torus(100, 50), 0.10, 0.05)), False))
    ops = []
    for name, board, series in boards:
        ops.append(Op(
            name,
            _pipeline(board, ascii_frames=name == f"clean-{CLEAN_SIDES[0]}"),
            _board_check(board),
            _board_fingerprint,
            cells=board.m * board.n if series else 0,
        ))
    return ops


# -- exact-search -------------------------------------------------------------

SWEEP_SHAPE = (5, 5)


def _exact_op(name: str, instance, r: int, closed_form: int | None) -> Op:
    spec = instance.spec
    m, n = spec.m, spec.n
    wrap = spec.topology.value == "torus"
    polluted = set(checks.cells_of_mask(instance.polluted.mask, m, n))

    def check(result) -> list[str]:
        errors = []
        witness = set(checks.cells_of_mask(result.witness.mask, m, n))
        if len(witness) != result.size:
            errors.append(f"witness has {len(witness)} cells, size says {result.size}")
        if witness & polluted:
            errors.append("witness uses polluted cells")
        if not pgrid.is_percolating(instance, result.witness, r):
            errors.append("witness does not percolate (engine)")
        if len(checks.closure(m, n, wrap, polluted, witness, r)) != m * n - len(polluted):
            errors.append("witness does not percolate (naive closure)")
        if closed_form is not None and result.size != closed_form:
            errors.append(f"size {result.size} differs from the closed form {closed_form}")
        if not wrap and r == 2 and result.size < checks.perimeter_bound(m, n, polluted):
            errors.append("size is below the perimeter bound")
        return errors

    return Op(
        name,
        lambda: pgrid.min_percolating_exact(instance, r),
        check,
        lambda res: (res.size, res.witness.mask, res.nodes_explored),
    )


def exact_search(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = [
        _exact_op("grid-5x5", pgrid.PollutedInstance.of(pgrid.grid(5, 5)), 2, checks.grid_number(5, 5)),
        _exact_op("grid-6x5", pgrid.PollutedInstance.of(pgrid.grid(6, 5)), 2, checks.grid_number(6, 5)),
        _exact_op("torus-5x5-r2", pgrid.PollutedInstance.of(pgrid.torus(5, 5)), 2, checks.torus_number(5, 5)),
        _exact_op("torus-4x4-r3", pgrid.PollutedInstance.of(pgrid.torus(4, 4)), 3, None),
    ]

    def check_mkmax(value) -> list[str]:
        lower = checks.grid_number(4, 4) + 2
        return [] if lower <= value <= 14 else [f"mkmax(4,4,2)={value} outside [{lower}, 14]"]

    ops.append(Op("mkmax-4x4-k2", lambda: pgrid.mkmax_exact(4, 4, 2), check_mkmax, lambda v: v))

    m, n = SWEEP_SHAPE

    def check_sweep(values) -> list[str]:
        expected = [checks.mkmin_closed(m, n, k) for k in range(m * n + 1)]
        return [] if values == expected else [f"mkmin sweep {values} differs from the closed form {expected}"]

    ops.append(Op(
        f"mkmin-sweep-{m}x{n}",
        lambda: [pgrid.mkmin_exact(m, n, k) for k in range(m * n + 1)],
        check_sweep,
        tuple,
    ))
    spec = pgrid.grid(5, 4)
    cells = [(i, j) for j in range(4, 0, -1) for i in range(1, 6)]
    for k in (2, 3, 4):
        instance = pgrid.PollutedInstance.of(spec, rng.sample(cells, k))
        ops.append(_exact_op(f"polluted-5x4-k{k}", instance, 2, None))
    return ops


# -- certify-sweep ------------------------------------------------------------

THEOREM1_CONSTRUCTION = 60
THEOREM1_EXHAUSTIVE = 16


def _cli(argv: list[str]):
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = pgrid.cli.run(argv)
        return code, buf.getvalue()

    return run


_ELAPSED = re.compile(r'("elapsed_ms": )[0-9.e+-]+|,[0-9.]+$', re.MULTILINE)


def _report_fingerprint(out) -> tuple:
    code, text = out
    return code, hash(_ELAPSED.sub(r"\1", text))


def _cli_op(name: str, argv: list[str], check_text: Callable[[str], list[str]]) -> Op:
    def check(out) -> list[str]:
        code, text = out
        return ([f"exit code {code}"] if code != 0 else []) + check_text(text)

    return Op(
        name,
        _cli(argv),
        check,
        _report_fingerprint,
        counters=lambda out: {"cli.report_bytes": len(out[1])},
    )


def certify_sweep(seed: int) -> list[Op]:
    e, c = THEOREM1_EXHAUSTIVE, THEOREM1_CONSTRUCTION
    return [
        _cli_op(
            "verify-perimeter",
            ["verify", "perimeter", "--csv", "--seed", str(seed)],
            lambda text: checks.check_csv_report(text, checks.perimeter_rows(8, 100)),
        ),
        _cli_op(
            f"verify-theorem1-construction-{c}",
            ["verify", "theorem1", "--max-exhaustive", "12", "--max-construction", str(c), "--json"],
            lambda text: checks.check_json_report(text, checks.theorem1_rows(12, c)),
        ),
        _cli_op(
            f"verify-theorem1-exhaustive-{e}",
            ["verify", "theorem1", "--max-exhaustive", str(e), "--max-construction", str(e), "--csv"],
            lambda text: checks.check_csv_report(text, checks.theorem1_rows(e, e)),
        ),
        _cli_op(
            "verify-torus-max",
            ["verify", "torus-max"],
            lambda text: checks.check_summary(text, "torus-max", checks.torus_max_rows(16)),
        ),
        _cli_op(
            "verify-monotonicity",
            ["verify", "monotonicity"],
            lambda text: checks.check_summary(text, "monotonicity", checks.monotonicity_rows(12)),
        ),
    ]


WORKLOADS: dict[str, Callable[[int], list[Op]]] = {
    "large-board": large_board,
    "exact-search": exact_search,
    "certify-sweep": certify_sweep,
}
