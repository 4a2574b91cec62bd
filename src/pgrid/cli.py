"""Command-line front end.

One verb per module: ``formula`` evaluates closed forms, ``construct`` builds
witness boards, ``percolate`` runs the engine on a board file, ``search``
runs the exact oracle, ``verify`` runs a certification suite, and ``render``
draws a trace.  Exit codes: 0 success, 1 domain error, 2 usage error,
3 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import fields
from pathlib import Path

from .constructions import construct_extremal
from .engine import percolate
from .errors import BudgetExceededError, ParseError, PgridError
from .fileformat import parse_instance, write_instance
from .formulas import (
    mkmax_lower_bound,
    mkmin,
    mkmin_lower_bound,
    mkmin_remark_form,
    percolation_number_grid,
    percolation_number_torus,
)
from .grid import CellSet, PollutedInstance
from .render import _pieces
from .search import DEFAULT_NODE_BUDGET, _Budget, min_percolating_exact
from .verify import (
    SuiteReport,
    verify_monotonicity,
    verify_perimeter,
    verify_theorem1,
    verify_torus_and_max,
)

_FORMULAS_2 = {
    "grid": percolation_number_grid,
    "torus": percolation_number_torus,
}
_FORMULAS_3 = {
    "mkmin": mkmin,
    "mkmin-remark": mkmin_remark_form,
    "mkmin-lower": mkmin_lower_bound,
    "mkmax-lower": mkmax_lower_bound,
}


def _vertex_list(cells) -> list[list[int]]:
    return [[v.i, v.j] for v in cells]


def _read_board(path: str) -> tuple[PollutedInstance, CellSet]:
    """Parse the board file at ``path``, decoded as UTF-8 whatever the locale."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # a stand-in for the bad byte marks its line and column, counted as parse_instance counts
        lines = (data[: exc.start].decode("utf-8") + ".").splitlines()
        bad = f"invalid UTF-8 byte 0x{data[exc.start]:02x}"
        raise ParseError(bad, len(lines), len(lines[-1])) from None
    return parse_instance(text)


def _cmd_formula(args: argparse.Namespace) -> int:
    if args.k is None:
        value = _FORMULAS_2[args.name](args.m, args.n)
    else:
        value = _FORMULAS_3[args.name](args.m, args.n, args.k)
    if args.json:
        print(json.dumps(
            {"name": args.name, "m": args.m, "n": args.n, "k": args.k, "value": value},
            sort_keys=True,
        ))
    else:
        print(value)
    return 0


def _cmd_construct(args: argparse.Namespace) -> int:
    witness = construct_extremal(args.m, args.n, args.k)
    document = write_instance(witness.instance, witness.seeds)
    if args.output:
        Path(args.output).write_text(document)
    if args.json:
        payload = {
            "m": args.m,
            "n": args.n,
            "k": args.k,
            "claimed_size": witness.claimed_size,
            "seeds": _vertex_list(witness.seeds),
            "polluted": _vertex_list(witness.instance.polluted),
            "written_to": args.output,
        }
        print(json.dumps(payload, sort_keys=True))
    elif not args.output:
        sys.stdout.write(document)
    return 0


def _cmd_percolate(args: argparse.Namespace) -> int:
    instance, seeds = _read_board(args.file)
    trace = percolate(instance, seeds, args.r)
    if args.json:
        payload = {
            "percolated": trace.percolated,
            "round_count": trace.round_count,
            "seeds": len(seeds),
            "final": len(trace.final),
            "residual": len(instance.residual),
            "rounds": [_vertex_list(cells) for cells in trace.rounds],
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"percolated: {'true' if trace.percolated else 'false'}")
        print(f"rounds: {trace.round_count}")
        print(f"seeds: {len(seeds)}")
        print(f"infected: {len(trace.final)} of {len(instance.residual)} residual cells")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    instance, _ = _read_board(args.file)
    try:
        result = min_percolating_exact(instance, args.r, args.budget)
    except BudgetExceededError as exc:
        # what the search proved and did before the budget ran out
        proven = {
            "lower_bound": exc.lower_bound,
            "upper_bound": exc.upper_bound,
            "nodes_explored": exc.nodes,
            **{name: getattr(exc, name) for name in _Budget.WORK},
        }
        print(f"error: {exc}", file=sys.stderr)
        if args.json:
            print(json.dumps({"error": str(exc), **proven}, sort_keys=True))
        else:
            for name, value in proven.items():
                shown = " ".join(map(str, value)) if isinstance(value, tuple) else value
                print(f"{name.replace('_', ' ')}: {shown}", file=sys.stderr)
        return 1
    if args.json:
        payload = {field.name: getattr(result, field.name) for field in fields(result)}
        payload["witness"] = _vertex_list(result.witness)
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"size: {result.size}")
        print("witness: " + " ".join(f"({v.i},{v.j})" for v in result.witness))
        print(f"nodes explored: {result.nodes_explored}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report: SuiteReport = args.run_suite(args)
    style = "json" if args.json else "csv"
    if args.output:
        with open(args.output, "w") as out:
            report.write(out, style)
        print(report.summary_line())
    elif args.csv or args.json:
        report.write(sys.stdout, style)
    else:
        print(report.summary_line())
        for row in report.failures:
            where = f"m={row.m} n={row.n} k={row.k}".replace("None", "-")
            print(f"  FAIL {row.suite} {where}: expected {row.expected}, got {row.actual}")
    return 0 if report.passed else 3


def _cmd_render(args: argparse.Namespace) -> int:
    instance, seeds = _read_board(args.file)
    trace = percolate(instance, seeds, args.r)
    # the checks run before any piece is made or the file is opened
    pieces = _pieces(trace, args.style)
    if args.output:
        with open(args.output, "w") as out:
            out.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgrid",
        description="Bootstrap percolation on polluted grids and tori.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    names = sub.add_parser("formula", help="evaluate a closed-form value").add_subparsers(
        dest="name", required=True)
    for name in sorted(_FORMULAS_2 | _FORMULAS_3):
        p = names.add_parser(name)
        p.add_argument("-m", type=int, required=True, help="number of columns")
        p.add_argument("-n", type=int, required=True, help="number of rows")
        if name in _FORMULAS_3:
            p.add_argument("-k", type=int, required=True, help="number of polluted vertices")
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=_cmd_formula, k=None)

    p = sub.add_parser("construct", help="build an extremal witness board")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-o", "--output", help="write the board document here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("percolate", help="run the infection process on a board file")
    p.add_argument("file")
    p.add_argument("-r", type=int, default=2, help="infection threshold (default 2)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_percolate)

    p = sub.add_parser("search", help="exact minimum percolating set of a board file")
    p.add_argument("file")
    p.add_argument("-r", type=int, default=2)
    p.add_argument("--budget", type=int,
                   help="closure-evaluation budget (default: "
                   f"floor({DEFAULT_NODE_BUDGET:,} / ceil(mn / 64)) on an m x n board)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_search)

    report = argparse.ArgumentParser(add_help=False)
    group = report.add_mutually_exclusive_group()
    group.add_argument("--csv", action="store_true")
    group.add_argument("--json", action="store_true")
    report.add_argument("-o", "--output", help="write the CSV/JSON report here")
    suites = sub.add_parser("verify", help="run a certification suite").add_subparsers(
        dest="suite", required=True)
    # each suite reads only its own limits; its verify_* is looked up when it runs
    for suite, run_suite, limits in (
        ("theorem1", lambda a: verify_theorem1(a.max_exhaustive, a.max_construction), (
            ("--max-exhaustive", 12, "largest mn checked against the exact oracle"),
            ("--max-construction", 400, "largest mn of the checked constructions"))),
        ("monotonicity", lambda a: verify_monotonicity(a.max_mn), (
            ("--max-mn", 12, "largest mn of the checked grids"),)),
        ("perimeter", lambda a: verify_perimeter(a.max_t, a.trace_samples, a.seed), (
            ("--max-t", 8, "largest t checked against polyomino enumeration"),
            ("--trace-samples", 100, "number of random traces checked"),
            ("--seed", 0, "seed of the random traces"))),
        ("torus-max", lambda a: verify_torus_and_max(a.max_mn), (
            ("--max-mn", 16, "largest mn of the checked tori and grids"),)),
    ):
        p = suites.add_parser(suite, parents=[report])
        for flag, default, text in limits:
            p.add_argument(flag, type=int, default=default, help=f"{text} (default {default})")
        p.set_defaults(func=_cmd_verify, run_suite=run_suite)

    p = sub.add_parser("render", help="draw the trace of a board file")
    p.add_argument("file")
    p.add_argument("-r", type=int, default=2)
    p.add_argument("--style", choices=("ascii", "svg"), default="ascii")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_render)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def run(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (PgridError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
