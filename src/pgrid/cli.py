"""Command-line front end.

One verb per module: ``formula`` evaluates closed forms, ``construct`` builds
witness boards, ``percolate`` runs the engine on a board file, ``search``
runs the exact oracle, ``verify`` runs a certification suite, and ``render``
draws a trace.  Exit codes: 0 success, 1 domain error, 2 usage error,
3 verification failure.
"""

from __future__ import annotations

import argparse
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


class _UsageError(Exception):
    pass


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
    if args.name in _FORMULAS_2:
        if args.k is not None:
            raise _UsageError(f"formula {args.name!r} does not take -k")
        value = _FORMULAS_2[args.name](args.m, args.n)
    else:
        if args.k is None:
            raise _UsageError(f"formula {args.name!r} requires -k")
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


def _run_suite(args: argparse.Namespace) -> SuiteReport:
    if args.suite == "theorem1":
        return verify_theorem1(args.max_exhaustive, args.max_construction)
    if args.suite == "monotonicity":
        return verify_monotonicity(12 if args.max_mn is None else args.max_mn)
    if args.suite == "perimeter":
        return verify_perimeter(args.max_t, args.trace_samples, args.seed)
    return verify_torus_and_max(16 if args.max_mn is None else args.max_mn)


def _cmd_verify(args: argparse.Namespace) -> int:
    report = _run_suite(args)
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

    p = sub.add_parser("formula", help="evaluate a closed-form value")
    p.add_argument("name", choices=sorted(_FORMULAS_2 | _FORMULAS_3))
    p.add_argument("-m", type=int, required=True, help="number of columns")
    p.add_argument("-n", type=int, required=True, help="number of rows")
    p.add_argument("-k", type=int, help="number of polluted vertices")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_formula)

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

    p = sub.add_parser("verify", help="run a certification suite")
    p.add_argument("suite", choices=("theorem1", "monotonicity", "perimeter", "torus-max"))
    p.add_argument("--max-exhaustive", type=int, default=12)
    p.add_argument("--max-construction", type=int, default=400)
    p.add_argument("--max-mn", type=int, default=None)
    p.add_argument("--max-t", type=int, default=8)
    p.add_argument("--trace-samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--csv", action="store_true")
    group.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output", help="write the CSV/JSON report here")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("render", help="draw the trace of a board file")
    p.add_argument("file")
    p.add_argument("-r", type=int, default=2)
    p.add_argument("--style", choices=("ascii", "svg"), default="ascii")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_render)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (PgridError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
