"""The package's public surface is pinned: a new public name must be added here on purpose.

Benchmark tracing wraps every public function of the layer modules, so a new
public helper also changes what a traced run measures.
"""

import importlib
import inspect

import pgrid

PUBLIC = [
    "BudgetExceededError",
    "CSV_COLUMNS",
    "CellSet",
    "CheckRow",
    "DEFAULT_NODE_BUDGET",
    "ExtremalWitness",
    "GridSpec",
    "InternalConsistencyError",
    "InvalidVertexError",
    "InvariantError",
    "OutOfHypothesisError",
    "ParameterError",
    "ParseError",
    "PercolationTrace",
    "PgridError",
    "PollutedInstance",
    "SearchResult",
    "SuiteReport",
    "Topology",
    "UnsupportedTopologyError",
    "Vertex",
    "ceil_two_sqrt",
    "construct_extremal",
    "grid",
    "independent_interior_capacity",
    "is_percolating",
    "min_percolating_exact",
    "min_perimeter",
    "min_perimeter_height_bounded",
    "min_polyomino_perimeter_exact",
    "mkmax_exact",
    "mkmax_lower_bound",
    "mkmin",
    "mkmin_exact",
    "mkmin_lower_bound",
    "mkmin_remark_form",
    "parse_instance",
    "percolate",
    "percolation_number_grid",
    "percolation_number_torus",
    "perimeter_lower_bound",
    "pollution_max_independent",
    "render_trace",
    "torus",
    "verify_monotonicity",
    "verify_perimeter",
    "verify_theorem1",
    "verify_torus_and_max",
    "write_instance",
]

LAYERS = (
    "engine",
    "grid",
    "perimeter",
    "constructions",
    "formulas",
    "search",
    "verify",
    "fileformat",
    "render",
    "cli",
)


def test_all_is_pinned():
    assert pgrid.__all__ == PUBLIC
    assert all(hasattr(pgrid, name) for name in PUBLIC)


def test_layer_modules_define_no_unlisted_public_functions():
    unlisted = set()
    for layer in LAYERS:
        module = importlib.import_module(f"pgrid.{layer}")
        for name, obj in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ == module.__name__ and name not in PUBLIC:
                unlisted.add(f"{layer}.{name}")
    assert unlisted == {"engine.closure_mask", "cli.build_parser", "cli.main", "cli.run"}
