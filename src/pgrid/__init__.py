"""Bootstrap percolation on polluted grids and tori.

Vertices infect their neighbors once r of them are infected; polluted
vertices never infect.  The package provides the closure engine, closed-form
extremal seed counts with matching explicit constructions, perimeter-based
lower bounds, brute-force certification oracles, verification sweeps, a
plain-text board format, and ASCII/SVG rendering.
"""

from .constructions import (
    ExtremalWitness,
    construct_extremal,
    pollution_max_independent,
)
from .engine import PercolationTrace, is_percolating, percolate
from .errors import (
    BudgetExceededError,
    InternalConsistencyError,
    InvalidVertexError,
    InvariantError,
    OutOfHypothesisError,
    ParameterError,
    ParseError,
    PgridError,
    UnsupportedTopologyError,
)
from .fileformat import parse_instance, write_instance
from .formulas import (
    ceil_two_sqrt,
    independent_interior_capacity,
    mkmax_lower_bound,
    mkmin,
    mkmin_lower_bound,
    mkmin_remark_form,
    percolation_number_grid,
    percolation_number_torus,
)
from .grid import (
    CellSet,
    GridSpec,
    PollutedInstance,
    Topology,
    Vertex,
    grid,
    torus,
)
from .perimeter import (
    min_perimeter,
    min_perimeter_height_bounded,
    perimeter_lower_bound,
)
from .render import render_trace
from .search import (
    DEFAULT_NODE_BUDGET,
    SearchResult,
    min_percolating_exact,
    min_polyomino_perimeter_exact,
    mkmax_exact,
    mkmin_exact,
)
from .verify import (
    CSV_COLUMNS,
    CheckRow,
    SuiteReport,
    verify_monotonicity,
    verify_perimeter,
    verify_theorem1,
    verify_torus_and_max,
)

__version__ = "0.1.0"

__all__ = [
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
