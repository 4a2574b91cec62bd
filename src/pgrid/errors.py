"""Exception hierarchy shared by every module in the package.

``PgridError`` is the common base so callers can catch everything raised
by this library with one except clause.  Precondition violations raise
``ParameterError`` (a ``ValueError`` subclass), bad input documents raise
``ParseError``, and exhausted search budgets raise ``BudgetExceededError``
carrying the best bounds proven so far.
"""

from __future__ import annotations


class PgridError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(PgridError, ValueError):
    """An argument violates a documented precondition."""


class InvalidVertexError(ParameterError):
    """A vertex lies outside the host grid."""


class InvariantError(PgridError):
    """An input state breaks a structural invariant (e.g. seeds on polluted cells)."""


class UnsupportedTopologyError(ParameterError):
    """The requested operation is only defined for a different topology."""


class OutOfHypothesisError(ParameterError):
    """Parameters fall outside the regime where a formula or bound is proven."""


class ParseError(PgridError):
    """A grid document is malformed.  Carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class BudgetExceededError(PgridError):
    """An exhaustive search ran out of its closure-evaluation budget.

    ``lower_bound`` and ``upper_bound`` bracket the answer that was being
    computed at the moment the budget ran out.  The work counts are those of
    ``SearchResult``, with the level the latest search stopped in last in
    ``level_nodes``; a pollution sweep's prune counts add up over its searches.
    """

    def __init__(
        self,
        message: str,
        nodes: int,
        lower_bound: int,
        upper_bound: int,
        start_bound: int = 0,
        forced: int = 0,
        level_nodes: tuple[int, ...] = (),
        suffix_prunes: int = 0,
        perimeter_prunes: int = 0,
        symmetry_prunes: int = 0,
    ):
        super().__init__(message)
        self.nodes = nodes
        self.lower_bound = lower_bound
        self.upper_bound = upper_bound
        self.start_bound = start_bound
        self.forced = forced
        self.level_nodes = level_nodes
        self.suffix_prunes = suffix_prunes
        self.perimeter_prunes = perimeter_prunes
        self.symmetry_prunes = symmetry_prunes


class InternalConsistencyError(PgridError):
    """A construction failed its own post-hoc verification; indicates a bug."""
