"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class AlgebraError(ReproError):
    """An algebraic structure was used inconsistently.

    Examples: adding semimodule expressions over different monoids, or
    applying a comparison operator to values from an unordered carrier.
    """


class ParseError(ReproError):
    """An expression or SQL string could not be parsed."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class DistributionError(ReproError):
    """A probability distribution is malformed.

    Raised for negative probabilities, probability mass exceeding one, or
    empty supports.
    """


class CompilationError(ReproError):
    """Expression compilation into a decomposition tree failed.

    Raised, for instance, when a compilation budget is exhausted or when an
    expression references a variable with no declared distribution.
    """


class SchemaError(ReproError):
    """A relation or pvc-table was constructed or combined inconsistently."""


class ConcurrentMutationError(ReproError):
    """The database was mutated underneath a whole-database sweep.

    Raised by consumers that read the database incrementally over time
    (possible-worlds enumeration in particular) when its stamp moves
    mid-sweep: the partial output would mix table states.  Point-in-time
    readers (scans, queries) never raise this: they read per-table records.
    """


class QueryValidationError(ReproError):
    """A query violates the well-formedness constraints of Definition 5.

    The query language ``Q`` of the paper forbids projection, union and
    grouping on aggregation attributes; queries that do so are rejected
    with this error before evaluation.
    """


class WorldEnumerationError(ReproError):
    """Brute-force possible-world enumeration is infeasible or ill-defined."""


class QueryTimeoutError(ReproError):
    """A query hit its ``EvalSpec.time_limit`` deadline.

    Raised under ``spec.on_timeout == "raise"`` (and always by the naive
    engine, which has no sound partial answer).  ``partial`` carries the
    best *sound* result obtained before the deadline — every reported
    interval contains the exact answer — or ``None`` when no sound
    partial exists.  ``elapsed`` is the wall-clock time spent.
    """

    def __init__(self, message: str, partial=None, elapsed: float | None = None):
        super().__init__(message)
        self.partial = partial
        self.elapsed = elapsed
