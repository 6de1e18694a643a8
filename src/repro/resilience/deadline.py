"""Wall-clock deadlines with ambient propagation.

A :class:`Deadline` is an absolute point on the monotonic clock,
usually derived from ``EvalSpec.time_limit``.  Engines enter a
:func:`deadline_scope` around a run; inner loops — the ⊔-node loop of
exact compilation, Sprout's per-row compilation, Monte-Carlo rounds —
call :func:`check_deadline` (or read :func:`current_deadline`) without
any signature changes in between.  The scope is a
:class:`contextvars.ContextVar`, so concurrent server requests on
different executor threads each see their own deadline.

Checkpoints are *cooperative*: an expired deadline raises
:class:`DeadlineExceeded`, which callers catch at a sound degradation
boundary (a fully-compiled row, a completed sampling round).  Forked
pool workers do not inherit the scope — cross-process enforcement is
the pool watchdog's job (``parallel.pool``), which bounds every
submitted task by the ambient deadline's remaining time plus a small
grace period.

``DeadlineExceeded`` is internal control flow; user-facing timeout
failures are :class:`repro.errors.QueryTimeoutError`, raised by the
engines and carrying the best sound partial result when one exists.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar

from repro.errors import QueryValidationError, ReproError

__all__ = [
    "Deadline",
    "DeadlineExceeded",
    "check_deadline",
    "current_deadline",
    "deadline_from_spec",
    "deadline_scope",
]


class DeadlineExceeded(ReproError):
    """A cooperative cancellation checkpoint found its deadline expired.

    Internal control flow: engines catch it and degrade to a partial
    answer or convert it into :class:`repro.errors.QueryTimeoutError`.
    """

    def __init__(self, where: str = "", deadline: "Deadline | None" = None):
        label = where or "work"
        if deadline is not None:
            message = (f"{label} exceeded the {deadline.seconds:g}s deadline "
                       f"({deadline.elapsed():.3f}s elapsed)")
        else:
            message = f"{label} exceeded its deadline"
        super().__init__(message)
        self.where = where
        self.deadline = deadline


class Deadline:
    """An absolute wall-clock budget: ``seconds`` from its creation."""

    __slots__ = ("seconds", "_start", "_expires")

    def __init__(self, seconds: float):
        if not isinstance(seconds, (int, float)) or isinstance(seconds, bool):
            raise QueryValidationError(
                f"deadline seconds must be a number, got {seconds!r}"
            )
        if seconds <= 0:
            raise QueryValidationError(
                f"deadline seconds must be positive, got {seconds!r}"
            )
        self.seconds = float(seconds)
        self._start = time.perf_counter()
        self._expires = self._start + self.seconds

    @classmethod
    def after(cls, seconds: "float | None") -> "Deadline | None":
        """Build a deadline, or ``None`` when no limit was given."""
        return None if seconds is None else cls(seconds)

    def elapsed(self) -> float:
        return time.perf_counter() - self._start

    def remaining(self) -> float:
        """Seconds left; negative once expired."""
        return self._expires - time.perf_counter()

    def expired(self) -> bool:
        return time.perf_counter() >= self._expires

    def check(self, where: str = "") -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent."""
        if time.perf_counter() >= self._expires:
            raise DeadlineExceeded(where, self)

    def __repr__(self) -> str:
        return (f"Deadline({self.seconds:g}s, "
                f"remaining={self.remaining():.3f}s)")


def deadline_from_spec(spec) -> "Deadline | None":
    """The deadline implied by an :class:`EvalSpec` (duck-typed)."""
    if spec is None:
        return None
    limit = getattr(spec, "time_limit", None)
    return Deadline.after(limit)


#: The ambient deadline of the current logical task.  ``deadline_scope``
#: is entered once per engine run; nested scopes shadow the outer one
#: (innermost wins).
_ACTIVE: "ContextVar[Deadline | None]" = ContextVar(
    "repro_active_deadline", default=None
)


@contextmanager
def deadline_scope(deadline: "Deadline | None"):
    """Make ``deadline`` ambient for the enclosed block (no-op on None)."""
    if deadline is None:
        yield None
        return
    token = _ACTIVE.set(deadline)
    try:
        yield deadline
    finally:
        _ACTIVE.reset(token)


def current_deadline() -> "Deadline | None":
    """The ambient deadline, or ``None`` outside any scope."""
    return _ACTIVE.get()


def check_deadline(where: str = "") -> None:
    """Cooperative checkpoint: raise if the ambient deadline expired.

    Cost when no deadline is active: one ContextVar read.
    """
    deadline = _ACTIVE.get()
    if deadline is not None:
        deadline.check(where)
