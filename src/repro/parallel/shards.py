"""The ``workers`` knob: validation and resolution to a worker count.

One validator serves :class:`~repro.engine.spec.EvalSpec` and the
engines, so a bad value fails the same way wherever it enters.  Only
sprout's step II turns the resolved count into a process pool; the
other engines accept the knob and ignore it.
"""

from __future__ import annotations

import os

from repro.errors import QueryValidationError

__all__ = ["resolve_workers", "validate_workers"]


def validate_workers(workers):
    """The one validator of the ``workers`` knob, shared by
    :class:`~repro.engine.spec.EvalSpec` and :func:`resolve_workers`.

    Returns ``workers`` unchanged when it is ``None``, ``"auto"``, or a
    positive integer; raises
    :class:`~repro.errors.QueryValidationError` otherwise.
    """
    if workers is None or workers == "auto":
        return workers
    if (
        isinstance(workers, bool)
        or not isinstance(workers, int)
        or workers < 1
    ):
        raise QueryValidationError(
            f"workers must be a positive integer or 'auto', got {workers!r}"
        )
    return workers


def resolve_workers(workers) -> int | None:
    """Normalise the ``workers`` knob to an effective worker count.

    ``None`` (the default) means "not requested" and is returned as-is —
    engines keep their legacy serial code path.  ``"auto"`` resolves to
    the machine's usable CPU count; an explicit positive integer is
    passed through.  Anything else raises
    :class:`~repro.errors.QueryValidationError`.
    """
    if validate_workers(workers) == "auto":
        try:
            count = len(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - non-Linux platforms
            count = os.cpu_count() or 1
        return max(1, count)
    return workers
