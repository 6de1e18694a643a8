"""Deterministic shard planning and per-shard RNG seed derivation.

The invariant everything here serves: **shard structure is a function of
the work, not of the machine.**  ``plan_shards`` splits a batch into
fixed-size shards independent of the worker count, and ``spawn_seeds``
derives one integer seed per shard from the parent stream's token by a
pure-Python SplitMix64 mix — so the same seeded run produces bit-identical
draws whether the shards execute inline, on 2 workers, or on 64.

Each shard seed feeds a ``numpy.random.SeedSequence``, giving every
shard its own properly spawned ``Generator`` stream; with the kernels
switched off it seeds a private ``random.Random`` per shard.  Either way
no two shards share RNG state, and the parent engine's own stream advances
by exactly one token draw per sampling round regardless of sharding.
"""

from __future__ import annotations

import os

from repro.errors import QueryValidationError

__all__ = [
    "DEFAULT_SHARD_SIZE",
    "plan_shards",
    "resolve_workers",
    "spawn_seeds",
    "validate_workers",
]

#: Default worlds per Monte-Carlo shard: large enough that a shard's
#: per-world loop dominates its dispatch cost, small enough that a few
#: thousand samples already spread across several workers.
DEFAULT_SHARD_SIZE = 512

_MASK64 = (1 << 64) - 1


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


def plan_shards(total: int, shard_size: int | None = None) -> list[int]:
    """Split ``total`` items into deterministic shard sizes.

    The plan depends only on ``total`` and ``shard_size`` — never on the
    worker count — so merged results are identical for any degree of
    parallelism.  All shards except possibly the last have exactly
    ``shard_size`` items.
    """
    if total < 0:
        raise QueryValidationError(f"cannot shard a negative total {total}")
    size = DEFAULT_SHARD_SIZE if shard_size is None else shard_size
    if size < 1:
        raise QueryValidationError(f"shard size must be >= 1, got {size}")
    sizes = [size] * (total // size)
    if total % size:
        sizes.append(total % size)
    return sizes


def _splitmix64(state: int) -> int:
    """One SplitMix64 step — a high-quality, dependency-free integer mix."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def spawn_seeds(token: int, count: int) -> list[int]:
    """``count`` independent 64-bit seeds derived from one parent token.

    Pure Python and platform-stable: the same token yields the same seed
    list whichever stream consumes it.  Each seed is fed to
    ``numpy.random.SeedSequence`` (kernels on) or ``random.Random``
    (kernels off) to create that shard's private stream.
    """
    base = _splitmix64(token & _MASK64)
    seeds = []
    state = base
    for _ in range(count):
        state = _splitmix64(state)
        seeds.append(state)
    return seeds
