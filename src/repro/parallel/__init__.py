"""Multi-core execution primitives shared by every engine.

The paper's two cost centers — d-tree knowledge compilation and
Monte-Carlo estimation — are embarrassingly parallel at natural seams:
independent result-row annotations compile independently, and the worlds
of a per-world sampling loop shard across processes.  Those are the two
seams that measurably pay (EXPERIMENTS.md, "Accelerator verdicts"); the
approx engine and batched Monte-Carlo stay serial.  This package provides
the three pieces the engines build on:

* :mod:`repro.parallel.shards` — the deterministic shard planner: batch
  sizes and per-shard RNG seed material depend only on the batch and the
  session seed, **never** on the worker count, which is what makes
  ``connect(seed=N)`` results bit-identical for any ``workers`` setting;
* :mod:`repro.parallel.pool` — process-pool lifecycle: fork-based worker
  pools with task payloads pickled through the call queue, and graceful
  degradation — a worker crash, a pickle failure, or a platform without
  ``fork`` falls back to in-process execution with the reason recorded;
* :mod:`repro.parallel.reducer` — deterministic merging of per-shard
  results (sample counts, compiled distributions, statistics deltas), so
  the merged answer is independent of shard completion order.

The user-facing knob is ``workers`` (``int | "auto"``, default serial),
threaded from :meth:`repro.session.Session.run` through
:class:`repro.engine.spec.EvalSpec` into the engines; those without a
parallel seam ignore it.
"""

from repro.parallel.pool import (
    ParallelUnavailable,
    SharedPool,
    execute,
    fork_available,
)
from repro.parallel.reducer import merge_counts, merge_stat_sums
from repro.parallel.shards import (
    DEFAULT_SHARD_SIZE,
    plan_shards,
    resolve_workers,
    spawn_seeds,
)

__all__ = [
    "DEFAULT_SHARD_SIZE",
    "ParallelUnavailable",
    "SharedPool",
    "execute",
    "fork_available",
    "merge_counts",
    "merge_stat_sums",
    "plan_shards",
    "resolve_workers",
    "spawn_seeds",
]
