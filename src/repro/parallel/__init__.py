"""Multi-core execution primitives.

The paper's compilation step is embarrassingly parallel at a natural
seam: independent result-row annotations compile independently.  That is
the one seam that measurably pays (EXPERIMENTS.md, "Accelerator
verdicts"); the approx engine and Monte-Carlo stay serial — Monte-Carlo
valuates its sampled worlds as one numpy batch.  This package provides
the three pieces sprout's step II builds on:

* :mod:`repro.parallel.shards` — the ``workers`` knob's validator and
  its resolution to a worker count (``"auto"`` → usable CPUs);
* :mod:`repro.parallel.pool` — process-pool lifecycle: fork-based worker
  pools with task payloads pickled through the call queue, and graceful
  degradation — a worker crash, a pickle failure, or a platform without
  ``fork`` falls back to in-process execution with the reason recorded;
* :mod:`repro.parallel.reducer` — deterministic merging of per-chunk
  statistics, so the merged answer is independent of completion order.

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
from repro.parallel.reducer import merge_stat_sums
from repro.parallel.shards import resolve_workers

__all__ = [
    "ParallelUnavailable",
    "SharedPool",
    "execute",
    "fork_available",
    "merge_stat_sums",
    "resolve_workers",
]
