"""The approximate engine: anytime answers with deterministic bounds.

Runs the refinement loop of :func:`repro.core.approx.deepen` over the
rows of the step-I symbolic result, through the engine's distribution
source (:meth:`repro.cache.CompilationCache.bounds`): every row's
presence probability is bracketed by a
:class:`~repro.engine.spec.ProbInterval` that *certainly* contains the
true value (unlike Monte-Carlo confidence intervals, these bounds are
deterministic), and the per-row budget doubles per round until

* every interval width is ≤ ``spec.epsilon`` (converged),
* the total expansion ``spec.budget`` is exhausted,
* the ``spec.time_limit`` trips, or
* refinement would cost more than exact compilation, at which point the
  remaining rows are compiled exactly (only when neither a budget nor a
  time limit was requested — a capped run never silently exceeds its cap).

Intervals nest monotonically across rounds (each refinement is
intersected with the previous bracket), which is what makes
:meth:`ApproxEngine.run_iter` a true anytime iterator: consumers can
stop at any snapshot and still hold sound, ever-tighter answers — e.g.
stop as soon as ``QueryResult.top_k(k).stats["top_k_decided"]`` flips.
"""

from __future__ import annotations

from repro.core.approx import deepen
from repro.engine.spec import EvalSpec
from repro.engine.sprout import QueryResult, ResultRow, Run, SproutEngine
from repro.query.ast import Query

__all__ = ["ApproxEngine"]


class ApproxEngine(SproutEngine):
    """Budgeted d-tree approximation with deterministic bounds.

    Step I (planning and symbolic rewriting), the plan memo and the
    distribution source are the exact engine's; only step II differs.
    ``spec.workers`` is accepted and ignored: fanning a refinement round
    out across processes lost to the serial loop at every size measured
    (EXPERIMENTS.md, "Accelerator verdicts"), so every value returns the
    serial answer.
    """

    name = "approx"

    def run(self, query: Query, spec: EvalSpec | None = None, **options) -> QueryResult:
        """Refine until the spec is satisfied; return the final snapshot."""
        run = Run(self, spec, options)
        result = None
        for result in self._refine(run, query):
            pass
        return run.settle(
            result, f"max interval width {result.stats['max_width']:.3g}"
        )

    def run_iter(self, query: Query, spec: EvalSpec | None = None, **options):
        """Yield progressively refined :class:`QueryResult` snapshots.

        Every snapshot is a fully usable result (sound intervals on every
        row); the final one carries ``stats["converged"]``.  Snapshots
        hold their own row objects, so earlier snapshots are not mutated
        by later refinement.
        """
        yield from self._refine(Run(self, spec, options), query)

    def _refine(self, run: Run, query: Query):
        """The iterative-deepening loop behind :meth:`run` and
        :meth:`run_iter`, one snapshot per round."""
        spec = EvalSpec.make(run.spec)
        # mode "exact" refines all the way down (ε = 0 ends in the exact
        # fallback); mode "approx" stops at the requested width.
        epsilon = spec.epsilon if spec.mode == "approx" else 0.0

        # One deadline for the whole run (rewriting included): ambient
        # for step I and for each round, where the loop and the Shannon
        # step read it (mid-row expiry degrades to unknown bounds, the
        # same soundness as budget exhaustion).
        with run.scope():
            table, reused = self._step_one(query)
        run.lap("rewrite_seconds")

        source = self._compiler()
        # Unbounded spec: past the last round the stragglers are compiled
        # exactly; a capped run never silently exceeds its cap.
        rounds = deepen(
            source,
            [row.annotation for row in table],
            epsilon,
            spec.budget,
            finish_exactly=spec.budget is None and spec.time_limit is None,
        )
        stop = None
        while stop is None:
            with run.scope():
                intervals, count, expansions, stop = next(rounds)
            rows = [
                ResultRow(
                    table.schema, row.values, row.annotation, source,
                    _probability=interval,
                )
                for row, interval in zip(table, intervals)
            ]
            run.lap("probability_seconds")
            stats = {
                "rounds": count,
                "expansions": expansions,
                "converged": stop == "converged",
                "max_width": max(
                    (interval.width for interval in intervals), default=0.0
                ),
                "epsilon": epsilon,
                "step1_reused": reused,
            }
            if stop == "deadline":
                stats["deadline_hit"] = True
            yield run.result(table.schema, rows, stats)
