"""The approximate engine: anytime answers with deterministic bounds.

Drives :class:`repro.core.approx.ApproximateCompiler` in an
iterative-deepening loop over the rows of the step-I symbolic result:
every row's presence probability is bracketed by a
:class:`~repro.engine.spec.ProbInterval` that *certainly* contains the
true value (unlike Monte-Carlo confidence intervals, these bounds are
deterministic), and the Shannon budget doubles per round until

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

from repro.algebra.simplify import Normalizer
from repro.core.approx import ApproximateCompiler
from repro.engine.spec import EvalSpec, ProbInterval
from repro.engine.sprout import QueryResult, ResultRow, Run, SproutEngine
from repro.query.ast import Query
from repro.resilience.faults import fault_point

__all__ = ["ApproxEngine"]

#: Past this per-row Shannon allowance exact compilation is typically
#: cheaper than further refinement (matches ``approximate_probability``).
_MAX_ROW_BUDGET = 1 << 20

#: First-round per-row Shannon allowance.
_INITIAL_ROW_BUDGET = 8


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
        # for step I and for each round, where the ApproximateCompiler's
        # Shannon loop reads it (mid-row expiry degrades to unknown
        # bounds, the same soundness as budget exhaustion).
        with run.scope():
            table, reused = self._step_one(query)
        run.lap("rewrite_seconds")

        registry = self.db.registry
        semiring = self.db.semiring
        row_compiler = self._compiler()
        annotations = [row.annotation for row in table]
        intervals: list[ProbInterval | None] = [None] * len(annotations)
        pending = set(range(len(annotations)))
        #: Shared across rows *and* rounds: the fused restrict cache (pure)
        #: and, per row, the sub-bounds an earlier round proved exact.
        normalizer = Normalizer(semiring)
        seeds: list[dict | None] = [None] * len(annotations)

        row_budget = _INITIAL_ROW_BUDGET
        expansions = 0
        rounds = 0
        exhausted = False
        timed_out = False

        def snapshot(converged: bool) -> QueryResult:
            rows = [
                ResultRow(
                    table.schema,
                    pvc_row.values,
                    pvc_row.annotation,
                    row_compiler,
                    _probability=(
                        intervals[i]
                        if intervals[i] is not None
                        else ProbInterval.unknown()
                    ),
                )
                for i, pvc_row in enumerate(table)
            ]
            run.lap("probability_seconds")
            widths = [
                interval.width if interval is not None else 1.0
                for interval in intervals
            ]
            stats = {
                "rounds": rounds,
                "expansions": expansions,
                "converged": converged,
                "max_width": max(widths, default=0.0),
                "epsilon": epsilon,
                "step1_reused": reused,
            }
            if timed_out:
                stats["deadline_hit"] = True
            return run.result(table.schema, rows, stats)

        def refine(index: int, low: float, high: float) -> None:
            refined = ProbInterval(low, high)
            previous = intervals[index]
            if previous is not None:
                refined = previous.intersect(refined)
            intervals[index] = refined
            if refined.width <= epsilon:
                pending.discard(index)

        while pending and not exhausted:
            rounds += 1
            with run.scope():
                fault_point("engine.approx.round")
                for index in sorted(pending):
                    if spec.budget is not None and expansions >= spec.budget:
                        exhausted = True
                        break
                    if run.expired():
                        timed_out = exhausted = True
                        break
                    allowance = row_budget
                    if spec.budget is not None:
                        allowance = min(allowance, spec.budget - expansions)
                    approximator = ApproximateCompiler(
                        registry,
                        allowance,
                        semiring,
                        normalizer=normalizer,
                        seed_bounds=seeds[index],
                    )
                    bounds = approximator.bounds(annotations[index])
                    seeds[index] = approximator.exact_bounds()
                    expansions += approximator.expansions
                    refine(index, bounds.low, bounds.high)
            if not pending or exhausted:
                break
            yield snapshot(converged=False)
            row_budget *= 2
            if row_budget > _MAX_ROW_BUDGET:
                if spec.budget is None and spec.time_limit is None:
                    # Unbounded spec: finish the stragglers exactly.
                    for index in sorted(pending):
                        exact = 1.0 - row_compiler.distribution(
                            annotations[index]
                        )[semiring.zero]
                        intervals[index] = ProbInterval.point(exact)
                    pending.clear()
                exhausted = True

        yield snapshot(converged=not pending)
