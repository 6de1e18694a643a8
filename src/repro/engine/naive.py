"""Brute-force possible-worlds query engine — the exactness oracle.

Evaluates a ``Q`` query in every possible world of the pvc-database
(instantiated to deterministic relations with semiring multiplicities) and
aggregates the per-world results into exact tuple-level probabilities.
Exponential in the number of variables, hence only usable on small
databases — which is precisely its job: it is the independent ground truth
the compiled engine is verified against in the test suite.

Every world runs through :func:`repro.query.executor.world_evaluator`,
the one per-world evaluator: the query is planned once and the same plan
is interpreted on every enumerated valuation, over the rows the tables
held when the run started.  Only the variables of the tables the query
reads are enumerated: the others are marginalised out, which is sound
because the variables are independent.  To keep the oracle independent
of the machinery it verifies, the plan is built *without* logical
rewrites and *without* hash-join extraction — ``σ(×…)`` is evaluated
literally, as a filter over nested-loop products, the Figure-4
reading.  The oracle therefore shares only the trivially-structural
lowering with the optimized engines, not the optimizer or the join
planner.
"""

from __future__ import annotations

from typing import Iterator

from repro.cache import capture_stamp
from repro.db.pvc_table import PVCDatabase
from repro.engine.spec import EvalSpec
from repro.engine.sprout import QueryResult, Run, concrete_result
from repro.prob.distribution import Distribution
from repro.prob.space import ProbabilitySpace
from repro.query.ast import Query
from repro.query.executor import prepare, world_evaluator
from repro.resilience.deadline import DeadlineExceeded, check_deadline

__all__ = ["NaiveEngine"]


class NaiveEngine:
    """Exact query answering by explicit possible-world enumeration: the
    plan walk of :mod:`repro.query.executor` over every valuation of the
    variables of the tables the query reads."""

    name = "naive"

    def __init__(self, db: PVCDatabase):
        self.db = db

    def _worlds(self, query: Query) -> Iterator[tuple[dict, float]]:
        """The one enumeration loop behind every oracle sweep.

        Returns an iterator of ``({answer tuple: multiplicity},
        probability)`` over the possible worlds of the variables of the
        tables ``query`` reads.  The query is validated and planned here,
        once, with no logical rewrites and no hash-join extraction: the
        oracle evaluates it as written.
        """
        db = self.db
        prepared = prepare(
            query,
            db.catalog(),
            db.cardinalities(),
            optimize=False,
            extract_joins=False,
        )
        read = query.base_relations()
        stamp = capture_stamp(db, read)  # before the names
        names = sorted(
            frozenset().union(*(db.tables[name].variables for name in read))
        )
        evaluate = world_evaluator(prepared, db, names, stamp)
        worlds = ProbabilitySpace(db.registry, db.semiring).enumerate_worlds(
            names
        )

        def sweep():
            for valuation, probability in worlds:
                # Cooperative checkpoint per world: enumeration is the
                # exponential loop here, and a partial sweep is *not* a
                # sound answer (tuples and masses are both incomplete),
                # so ``run`` converts this into QueryTimeoutError.
                check_deadline("possible-worlds enumeration")
                yield evaluate(valuation.assignment), probability

        return sweep()

    def tuple_probabilities(self, query: Query) -> dict[tuple, float]:
        """``P[t ∈ answer]`` for every possible answer tuple ``t``.

        For aggregate queries the tuples carry *concrete* aggregate
        values, so e.g. ⟨'M&S', 15⟩ and ⟨'M&S', 50⟩ are distinct answers
        whose probabilities generally do not sum to 1.
        """
        probabilities: dict[tuple, float] = {}
        for answer, probability in self._worlds(query):
            for values in answer:
                probabilities[values] = probabilities.get(values, 0.0) + probability
        return probabilities

    def multiplicity_distribution(self, query: Query, values: tuple) -> Distribution:
        """Distribution of the multiplicity of one answer tuple."""
        values = tuple(values)
        zero = self.db.semiring.zero
        accum: dict = {}
        for answer, probability in self._worlds(query):
            mult = answer.get(values, zero)
            accum[mult] = accum.get(mult, 0.0) + probability
        return Distribution(accum)

    def answer_relation_distribution(self, query: Query) -> Distribution:
        """Distribution over entire answer relations (as frozensets).

        The heaviest oracle: the exact distribution of the full query
        answer across worlds, used to validate joint behaviours.
        """
        accum: dict = {}
        for answer, probability in self._worlds(query):
            key = frozenset(answer)
            accum[key] = accum.get(key, 0.0) + probability
        return Distribution(accum)

    def run(
        self, query: Query, spec: EvalSpec | None = None, **options
    ) -> QueryResult:
        """Every answer tuple with its exact probability.

        Rows carry *concrete* values (aggregates are instantiated per
        world), so there are no symbolic annotations to expose.  Mid-
        enumeration the answer tuple set itself is incomplete, so there
        is no sound partial to degrade to: a ``spec.time_limit`` trip
        raises :class:`~repro.errors.QueryTimeoutError` under either
        ``on_timeout`` policy.
        """
        run = Run(self, spec, options)
        try:
            with run.scope():
                probabilities = self.tuple_probabilities(query)
        except DeadlineExceeded as exc:
            # No sound partial: raises under either policy.
            run.settle(
                None, f"{exc}; a partial possible-worlds sweep is no sound answer"
            )
        run.lap("enumeration_seconds")
        return concrete_result(run, query, probabilities, {})

    def run_iter(self, query: Query, spec: EvalSpec | None = None, **options):
        """One-shot engine: yields its single :meth:`run`."""
        yield self.run(query, spec, **options)
