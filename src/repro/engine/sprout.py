"""The SPROUT-style engine: rewrite, compile, compute probabilities.

Mirrors the paper's prototype architecture (Section 7): query evaluation
has two steps — (I) computing the result tuples with symbolic annotations
via the Figure-4 rewriting, and (II) computing probability distributions
for those annotations by compilation into d-trees.  The engine reports the
same timing breakdown the experiments use:

* ``Q0``   — evaluating the query on the deterministic database (no
  expression or probability computation);
* ``⟦·⟧``  — constructing the expressions (step I);
* ``P(·)`` — computing the probability distributions (step II).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator

from repro import parallel
from repro.algebra.expressions import ONE, SemiringExpr
from repro.algebra.semimodule import ModuleExpr
from repro.algebra.valuation import Valuation
from repro.cache import CompilationCache
from repro.core.compile import Compiler, distribution_task
from repro.db.pvc_table import PVCDatabase, PVCTable
from repro.db.relation import Relation
from repro.db.schema import Schema
from repro.engine.spec import ENGINE_TABLE, EvalSpec, ProbInterval, accept
from repro.errors import CompilationError, QueryTimeoutError
from repro.prob.distribution import Distribution
from repro.query.ast import Query
from repro.resilience.deadline import (
    DeadlineExceeded,
    current_deadline,
    deadline_from_spec,
    deadline_scope,
)
from repro.resilience.faults import fault_point
from repro.query.executor import (
    PreparedQuery,
    execute_deterministic,
    prepare,
    symbolic_answer,
)

__all__ = ["SproutEngine", "QueryResult", "ResultRow", "Run", "concrete_result"]


@dataclass
class ResultRow:
    """One answer tuple with its symbolic and probabilistic views.

    ``_compiler`` is the row's distribution source — a
    :class:`~repro.cache.CompilationCache` (``distribution(expr)``,
    ``semiring``, ``compiler``): a session's, or the private one of a
    bare engine's run.  Rows produced by engines without symbolic
    annotations (brute-force, Monte-Carlo) carry ``_compiler=None`` and a
    precomputed probability instead.

    Probabilities are interval-valued
    (:class:`~repro.engine.spec.ProbInterval`): exact engines report
    zero-width intervals, the approximate engines report the bracket they
    actually established.  Since intervals subclass :class:`float`
    (midpoint-valued), code written against point probabilities keeps
    working unchanged.
    """

    schema: Schema
    values: tuple
    annotation: SemiringExpr
    _compiler: CompilationCache | None = field(
        repr=False, compare=False, default=None
    )
    _probability: float | None = field(repr=False, compare=False, default=None)
    _annotation_dist: Distribution | None = field(
        repr=False, compare=False, default=None
    )

    def probability(self) -> ProbInterval:
        """``P[t ∈ answer]`` — the annotation is non-zero (present).

        Memoized: repeated calls (and :meth:`QueryResult.pretty`,
        :meth:`QueryResult.to_dicts`, ...) never recompile the d-tree.
        Returns a :class:`~repro.engine.spec.ProbInterval` — zero-width
        when the probability is exactly known.
        """
        if self._probability is None:
            dist = self.annotation_distribution()
            zero = self._compiler.semiring.zero
            self._probability = ProbInterval.point(1.0 - dist[zero])
        elif not isinstance(self._probability, ProbInterval):
            self._probability = ProbInterval.point(self._probability)
        return self._probability

    def probability_interval(self) -> ProbInterval:
        """Alias of :meth:`probability`, named for interval consumers."""
        return self.probability()

    def annotation_distribution(self) -> Distribution:
        """Distribution of the annotation value (multiplicity under N)."""
        if self._annotation_dist is None:
            if self._compiler is None:
                raise CompilationError(
                    "row carries no symbolic annotation compiler; annotation "
                    "distributions are only available from the sprout engine"
                )
            self._annotation_dist = self._compiler.distribution(self.annotation)
        return self._annotation_dist

    def module_attributes(self) -> dict[str, ModuleExpr]:
        """The semimodule-valued attributes of this row."""
        return {
            name: value
            for name, value in zip(self.schema.attributes, self.values)
            if isinstance(value, ModuleExpr)
        }

    def value_distribution(self, attribute: str) -> Distribution:
        """Marginal distribution of a semimodule-valued attribute.

        Note this marginal ignores whether the tuple is present; use
        :meth:`answer_probabilities` for the joint semantics.
        """
        value = self.values[self.schema.index(attribute)]
        if not isinstance(value, ModuleExpr):
            return Distribution.point(value)
        return self._compiler.distribution(value)

    def conditional_value_distribution(self, attribute: str) -> Distribution:
        """Distribution of an aggregate value *given the tuple is present*.

        Joint-compiles the annotation with the attribute's semimodule
        expression and conditions on a non-zero annotation.  This is the
        quantity a user typically wants reported next to
        :meth:`probability` — e.g. "given the group exists, how is its
        SUM distributed?".
        """
        value = self.values[self.schema.index(attribute)]
        if not isinstance(value, ModuleExpr):
            return Distribution.point(value)
        zero = self._compiler.semiring.zero
        joint = self._compiler.joint_distribution([self.annotation, value])
        conditioned = joint.condition(lambda outcome: outcome[0] != zero)
        return conditioned.map(lambda outcome: outcome[1])

    def expected_value(self, attribute: str) -> float:
        """Expectation of an aggregate value given the tuple is present."""
        return self.conditional_value_distribution(attribute).expectation()

    def answer_probabilities(self) -> dict[tuple, float]:
        """``P[t present with concrete values v]`` for each outcome ``v``.

        Joint-compiles the annotation with all semimodule values of the
        row (Section 5, "Compiling Joint Probability Distributions") and
        returns the distribution over fully concrete answer tuples,
        restricted to worlds where the tuple is present.
        """
        module_attrs = self.module_attributes()
        if not module_attrs:
            probability = self.probability()
            if probability <= 1e-15:
                return {}
            return {self.values: probability}
        zero = self._compiler.semiring.zero
        exprs = [self.annotation] + list(module_attrs.values())
        joint = self._compiler.joint_distribution(exprs)
        results: dict[tuple, float] = {}
        names = list(module_attrs)
        for outcome, probability in joint.items():
            presence, *module_values = outcome
            if presence == zero or probability <= 1e-15:
                continue
            substitution = dict(zip(names, module_values))
            concrete = tuple(
                substitution[name] if name in substitution else value
                for name, value in zip(self.schema.attributes, self.values)
            )
            results[concrete] = results.get(concrete, 0.0) + probability
        return results

    def __repr__(self):
        return f"ResultRow({self.values!r}, Φ={self.annotation!r})"


@dataclass
class QueryResult:
    """Answer pvc-table plus probabilities and per-run diagnostics.

    The common result type of *all* engines (sprout, approx, naive,
    montecarlo); ``engine`` names the engine that produced it.
    ``timings`` keeps the paper's step breakdown; ``stats`` is the
    uniform diagnostics surface — wall time plus engine-specific counters
    (samples drawn, Shannon expansions spent, cache hits, convergence).
    """

    schema: Schema
    rows: list[ResultRow]
    timings: dict[str, float]
    engine: str = "sprout"
    stats: dict = field(default_factory=dict)

    def __iter__(self) -> Iterator[ResultRow]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def to_dicts(self, include_probability: bool = True) -> list[dict]:
        """The rows as attribute dictionaries, probability included.

        Symbolic (semimodule) aggregate values are passed through as-is;
        use the per-row distribution accessors for their distributions.
        """
        dicts = []
        for row in self.rows:
            record = dict(zip(self.schema.attributes, row.values))
            if include_probability:
                record["probability"] = row.probability()
            dicts.append(record)
        return dicts

    def top_k(self, k: int, by: str = "probability") -> "QueryResult":
        """The ``k`` highest-ranked rows as a new :class:`QueryResult`.

        ``by`` is ``"probability"`` (default) or the name of an attribute
        holding concrete (non-symbolic) values.

        Probability ranking is interval-aware: rows sort by interval
        midpoint, and the result's ``stats["top_k_decided"]`` reports
        whether the interval separation already *proves* the selected
        set — every selected row's lower bound at or above every excluded
        row's upper bound.  Anytime consumers
        (:meth:`repro.session.Session.run_iter`) use this as their early
        termination signal: once the membership is decided there is no
        point refining further.

        The flag is exactly as strong as the intervals: exact engines and
        the bounds/(ε, δ) modes back it with their guarantee, while
        legacy fixed-budget Monte-Carlo estimates (plain ``samples=``,
        no spec) are zero-width point estimates *without* one, so their
        "decided" ranking is only as good as the sample.
        """
        stats = dict(self.stats)
        if by == "probability":
            intervals = [row.probability() for row in self.rows]
            order = sorted(
                range(len(self.rows)),
                key=lambda i: (intervals[i].midpoint, intervals[i].high),
                reverse=True,
            )
            selected, excluded = order[:k], order[k:]
            decided = not excluded or not selected or (
                min(intervals[i].low for i in selected)
                >= max(intervals[i].high for i in excluded)
            )
            stats["top_k_decided"] = decided
            rows = [self.rows[i] for i in selected]
        else:
            # Interval separation says nothing about a value ranking; do
            # not carry a verdict over from an earlier probability top-k.
            stats.pop("top_k_decided", None)
            index = self.schema.index(by)
            rows = sorted(
                self.rows, key=lambda row: row.values[index], reverse=True
            )[:k]
        return QueryResult(
            self.schema, rows, dict(self.timings), self.engine, stats
        )

    def tuple_probabilities(self) -> dict[tuple, float]:
        """``P[t ∈ answer]`` over all rows, on fully concrete tuples.

        Matches :meth:`repro.engine.naive.NaiveEngine.tuple_probabilities`
        and is the equivalence interface between the two engines.
        """
        results: dict[tuple, float] = {}
        for row in self.rows:
            for values, probability in row.answer_probabilities().items():
                results[values] = results.get(values, 0.0) + probability
        return results

    def pretty(self) -> str:
        lines = []
        for row in self.rows:
            lines.append(
                f"{row.values!r}  P={row.probability():.6g}  Φ={row.annotation!r}"
            )
        return "\n".join(lines)

    def __repr__(self):
        return f"QueryResult(engine={self.engine!r}, rows={len(self.rows)})"


class Run:
    """One engine run, from entry to result: what every engine does the
    same way, written once.

    Built on entry to ``run``/``run_iter`` from the engine and the spec
    and never stored on the engine.  Building it *is* the acceptance
    check (:func:`repro.engine.spec.accept`: the spec mode and the run
    options against :data:`~repro.engine.spec.ENGINE_TABLE`); it then
    owns the run's one :class:`~repro.resilience.deadline.Deadline`
    (:meth:`scope`), its one stopwatch (:meth:`lap`, :meth:`elapsed` —
    the only clock read under ``engine/``), the timeout policy
    (:meth:`settle`) and the result envelope (:meth:`result`).
    """

    def __init__(self, engine, spec: EvalSpec | None = None, options=None):
        #: The mode asked for; ``None`` when the spec (or its absence)
        #: leaves the engine to answer as it does unasked.
        self.mode = accept(engine.name, spec, options)
        self.engine = engine
        self.spec = spec
        self.deadline = deadline_from_spec(spec)
        #: The step breakdown, one key per step of the engine's table
        #: row; a step never lapped reports ``0.0``.
        self.timings = dict.fromkeys(ENGINE_TABLE[engine.name].steps, 0.0)
        self._start = self._mark = time.perf_counter()

    def scope(self):
        """The run's deadline made ambient (a no-op without one).  A
        generator enters it per refinement round, never across a
        ``yield``: the consumer must not inherit the deadline."""
        return deadline_scope(self.deadline)

    def expired(self) -> bool:
        return self.deadline is not None and self.deadline.expired()

    def elapsed(self) -> float:
        """Seconds since the run began."""
        return time.perf_counter() - self._start

    def lap(self, step: str) -> None:
        """Close ``step``: the time since the previous lap (or the
        start) is added to ``timings[step]``."""
        now = time.perf_counter()
        self.timings[step] += now - self._mark
        self._mark = now

    def result(self, schema: Schema, rows: list, stats: dict) -> "QueryResult":
        """The result envelope: ``stats`` — the engine's own diagnostics
        — gains ``wall_seconds``, ``rows`` and ``db_generation``;
        ``timings`` is the laps so far."""
        stats = {
            "wall_seconds": self.elapsed(),
            "rows": len(rows),
            **stats,
            "db_generation": self.engine.db.generation,
        }
        return QueryResult(
            schema, rows, dict(self.timings), engine=self.engine.name, stats=stats
        )

    def settle(self, result: "QueryResult | None", detail: str) -> "QueryResult":
        """The timeout policy: ``result`` comes back unless its
        ``deadline_hit`` meets ``on_timeout="raise"`` — or there is no
        sound partial at all (``None``), which raises under either
        policy."""
        if result is not None and not (
            result.stats.get("deadline_hit")
            and self.spec is not None
            and self.spec.on_timeout == "raise"
        ):
            return result
        raise QueryTimeoutError(
            f"{self.engine.name} engine ran out of time: {detail}",
            partial=result,
            elapsed=self.elapsed(),
        )


def concrete_result(run: Run, query: Query, probabilities, stats: dict) -> QueryResult:
    """The result of an engine that reports concrete tuples only (naive,
    Monte-Carlo): sorted rows with no symbolic annotation to expose and
    the probability precomputed."""
    schema = query.schema(run.engine.db.catalog())
    rows = [
        ResultRow(schema, values, ONE, None, _probability=probability)
        for values, probability in sorted(
            probabilities.items(), key=lambda kv: repr(kv[0])
        )
    ]
    return run.result(schema, rows, stats)


class SproutEngine:
    """End-to-end probabilistic query answering on pvc-databases.

    >>> # See examples/quickstart.py for a complete walk-through.
    """

    name = "sprout"

    def __init__(
        self,
        db: PVCDatabase,
        distribution_source=None,
        plan_source=None,
        **compiler_options,
    ):
        self.db = db
        self.compiler_options = compiler_options
        #: Optional shared distribution source (a session's
        #: :class:`~repro.cache.CompilationCache`).  When set, runs reuse
        #: it — and its d-tree memo — instead of wrapping a fresh
        #: :class:`Compiler` per query, so repeated and overlapping
        #: annotations never recompile.
        self.distribution_source = distribution_source
        #: Optional prepared-plan memo (a
        #: :class:`~repro.engine.base.PlanCache`; every session owns or
        #: shares one).  Without it every run plans afresh.
        self.plan_source = plan_source

    def prepare(self, query: Query | PreparedQuery) -> PreparedQuery:
        """Run stages 1-2 of step I: logical optimizer + physical planner.

        Memoised in ``plan_source`` on structural query equality plus the
        row counts of the tables the query reads — exactly the statistics
        the greedy join planner consumes, so a write to any other table
        keeps the plan.  A query with a statement ``shape``
        (:func:`~repro.query.sql.bind_template`) the memo has not seen is
        not planned: its shape's template is planned once per row counts
        and kept beside it, and each text binds its values into that plan
        (:meth:`PreparedQuery.bind`).  Only the query's own lookup counts.
        A :class:`PreparedQuery` (the session plans before it picks the
        engine) is its own plan.

        Mutation safety: a :class:`PreparedQuery` is *data-independent*
        (its per-op caches hold compiled accessors, never row data), so
        reuse across mutations is sound.  An equal-size update reuses the
        plan (as a fresh session would plan identically) while
        inserts/deletes on a read table re-plan (as a fresh session
        would).  That keeps post-mutation answers bit-identical to a
        from-scratch session, row order included.
        """
        if isinstance(query, PreparedQuery):
            return query
        plans = self.plan_source
        if plans is None:
            return self._plan(query)
        fingerprint = self._fingerprint(query)
        prepared = plans.get(query, fingerprint)
        if prepared is None:
            if query.shape is None:
                prepared = self._plan(query)
            else:
                template, values = query.shape
                shaped = plans.known(template, fingerprint)
                if shaped is None:
                    shaped = self._plan(template)
                    plans.put(template, fingerprint, shaped)
                prepared = shaped.bind(query, values)
            plans.put(query, fingerprint, prepared)
        return prepared

    def _plan(self, query: Query) -> PreparedQuery:
        return prepare(query, self.db.catalog(), self.db.cardinalities())

    def _fingerprint(self, query: Query) -> tuple:
        """Row counts of the tables ``query`` reads.  An unknown relation
        is left out: the lookup then misses and ``prepare`` raises the
        validation error."""
        tables = self.db.tables
        return tuple(
            (name, len(tables[name]))
            for name in query.base_relations()
            if name in tables
        )

    def rewrite(self, query: Query) -> PVCTable:
        """Step I only: the pvc-table of symbolic result tuples (⟦·⟧)."""
        return self._step_one(query)[0]

    def _step_one(self, query: Query) -> tuple[PVCTable, bool]:
        """``(table, reused)``: step I through the plan memo, whose entry
        keeps the answer for the table epochs it read (see
        :func:`~repro.query.executor.symbolic_answer`)."""
        table, reused = symbolic_answer(self.prepare(query), self.db)
        if reused and self.plan_source is not None:
            self.plan_source.note_answer_reused()
        return table, reused

    def _compiler(self) -> CompilationCache:
        """The distribution source result rows compile through: the
        shared one, else a private cache around this run's compiler."""
        if self.distribution_source is not None:
            return self.distribution_source
        return CompilationCache(
            Compiler(self.db.registry, self.db.semiring, **self.compiler_options)
        )

    def run(
        self,
        query: Query,
        spec: EvalSpec | None = None,
        *,
        compute_probabilities: bool = True,
        **options,
    ) -> QueryResult:
        """Evaluate ``query``; returns rows, probabilities and timings.

        ``spec.workers`` parallelises step II:
        independent result-row annotations (per-group aggregates,
        multi-tuple answers) compile concurrently on a process pool, and
        the per-chunk distributions merge back into the session's
        compilation cache.  Compilation is deterministic, so results are
        identical for any worker count; pool failures degrade to the
        serial path with ``stats["parallel_fallback"]`` recording why.

        Under ``spec.time_limit`` rows compiled in time stay exact and the
        rest report ``[0, 1]`` (``stats["deadline_hit"]``); the
        ``"raise"`` policy raises with that partial attached.
        """
        run = Run(self, spec, options)
        with run.scope():
            table, reused = self._step_one(query)
            run.lap("rewrite_seconds")
            compiler = self._compiler()
            hits_before, misses_before = compiler.hits, compiler.misses
            rows = [
                ResultRow(table.schema, row.values, row.annotation, compiler)
                for row in table
            ]
            stats: dict = {"step1_reused": reused}
            rows_exact = len(rows)
            if compute_probabilities:
                effective = parallel.resolve_workers(
                    None if spec is None else spec.workers
                )
                if effective is not None:
                    stats.update(
                        self._parallel_distributions(rows, compiler, effective)
                    )
                # Per-row cooperative deadline loop.  Step I enumerated the
                # *complete* candidate row set above, so degrading here is
                # sound: rows compiled before the deadline (by the pool too)
                # keep their exact zero-width intervals, the rest [0, 1].
                deadline = current_deadline()
                rows_exact = 0
                for row in rows:
                    if row._annotation_dist is None and (
                        "deadline_hit" in stats
                        or (deadline is not None and deadline.expired())
                    ):
                        stats["deadline_hit"] = True
                        row._probability = ProbInterval.unknown()
                        continue
                    fault_point("engine.sprout.row")
                    try:
                        row.probability()
                    except DeadlineExceeded:
                        # The ⊔-node checkpoint fired mid-compile; this
                        # row's d-tree is incomplete, so it is unknown too.
                        stats["deadline_hit"] = True
                        row._probability = ProbInterval.unknown()
                        continue
                    rows_exact += 1
                if "deadline_hit" in stats:
                    stats["rows_exact"] = rows_exact
                run.lap("probability_seconds")
        stats["cache_hits"] = compiler.hits - hits_before
        stats["cache_misses"] = compiler.misses - misses_before
        return run.settle(
            run.result(table.schema, rows, stats),
            f"{rows_exact} of {len(rows)} rows exact",
        )

    def run_iter(self, query: Query, spec: EvalSpec | None = None, **options):
        """One-shot engine: yields its single :meth:`run`."""
        yield self.run(query, spec, **options)

    def _parallel_distributions(
        self, rows: list[ResultRow], source: CompilationCache, workers: int
    ) -> dict:
        """Compile the rows' annotation distributions across a pool.

        Tasks are chunks of *unique, normalized, not-yet-cached*
        annotations; results are written onto the rows' distribution
        memo and absorbed into the distribution source (so later runs,
        ``pretty()`` calls, and accessor lookups hit the cache exactly
        as if the compile had happened in-process).  A round that runs
        out of time keeps what its chunks finished and marks
        ``deadline_hit``.  Under a ``max_mutex_nodes`` budget the fan-out
        declines: what a row spends depends on the d-tree memo it runs
        against, and a chunk's memo is not the serial loop's.
        """
        if self.compiler_options.get("max_mutex_nodes") is not None:
            return {"workers": 1}
        # Read the registry epoch before anything is looked up or fanned
        # out: workers fork with the current registry, and absorb() drops
        # a result one of whose variables was reassigned after this.
        epoch = self.db.registry.epoch
        by_key: dict = {}
        for row in rows:
            key = source.normalize(row.annotation)
            if not key.variables:
                continue  # constant annotation: compiling it is trivial
            existing = source.cached(key)
            if existing is not None:
                row._annotation_dist = existing
                continue
            by_key.setdefault(key, []).append(row)
        pending = list(by_key)
        stats = {"parallel_compiled": len(pending)}
        if len(pending) < 2:
            stats["workers"] = 1
            return stats
        chunk_count = min(len(pending), workers * 4)
        chunks = [pending[i::chunk_count] for i in range(chunk_count)]
        context = (self.db.registry, self.db.semiring, self.compiler_options)
        try:
            results, info = parallel.execute(
                distribution_task, context, chunks, workers
            )
        except DeadlineExceeded:
            stats["deadline_hit"] = True
            return stats
        stats.update(info)
        for chunk, (distributions, _) in zip(chunks, results):
            for key, distribution in zip(chunk, distributions):
                if distribution is None:  # the chunk ran out of time here
                    stats["deadline_hit"] = True
                    continue
                for row in by_key[key]:
                    row._annotation_dist = distribution
                source.absorb(key, distribution, epoch)
        stats["parallel_mutex_nodes"] = sum(nodes for _, nodes in results)
        return stats

    def deterministic_baseline(self, query: Query) -> tuple[Relation, float]:
        """The paper's Q0: run the query with every tuple certainly present.

        Returns the deterministic answer and the wall-clock time, i.e. the
        cost of query processing without any expression or probability
        machinery.  Planning and building that certain world are not
        timed; the world holds only the tables ``query`` reads.
        """
        prepared = self.prepare(query)
        semiring = self.db.semiring
        one = semiring.one
        constant = Valuation({}, semiring)
        world = {}
        for name in set(query.base_relations()):
            table = self.db.tables[name]
            rel = world[name] = Relation(table.schema, semiring)
            for row in table:
                rel.add(
                    tuple(
                        constant(v) if isinstance(v, ModuleExpr) else v
                        for v in row.values
                    ),
                    one,
                )
        run = Run(self)
        result = execute_deterministic(prepared, world, semiring)
        return result, run.elapsed()
