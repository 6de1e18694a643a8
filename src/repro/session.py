"""The unified ``Session`` facade — one front door to the whole stack.

The paper's architecture (Section 7) is a two-step pipeline: symbolic
rewriting (⟦·⟧) followed by d-tree compilation (P(·)).  A :class:`Session`
owns the pieces every caller previously hand-assembled — the
:class:`~repro.prob.variables.VariableRegistry`, the
:class:`~repro.db.pvc_table.PVCDatabase`, a persistent
:class:`~repro.core.compile.Compiler` behind a
:class:`~repro.cache.CompilationCache`, a
:class:`~repro.engine.base.PlanCache` — and exposes:

* fluent table definition with auto-minted Bernoulli variables::

      s = connect()
      items = s.table("items", ["name", "price"])
      items.insert(("inkjet", 99), p=0.7)

* a lazy fluent query builder lowering to :mod:`repro.query.ast`::

      items.where(cmp_("price", "<=", lit(300))).group_by("category") \\
           .agg(total=sum_("price")).run()

* a SQL front door: ``s.sql("SELECT SUM(price) AS t FROM items")``;
* pluggable engines behind one :class:`~repro.engine.base.Engine`
  protocol, with ``engine="auto"`` dispatching on the Section-6
  tractability analysis *and* the evaluation spec (exact compilation
  when provably tractable, guaranteed approximation — deterministic
  ε-bounds or sequential (ε, δ) Monte-Carlo — otherwise);
* anytime answers: ``run_iter()`` yields progressively refined
  interval-valued results, and ``with connect() as s:`` scopes the
  session's caches;
* reproducibility: ``connect(seed=N)`` seeds the Monte-Carlo engine and
  the Eq.-11 workload generator.
"""

from __future__ import annotations

from dataclasses import replace as _replace

from repro.algebra.semiring import BOOLEAN, Semiring
from repro.core.compile import Compiler
from repro.db.pvc_table import PVCDatabase, PVCTable
from repro.db.schema import Schema
from repro.engine.base import (
    ENGINE_NAMES,
    CompilationCache,
    Engine,
    PlanCache,
    create_engine,
    select_engine_name,
)
from repro.engine.spec import (
    ENGINE_TABLE,
    EvalSpec,
    check_mode,
    degraded_mode,
    implied_mode,
    is_positive_int,
)
from repro.engine.sprout import QueryResult
from repro.errors import QueryValidationError, SchemaError
from repro.prob.variables import VariableRegistry
from repro.query.ast import Query, relation
from repro.query.builder import QueryBuilder
from repro.query.executor import prepare
from repro.query.physical import explain_plan
from repro.query.sql import parse_sql
from repro.query.tractability import (
    Classification,
    classify_query,
    tuple_independent_relations,
)
from repro.query.validate import validate_query

__all__ = ["Session", "TableHandle", "connect"]

#: The engines whose step I runs through the session's plan memo.
_PLANNED_ENGINES = ("sprout", "approx")


class TableHandle(QueryBuilder):
    """A named table that is both an insert target and a query root."""

    def __init__(self, session: "Session", name: str):
        super().__init__(relation(name), session)
        self.name = name

    @property
    def table(self) -> PVCTable:
        return self._session.db[self.name]

    @property
    def schema(self):
        return self.table.schema

    def insert(self, values, p=None, annotation=None, var=None) -> "TableHandle":
        """Insert one row; ``p`` auto-mints a Bernoulli variable.

        Returns the handle, so inserts chain fluently.  ``values`` may be
        a positional tuple or an attribute dictionary; see
        :meth:`repro.db.pvc_table.PVCDatabase.insert`.
        """
        self._session.db.insert(
            self.name, values, p=p, annotation=annotation, var=var
        )
        return self

    def insert_many(self, rows) -> "TableHandle":
        """Insert ``(values, probability)`` pairs in bulk."""
        for values, p in rows:
            self.insert(values, p=p)
        return self

    def insert_block(self, alternatives, var=None) -> "TableHandle":
        """Insert mutually exclusive alternatives (a BID block)."""
        self._session.db.insert_block(self.name, alternatives, var=var)
        return self

    def update(self, where, set_values=None, p=None) -> int:
        """Update matching rows in place; returns the match count.

        ``where`` is an attribute mapping (equality match) or a predicate
        over the row's value dict.  ``set_values`` rewrites attribute
        values; ``p`` reassigns the matched rows' Bernoulli marginals.
        Dependent cached distributions are invalidated by lineage — see
        :meth:`repro.db.pvc_table.PVCDatabase.update`.
        """
        return self._session.db.update(
            self.name, where, set_values=set_values, p=p
        )

    def delete(self, where) -> int:
        """Delete matching rows; returns the number removed."""
        return self._session.db.delete(self.name, where)

    def __len__(self) -> int:
        return len(self.table)

    def pretty(self, max_rows: int = 20) -> str:
        return self.table.pretty(max_rows)

    def __repr__(self):
        return f"TableHandle({self.name!r}, {len(self)} rows)"


class Session:
    """One connection-like object owning registry, database and caches."""

    def __init__(
        self,
        semiring: Semiring = BOOLEAN,
        engine: str = "auto",
        seed: int | None = None,
        samples: int = 1000,
        database: PVCDatabase | None = None,
        cache: CompilationCache | None = None,
        plan_cache: PlanCache | None = None,
        **compiler_options,
    ):
        if engine != "auto" and engine not in ENGINE_NAMES:
            raise QueryValidationError(
                f"unknown engine {engine!r}; expected 'auto' or one of "
                f"{list(ENGINE_NAMES)}"
            )
        if database is not None:
            if semiring != BOOLEAN and semiring != database.semiring:
                raise QueryValidationError(
                    f"semiring {semiring!r} conflicts with the adopted "
                    f"database's semiring {database.semiring!r}; omit "
                    f"semiring= when passing database="
                )
            self.db = database
        else:
            self.db = PVCDatabase(registry=VariableRegistry(), semiring=semiring)
        self.registry = self.db.registry
        self.semiring = self.db.semiring
        self.default_engine = engine
        self.seed = seed
        self.samples = samples
        self.compiler_options = compiler_options
        if cache is not None:
            # Adopt a shared (usually server-wide) distribution cache: the
            # session then contributes to and benefits from every other
            # session sharing it.  The cache's compiler must speak this
            # session's registry and semiring — anything else would mix
            # distributions of unrelated variable spaces.
            if cache.registry is not self.registry:
                raise QueryValidationError(
                    "a shared CompilationCache must be built on the same "
                    "variable registry as the session's database"
                )
            if cache.semiring != self.semiring:
                raise QueryValidationError(
                    f"shared CompilationCache semiring {cache.semiring!r} "
                    f"conflicts with the session semiring {self.semiring!r}"
                )
            self.cache = cache
            #: A shared cache outlives this session; ``close()`` must not
            #: flush the other tenants' warm entries.
            self._owns_cache = False
        else:
            #: Distribution cache keyed on normalized annotations; wraps
            #: the persistent compiler whose d-tree memo is shared by
            #: every sprout run of this session.
            self.cache = CompilationCache(
                Compiler(self.registry, self.semiring, **compiler_options)
            )
            self._owns_cache = True
        #: The one memo of prepared plans, owned like :attr:`cache` unless
        #: a shared instance was injected.  Entries self-invalidate via
        #: cardinality fingerprints.
        self._owns_plan_cache = plan_cache is None
        self.plan_cache = PlanCache() if plan_cache is None else plan_cache
        self._engines: dict[str, Engine] = {}

    @property
    def compiler(self) -> Compiler:
        """The cache's current persistent compiler.

        A property rather than a snapshot: the cache replaces its
        compiler when it finds variable distributions reassigned, and a
        stale reference would compile against dead distributions.
        """
        return self.cache.compiler

    # -- schema and data ------------------------------------------------------

    def table(
        self,
        name: str,
        columns=None,
        aggregation_attributes=(),
    ) -> TableHandle:
        """A handle for table ``name``, creating it when ``columns`` given.

        ``s.table("items", ["name", "price"])`` creates the table (error
        if one exists with a different schema); ``s.table("items")``
        requires it to exist.
        """
        if columns is not None:
            if name in self.db:
                wanted = Schema(columns, aggregation_attributes)
                if self.db[name].schema != wanted:
                    raise SchemaError(
                        f"table {name!r} already exists with schema "
                        f"{self.db[name].schema!r}, not {wanted!r}"
                    )
            else:
                self.db.create_table(name, columns, aggregation_attributes)
        else:
            self.db[name]  # raises SchemaError when absent
        return TableHandle(self, name)

    @property
    def tables(self) -> dict[str, PVCTable]:
        return self.db.tables

    # -- engines --------------------------------------------------------------

    def engine(self, name: str) -> Engine:
        """The (cached) engine registered under ``name``."""
        engine = self._engines.get(name)
        if engine is None:
            engine = create_engine(
                name,
                self.db,
                distribution_source=self.cache,
                plan_source=self.plan_cache,
                seed=self.seed,
                samples=self.samples,
                **self.compiler_options,
            )
            self._engines[name] = engine
        return engine

    def _lower(self, query) -> Query:
        """Accept AST nodes, builders, and SQL strings uniformly."""
        if isinstance(query, QueryBuilder):
            return query.build()
        if isinstance(query, str):
            return parse_sql(query)
        if isinstance(query, Query):
            return query
        raise QueryValidationError(
            f"cannot run {query!r}; expected a Query, QueryBuilder, or SQL"
        )

    def _build_spec(
        self,
        engine_name,
        spec,
        mode,
        epsilon,
        delta,
        budget,
        time_limit,
        workers=None,
        on_timeout=None,
    ) -> EvalSpec | None:
        """The :class:`EvalSpec` the caller asked for, or ``None``.

        ``None`` (nothing requested) preserves the legacy point-answer
        behavior of every engine.  When answer-*quality* fields
        (``epsilon``/``delta``/``budget``/``time_limit``) are given
        without a mode, the chosen engine (explicit or the session
        default) implies one, per
        :data:`~repro.engine.spec.ENGINE_TABLE`.  ``workers`` and
        ``on_timeout`` tune *execution* and never imply a mode: on their
        own they yield an execution-only spec that keeps every engine's
        answer semantics unchanged (the Monte-Carlo engine runs its
        fixed-budget estimator rather than switching to sequential
        stopping).
        """
        if spec is None and all(
            value is None
            for value in (
                mode, epsilon, delta, budget, time_limit, workers,
                on_timeout,
            )
        ):
            return None
        if spec is None and mode is None and any(
            value is not None for value in (epsilon, delta, budget, time_limit)
        ):
            mode = implied_mode(engine_name)
        built = EvalSpec.make(
            spec,
            mode=mode,
            epsilon=epsilon,
            delta=delta,
            budget=budget,
            time_limit=time_limit,
            workers=workers,
            on_timeout=on_timeout,
        )
        if engine_name in ENGINE_TABLE and (
            mode is not None or isinstance(spec, str)
        ):
            # Only here is an *explicit* mode told from the default one
            # an execution-only spec carries — the engine sees equal
            # EvalSpec values for both — so `workers=` can never launder
            # an exact request into samples.
            check_mode(engine_name, built.mode)
        return built

    def _resolve(self, query, engine, samples, spec, options):
        """Common dispatch of :meth:`run` and :meth:`run_iter`.

        Lowers and validates the query, resolves ``engine="auto"`` on the
        tractability classification *and* the spec, and returns
        ``(query, engine_name, spec)`` with ``options`` updated in place.
        For an engine that plans through the session's plan memo the
        query comes back as its plan, so a run looks the plan up once.
        """
        query = self._lower(query)
        name = engine
        auto = name == "auto"
        prepared = None
        if auto or name in _PLANNED_ENGINES:
            # Planning validates first, so schema errors surface before
            # engine selection; a kept plan was validated when made.
            prepared = self.engine("sprout").prepare(query)
        else:
            validate_query(query, self.db.catalog())
        if auto:
            name, classification = select_engine_name(
                self.db, query, spec=spec, prepared=prepared
            )
            if not classification.tractable:
                # Hard query: exact intent degrades to *guaranteed*
                # approximation — deterministic ε-bounds — rather than an
                # unqualified estimate (an anytime mode stays as asked).
                # engine='sprout' forces exact compilation.
                spec = spec or EvalSpec()
                spec = _replace(spec, mode=degraded_mode(spec.mode))
        if samples is not None:
            if not is_positive_int(samples):
                raise QueryValidationError(
                    f"samples must be a positive integer, got {samples!r}"
                )
            row = ENGINE_TABLE.get(name)
            if row is not None and "samples" in row.options:
                options["samples"] = samples
            elif not auto:
                raise QueryValidationError(
                    f"engine {name!r} does not take a sample budget"
                )
        if name in _PLANNED_ENGINES:
            query = prepared
        return query, name, spec

    def run(
        self,
        query,
        engine: str | None = None,
        samples: int | None = None,
        spec: EvalSpec | str | None = None,
        mode: str | None = None,
        epsilon: float | None = None,
        delta: float | None = None,
        budget: int | None = None,
        time_limit: float | None = None,
        workers: int | str | None = None,
        on_timeout: str | None = None,
        **options,
    ) -> QueryResult:
        """Evaluate ``query`` and return a :class:`QueryResult`.

        ``engine`` overrides the session default; ``engine="auto"``
        dispatches on the tractability classification and the spec: exact
        compilation when provably tractable, otherwise a *guaranteed*
        approximation (deterministic ε-bounds, or sequential Monte-Carlo
        when the spec mode is ``"sample"``).

        *How* to answer is an :class:`EvalSpec` — pass one via ``spec=``
        or assemble it inline with ``mode=``/``epsilon=``/``delta=``/
        ``budget=``/``time_limit=``::

            s.run(q, mode="approx", epsilon=0.01)      # widths ≤ 0.01
            s.run(q, mode="sample", epsilon=0.05, delta=0.01)

        Every row's probability is a
        :class:`~repro.engine.spec.ProbInterval` (zero-width when exact),
        and ``result.stats`` carries the per-run diagnostics uniformly
        across engines.  ``samples`` remains the legacy fixed budget of
        the Monte-Carlo engine.  ``workers`` (``int | "auto"``) runs the
        engine's multi-core scheme (see :class:`EvalSpec`) with seeded
        results bit-identical for any worker count.  Extra ``options``
        are forwarded to the engine, which takes the ones its row of
        :data:`~repro.engine.spec.ENGINE_TABLE` lists.

        ``time_limit`` is honoured *end to end* — including inside exact
        compilation — and ``on_timeout`` picks the policy when it trips:
        ``"partial"`` (default) returns the best sound answer obtained so
        far, ``"raise"`` raises
        :class:`~repro.errors.QueryTimeoutError` carrying that partial.
        """
        engine = self.default_engine if engine is None else engine
        spec = self._build_spec(
            engine, spec, mode, epsilon, delta, budget, time_limit, workers,
            on_timeout,
        )
        query, name, spec = self._resolve(query, engine, samples, spec, options)
        return self.engine(name).run(query, spec=spec, **options)

    def run_iter(
        self,
        query,
        engine: str | None = None,
        spec: EvalSpec | str | None = None,
        mode: str | None = None,
        epsilon: float | None = None,
        delta: float | None = None,
        budget: int | None = None,
        time_limit: float | None = None,
        workers: int | str | None = None,
        on_timeout: str | None = None,
        **options,
    ):
        """Anytime evaluation: yield progressively refined results.

        Engines that refine incrementally (``approx``, ``montecarlo``
        under a ``"sample"`` spec) yield a :class:`QueryResult` snapshot
        after every refinement round — each snapshot's intervals are
        sound, and they tighten monotonically.  One-shot engines yield
        their single exact result.  Consumers stop whenever the answer is
        good enough::

            for snapshot in s.run_iter(q, mode="approx", epsilon=0.001):
                top = snapshot.top_k(3)
                if top.stats["top_k_decided"]:
                    break
        """
        engine = self.default_engine if engine is None else engine
        spec = self._build_spec(
            engine, spec, mode, epsilon, delta, budget, time_limit, workers,
            on_timeout,
        )
        native = implied_mode(engine)
        if native is not None and (spec is None or spec.execution_only):
            # Anytime iteration needs a target: the default spec in the
            # engine's own mode (a workers-only spec keeps its workers,
            # gains the mode).
            spec = _replace(spec or EvalSpec(), mode=native)
        query, name, spec = self._resolve(query, engine, None, spec, options)
        yield from self.engine(name).run_iter(query, spec=spec, **options)

    def sql(self, text: str, engine: str | None = None, **options) -> QueryResult:
        """Parse SQL and evaluate it through :meth:`run` (same keywords,
        including ``spec=``/``mode=``/``epsilon=``...)."""
        return self.run(parse_sql(text), engine=engine, **options)

    # -- analysis and lower-level access --------------------------------------

    def tuple_independent_relations(self) -> frozenset:
        """The database's tuple-independent tables.

        :func:`~repro.query.tractability.tuple_independent_relations`
        over this session's database: read from the independence facts
        each table's write path maintains and memoised on the database
        itself, so every session (tenant) over it shares one answer and
        no call scans rows.
        """
        return tuple_independent_relations(self.db)

    def classify(self, query) -> Classification:
        """Static ``Q_ind``/``Q_hie`` classification of ``query``."""
        query = self._lower(query)
        return classify_query(
            query, self.db.catalog(), self.tuple_independent_relations()
        )

    def rewrite(self, query):
        """Step I only: the pvc-table of symbolic result tuples (⟦·⟧) —
        through the sprout engine's ``prepare``, like every run; the
        table is the caller's own."""
        return self.engine("sprout").rewrite(self._lower(query))

    def explain(
        self, query, *, optimize: bool = True, format: str = "plan"
    ) -> str:
        """The step-I pipeline for ``query``, as a human-readable report.

        With the default ``format="plan"``, shows the logical plan before
        and after the rule-based optimizer (with the names of the rules
        that fired, per fixpoint pass) and the physical operator tree —
        hash joins, their greedy order and cardinality estimates — that
        the shared executor would run.

        Any other ``format`` raises
        :class:`~repro.errors.QueryValidationError`.

        >>> s = connect()
        >>> _ = s.table("items", ["name", "price"]).insert(("inkjet", 99))
        >>> print(s.explain("SELECT name FROM items"))  # doctest: +ELLIPSIS
        == logical plan ==
        ...
        """
        if format != "plan":
            raise QueryValidationError(
                f"unknown explain format {format!r}; expected 'plan'"
            )
        lowered = self._lower(query)
        prepared = prepare(  # validates against Definition 5 first
            lowered,
            self.db.catalog(),
            self.db.cardinalities(),
            optimize=optimize,
        )
        lines = ["== logical plan ==", f"input:     {prepared.query!r}"]
        if prepared.trace:
            lines.append(f"optimized: {prepared.optimized!r}")
            fired = ", ".join(
                f"{firing.name} (pass {firing.pass_no})"
                for firing in prepared.trace
            )
            lines.append(f"rules fired: {fired}")
        else:
            lines.append("rules fired: (none)")
        lines.append("")
        lines.append("== physical plan ==")
        lines.append(explain_plan(prepared.plan))
        return "\n".join(lines)

    def deterministic_baseline(self, query):
        """The paper's Q0 timing baseline; see
        :meth:`repro.engine.sprout.SproutEngine.deterministic_baseline`."""
        return self.engine("sprout").deterministic_baseline(
            self._lower(query)
        )

    def distribution(self, expr):
        """Distribution of a raw algebra expression, via the session cache."""
        return self.cache.distribution(expr)

    def probability(self, expr, value=None) -> float:
        """P[expr = value]; ``value`` defaults to the semiring's ``1_S``."""
        if value is None:
            value = self.semiring.one
        return self.distribution(expr)[value]

    def workload(self, params, seed: int | None = None):
        """One Eq.-11 workload condition, seeded by the session.

        Thin veneer over
        :func:`repro.workloads.random_expr.generate_condition` that plumbs
        ``connect(seed=...)`` through, so synthetic-benchmark runs are
        reproducible from the facade.
        """
        from repro.workloads.random_expr import generate_condition

        return generate_condition(params, seed=self.seed if seed is None else seed)

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Release the session-owned caches.

        Clears the :class:`CompilationCache` (including the persistent
        compiler's d-tree memo) *only when this session owns it* — a
        shared server-level cache, injected via ``cache=``, serves other
        tenants and must survive one tenant's close (clearing it here
        used to flush every tenant's warm entries); likewise the
        :class:`PlanCache`.  Cached engines are always dropped; the
        session stays usable afterwards — data and registry are
        untouched; later runs simply re-plan and recompile.
        """
        if self._owns_cache:
            self.cache.clear()
        if self._owns_plan_cache:
            self.plan_cache.clear()
        self._engines.clear()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __repr__(self):
        inner = ", ".join(
            f"{name}({len(table)})" for name, table in sorted(self.tables.items())
        )
        return (
            f"Session[{self.semiring.name}, engine={self.default_engine!r}]"
            f"({inner})"
        )


def connect(
    semiring: Semiring = BOOLEAN,
    engine: str = "auto",
    seed: int | None = None,
    samples: int = 1000,
    database: PVCDatabase | None = None,
    cache: CompilationCache | None = None,
    plan_cache: PlanCache | None = None,
    **compiler_options,
) -> Session:
    """Open a :class:`Session` — the primary entry point of the library.

    >>> s = connect()
    >>> _ = s.table("items", ["name", "price"]).insert(("inkjet", 99), p=0.7)
    >>> result = s.sql("SELECT SUM(price) AS total FROM items")
    >>> len(result)
    1

    ``engine`` may be ``"auto"`` (default: exact compilation for provably
    tractable queries, guaranteed ε-approximation otherwise),
    ``"sprout"``, ``"approx"``, ``"naive"``, or ``"montecarlo"``.
    ``seed`` makes Monte-Carlo runs and generated workloads
    reproducible.  An existing :class:`PVCDatabase` can be adopted via
    ``database=``; multi-tenant deployments (see :mod:`repro.server`)
    additionally share one ``cache=`` (a
    :class:`~repro.cache.CompilationCache`) and one ``plan_cache=``
    (a :class:`~repro.engine.base.PlanCache`) across many sessions over
    the same database.  Sessions are context managers —
    ``with connect() as s: ...`` clears the compilation caches on exit.
    """
    return Session(
        semiring=semiring,
        engine=engine,
        seed=seed,
        samples=samples,
        database=database,
        cache=cache,
        plan_cache=plan_cache,
        **compiler_options,
    )
