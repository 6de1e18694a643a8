"""The pluggable ``Engine`` protocol, the engine factory and the caches.

Every engine in the library answers the same question — ``P[t ∈ answer]``
for a ``Q``-algebra query over a pvc-database — behind one front door:

* :class:`Engine` — the protocol (``name``, ``run(query, spec=None) ->
  QueryResult`` and ``run_iter``, which yields refinement snapshots on
  the engines that refine and the single ``run`` on the others).
  :class:`~repro.engine.sprout.SproutEngine`,
  :class:`~repro.engine.approximate.ApproxEngine`,
  :class:`~repro.engine.naive.NaiveEngine` and
  :class:`~repro.engine.montecarlo.MonteCarloEngine` implement it
  themselves, all returning the **same** :class:`QueryResult` type, with
  probabilities as :class:`~repro.engine.spec.ProbInterval` values
  (zero-width when exact) and uniform per-run diagnostics in
  ``QueryResult.stats``;
* :class:`~repro.engine.spec.EvalSpec` — *how* to answer (``exact``,
  ``approx`` with deterministic ε-bounds, or ``sample`` with (ε, δ)
  confidence intervals), threaded from the session into every engine;
* :func:`create_engine` — the factory keyed on engine names;
* :func:`select_engine_name` — the ``engine="auto"`` policy: exact
  compilation for queries the Section-6 analysis proves tractable;
  queries outside the tractable classes degrade to a *guaranteed*
  approximation per the spec (budgeted d-tree bounds by default,
  sequential Monte-Carlo when the spec asks to sample) instead of an
  unqualified estimate;
* :class:`CompilationCache` — a shared distribution cache keyed on
  normalized annotations, so repeated and overlapping rows across runs
  never recompile the same d-tree;
* :class:`PlanCache` — the one memo of prepared physical plans.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.algebra.expressions import Expr
from repro.cache import BoundedLRU, capture_stamp
from repro.core.compile import Compiler
from repro.db.mutations import LineageIndex
from repro.db.pvc_table import PVCDatabase
from repro.engine.approximate import ApproxEngine
from repro.engine.montecarlo import MonteCarloEngine
from repro.engine.naive import NaiveEngine
from repro.engine.spec import (
    ENGINE_TABLE,
    EVAL_MODES,
    EvalSpec,
    degraded_mode,
    native_engine,
)
from repro.engine.sprout import QueryResult, SproutEngine
from repro.errors import QueryValidationError
from repro.prob.distribution import Distribution
from repro.query.ast import Query
from repro.query.tractability import (
    Classification,
    classify_query,
    tuple_independent_relations,
)

__all__ = [
    "Engine",
    "ENGINE_NAMES",
    "CompilationCache",
    "PlanCache",
    "create_engine",
    "select_engine_name",
]

#: The registered engine names, in preference order.
ENGINE_NAMES = tuple(ENGINE_TABLE)


@runtime_checkable
class Engine(Protocol):
    """An engine answers queries on a pvc-database with a QueryResult."""

    name: str

    def run(
        self, query: Query, spec: EvalSpec | None = None, **options
    ) -> QueryResult:
        """Evaluate ``query`` under ``spec``; rows carry ProbIntervals."""
        ...

    def run_iter(self, query: Query, spec: EvalSpec | None = None, **options):
        """Yield sound :class:`QueryResult` snapshots, the last one final."""
        ...


class CompilationCache(BoundedLRU):
    """Distribution cache keyed on normalized annotations.

    Wraps one persistent :class:`Compiler`, whose d-tree memo already
    shares work between *overlapping* annotations; this cache additionally
    short-circuits *repeated* annotations (the same normalized expression
    across rows, runs, or ``pretty()``/accessor calls) to a stored
    :class:`Distribution` without touching the compiler at all.

    Duck-types the ``distribution``/``semiring`` surface of
    :class:`Compiler`, so it can stand in wherever result rows expect a
    distribution source.

    ``max_entries`` bounds the cache (see :class:`~repro.cache.BoundedLRU`).
    ``None`` keeps the legacy unbounded behavior of a private per-session
    cache; the query server shares one *bounded* instance across every
    tenant session.

    All operations are safe under concurrent access from threads (the
    server's executor pool): the LRU's reentrant lock also serializes
    compilation, :meth:`absorb` and :meth:`clear` — the wrapped
    compiler's memo tables are not designed for concurrent mutation, and
    under the GIL serializing the CPU-bound compile costs nothing
    (multi-core compilation goes through the :mod:`repro.parallel`
    process pool instead).
    """

    #: Lock discipline for what this class writes beside the LRU's own
    #: methods (``misses``: an absorbed entry counts as one).
    _shared_state_ = {
        "_lock": (
            "misses",
            "invalidations",
            "data_generation",
            "compiler",
            "_lineage",
        ),
    }

    def __init__(self, compiler: Compiler, max_entries: int | None = None):
        #: Variable → dependent cache keys: the lineage index driving
        #: selective invalidation.  A compiled distribution depends on
        #: nothing but the distributions of its variables, so this is the
        #: *exact* dependency set — value edits, inserts and deletes never
        #: invalidate anything here.
        self._lineage = LineageIndex()
        super().__init__(max_entries, on_evict=self._lineage.discard)
        self.compiler = compiler
        #: Entries dropped by lineage invalidation (vs LRU ``evictions``).
        self.invalidations = 0
        #: Bumped whenever stored distributions may have become invalid
        #: (a variable's distribution changed).  Parallel fan-outs record
        #: it before compiling and pass it back to :meth:`absorb`, so a
        #: worker result computed against a pre-mutation registry can
        #: never be stored after the invalidation ran.
        self.data_generation = 0

    @property
    def semiring(self):
        return self.compiler.semiring

    @property
    def registry(self):
        return self.compiler.registry

    def _store_locked(self, key: Expr, distribution: Distribution) -> None:
        """Store ``distribution`` with its lineage (lock held)."""
        self._lineage.record(key, key.variables)
        self.store(key, distribution)

    def distribution(self, expr: Expr) -> Distribution:
        with self._lock:
            key = self.compiler.normalize(expr)
            cached = self.lookup(key)
            if cached is None:
                cached = self.compiler.distribution(key)
                self._store_locked(key, cached)
            return cached

    def normalize(self, expr: Expr) -> Expr:
        """The cache's key function (the compiler's normal form)."""
        with self._lock:
            return self.compiler.normalize(expr)

    def cached(self, key: Expr) -> Distribution | None:
        """The stored distribution of an already-normalized key, if any."""
        return self.peek(key)

    def absorb(
        self,
        key: Expr,
        distribution: Distribution,
        generation: int | None = None,
    ) -> None:
        """Merge one externally compiled distribution into the cache.

        The parallel compilation fan-out calls this with per-worker
        results: ``key`` must already be normalized.  The entry counts as
        a miss — the compile work happened, just in another process — so
        hit/miss accounting stays comparable with serial runs.

        ``generation`` (when given) is the :attr:`data_generation` the
        caller observed before fanning out; a mismatch means a mutation
        invalidated distributions mid-flight and the worker's result is
        silently discarded rather than stored stale.
        """
        with self._lock:
            if generation is not None and generation != self.data_generation:
                return
            if key not in self:
                self.misses += 1
                self._store_locked(key, distribution)

    def compile(self, expr: Expr):
        with self._lock:
            return self.compiler.compile(expr)

    def _rebuild_compiler_locked(self) -> None:
        """Replace the wrapped compiler, dropping its d-tree memo."""
        self.compiler = Compiler(
            self.compiler.registry,
            self.compiler.semiring,
            heuristic=self.compiler.choose_variable,
            pruning=self.compiler.pruning,
            max_mutex_nodes=self.compiler.max_mutex_nodes,
        )

    def clear(self) -> None:
        """Drop every cached distribution and the compiler's d-tree memo.

        Used by ``Session.close()`` on session-owned caches; the cache
        remains usable afterwards (a closed-and-reused session simply
        recompiles on demand).
        """
        with self._lock:
            super().clear()
            self._lineage.clear()
            self.data_generation += 1
            self._rebuild_compiler_locked()

    def invalidate_variables(self, names) -> int:
        """Drop exactly the entries whose lineage mentions ``names``.

        Called when variable distributions are reassigned (``UPDATE ...
        p=``).  Every other stored distribution survives — its lineage is
        untouched, so it is still correct.  The wrapped compiler's
        internal d-tree memo cannot be pruned selectively and is rebuilt;
        surviving entries keep short-circuiting repeated annotations,
        which is where the warm-path work lives.  Returns the number of
        entries dropped.
        """
        with self._lock:
            doomed = self._lineage.pop(names)
            for key in doomed:
                self.discard(key)
            self.invalidations += len(doomed)
            self.data_generation += 1
            self._rebuild_compiler_locked()
            return len(doomed)

    def on_mutation(self, delta) -> None:
        """Database mutation listener (see :meth:`watch`).

        Only distribution changes touch this cache: annotations are
        lineage, and a stored distribution is a pure function of its
        variables' distributions — inserts, deletes and value updates
        leave every entry valid.
        """
        if delta.changed_variables:
            self.invalidate_variables(delta.changed_variables)

    def watch(self, db) -> None:
        """Subscribe to ``db``'s mutation feed (idempotent per database).

        Sessions call this for their own database; the query server calls
        it once for the shared database, so one tenant's probability
        update invalidates the affected entries for every tenant.
        """
        db.subscribe(self.on_mutation)

    def stats(self) -> dict:
        """The LRU counters plus ``invalidations``/``data_generation``."""
        with self._lock:
            return {
                **super().stats(),
                "invalidations": self.invalidations,
                "data_generation": self.data_generation,
            }


class PlanCache(BoundedLRU):
    """Bounded LRU of prepared physical plans — the one plan memo.

    Keyed on ``(query, fingerprint)`` — query AST nodes compare and hash
    structurally, and the fingerprint (the row counts of the tables the
    query reads, see :meth:`SproutEngine.prepare
    <repro.engine.sprout.SproutEngine.prepare>`) invalidates plans whose
    greedy join order was chosen for different statistics.  Every session
    owns one unless handed a shared instance: the query server hands
    every tenant session the same cache, so a statement one tenant
    prepared skips the optimizer and physical planner for every other
    tenant.  Thread-safe like :class:`CompilationCache`.

    An entry also carries its plan's step-I answer
    (:func:`~repro.query.executor.symbolic_answer`), so the answers kept
    are bounded by ``max_entries`` and go when the plan goes — evicted,
    re-keyed by an insert or delete, or cleared by ``Session.close()``.
    ``answers_reused`` counts the executions served from a slot.
    """

    #: What this class writes beside the LRU's own methods.
    _shared_state_ = {"_lock": ("answers_reused",)}

    def __init__(self, max_entries: int | None = 256):
        super().__init__(max_entries)
        self.answers_reused = 0

    def get(self, query: Query, fingerprint: tuple):
        return self.lookup((query, fingerprint))

    def known(self, query: Query, fingerprint: tuple):
        """:meth:`get` without touching the counters."""
        return self.peek((query, fingerprint))

    def put(self, query: Query, fingerprint: tuple, prepared) -> None:
        self.store((query, fingerprint), prepared)

    def note_answer_reused(self) -> None:
        with self._lock:
            self.answers_reused += 1

    def stats(self) -> dict:
        """The LRU counters plus ``answers_reused``."""
        with self._lock:
            return {**super().stats(), "answers_reused": self.answers_reused}


def create_engine(
    name: str,
    db: PVCDatabase,
    *,
    distribution_source=None,
    plan_source=None,
    seed: int | None = None,
    samples: int = 1000,
    **compiler_options,
) -> Engine:
    """Instantiate the engine registered under ``name``."""
    if name in ("sprout", "approx"):
        engine_class = SproutEngine if name == "sprout" else ApproxEngine
        return engine_class(
            db,
            distribution_source=distribution_source,
            plan_source=plan_source,
            **compiler_options,
        )
    if name == "naive":
        return NaiveEngine(db)
    if name == "montecarlo":
        return MonteCarloEngine(db, seed=seed, samples=samples)
    raise QueryValidationError(
        f"unknown engine {name!r}; expected one of {list(ENGINE_NAMES)} or 'auto'"
    )


def select_engine_name(
    db: PVCDatabase,
    query: Query,
    *,
    spec: EvalSpec | None = None,
    tuple_independent: set[str] | None = None,
    prepared=None,
) -> tuple[str, Classification]:
    """The ``engine="auto"`` policy (Theorem 3 as a dispatcher).

    * an anytime spec mode goes to the engine whose own mode it is in
      :data:`~repro.engine.spec.ENGINE_TABLE`
      (:func:`~repro.engine.spec.native_engine`);
    * exact intent (or no spec) compiles exactly when the static
      analysis proves the query inside ``Q_ind``/``Q_hie``, and
      everything else *degrades to guaranteed approximation*
      (:func:`~repro.engine.spec.degraded_mode`): deterministic
      intervals of width ≤ ε instead of an unqualified point estimate.
      Generic exact compilation may be exponential there; pass
      ``engine='sprout'`` to force it anyway.

    The classification costs O(query): which tables are
    tuple-independent is read from facts the tables' write paths
    maintain (:func:`~repro.query.tractability.tuple_independent_relations`),
    never from their rows.  ``tuple_independent`` overrides that set.

    ``prepared`` — the query's memoised plan, when the caller has one —
    keeps the classification under the stamp of every table (what the
    independence facts read): a hot statement classifies once per state.
    """
    if prepared is not None and tuple_independent is None:
        stamp = capture_stamp(db)
        classification = prepared.classification.get(stamp)
        if classification is None:
            classification = classify_query(query, db.catalog(), tuple_independent_relations(db))
            prepared.classification.put(stamp, classification)
    else:
        if tuple_independent is None:
            tuple_independent = tuple_independent_relations(db)
        classification = classify_query(query, db.catalog(), tuple_independent)
    mode = EVAL_MODES[0] if spec is None else spec.mode
    if not classification.tractable:
        mode = degraded_mode(mode)
    return native_engine(mode), classification
