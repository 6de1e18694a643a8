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
* :class:`~repro.cache.CompilationCache` — a shared distribution cache
  keyed on normalized annotations, so repeated and overlapping rows
  across runs never recompile the same d-tree (it lives in
  :mod:`repro.cache` and is re-exported here);
* :class:`PlanCache` — the one memo of prepared physical plans.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.cache import BoundedLRU, CompilationCache, capture_stamp
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
    tenant.  Thread-safe like :class:`~repro.cache.CompilationCache`.

    An entry also carries its plan's step-I answer
    (:func:`~repro.query.executor.symbolic_answer`), so the answers kept
    are bounded by ``max_entries`` and go when the plan goes — evicted,
    re-keyed by an insert or delete, or cleared by ``Session.close()``.
    ``answers_reused`` counts the executions served from a slot.

    A statement shape's template plan is an entry like any other, keyed
    on the template query (its literals are parameters, so it equals no
    text's query): the plans of the shape's texts are bound from it
    (:meth:`SproutEngine.prepare <repro.engine.sprout.SproutEngine.prepare>`)
    and kept under their own queries, each with its own answer.
    """

    #: What this class writes beside the LRU's own methods.
    _shared_state_ = {"_lock": ("answers_reused",)}

    def __init__(self, max_entries: int | None = 256):
        super().__init__(max_entries)
        self.answers_reused = 0

    def get(self, query: Query, fingerprint: tuple):
        return self.lookup((query, fingerprint))

    def known(self, query: Query, fingerprint: tuple):
        """:meth:`get` without touching the counters (a shape's template)."""
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
    independence facts read): a hot statement classifies once per state,
    and so does a statement shape, whose texts' plans share one slot.
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
