"""Query engines: compiled (SPROUT-style), approximate, brute-force, Monte-Carlo.

* :class:`~repro.engine.sprout.SproutEngine` — the paper's architecture:
  Figure-4 rewriting followed by d-tree compilation (exact, efficient on
  tractable queries).
* :class:`~repro.engine.approximate.ApproxEngine` — budgeted partial
  compilation with deterministic probability bounds, refined until every
  interval width ≤ ε (the paper's anytime approximation scheme).
* :class:`~repro.engine.naive.NaiveEngine` — explicit possible-world
  enumeration (exact, exponential; the test oracle).
* :class:`~repro.engine.montecarlo.MonteCarloEngine` — sampling baseline
  in the spirit of MCDB, with a sequential-stopping (ε, δ) mode.

All four implement the uniform :class:`~repro.engine.base.Engine`
protocol themselves (``run(query, spec=None, **options)`` returning the
same :class:`~repro.engine.sprout.QueryResult` type, every probability a
:class:`~repro.engine.spec.ProbInterval`), which is what the
:class:`~repro.session.Session` facade dispatches on — *how* to evaluate
travels as one :class:`~repro.engine.spec.EvalSpec`.  The registry of
``QueryResult.stats`` keys lives in :mod:`repro.engine.stats`.
"""

from repro.engine.approximate import ApproxEngine
from repro.engine.base import (
    ENGINE_NAMES,
    CompilationCache,
    Engine,
    PlanCache,
    create_engine,
    select_engine_name,
)
from repro.engine.montecarlo import MonteCarloEngine
from repro.engine.naive import NaiveEngine
from repro.engine.spec import EVAL_MODES, EvalSpec, ProbInterval
from repro.engine.sprout import QueryResult, ResultRow, SproutEngine
from repro.engine.stats import DETERMINISTIC_STAT_KEYS, VOLATILE_STAT_KEYS

__all__ = [
    "SproutEngine",
    "QueryResult",
    "ResultRow",
    "NaiveEngine",
    "MonteCarloEngine",
    "ApproxEngine",
    "Engine",
    "ENGINE_NAMES",
    "EVAL_MODES",
    "EvalSpec",
    "ProbInterval",
    "CompilationCache",
    "PlanCache",
    "create_engine",
    "select_engine_name",
    "VOLATILE_STAT_KEYS",
    "DETERMINISTIC_STAT_KEYS",
]
