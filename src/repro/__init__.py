"""repro — Aggregation in probabilistic databases via knowledge compilation.

A from-scratch Python reproduction of

    Robert Fink, Larisa Han, Dan Olteanu.
    "Aggregation in Probabilistic Databases via Knowledge Compilation."
    PVLDB 5(5): 490-501 (VLDB 2012).

The library implements the paper's full stack:

* :mod:`repro.algebra` — monoids, semirings, semimodules, the symbolic
  expression grammar of Figure 2, and valuation homomorphisms;
* :mod:`repro.prob` — finite distributions, convolution (Prop. 1),
  and the induced probability space;
* :mod:`repro.core` — the contribution: compilation of semiring/semimodule
  expressions into decomposition trees (Algorithm 1), bottom-up
  probability computation (Theorem 2), pruning, joint distributions,
  and budgeted approximation;
* :mod:`repro.db` — pvc-tables and possible-worlds semantics (Section 3);
* :mod:`repro.query` — the query language ``Q``, the Figure-4 rewriting,
  the ``Q_ind``/``Q_hie`` tractability analysis (Theorem 3), and a small
  SQL front-end;
* :mod:`repro.engine` — the SPROUT-style engine plus brute-force and
  Monte-Carlo baselines;
* :mod:`repro.parallel` — multi-core compilation: one fork-pool round
  per run with graceful serial fallback, behind the ``workers`` knob;
* :mod:`repro.workloads` — the Eq.-11 random expression generator and a
  TPC-H-shaped data generator with the paper's two queries.

Quickstart (the primary API is the :func:`connect` session facade)::

    from repro import connect, sum_

    s = connect()
    items = s.table("items", ["name", "price"])
    items.insert(("inkjet", 99), p=0.7).insert(("laser", 349), p=0.4)

    result = items.agg(total=sum_("price")).run()
    print(result.rows[0].value_distribution("total"))

The underlying layers (registries, pvc-databases, the algebra, the
engines) remain public — ``SproutEngine(db).run(query)`` works without
a session.
"""

from repro.algebra import (
    BOOLEAN,
    COMPARISON_OPS,
    COUNT,
    MAX,
    MIN,
    NATURALS,
    ONE,
    PROD,
    SUM,
    ZERO,
    AggSum,
    CappedSumMonoid,
    Compare,
    MConst,
    Monoid,
    Normalizer,
    Prod,
    SConst,
    Semiring,
    Sum,
    Tensor,
    Valuation,
    Var,
    aggsum,
    compare,
    evaluate,
    monoid_by_name,
    normalize,
    parse_expr,
    sprod,
    ssum,
    tensor,
)
from repro.core import (
    Compiler,
    DTree,
    approximate_probability,
    collect_stats,
    compile_expression,
    prune,
)
from repro.db import (
    PVCDatabase,
    PVCRow,
    PVCTable,
    Relation,
    Schema,
    bid_table,
    enumerate_database_worlds,
    tuple_independent_table,
)
from repro.engine import (
    ApproxEngine,
    CompilationCache,
    Engine,
    EvalSpec,
    MonteCarloEngine,
    NaiveEngine,
    PlanCache,
    ProbInterval,
    QueryResult,
    ResultRow,
    SproutEngine,
    create_engine,
)
from repro.errors import (
    AlgebraError,
    CompilationError,
    DistributionError,
    ParseError,
    QueryTimeoutError,
    QueryValidationError,
    ReproError,
    SchemaError,
)
from repro.resilience import Deadline, FaultPlan, FaultSpec
from repro.prob import Distribution, ProbabilitySpace, VariableRegistry
from repro.query import (
    AggSpec,
    AggTerm,
    GroupAgg,
    Product,
    Project,
    Query,
    QueryBuilder,
    Select,
    Union,
    attr,
    classify_query,
    cmp_,
    conj,
    count_,
    eq,
    equijoin,
    explain_plan,
    is_hierarchical,
    lit,
    max_,
    min_,
    optimize,
    optimize_traced,
    parse_sql,
    plan_query,
    Rule,
    prod_,
    product_of,
    relation,
    sum_,
    tuple_independent_relations,
    validate_query,
)
from repro.session import Session, TableHandle, connect

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # algebra
    "Var", "SConst", "Sum", "Prod", "ZERO", "ONE", "ssum", "sprod",
    "Compare", "compare", "COMPARISON_OPS",
    "Monoid", "SUM", "COUNT", "MIN", "MAX", "PROD", "CappedSumMonoid",
    "monoid_by_name", "Semiring", "BOOLEAN", "NATURALS",
    "MConst", "Tensor", "AggSum", "tensor", "aggsum",
    "Valuation", "evaluate", "Normalizer", "normalize", "parse_expr",
    # prob
    "Distribution", "VariableRegistry", "ProbabilitySpace",
    # core
    "Compiler", "compile_expression", "DTree", "prune", "collect_stats",
    "approximate_probability",
    # db
    "Schema", "Relation", "PVCRow", "PVCTable", "PVCDatabase",
    "tuple_independent_table", "bid_table", "enumerate_database_worlds",
    # query
    "Query", "Select", "Project", "Product", "Union", "GroupAgg", "AggSpec",
    "relation", "product_of", "equijoin", "attr", "lit", "eq", "cmp_",
    "conj", "validate_query", "parse_sql", "optimize",
    "optimize_traced", "Rule", "plan_query", "explain_plan",
    "classify_query", "is_hierarchical", "tuple_independent_relations",
    # session facade
    "connect", "Session", "TableHandle",
    "QueryBuilder", "AggTerm", "sum_", "count_", "min_", "max_", "prod_",
    # engines
    "SproutEngine", "ApproxEngine", "NaiveEngine", "MonteCarloEngine",
    "QueryResult", "ResultRow", "EvalSpec", "ProbInterval",
    "Engine", "create_engine", "CompilationCache", "PlanCache",
    # errors
    "ReproError", "AlgebraError", "ParseError", "DistributionError",
    "CompilationError", "SchemaError", "QueryValidationError",
    "QueryTimeoutError",
    # resilience
    "Deadline", "FaultPlan", "FaultSpec",
]
