"""Query language ``Q``: algebra, validation, rewriting, tractability, SQL.

Implements Sections 4 and 6 of the paper: the positive relational algebra
with grouping/aggregation (Definition 5), the Figure-4 rewriting that
constructs symbolic annotations and semimodule values, the hierarchical /
``Q_ind`` / ``Q_hie`` tractability analysis (Definitions 8-9, Theorem 3),
and a small SQL front-end.
"""

from repro.query.ast import (
    AggSpec,
    BaseRelation,
    Extend,
    GroupAgg,
    Product,
    Project,
    Query,
    Select,
    Union,
    equijoin,
    product_of,
    relation,
)
from repro.query.predicates import (
    AttrRef,
    Comparison,
    Conjunction,
    Literal,
    TruePredicate,
    attr,
    cmp_,
    conj,
    eq,
    lit,
)
from repro.query.builder import (
    AggTerm,
    QueryBuilder,
    count_,
    max_,
    min_,
    prod_,
    sum_,
)
from repro.query.optimizer import (
    DEFAULT_RULES,
    Rule,
    RuleFiring,
    optimize,
    optimize_traced,
)
from repro.query.physical import explain_plan, plan_query
from repro.query.executor import (
    PreparedQuery,
    evaluate,
    execute_deterministic,
    execute_symbolic,
    prepare,
)
from repro.query.sql import parse_sql
from repro.query.tractability import (
    Classification,
    QueryClass,
    classify_query,
    is_hierarchical,
    tuple_independent_relations,
)
from repro.query.validate import validate_query

__all__ = [
    "Query",
    "BaseRelation",
    "Extend",
    "Select",
    "Project",
    "Product",
    "Union",
    "GroupAgg",
    "AggSpec",
    "relation",
    "product_of",
    "equijoin",
    "AttrRef",
    "Literal",
    "Comparison",
    "Conjunction",
    "TruePredicate",
    "attr",
    "lit",
    "eq",
    "cmp_",
    "conj",
    "optimize",
    "optimize_traced",
    "Rule",
    "RuleFiring",
    "DEFAULT_RULES",
    "plan_query",
    "explain_plan",
    "PreparedQuery",
    "prepare",
    "evaluate",
    "execute_symbolic",
    "execute_deterministic",
    "validate_query",
    "parse_sql",
    "QueryBuilder",
    "AggTerm",
    "sum_",
    "count_",
    "min_",
    "max_",
    "prod_",
    "QueryClass",
    "Classification",
    "classify_query",
    "is_hierarchical",
    "tuple_independent_relations",
]
