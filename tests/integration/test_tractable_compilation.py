"""Section 6's tractable classes never fire rule 6.

Every annotation (row presence and aggregation value) of a query that
:func:`~repro.query.tractability.classify_query` puts in ``Q_ind`` or
``Q_hie`` compiles by rules 1-5 alone: no ⊔ node.  Compiled on the
verbatim path, so no table leaf hides a Shannon expansion.  The zoo is
the integration suites' queries: the SQL front-end's shop queries and
the randomised equivalence sweep's shapes, under both semirings.
"""

import random

import pytest

from repro.algebra import BOOLEAN, NATURALS
from repro.algebra.semimodule import ModuleExpr
from repro.core.compile import Compiler
from repro.engine import SproutEngine
from repro.query import parse_sql
from repro.query.tractability import (
    QueryClass,
    classify_query,
    tuple_independent_relations,
)
from tests.integration.test_end_to_end import random_database, random_query
from tests.integration.test_sql_end_to_end import shop_database

SHOP_SQL = [
    "SELECT category FROM products",
    "SELECT pid FROM products WHERE price <= 300",
    "SELECT pid FROM products WHERE category = 'laptop'",
    "SELECT category, quantity FROM products, stock WHERE pid = sid",
    "SELECT category, COUNT(*) AS n FROM products GROUP BY category",
    "SELECT category, MIN(price) AS cheapest FROM products GROUP BY category",
    "SELECT SUM(price) AS total FROM products",
    "SELECT sid FROM stock WHERE quantity >= (SELECT MIN(price) FROM products)",
    "SELECT pid FROM products WHERE price <= (SELECT MAX(quantity) FROM stock)",
]


def zoo():
    """``(id, database, query)`` for every query of the zoo."""
    for index, sql in enumerate(SHOP_SQL):
        yield f"shop-{index}", shop_database(), parse_sql(sql)
    for label, semiring, seeds in (("bool", BOOLEAN, 25), ("nat", NATURALS, 10)):
        for seed in range(seeds):
            rng = random.Random(seed)
            db = random_database(rng, semiring)
            yield f"{label}-{seed}", db, random_query(rng)


def query_class(db, query) -> QueryClass:
    return classify_query(
        query, db.catalog(), tuple_independent_relations(db)
    ).query_class


TRACTABLE = [
    pytest.param(db, query, id=name)
    for name, db, query in zoo()
    if query_class(db, query) is not QueryClass.UNKNOWN
]


def test_the_zoo_covers_both_classes():
    classes = [query_class(*param.values) for param in TRACTABLE]
    assert classes.count(QueryClass.QIND) >= 5
    assert classes.count(QueryClass.QHIE) >= 5


@pytest.mark.parametrize("db, query", TRACTABLE)
def test_no_annotation_fires_rule_6(db, query, algorithm1_verbatim):
    for row in SproutEngine(db).rewrite(query):
        modules = [v for v in row.values if isinstance(v, ModuleExpr)]
        for expr in [row.annotation, *modules]:
            compiler = Compiler(db.registry, db.semiring)
            compiler.compile(expr)
            assert compiler.mutex_nodes_created == 0, expr
