"""End-to-end tests driving the engine through the SQL front-end."""

import pytest

from repro.algebra import BOOLEAN, Var
from repro.db import PVCDatabase
from repro.engine import NaiveEngine, SproutEngine
from repro.prob import VariableRegistry
from repro.query import parse_sql


def shop_database():
    """Products and their stock, every row tuple-independent."""
    reg = VariableRegistry()
    db = PVCDatabase(registry=reg, semiring=BOOLEAN)
    products = db.create_table("products", ["pid", "category", "price"])
    rows = [
        (1, "printer", 100, 0.8),
        (2, "printer", 250, 0.5),
        (3, "laptop", 900, 0.6),
        (4, "laptop", 1400, 0.3),
    ]
    for pid, category, price, probability in rows:
        reg.bernoulli(f"p{pid}", probability)
        products.add((pid, category, price), Var(f"p{pid}"))

    stock = db.create_table("stock", ["sid", "quantity"])
    for sid, quantity, probability in [(1, 5, 0.9), (3, 2, 0.7)]:
        reg.bernoulli(f"s{sid}", probability)
        stock.add((sid, quantity), Var(f"s{sid}"))
    return db


@pytest.fixture
def shop_db():
    return shop_database()


def assert_sql_matches_oracle(db, sql):
    query = parse_sql(sql)
    compiled = SproutEngine(db).run(query).tuple_probabilities()
    brute = NaiveEngine(db).tuple_probabilities(query)
    assert set(compiled) == set(brute), (sql, compiled, brute)
    for key in brute:
        assert compiled[key] == pytest.approx(brute[key]), (sql, key)


class TestSqlQueries:
    def test_projection(self, shop_db):
        assert_sql_matches_oracle(shop_db, "SELECT category FROM products")

    def test_selection(self, shop_db):
        assert_sql_matches_oracle(
            shop_db, "SELECT pid FROM products WHERE price <= 300"
        )

    def test_string_predicate(self, shop_db):
        assert_sql_matches_oracle(
            shop_db, "SELECT pid FROM products WHERE category = 'laptop'"
        )

    def test_join(self, shop_db):
        assert_sql_matches_oracle(
            shop_db,
            "SELECT category, quantity FROM products, stock WHERE pid = sid",
        )

    def test_grouped_count(self, shop_db):
        assert_sql_matches_oracle(
            shop_db,
            "SELECT category, COUNT(*) AS n FROM products GROUP BY category",
        )

    def test_grouped_min(self, shop_db):
        assert_sql_matches_oracle(
            shop_db,
            "SELECT category, MIN(price) AS cheapest FROM products "
            "GROUP BY category",
        )

    def test_global_sum(self, shop_db):
        assert_sql_matches_oracle(
            shop_db, "SELECT SUM(price) AS total FROM products"
        )

    def test_scalar_subquery_example_3(self, shop_db):
        assert_sql_matches_oracle(
            shop_db,
            "SELECT pid FROM products "
            "WHERE price = (SELECT MIN(price) FROM products)"
            if False
            else "SELECT sid FROM stock "
            "WHERE quantity >= (SELECT MIN(price) FROM products)",
        )

    def test_subquery_against_attribute(self, shop_db):
        # Example 3's shape: σ_{B=γ}(R × $_{∅;γ←MIN(C)}(S)).
        assert_sql_matches_oracle(
            shop_db,
            "SELECT pid FROM products "
            "WHERE price <= (SELECT MAX(quantity) FROM stock)",
        )


class TestSqlAnswers:
    def test_min_price_probabilities(self, shop_db):
        query = parse_sql(
            "SELECT category, MIN(price) AS cheapest FROM products "
            "GROUP BY category"
        )
        result = SproutEngine(shop_db).run(query)
        printers = next(r for r in result if r.values[0] == "printer")
        dist = printers.conditional_value_distribution("cheapest")
        # given the printer group is non-empty: min is 100 unless only
        # product 2 is present
        p1, p2 = 0.8, 0.5
        present = 1 - (1 - p1) * (1 - p2)
        assert dist[100] == pytest.approx(p1 / present)
        assert dist[250] == pytest.approx((1 - p1) * p2 / present)
