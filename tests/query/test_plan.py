"""Tests for the logical optimizer (selection merging, projection pushdown)."""

import random

import pytest

from repro.algebra import BOOLEAN, Var
from repro.db import PVCDatabase, Schema
from repro.engine import NaiveEngine, SproutEngine
from repro.prob import VariableRegistry
from repro.query import (
    AggSpec,
    GroupAgg,
    Product,
    Project,
    Select,
    Union,
    cmp_,
    conj,
    eq,
    relation,
)
from repro.query.optimizer import (
    collapse_projections,
    merge_selections,
    optimize,
    pushdown_projections,
)

CATALOG = {
    "R": Schema(["a", "b", "c"]),
    "S": Schema(["d", "e"]),
}


def sample_db():
    reg = VariableRegistry()
    db = PVCDatabase(registry=reg, semiring=BOOLEAN)
    r = db.create_table("R", ["a", "b", "c"])
    rng = random.Random(5)
    for i in range(4):
        reg.bernoulli(f"r{i}", rng.uniform(0.2, 0.9))
        r.add((rng.randint(1, 2), rng.randint(1, 3), rng.randint(1, 9)), Var(f"r{i}"))
    s = db.create_table("S", ["d", "e"])
    for i in range(3):
        reg.bernoulli(f"s{i}", rng.uniform(0.2, 0.9))
        s.add((rng.randint(1, 2), rng.randint(1, 9)), Var(f"s{i}"))
    return db


class TestRewrites:
    def test_merge_selections(self):
        query = Select(Select(relation("R"), eq("a", 1)), cmp_("b", "<", 3))
        merged = merge_selections(query)
        assert isinstance(merged, Select)
        assert not isinstance(merged.child, Select)
        assert len(merged.predicate.atoms()) == 2

    def test_collapse_projections(self):
        query = Project(Project(relation("R"), ["a", "b"]), ["a"])
        collapsed = collapse_projections(query)
        assert isinstance(collapsed.child, type(relation("R")))
        assert collapsed.attributes == ("a",)

    def test_pushdown_narrows_base_relations(self):
        query = Project(
            Select(Product(relation("R"), relation("S")), eq("a", "d")), ["b"]
        )
        optimized = pushdown_projections(query, CATALOG)
        # R is narrowed to the join + output attributes; c disappears.
        base_projects = [
            node
            for node in optimized.walk()
            if isinstance(node, Project) and not isinstance(node.child, Product)
        ]
        narrowed = {tuple(sorted(p.attributes)) for p in base_projects}
        assert ("a", "b") in narrowed

    def test_pushdown_preserves_schema(self):
        query = Project(
            Select(Product(relation("R"), relation("S")), eq("a", "d")), ["b"]
        )
        optimized = optimize(query, CATALOG)
        assert optimized.schema(CATALOG) == query.schema(CATALOG)

    def test_no_pushdown_below_count(self):
        # Inserting a merging projection below COUNT would change
        # multiplicities; the optimizer must leave the child schema whole.
        query = GroupAgg(relation("R"), ["a"], [AggSpec.of("n", "COUNT")])
        optimized = optimize(query, CATALOG)
        assert not any(
            isinstance(node, Project) for node in optimized.walk()
        )

    def test_pushdown_below_min_is_allowed(self):
        query = GroupAgg(relation("R"), ["a"], [AggSpec.of("m", "MIN", "b")])
        optimized = optimize(query, CATALOG)
        projects = [n for n in optimized.walk() if isinstance(n, Project)]
        assert projects and set(projects[0].attributes) == {"a", "b"}


class TestEquivalence:
    """Optimised plans produce identical probabilities."""

    def queries(self):
        yield Project(
            Select(Product(relation("R"), relation("S")), eq("a", "d")), ["b"]
        )
        yield Select(Select(relation("R"), cmp_("b", "<=", 2)), cmp_("c", ">=", 2))
        yield GroupAgg(relation("R"), ["a"], [AggSpec.of("n", "COUNT")])
        yield GroupAgg(
            Select(Product(relation("R"), relation("S")), eq("a", "d")),
            ["b"],
            [AggSpec.of("m", "MIN", "e")],
        )
        yield Project(
            Select(
                GroupAgg(relation("R"), ["a"], [AggSpec.of("t", "SUM", "c")]),
                cmp_("t", ">=", 5),
            ),
            ["a"],
        )

    def test_optimized_equals_original(self):
        db = sample_db()
        catalog = {name: t.schema for name, t in db.tables.items()}
        engine = SproutEngine(db)
        naive = NaiveEngine(db)
        for query in self.queries():
            optimized = optimize(query, catalog)
            original = naive.tuple_probabilities(query)
            fast = engine.run(optimized).tuple_probabilities()
            assert set(original) == set(fast), query
            for key in original:
                assert fast[key] == pytest.approx(original[key]), (query, key)


class TestDuplicateBaseRows:
    """Base tables with duplicate tuples merge annotations (Def. 6)."""

    def test_duplicates_merge_for_count(self):
        reg = VariableRegistry()
        db = PVCDatabase(registry=reg, semiring=BOOLEAN)
        r = db.create_table("R", ["g", "v"])
        reg.bernoulli("x", 0.5)
        reg.bernoulli("y", 0.5)
        r.add((1, 10), Var("x"))
        r.add((1, 10), Var("y"))
        query = GroupAgg(relation("R"), ["g"], [AggSpec.of("n", "COUNT")])
        compiled = SproutEngine(db).run(query).tuple_probabilities()
        brute = NaiveEngine(db).tuple_probabilities(query)
        assert compiled.keys() == brute.keys()
        for key in brute:
            assert compiled[key] == pytest.approx(brute[key])
        assert (1, 2) not in compiled  # a set never holds the tuple twice
