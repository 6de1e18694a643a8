"""Tests for the SPROUT-style compiled engine."""

import pytest

from repro.algebra.expressions import Var
from repro.algebra.semiring import BOOLEAN, NATURALS
from repro.db.pvc_table import PVCDatabase, PVCTable
from repro.engine.naive import NaiveEngine
from repro.engine.sprout import SproutEngine
from repro.prob.variables import VariableRegistry
from repro.query.ast import (
    AggSpec,
    GroupAgg,
    Product,
    Project,
    Select,
    relation,
)
from repro.query.predicates import cmp_, eq


def simple_db():
    reg = VariableRegistry()
    db = PVCDatabase(registry=reg, semiring=BOOLEAN)
    r = db.create_table("R", ["a", "v"])
    reg.bernoulli("x", 0.5)
    reg.bernoulli("y", 0.4)
    reg.bernoulli("z", 0.9)
    r.add((1, 10), Var("x"))
    r.add((1, 20), Var("y"))
    r.add((2, 30), Var("z"))
    return db


def assert_engines_agree(db, query, tol=1e-9):
    compiled = SproutEngine(db).run(query).tuple_probabilities()
    brute = NaiveEngine(db).tuple_probabilities(query)
    assert set(compiled) == set(brute), (compiled, brute)
    for key in brute:
        assert compiled[key] == pytest.approx(brute[key], abs=tol), key


class TestAgainstOracle:
    def test_base_relation(self):
        assert_engines_agree(simple_db(), relation("R"))

    def test_selection_projection(self):
        query = Project(Select(relation("R"), eq("a", 1)), ["v"])
        assert_engines_agree(simple_db(), query)

    def test_grouped_sum(self):
        query = GroupAgg(relation("R"), ["a"], [AggSpec.of("s", "SUM", "v")])
        assert_engines_agree(simple_db(), query)

    def test_grouped_min_with_having(self):
        agg = GroupAgg(relation("R"), ["a"], [AggSpec.of("m", "MIN", "v")])
        query = Project(Select(agg, cmp_("m", "<=", 15)), ["a"])
        assert_engines_agree(simple_db(), query)

    def test_global_count(self):
        query = GroupAgg(relation("R"), [], [AggSpec.of("n", "COUNT")])
        assert_engines_agree(simple_db(), query)

    def test_bag_semantics(self):
        reg = VariableRegistry()
        db = PVCDatabase(registry=reg, semiring=NATURALS)
        r = db.create_table("R", ["a", "v"])
        reg.integer("m", {0: 0.3, 1: 0.4, 2: 0.3})
        reg.integer("n", {1: 0.6, 2: 0.4})
        r.add((1, 10), Var("m"))
        r.add((1, 20), Var("n"))
        query = GroupAgg(relation("R"), ["a"], [AggSpec.of("s", "SUM", "v")])
        assert_engines_agree(db, query)


class TestResultRows:
    def test_probability_is_non_zero_annotation(self):
        result = SproutEngine(simple_db()).run(relation("R"))
        by_values = {row.values: row for row in result}
        assert by_values[(1, 10)].probability() == pytest.approx(0.5)

    def test_value_distribution_of_aggregate(self):
        db = simple_db()
        query = GroupAgg(relation("R"), ["a"], [AggSpec.of("s", "SUM", "v")])
        result = SproutEngine(db).run(query)
        row = {r.values[0]: r for r in result}[1]
        dist = row.value_distribution("s")
        assert dist[30] == pytest.approx(0.2)
        assert dist[0] == pytest.approx(0.3)  # empty group (marginal view)

    def test_value_distribution_of_constant_attribute(self):
        result = SproutEngine(simple_db()).run(relation("R"))
        dist = result.rows[0].value_distribution("v")
        assert dist[10] == 1.0

    def test_module_attributes_listing(self):
        db = simple_db()
        query = GroupAgg(relation("R"), ["a"], [AggSpec.of("s", "SUM", "v")])
        result = SproutEngine(db).run(query)
        assert set(result.rows[0].module_attributes()) == {"s"}

    def test_annotation_distribution_bag(self):
        reg = VariableRegistry()
        db = PVCDatabase(registry=reg, semiring=NATURALS)
        r = db.create_table("R", ["a"])
        reg.integer("m", {0: 0.25, 3: 0.75})
        r.add((1,), Var("m"))
        result = SproutEngine(db).run(relation("R"))
        dist = result.rows[0].annotation_distribution()
        assert dist[3] == pytest.approx(0.75)
        assert result.rows[0].probability() == pytest.approx(0.75)

    def test_timings_present(self):
        result = SproutEngine(simple_db()).run(relation("R"))
        assert result.timings["rewrite_seconds"] >= 0
        assert result.timings["probability_seconds"] >= 0

    def test_skip_probability_computation(self):
        result = SproutEngine(simple_db()).run(
            relation("R"), compute_probabilities=False
        )
        assert result.timings["probability_seconds"] == 0.0

    def test_pretty_output(self):
        result = SproutEngine(simple_db()).run(relation("R"))
        assert "P=" in result.pretty()


class TestDeterministicBaseline:
    def test_all_tuples_present(self):
        db = simple_db()
        rel, elapsed = SproutEngine(db).deterministic_baseline(relation("R"))
        assert len(rel) == 3
        assert elapsed >= 0

    def test_aggregate_baseline(self):
        db = simple_db()
        query = GroupAgg(relation("R"), ["a"], [AggSpec.of("s", "SUM", "v")])
        rel, _ = SproutEngine(db).deterministic_baseline(query)
        assert rel.support() == {(1, 30), (2, 30)}

    def test_an_unread_table_is_not_built(self, monkeypatch):
        db = simple_db()
        db.registry.bernoulli("w", 0.5)
        db.create_table("S", ["b"]).add((1,), Var("w"))
        unread = db.tables["S"]
        iterated = []
        original = PVCTable.__iter__

        def record(table):
            iterated.append(table)
            return original(table)

        monkeypatch.setattr(PVCTable, "__iter__", record)
        rel, _ = SproutEngine(db).deterministic_baseline(relation("R"))
        assert len(rel) == 3
        assert db.tables["R"] in iterated
        assert not any(table is unread for table in iterated)

    def test_compiler_options_forwarded(self):
        engine = SproutEngine(simple_db(), heuristic="lexicographic")
        result = engine.run(relation("R"))
        assert result.rows[0].probability() == pytest.approx(0.5)
