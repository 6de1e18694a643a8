"""Tests for the Figure-4 rewriting (symbolic result construction)."""

import pytest

from repro.algebra.conditions import Compare
from repro.algebra.expressions import ONE, Var, sprod, ssum
from repro.algebra.monoid import MIN, SUM
from repro.algebra.parser import parse_expr
from repro.algebra.semimodule import AggSum, MConst, ModuleExpr, aggsum, tensor
from repro.algebra.semiring import BOOLEAN
from repro.db.pvc_table import PVCDatabase
from repro.engine.montecarlo import MonteCarloEngine
from repro.engine.naive import NaiveEngine
from repro.engine.sprout import SproutEngine
from repro.prob.variables import VariableRegistry
from repro.query.ast import (
    AggSpec,
    Extend,
    GroupAgg,
    Product,
    Project,
    Select,
    Union,
    product_of,
    relation,
)
from repro.query.executor import evaluate
from repro.query.predicates import cmp_, conj, eq, lit


def evaluate_query(query, db):
    """The Figure-4 construction as written: no logical rewrites, so the
    constructed expressions can be compared structurally."""
    return evaluate(query, db, optimize=False)


@pytest.fixture
def db():
    reg = VariableRegistry()
    database = PVCDatabase(registry=reg, semiring=BOOLEAN)
    r = database.create_table("R", ["a", "v"])
    for i, (a, v) in enumerate([(1, 10), (1, 20), (2, 30)]):
        reg.bernoulli(f"r{i}", 0.5)
        r.add((a, v), Var(f"r{i}"))
    s = database.create_table("S", ["b", "w"])
    for i, (b, w) in enumerate([(1, 100), (3, 300)]):
        reg.bernoulli(f"s{i}", 0.5)
        s.add((b, w), Var(f"s{i}"))
    return database


class TestBasicOperators:
    def test_base_relation_copies(self, db):
        result = evaluate_query(relation("R"), db)
        assert len(result) == 3
        assert result.rows[0].annotation == Var("r0")

    def test_select_concrete_filters(self, db):
        result = evaluate_query(Select(relation("R"), eq("a", 1)), db)
        assert len(result) == 2

    def test_project_sums_annotations(self, db):
        result = evaluate_query(Project(relation("R"), ["a"]), db)
        by_value = {row.values: row.annotation for row in result}
        assert by_value[(1,)] == ssum([Var("r0"), Var("r1")])
        assert by_value[(2,)] == Var("r2")

    def test_product_multiplies_annotations(self, db):
        result = evaluate_query(Product(relation("R"), relation("S")), db)
        assert len(result) == 6
        annotations = {row.annotation for row in result}
        assert sprod([Var("r0"), Var("s0")]) in annotations

    def test_join_keeps_matching_pairs(self, db):
        query = Select(Product(relation("R"), relation("S")), eq("a", "b"))
        result = evaluate_query(query, db)
        assert {row.values for row in result} == {(1, 10, 1, 100), (1, 20, 1, 100)}

    def test_union_merges_duplicates(self, db):
        r2 = db.create_table("R2", ["a"])
        db.registry.bernoulli("u0", 0.5)
        r2.add((1,), Var("u0"))
        query = Union(Project(relation("R"), ["a"]), relation("R2"))
        result = evaluate_query(query, db)
        by_value = {row.values: row.annotation for row in result}
        assert by_value[(1,)] == ssum([Var("r0"), Var("r1"), Var("u0")])

    def test_extend_copies_column(self, db):
        result = evaluate_query(Extend(relation("R"), "a2", "a"), db)
        assert result.rows[0].values == (1, 10, 1)

    def test_zero_annotations_dropped(self, db):
        db["R"].add((9, 90), parse_expr("0"))
        result = evaluate_query(Project(relation("R"), ["a"]), db)
        assert (9,) not in {row.values for row in result}


class TestAggregationRewriting:
    def test_example_8_global_aggregate(self, db):
        # $_{∅;α←SUM(v)}(R): single tuple, annotation 1_K.
        query = GroupAgg(relation("R"), [], [AggSpec.of("alpha", "SUM", "v")])
        result = evaluate_query(query, db)
        assert len(result) == 1
        row = result.rows[0]
        assert row.annotation == ONE
        expected = aggsum(
            SUM,
            [
                tensor(Var("r0"), MConst(SUM, 10)),
                tensor(Var("r1"), MConst(SUM, 20)),
                tensor(Var("r2"), MConst(SUM, 30)),
            ],
        )
        assert row.values[0] == expected

    def test_example_8_threshold_query(self, db):
        # π_∅ σ_{5≤α}($_{∅;α←MIN(v)}(R)): annotation 1_K · [5 ≤ α]
        agg = GroupAgg(relation("R"), [], [AggSpec.of("alpha", "MIN", "v")])
        query = Project(Select(agg, cmp_(lit(5), "<=", "alpha")), [])
        result = evaluate_query(query, db)
        assert len(result) == 1
        annotation = result.rows[0].annotation
        assert isinstance(annotation, Compare)
        assert isinstance(annotation.left, MConst)  # [5 ≤ Σ_MIN ...]

    def test_grouped_aggregate_builds_guard(self, db):
        query = GroupAgg(relation("R"), ["a"], [AggSpec.of("t", "SUM", "v")])
        result = evaluate_query(query, db)
        by_group = {row.values[0]: row for row in result}
        guard = by_group[1].annotation
        assert isinstance(guard, Compare)
        assert guard.op.symbol == "!="
        assert guard.left == ssum([Var("r0"), Var("r1")])

    def test_count_uses_constant_one(self, db):
        query = GroupAgg(relation("R"), ["a"], [AggSpec.of("n", "COUNT")])
        result = evaluate_query(query, db)
        by_group = {row.values[0]: row for row in result}
        gamma = by_group[1].values[1]
        assert isinstance(gamma, AggSum)
        assert all(term.arg.value == 1 for term in gamma.children)

    def test_global_aggregate_on_empty_selection(self, db):
        query = GroupAgg(
            Select(relation("R"), eq("a", 999)),
            [],
            [AggSpec.of("m", "MIN", "v")],
        )
        result = evaluate_query(query, db)
        assert len(result) == 1
        assert result.rows[0].values[0].is_module_zero()

    @pytest.mark.parametrize(
        "engine",
        [
            SproutEngine,
            NaiveEngine,
            lambda db: MonteCarloEngine(db, seed=11, samples=200),
        ],
        ids=["sprout", "naive", "montecarlo"],
    )
    def test_selection_folding_to_zero_drops_the_tuple(self, db, engine):
        """``[0_SUM ≥ 5]`` constant-folds to ``0_K``, and a ``0_K``-annotated
        tuple is not in the relation (Definition 6): σ drops it in step I,
        so the exact engine returns the row set the per-world engines do."""
        query = Select(
            GroupAgg(
                Select(relation("R"), eq("a", 999)),
                [],
                [AggSpec.of("t", "SUM", "v")],
            ),
            cmp_("t", ">=", 5),
        )
        assert evaluate_query(query, db).rows == []
        assert engine(db).run(query).rows == []

    def test_selection_on_aggregate_multiplies_condition(self, db):
        agg = GroupAgg(relation("R"), ["a"], [AggSpec.of("t", "SUM", "v")])
        query = Project(Select(agg, cmp_("t", "<=", 25)), ["a"])
        result = evaluate_query(query, db)
        for row in result:
            # annotation contains both the guard and the threshold condition
            assert isinstance(row.annotation, (Compare,)) or row.annotation.variables

    def test_multiple_aggregates_per_group(self, db):
        query = GroupAgg(
            relation("R"),
            ["a"],
            [AggSpec.of("mn", "MIN", "v"), AggSpec.of("n", "COUNT")],
        )
        result = evaluate_query(query, db)
        row = {r.values[0]: r for r in result}[1]
        assert isinstance(row.values[1], ModuleExpr)
        assert row.values[1].monoid == MIN
        assert isinstance(row.values[2], ModuleExpr)


class TestHashJoinPath:
    def test_three_way_join_same_as_naive_product(self, db):
        t = db.create_table("T", ["c"])
        db.registry.bernoulli("t0", 0.5)
        t.add((1,), Var("t0"))
        pred = conj(eq("a", "b"), eq("a", "c"))
        fast = evaluate_query(Select(product_of(relation("R"), relation("S"), relation("T")), pred), db)
        assert {row.values for row in fast} == {
            (1, 10, 1, 100, 1),
            (1, 20, 1, 100, 1),
        }
        annotations = {row.annotation for row in fast}
        assert sprod([Var("r0"), Var("s0"), Var("t0")]) in annotations

    def test_local_constant_predicates_applied(self, db):
        pred = conj(eq("a", "b"), eq("v", 10))
        result = evaluate_query(
            Select(Product(relation("R"), relation("S")), pred), db
        )
        assert {row.values for row in result} == {(1, 10, 1, 100)}

    def test_residual_theta_join(self, db):
        pred = cmp_("v", "<", "w")
        result = evaluate_query(
            Select(Product(relation("R"), relation("S")), pred), db
        )
        assert len(result) == 6  # all R values below 100/300
