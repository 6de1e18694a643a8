"""The plan walk over its two annotation domains.

The concrete-domain cases state the Figure-4 operator semantics with
annotations replaced by multiplicities in 𝔹/ℕ (joint use multiplies,
alternative use adds, ``$`` folds ``multiplicity ⊗ value`` in the
aggregation monoid), for the interpreter and — the same expectations —
for the compiled kernels.
"""

import math

import pytest

from repro.algebra.semiring import BOOLEAN, NATURALS
from repro.db.relation import Relation
from repro.db.schema import Schema
from repro.query import physical
from repro.query.ast import (
    AggSpec,
    Extend,
    GroupAgg,
    Product,
    Project,
    Select,
    Union,
    relation,
)
from repro.query.executor import _PlanWalk, execute_deterministic, prepare
from repro.query.predicates import cmp_


def test_every_physical_operator_is_dispatched():
    """A new operator cannot be added to one domain only: the one walk
    must know every concrete ``PhysicalOp`` subclass."""
    operators = {
        cls
        for cls in vars(physical).values()
        if isinstance(cls, type)
        and issubclass(cls, physical.PhysicalOp)
        and cls is not physical.PhysicalOp
    }
    assert set(_PlanWalk._DISPATCH) == operators


@pytest.fixture(params=[False, True], ids=["interpreter", "kernel"])
def run(request, monkeypatch):
    monkeypatch.setenv("REPRO_CODEGEN", "1" if request.param else "0")

    def run(query, semiring, **tables):
        world = {
            name: Relation(Schema(attributes), semiring, rows)
            for name, (attributes, rows) in tables.items()
        }
        prepared = prepare(
            query,
            {name: rel.schema for name, rel in world.items()},
            {name: len(rel) for name, rel in world.items()},
            optimize=False,
        )
        return execute_deterministic(prepared, world, semiring)

    return run


class TestConcreteOperators:
    def test_select(self, run):
        result = run(
            Select(relation("R"), cmp_("a", ">", 3)),
            NATURALS,
            R=(["a"], [((1,), 1), ((5,), 2)]),
        )
        assert dict(result.tuples()) == {(5,): 2}

    def test_project_adds_multiplicities(self, run):
        result = run(
            Project(relation("R"), ["a"]),
            NATURALS,
            R=(["a", "b"], [((1, 10), 2), ((1, 20), 3)]),
        )
        assert result.multiplicity((1,)) == 5

    def test_project_boolean_merges(self, run):
        result = run(
            Project(relation("R"), ["a"]),
            BOOLEAN,
            R=(["a", "b"], [((1, 10), True), ((1, 20), True)]),
        )
        assert result.multiplicity((1,)) is True

    def test_product_multiplies(self, run):
        result = run(
            Product(relation("R"), relation("S")),
            NATURALS,
            R=(["a"], [((1,), 2)]),
            S=(["b"], [((9,), 3)]),
        )
        assert result.multiplicity((1, 9)) == 6

    def test_union_adds(self, run):
        result = run(
            Union(relation("R"), relation("S")),
            NATURALS,
            R=(["a"], [((1,), 1)]),
            S=(["a"], [((1,), 2), ((2,), 1)]),
        )
        assert dict(result.tuples()) == {(1,): 3, (2,): 1}

    def test_extend_copies_attribute(self, run):
        result = run(
            Extend(relation("R"), "b", "a"), NATURALS, R=(["a"], [((7,), 1)])
        )
        assert result.support() == {(7, 7)}


class TestConcreteGroupAggregate:
    def aggregate(self, run, semiring, attributes, rows, groupby, *specs):
        query = GroupAgg(
            relation("R"), groupby, [AggSpec.of(*spec) for spec in specs]
        )
        return run(query, semiring, R=(attributes, rows))

    def test_sum_with_bag_multiplicities(self, run):
        result = self.aggregate(
            run,
            NATURALS,
            ["g", "v"],
            [((1, 10), 2), ((1, 5), 1), ((2, 7), 1)],
            ["g"],
            ("total", "SUM", "v"),
        )
        assert dict(result.tuples()) == {(1, 25): 1, (2, 7): 1}  # 2·10 + 5

    def test_count_counts_multiplicities(self, run):
        result = self.aggregate(
            run, NATURALS, ["g", "v"], [((1, 10), 2), ((1, 5), 1)], ["g"],
            ("n", "COUNT"),
        )
        assert result.support() == {(1, 3)}

    def test_min_ignores_multiplicity_magnitude(self, run):
        result = self.aggregate(
            run, NATURALS, ["g", "v"], [((1, 10), 5), ((1, 3), 1)], ["g"],
            ("m", "MIN", "v"),
        )
        assert result.support() == {(1, 3)}

    def test_prod_exponentiates_multiplicity(self, run):
        result = self.aggregate(
            run, NATURALS, ["v"], [((2,), 3)], [], ("p", "PROD", "v")
        )
        assert result.support() == {(8,)}

    def test_global_aggregate_on_empty_input_yields_neutral(self, run):
        result = self.aggregate(run, NATURALS, ["v"], [], [], ("m", "MIN", "v"))
        assert result.support() == {(math.inf,)}

    def test_grouped_aggregate_on_empty_input_is_empty(self, run):
        result = self.aggregate(
            run, NATURALS, ["g", "v"], [], ["g"], ("m", "MIN", "v")
        )
        assert len(result) == 0

    def test_multiple_aggregates(self, run):
        result = self.aggregate(
            run,
            BOOLEAN,
            ["g", "v"],
            [((1, 10), True), ((1, 30), True)],
            ["g"],
            ("mn", "MIN", "v"),
            ("mx", "MAX", "v"),
            ("n", "COUNT"),
        )
        assert result.support() == {(1, 10, 30, 2)}

    def test_group_tuple_multiplicity_is_one(self, run):
        result = self.aggregate(
            run, NATURALS, ["g", "v"], [((1, 10), 7)], ["g"], ("n", "COUNT")
        )
        assert result.multiplicity((1, 7)) == 1
