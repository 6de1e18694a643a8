"""Unit tests for deterministic relations with semiring multiplicities."""

import math

import pytest

from repro.algebra.monoid import COUNT, MAX, MIN, PROD, SUM
from repro.algebra.semiring import BOOLEAN, NATURALS
from repro.db.relation import Relation
from repro.db.schema import Schema
from repro.errors import SchemaError


def bag(attrs, rows):
    return Relation(Schema(attrs), NATURALS, rows)


def setrel(attrs, rows):
    return Relation(Schema(attrs), BOOLEAN, rows)


class TestMultiplicities:
    def test_add_accumulates(self):
        rel = bag(["a"], [((1,), 2), ((1,), 3)])
        assert rel.multiplicity((1,)) == 5

    def test_boolean_add_is_or(self):
        rel = setrel(["a"], [((1,), True), ((1,), True)])
        assert rel.multiplicity((1,)) is True
        assert len(rel) == 1

    def test_zero_multiplicity_removed(self):
        rel = setrel(["a"], [((1,), False)])
        assert len(rel) == 0
        assert (1,) not in rel

    def test_arity_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            bag(["a", "b"], [((1,), 1)])

    def test_support(self):
        rel = bag(["a"], [((1,), 2), ((2,), 1)])
        assert rel.support() == {(1,), (2,)}


class TestOperators:
    def test_select(self):
        rel = bag(["a"], [((1,), 1), ((5,), 2)])
        result = rel.select(lambda row: row["a"] > 3)
        assert result.support() == {(5,)}

    def test_project_adds_multiplicities(self):
        rel = bag(["a", "b"], [((1, 10), 2), ((1, 20), 3)])
        result = rel.project(["a"])
        assert result.multiplicity((1,)) == 5

    def test_project_boolean_merges(self):
        rel = setrel(["a", "b"], [((1, 10), True), ((1, 20), True)])
        assert rel.project(["a"]).multiplicity((1,)) is True

    def test_product_multiplies(self):
        left = bag(["a"], [((1,), 2)])
        right = bag(["b"], [((9,), 3)])
        result = left.product(right)
        assert result.multiplicity((1, 9)) == 6

    def test_product_semiring_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            bag(["a"], []).product(setrel(["b"], []))

    def test_union_adds(self):
        r1 = bag(["a"], [((1,), 1)])
        r2 = bag(["a"], [((1,), 2), ((2,), 1)])
        result = r1.union(r2)
        assert result.multiplicity((1,)) == 3
        assert result.multiplicity((2,)) == 1

    def test_union_schema_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            bag(["a"], []).union(bag(["b"], []))

    def test_extend_copies_attribute(self):
        rel = bag(["a"], [((7,), 1)])
        result = rel.extend("b", "a")
        assert result.support() == {(7, 7)}


class TestGroupAggregate:
    def test_sum_with_bag_multiplicities(self):
        rel = bag(["g", "v"], [((1, 10), 2), ((1, 5), 1), ((2, 7), 1)])
        result = rel.group_aggregate(["g"], [("total", SUM, "v")])
        assert result.multiplicity((1, 25)) == 1  # 2·10 + 5
        assert result.multiplicity((2, 7)) == 1

    def test_count_counts_multiplicities(self):
        rel = bag(["g", "v"], [((1, 10), 2), ((1, 5), 1)])
        result = rel.group_aggregate(["g"], [("n", COUNT, None)])
        assert result.support() == {(1, 3)}

    def test_min_ignores_multiplicity_magnitude(self):
        rel = bag(["g", "v"], [((1, 10), 5), ((1, 3), 1)])
        result = rel.group_aggregate(["g"], [("m", MIN, "v")])
        assert result.support() == {(1, 3)}

    def test_max_boolean(self):
        rel = setrel(["g", "v"], [((1, 10), True), ((1, 30), True)])
        result = rel.group_aggregate(["g"], [("m", MAX, "v")])
        assert result.support() == {(1, 30)}

    def test_prod_exponentiates_multiplicity(self):
        rel = bag(["v"], [((2,), 3)])
        result = rel.group_aggregate([], [("p", PROD, "v")])
        assert result.support() == {(8,)}

    def test_global_aggregate_on_empty_input_yields_neutral(self):
        rel = bag(["v"], [])
        result = rel.group_aggregate([], [("m", MIN, "v")])
        assert result.support() == {(math.inf,)}

    def test_grouped_aggregate_on_empty_input_is_empty(self):
        rel = bag(["g", "v"], [])
        result = rel.group_aggregate(["g"], [("m", MIN, "v")])
        assert len(result) == 0

    def test_multiple_aggregates(self):
        rel = setrel(["g", "v"], [((1, 10), True), ((1, 30), True)])
        result = rel.group_aggregate(
            ["g"], [("mn", MIN, "v"), ("mx", MAX, "v"), ("n", COUNT, None)]
        )
        assert result.support() == {(1, 10, 30, 2)}

    def test_group_tuple_multiplicity_is_one(self):
        rel = bag(["g", "v"], [((1, 10), 7)])
        result = rel.group_aggregate(["g"], [("n", COUNT, None)])
        assert result.multiplicity((1, 7)) == 1


class TestHashIndexMemo:
    """The per-key-set hash index is memoised until the relation mutates."""

    def rel(self):
        return bag(["a", "b"], [((1, "x"), 2), ((2, "y"), 1)])

    def test_hash_index_memoised(self):
        r = self.rel()
        index = r.hash_index(["a"])
        assert index[(1,)] == [((1, "x"), 2)]
        assert r.hash_index(["a"]) is index

    def test_mutation_invalidates(self):
        r = self.rel()
        index = r.hash_index(["a"])
        r.add((3, "z"), 1)
        assert (3,) in r.hash_index(["a"])
        assert r.hash_index(["a"]) is not index

    def test_multiplicity_change_without_len_change_invalidates(self):
        """The trap a row-count key would miss: ``add`` can change a
        multiplicity — or cancel a tuple — without changing ``len``."""
        r = self.rel()
        index = r.hash_index(["a"])
        assert index[(1,)] == [((1, "x"), 2)]
        r.add((1, "x"), 3)  # merged: same len(), new multiplicity
        assert len(r) == 2
        assert r.hash_index(["a"])[(1,)] == [((1, "x"), 5)]

    def test_from_mapping_starts_clean(self):
        r = Relation.from_mapping(
            Schema(["a"]), NATURALS, {(1,): 2, (2,): 1}
        )
        assert sorted(r.hash_index(["a"])) == [(1,), (2,)]
        r.add((3,), 1)
        assert sorted(r.hash_index(["a"])) == [(1,), (2,), (3,)]
