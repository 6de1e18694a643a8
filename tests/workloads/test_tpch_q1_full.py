"""Tests for the multi-aggregate TPC-H Q1 variant."""

import pytest

from repro.engine.sprout import SproutEngine
from repro.workloads.tpch import TPCHConfig, generate_tpch, tpch_q1_full


@pytest.fixture(scope="module")
def tiny_db():
    return generate_tpch(TPCHConfig(scale_factor=0.02, seed=11))


class TestQ1Full:
    def test_schema(self, tiny_db):
        catalog = {n: t.schema for n, t in tiny_db.tables.items()}
        schema = tpch_q1_full().schema(catalog)
        assert schema.attributes == (
            "l_returnflag",
            "l_linestatus",
            "sum_qty",
            "sum_base_price",
            "count_order",
        )
        assert schema.is_aggregation("sum_qty")
        assert not schema.is_aggregation("l_returnflag")

    def test_runs_and_reports_distributions(self, tiny_db):
        result = SproutEngine(tiny_db).run(tpch_q1_full())
        assert len(result) >= 1
        row = result.rows[0]
        qty = row.value_distribution("sum_qty")
        count = row.value_distribution("count_order")
        assert qty.total() == pytest.approx(1.0)
        assert count.total() == pytest.approx(1.0)
        # sums dominate counts valuewise (quantities are ≥ 1)
        assert qty.expectation() >= count.expectation()

    def test_joint_aggregates_are_consistent(self, tiny_db):
        # In every world, sum_qty ≥ count_order (each counted line has
        # quantity ≥ 1); check via the joint distribution.
        from repro.core import Compiler

        result = SproutEngine(tiny_db).run(tpch_q1_full())
        row = result.rows[0]
        modules = row.module_attributes()
        compiler = Compiler(tiny_db.registry, tiny_db.semiring)
        joint = compiler.joint_distribution(
            [modules["sum_qty"], modules["count_order"]]
        )
        for (qty, count), probability in joint.items():
            if probability > 0:
                assert qty >= count
