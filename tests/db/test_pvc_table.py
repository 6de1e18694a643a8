"""Unit tests for pvc-tables and pvc-databases (Definition 6)."""

import math

import pytest

from repro.algebra.expressions import ONE, Var
from repro.algebra.monoid import MIN
from repro.algebra.semimodule import MConst, aggsum, tensor
from repro.algebra.semiring import BOOLEAN, NATURALS
from repro.algebra.valuation import Valuation
from repro.db.pvc_table import PVCDatabase, PVCTable
from repro.db.schema import Schema
from repro.errors import SchemaError
from repro.prob.variables import VariableRegistry


class TestPVCTable:
    def test_add_and_iterate(self):
        table = PVCTable(Schema(["a"]))
        table.add((1,), Var("x"))
        table.add((2,))
        rows = list(table)
        assert rows[0].annotation == Var("x")
        assert rows[1].annotation == ONE
        assert len(table) == 2

    def test_arity_checked(self):
        with pytest.raises(SchemaError):
            PVCTable(Schema(["a", "b"])).add((1,))

    def test_variables_include_values(self):
        table = PVCTable(Schema(["a", "agg"], ["agg"]))
        alpha = aggsum(MIN, [tensor(Var("y"), MConst(MIN, 3))])
        table.add((1, alpha), Var("x"))
        assert table.variables == {"x", "y"}

    def test_value_and_module_dicts(self):
        schema = Schema(["a", "agg"], ["agg"])
        table = PVCTable(schema)
        alpha = aggsum(MIN, [tensor(Var("y"), MConst(MIN, 3))])
        table.add((1, alpha), Var("x"))
        row = table.rows[0]
        assert row.value_dict(schema)["a"] == 1
        assert row.module_values(schema) == {"agg": alpha}

    def test_pretty_contains_annotations(self):
        table = PVCTable(Schema(["sid", "shop"]))
        table.add((1, "M&S"), Var("x1"))
        text = table.pretty()
        assert "x1" in text and "shop" in text

    def test_a_row_survives_pickling(self):
        # A frozen dataclass with slots needs the generated
        # __getstate__/__setstate__ pair; checked on every CI Python.
        import dataclasses
        import pickle

        from repro.db.pvc_table import PVCRow

        row = PVCRow((1, "M&S"), Var("x1"))
        copy = pickle.loads(pickle.dumps(row))
        assert copy == row and copy.annotation.variables == frozenset({"x1"})
        assert not hasattr(row, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            row.values = (2, "M&S")


class TestInstantiate:
    """Possible worlds of a pvc-table (Definition 6)."""

    def test_boolean_world(self):
        table = PVCTable(Schema(["a"]))
        table.add((1,), Var("x"))
        table.add((2,), Var("y"))
        nu = Valuation({"x": True, "y": False}, BOOLEAN)
        world = table.instantiate(nu, BOOLEAN)
        assert world.support() == {(1,)}

    def test_bag_world_keeps_multiplicities(self):
        table = PVCTable(Schema(["a"]))
        table.add((1,), Var("x"))
        nu = Valuation({"x": 3}, NATURALS)
        world = table.instantiate(nu, NATURALS)
        assert world.multiplicity((1,)) == 3

    def test_module_values_evaluate(self):
        table = PVCTable(Schema(["agg"], ["agg"]))
        alpha = aggsum(MIN, [tensor(Var("y"), MConst(MIN, 3))])
        table.add((alpha,), ONE)
        world = table.instantiate(Valuation({"y": False}, BOOLEAN), BOOLEAN)
        assert world.support() == {(math.inf,)}

    def test_duplicate_values_merge_in_world(self):
        table = PVCTable(Schema(["a"]))
        table.add((1,), Var("x"))
        table.add((1,), Var("y"))
        nu = Valuation({"x": True, "y": True}, BOOLEAN)
        assert len(table.instantiate(nu, BOOLEAN)) == 1


class TestPVCDatabase:
    def test_create_and_lookup(self):
        db = PVCDatabase()
        table = db.create_table("t", ["a"])
        assert db["t"] is table
        assert "t" in db

    def test_missing_table_raises(self):
        with pytest.raises(SchemaError, match="no table"):
            PVCDatabase()["missing"]

    def test_duplicate_table_rejected(self):
        db = PVCDatabase()
        db.create_table("t", ["a"])
        with pytest.raises(SchemaError, match="already"):
            db.create_table("t", ["a"])

    def test_database_variables(self):
        reg = VariableRegistry()
        db = PVCDatabase(registry=reg)
        t1 = db.create_table("t1", ["a"])
        t1.add((1,), Var("x"))
        t2 = db.create_table("t2", ["b"])
        t2.add((2,), Var("y"))
        assert db.variables == {"x", "y"}

    def test_repr_mentions_tables(self):
        db = PVCDatabase()
        db.create_table("t", ["a"])
        assert "t(0)" in repr(db)


class TestInsertHelpers:
    def test_insert_mints_fresh_variables(self):
        db = PVCDatabase()
        db.create_table("t", ["a"])
        first = db.insert("t", (1,), p=0.3)
        second = db.insert("t", (2,), p=0.6)
        assert isinstance(first, Var) and isinstance(second, Var)
        assert first.name != second.name
        assert db.registry[first.name][True] == 0.3

    def test_insert_avoids_registry_collisions(self):
        db = PVCDatabase()
        db.create_table("t", ["a"])
        db.registry.bernoulli("t_0", 0.9)  # name taken by someone else
        minted = db.insert("t", (1,), p=0.5)
        assert minted.name != "t_0"
        assert db.registry[minted.name][True] == 0.5

    def test_insert_certain_rows(self):
        db = PVCDatabase()
        db.create_table("t", ["a"])
        assert db.insert("t", (1,)) is ONE
        assert db.insert("t", (2,), p=1.0) is ONE
        assert len(db.registry) == 0

    def test_insert_named_variable_is_always_declared(self):
        from repro.errors import DistributionError

        db = PVCDatabase()
        db.create_table("t", ["a"])
        minted = db.insert("t", (1,), p=1.0, var="x9")
        assert minted == Var("x9") and "x9" in db.registry
        with pytest.raises(DistributionError, match="requires a probability"):
            db.insert("t", (2,), var="x10")
        with pytest.raises(DistributionError, match="cannot be combined"):
            db.insert("t", (3,), annotation=Var("x9"), var="x11")

    def test_insert_block_is_mutually_exclusive(self):
        from repro.db.worlds import enumerate_database_worlds

        reg = VariableRegistry()
        db = PVCDatabase(registry=reg, semiring=NATURALS)
        db.create_table("t", ["a"])
        db.insert_block("t", [((1,), 0.5), ((2,), 0.3)])
        together = sum(
            probability
            for world, probability in enumerate_database_worlds(db)
            if len(world["t"].support()) > 1
        )
        assert together == 0.0
        none = sum(
            probability
            for world, probability in enumerate_database_worlds(db)
            if not world["t"].support()
        )
        assert math.isclose(none, 0.2)

    def test_catalog_maps_names_to_schemas(self):
        db = PVCDatabase()
        db.create_table("t", ["a", "b"])
        assert db.catalog() == {"t": Schema(["a", "b"])}
