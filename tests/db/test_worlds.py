"""Tests for possible-world enumeration of pvc-databases."""

import pytest

from repro.algebra.expressions import Var
from repro.algebra.semiring import BOOLEAN, NATURALS
from repro.db.pvc_table import PVCDatabase, PVCRow, PVCTable
from repro.db.schema import Schema
from repro.db.worlds import enumerate_database_worlds, world_count
from repro.errors import ConcurrentMutationError
from repro.prob.distribution import Distribution
from repro.prob.variables import VariableRegistry


def two_table_db():
    reg = VariableRegistry()
    reg.bernoulli("x", 0.5)
    reg.bernoulli("y", 0.25)
    db = PVCDatabase(registry=reg, semiring=BOOLEAN)
    r = db.create_table("R", ["a"])
    r.add((1,), Var("x"))
    s = db.create_table("S", ["b"])
    s.add((2,), Var("y"))
    return db


class TestEnumeration:
    def test_world_count(self):
        assert world_count(two_table_db()) == 4

    def test_probabilities_sum_to_one(self):
        total = sum(p for _, p in enumerate_database_worlds(two_table_db()))
        assert total == pytest.approx(1.0)

    def test_each_world_has_all_tables(self):
        for world, _ in enumerate_database_worlds(two_table_db()):
            assert set(world) == {"R", "S"}

    def test_world_contents_follow_valuation(self):
        db = two_table_db()
        seen = set()
        for world, prob in enumerate_database_worlds(db):
            seen.add((len(world["R"]), len(world["S"])))
        assert seen == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_specific_world_probability(self):
        db = two_table_db()
        both_present = sum(
            p
            for world, p in enumerate_database_worlds(db)
            if len(world["R"]) == 1 and len(world["S"]) == 1
        )
        assert both_present == pytest.approx(0.125)

    def test_unused_registry_variables_marginalised(self):
        db = two_table_db()
        db.registry.bernoulli("unused", 0.5)
        assert world_count(db) == 4  # still only x, y

    def test_bag_semantics_worlds(self):
        reg = VariableRegistry()
        reg.integer("m", {0: 0.5, 2: 0.5})
        db = PVCDatabase(registry=reg, semiring=NATURALS)
        table = db.create_table("R", ["a"])
        table.add((1,), Var("m"))
        multiplicities = {
            world["R"].multiplicity((1,))
            for world, _ in enumerate_database_worlds(db)
        }
        assert multiplicities == {0, 2}


class TestMutationMidSweep:
    """The sweep reads the live tables once per world; anything that
    changes what the next world would be built from must stop it."""

    def sweep_after(self, db, mutate):
        worlds = enumerate_database_worlds(db)
        next(worlds)
        mutate()
        with pytest.raises(ConcurrentMutationError):
            next(worlds)

    def test_row_write_raises(self):
        db = two_table_db()
        self.sweep_after(db, lambda: db["R"].add((3,), Var("y")))

    def test_inserting_a_row_over_a_fresh_variable_raises(self):
        # The next world does not assign the new variable: the stamp must
        # be compared before that world is built from the live tables.
        db = two_table_db()
        self.sweep_after(db, lambda: db.insert("R", (3,), p=0.5))

    def test_probability_update_raises(self):
        db = two_table_db()
        self.sweep_after(
            db, lambda: db.registry.reassign("x", Distribution.bernoulli(0.9))
        )

    def test_registering_a_prebuilt_table_raises(self):
        # A prebuilt table starts at epoch 0: the epoch *sum* stays put.
        db = two_table_db()
        prebuilt = PVCTable(Schema(["c"]), [PVCRow((5,), Var("x"))])
        before = db.generation
        self.sweep_after(db, lambda: db.add_table("T", prebuilt))
        assert db.generation == before

    def test_swapping_a_table_at_the_same_epoch_raises(self):
        db = two_table_db()
        twin = PVCTable(db["S"].schema)
        twin.add((7,), Var("y"))
        assert twin.epoch == db["S"].epoch

        def swap():
            db.tables["S"] = twin

        self.sweep_after(db, swap)

    def test_an_untouched_database_sweeps_to_the_end(self):
        assert len(list(enumerate_database_worlds(two_table_db()))) == 4
