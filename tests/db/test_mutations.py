"""Mutable pvc-tables: epochs, the scan/index record, mutation counters.

The headline regression here is the stale-cache bug PR 10 fixed: the
scan/index caches used to be keyed on ``len(self.rows)``, so an
**equal-size in-place update** (same row count, different data) kept
serving the pre-update caches.  Epoch-keyed caches must never do that —
nor may a view built before a write be stamped with the epoch after it.
"""

from __future__ import annotations

import pytest

from repro.algebra.expressions import ONE, Var, ssum
from repro.db.mutations import LineageIndex
from repro.db.pvc_table import (
    PVCDatabase,
    PVCTable,
    merge_annotated_rows,
    tuple_getter,
)
from repro.db.schema import Schema
from repro.errors import (
    DistributionError,
    QueryValidationError,
    SchemaError,
)
from repro.prob.variables import VariableRegistry


def small_table() -> PVCTable:
    table = PVCTable(Schema(["sid", "shop"]))
    table.add((1, "M&S"), Var("x1"))
    table.add((2, "Boots"), Var("x2"))
    table.add((3, "Tesco"), Var("x3"))
    return table


def fresh_db() -> PVCDatabase:
    db = PVCDatabase(registry=VariableRegistry())
    db.create_table("items", ["name", "price"])
    return db


class TestEpochDiscipline:
    def test_every_mutator_bumps_the_epoch(self):
        table = small_table()
        epoch = table.epoch
        table.add((4, "Spar"), Var("x4"))
        assert table.epoch == epoch + 1
        table.update_rows(
            lambda row: row.values[0] == 4,
            lambda row: row.__class__((4, "Lidl"), row.annotation),
        )
        assert table.epoch == epoch + 2
        table.delete_rows(lambda row: row.values[0] == 4)
        assert table.epoch == epoch + 3
        table.invalidate_caches()
        assert table.epoch == epoch + 4

    def test_equal_size_update_invalidates_scan_cache(self):
        # The PR-10 regression: same row count, different data.  A
        # len()-keyed cache would return the pre-update scan here.
        table = small_table()
        before = table.scan_rows()
        assert ((1, "M&S"), Var("x1")) in before
        matched = table.update_rows(
            lambda row: row.values[1] == "M&S",
            lambda row: row.__class__((1, "Ocado"), row.annotation),
        )
        assert matched == 1
        assert len(table) == 3  # unchanged cardinality
        after = table.scan_rows()
        assert ((1, "Ocado"), Var("x1")) in after
        assert all(values != (1, "M&S") for values, _ in after)

    def test_equal_size_update_invalidates_hash_index(self):
        table = small_table()
        index = table.hash_index((1,))
        assert ("M&S",) in index
        table.update_rows(
            lambda row: row.values[1] == "M&S",
            lambda row: row.__class__((1, "Ocado"), row.annotation),
        )
        index = table.hash_index((1,))
        assert ("M&S",) not in index
        assert index[("Ocado",)] == [((1, "Ocado"), Var("x1"))]

    def test_database_generation_moves_on_every_mutation(self):
        db = fresh_db()
        generation = db.generation
        db.insert("items", ("inkjet", 99), p=0.7)
        assert db.generation > generation
        generation = db.generation
        db.update("items", {"name": "inkjet"}, set_values={"price": 120})
        assert db.generation > generation
        generation = db.generation
        db.update("items", {"name": "inkjet"}, p=0.4)
        assert db.generation > generation  # registry epoch moved
        generation = db.generation
        db.delete("items", {"name": "inkjet"})
        assert db.generation > generation


def _rebuilt_index(table, key_indices) -> dict:
    """``hash_index(key_indices)`` as a from-scratch merge of the rows."""
    key_of = tuple_getter(key_indices)
    buckets: dict = {}
    for entry in merge_annotated_rows(
        (row.values, row.annotation) for row in table.rows
    ):
        buckets.setdefault(key_of(entry[0]), []).append(entry)
    return buckets


_INSERTS = {
    "new values": ((4, "Spar"), Var("x4")),
    "duplicate values": ((1, "M&S"), Var("y0")),
    "zero annotation": ((9, "Ghost"), ssum([])),
}


class TestAnInsertDropsTheRecord:
    """``add`` drops the scan/index record like every other writer: a
    record is never edited once published, so what a reader holds keeps
    the rows it read, and the next read is a rebuild from the rows."""

    @pytest.mark.parametrize("insert", list(_INSERTS), ids=list(_INSERTS))
    def test_a_held_scan_and_bucket_survive_an_insert(self, insert):
        table = small_table()
        scan = table.scan_rows()
        index = table.hash_index((1,))
        bucket = index[("M&S",)]
        scan_before = list(scan)
        index_before = {key: list(entries) for key, entries in index.items()}
        table.add(*_INSERTS[insert])
        assert scan == scan_before
        assert index == index_before
        assert bucket == [((1, "M&S"), Var("x1"))]

    def test_every_insert_reads_like_a_rebuild(self):
        table = small_table()
        for values, annotation in [
            *_INSERTS.values(),
            ((4, "Spar"), Var("x5")),
            ((1, "M&S"), Var("y1")),
        ]:
            table.hash_index((1,))
            table.add(values, annotation)
            assert table.scan_rows() == merge_annotated_rows(
                (row.values, row.annotation) for row in table.rows
            )
            assert table.hash_index((1,)) == _rebuilt_index(table, (1,))

    def test_every_writer_drops_the_record(self):
        table = small_table()
        for write in [
            lambda: table.add((4, "Spar"), Var("x4")),
            lambda: table.add((4, "Spar"), Var("x5")),
            lambda: table.add((9, "Ghost"), ssum([])),
            lambda: table.update_rows(
                lambda row: row.values[0] == 4,
                lambda row: row.__class__((4, "Lidl"), row.annotation),
            ),
            lambda: table.delete_rows(lambda row: row.values[0] == 4),
            table.invalidate_caches,
        ]:
            table.hash_index((1,))
            write()
            assert table._view_cache is None

    def test_append_duplicate_merges_annotations_like_fresh_build(self):
        table = small_table()
        table.scan_rows()
        table.add((1, "M&S"), Var("x9"))
        incremental = table.scan_rows()
        rebuilt = merge_annotated_rows(
            (row.values, row.annotation) for row in table.rows
        )
        assert incremental == rebuilt
        assert incremental[0] == ((1, "M&S"), ssum([Var("x1"), Var("x9")]))

    def test_zero_annotated_append_keeps_merged_view(self):
        table = small_table()
        before = list(table.scan_rows())
        table.add((9, "Ghost"), ssum([]))  # zero annotation
        assert table.scan_rows() == before
        assert table._view_cache[0] == table.epoch

    def test_delete_refreshes_scan_and_buckets(self):
        table = small_table()
        table.scan_rows()
        table.hash_index((1,))
        removed = table.delete_rows(lambda row: row.values[1] == "Boots")
        assert removed == 1
        assert ("Boots",) not in table.hash_index((1,))
        assert [values for values, _ in table.scan_rows()] == [
            (1, "M&S"),
            (3, "Tesco"),
        ]

    def test_caches_after_every_writer_match_fresh_table(self):
        table = small_table()
        table.scan_rows()
        table.hash_index((1,))
        table.add((1, "M&S"), Var("x4"))
        table.update_rows(
            lambda row: row.values[0] == 2,
            lambda row: row.__class__((2, "Superdrug"), row.annotation),
        )
        table.delete_rows(lambda row: row.values[0] == 3)
        fresh = PVCTable(table.schema, list(table.rows))
        assert table.scan_rows() == fresh.scan_rows()
        assert table.hash_index((1,)) == fresh.hash_index((1,))


def _append_merging(table):
    table.add((1, "M&S"), Var("x9"))  # merges into the first scan entry


def _update(table):
    table.update_rows(
        lambda row: row.values[0] == 1,
        lambda row: row.__class__((1, "Ocado"), row.annotation),
    )


def _delete(table):
    table.delete_rows(lambda row: row.values[0] == 2)


@pytest.mark.parametrize("write", [_append_merging, _update, _delete])
class TestWriteBetweenBuildAndStamp:
    """A write that lands after a reader built its view but before the
    reader stamped it must not leave the pre-write view stamped current:
    every later read equals a table built from the final rows."""

    def assert_like_fresh(self, table):
        fresh = PVCTable(table.schema, list(table.rows))
        assert table.scan_rows() == fresh.scan_rows()
        assert table.hash_index((1,)) == fresh.hash_index((1,))

    def test_scan_rows(self, write, monkeypatch):
        table = small_table()

        def merge_then_write(rows):
            merged = merge_annotated_rows(rows)
            monkeypatch.undo()
            write(table)
            return merged

        monkeypatch.setattr(
            "repro.db.pvc_table.merge_annotated_rows", merge_then_write
        )
        table.scan_rows()
        self.assert_like_fresh(table)

    def test_hash_index(self, write, monkeypatch):
        table = small_table()
        scan = table.scan_rows()

        def getter_that_writes(indices):
            key_of = tuple_getter(indices)

            def key_of_then_write(values):
                if values == scan[-1][0]:  # the build's last row
                    monkeypatch.undo()
                    write(table)
                return key_of(values)

            return key_of_then_write

        monkeypatch.setattr(
            "repro.db.pvc_table.tuple_getter", getter_that_writes
        )
        table.hash_index((1,))
        self.assert_like_fresh(table)


class TestDatabaseMutationAPI:
    def test_update_with_mapping_where_and_set(self):
        db = fresh_db()
        db.insert("items", ("inkjet", 99), p=0.7)
        db.insert("items", ("laser", 300), p=0.5)
        matched = db.update(
            "items", {"name": "inkjet"}, set_values={"price": 120}
        )
        assert matched == 1
        assert db["items"].rows[0].values == ("inkjet", 120)

    def test_update_with_callable_where_and_set(self):
        db = fresh_db()
        db.insert("items", ("inkjet", 99), p=0.7)
        db.insert("items", ("laser", 300), p=0.5)
        matched = db.update(
            "items",
            lambda row: row["price"] > 100,
            set_values=lambda row: {"price": row["price"] * 2},
        )
        assert matched == 1
        assert db["items"].rows[1].values == ("laser", 600)

    def test_update_probability_reassigns_variable(self):
        db = fresh_db()
        expr = db.insert("items", ("inkjet", 99), p=0.7)
        (name,) = expr.variables
        assert db.registry[name][True] == pytest.approx(0.7)
        db.update("items", {"name": "inkjet"}, p=0.2)
        assert db.registry[name][True] == pytest.approx(0.2)

    def test_update_p_resolves_where_before_set_rewrite(self):
        # set_values rewrites the attribute the where-clause matches on;
        # the probability reassignment must still hit the matched rows.
        db = fresh_db()
        expr = db.insert("items", ("inkjet", 99), p=0.7)
        (name,) = expr.variables
        db.update(
            "items",
            {"name": "inkjet"},
            set_values={"name": "laser"},
            p=0.1,
        )
        assert db["items"].rows[0].values == ("laser", 99)
        assert db.registry[name][True] == pytest.approx(0.1)

    def test_update_p_requires_single_variable_annotation(self):
        db = fresh_db()
        db.insert("items", ("inkjet", 99))  # certain row (annotation 1)
        with pytest.raises(DistributionError):
            db.update("items", {"name": "inkjet"}, p=0.5)

    def test_update_requires_set_or_p(self):
        db = fresh_db()
        with pytest.raises(QueryValidationError):
            db.update("items", {"name": "inkjet"})

    def test_unknown_where_attribute_raises(self):
        db = fresh_db()
        with pytest.raises(SchemaError):
            db.update("items", {"colour": "red"}, set_values={"price": 1})

    def test_unknown_set_attribute_raises(self):
        db = fresh_db()
        db.insert("items", ("inkjet", 99))
        with pytest.raises(SchemaError):
            db.update("items", {"name": "inkjet"}, set_values={"colour": "red"})

    def test_delete_removes_matching_rows(self):
        db = fresh_db()
        db.insert("items", ("inkjet", 99), p=0.7)
        db.insert("items", ("laser", 300), p=0.5)
        assert db.delete("items", {"name": "inkjet"}) == 1
        assert len(db["items"]) == 1
        assert db.delete("items", {"name": "missing"}) == 0

    def test_bad_where_type_raises(self):
        db = fresh_db()
        with pytest.raises(QueryValidationError):
            db.delete("items", 42)


class TestMutationCounters:
    def test_mutations_are_counted_by_kind(self):
        db = fresh_db()
        db.insert("items", ("inkjet", 99), p=0.7)
        db.update("items", {"name": "inkjet"}, set_values={"price": 1})
        db.update("items", {"name": "inkjet"}, p=0.3)
        db.delete("items", {"name": "inkjet"})
        assert db.mutations == {"insert": 1, "update": 2, "delete": 1}

    def test_only_probability_updates_are_recorded_as_reassignments(self):
        db = fresh_db()
        db.insert("items", ("inkjet", 99), p=0.7)
        before = db.registry.epoch
        db.update("items", {"name": "inkjet"}, set_values={"price": 1})
        assert db.registry.reassigned_since(before) == []
        db.update("items", {"name": "inkjet"}, p=0.3)
        assert db.registry.reassigned_since(before) == ["items_0"]

    def test_no_op_mutations_count_nothing(self):
        db = fresh_db()
        db.insert("items", ("inkjet", 99), p=0.7)
        counted, epoch = dict(db.mutations), db.registry.epoch
        assert db.update("items", {"name": "nope"}, set_values={"price": 1}) == 0
        assert db.update("items", {"name": "nope"}, p=0.1) == 0
        assert db.delete("items", {"name": "nope"}) == 0
        assert db.mutations == counted and db.registry.epoch == epoch


class TestLineageIndex:
    def test_record_and_pop_by_variable(self):
        index = LineageIndex()
        index.record("key-a", {"x", "y"})
        index.record("key-b", {"y", "z"})
        assert index.dependents("y") == {"key-a", "key-b"}
        popped = index.pop({"x"})
        assert popped == {"key-a"}
        assert index.dependents("y") == {"key-b"}
        assert len(index) == 1

    def test_discard_unlinks_both_directions(self):
        index = LineageIndex()
        index.record("key-a", {"x"})
        index.discard("key-a")
        assert index.dependents("x") == set()
        assert index.pop({"x"}) == set()


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
