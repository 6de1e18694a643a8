"""``engine="auto"`` reads independence facts, never rows.

Three checks on the dispatch path: a warm database answers
``select_engine_name`` without iterating one base row; a reader racing a
writer never sees an answer that mixes two epochs; and on the micro
instance of every benchmark workload ``auto`` picks the engine the old
row scan picked, statement by statement.
"""

from __future__ import annotations

import pathlib
import sys
import threading
import time

import pytest

from repro import connect
from repro.algebra.expressions import Var
from repro.db.pvc_table import PVCTable, TableFacts
from repro.engine.base import select_engine_name
from repro.query.ast import relation
from repro.query.sql import parse_sql
from repro.query.tractability import tuple_independent_relations

ROOT = pathlib.Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.perf import data  # noqa: E402
from tests.property.test_independence_facts import (  # noqa: E402
    scanned_tuple_independent_relations,
)


def _shop_session():
    s = connect(seed=3)
    items = s.table("items", ["name", "price"])
    for name, price, p in [("inkjet", 99, 0.7), ("laser", 300, 0.4), ("toner", 45, 0.9)]:
        items.insert((name, price), p=p)
    shops = s.table("shops", ["shop"])
    shops.insert(("M&S",))
    return s


class TestNoRowIsRead:
    def test_select_engine_name_iterates_zero_base_rows(self, monkeypatch):
        s = _shop_session()
        # Writes of every kind, so the facts are maintained, not fresh.
        s.table("items").insert(("drum", 120), p=0.5)
        s.table("items").update({"name": "laser"}, {"price": 250})
        s.table("items").delete({"name": "toner"})
        iterated = []
        counted = []
        real_iter = PVCTable.__iter__
        real_count = TableFacts.count_row
        monkeypatch.setattr(
            PVCTable, "__iter__",
            lambda table: iterated.append(table) or real_iter(table),
        )
        monkeypatch.setattr(
            TableFacts, "count_row",
            lambda facts, row, sign: counted.append(row)
            or real_count(facts, row, sign),
        )
        name, classification = select_engine_name(s.db, relation("items"))
        assert (name, classification.tractable) == ("sprout", True)
        assert iterated == [] and counted == []

    def test_a_prefilled_table_is_counted_once_alone(self, monkeypatch):
        s = _shop_session()
        tuple_independent_relations(s.db)
        alias = PVCTable(s.db["items"].schema, list(s.db["items"].rows))
        s.db.add_table("items_again", alias)
        counted = []
        real_count = TableFacts.count_row
        monkeypatch.setattr(
            TableFacts, "count_row",
            lambda facts, row, sign: counted.append(row)
            or real_count(facts, row, sign),
        )
        # The alias shares every variable with its original.
        assert tuple_independent_relations(s.db) == {"shops"}
        assert counted == alias.rows
        del counted[:]
        assert tuple_independent_relations(s.db) == {"shops"}
        assert counted == []


class TestConcurrentWriter:
    def test_reader_never_observes_two_epochs_mixed(self):
        """The writer keeps a reused variable in ``a`` or in ``b`` (or in
        both) at every instant, so no database state has both tables
        independent; only an answer assembled from ``a`` at one epoch and
        ``b`` at another could say so."""
        s = connect()
        for name in ("a", "b"):
            table = s.table(name, ["k"])
            for k in range(40):
                table.insert((k,), p=0.5)
        db = s.db
        db.registry.bernoulli("dup_a", 0.5)
        db.registry.bernoulli("dup_b", 0.5)

        def taint(name):
            db.insert(name, (-1,), annotation=Var(f"dup_{name}"))
            db.insert(name, (-2,), annotation=Var(f"dup_{name}"))

        def clean(name):
            db.delete(name, lambda row: row["k"] < 0)

        taint("a")
        stop = threading.Event()
        failures = []

        def write():
            while not stop.is_set():
                taint("b")
                clean("a")
                taint("a")
                clean("b")

        def read():
            while not stop.is_set():
                answer = tuple_independent_relations(db)
                if {"a", "b"} <= answer:
                    failures.append(answer)
                    stop.set()

        threads = [threading.Thread(target=write)] + [
            threading.Thread(target=read) for _ in range(3)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            time.sleep(1.0)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        # Quiescent again: the facts the writer maintained match a scan.
        assert tuple_independent_relations(db) == (
            scanned_tuple_independent_relations(db)
        )


def _micro_statements():
    """``(id, session, query, options)`` for every statement of the five
    benchmark workloads on its micro instance that leaves the engine to
    ``auto``."""
    for workload in data.IN_PROCESS.values():
        by_name = {s.name: s for s in workload.statements}
        for build, names in workload.micro:
            for name in names:
                statement = by_name[name]
                if statement.options.get("engine", "auto") != "auto":
                    continue
                db = build(7)
                query = (
                    statement.bind(db) if statement.bind is not None
                    else statement.query
                )
                yield (
                    f"{workload.name}:{name}",
                    connect(database=db, seed=7), query, statement.options,
                )
    # served_reads and served_mixed send the same statement shapes.
    for sql in data.TRAFFIC_SHAPES:
        yield f"served:{sql}", data.micro_demo_session(7), sql, {}


@pytest.mark.parametrize(
    "session, query, options",
    [pytest.param(*case[1:], id=case[0]) for case in _micro_statements()],
)
def test_auto_picks_the_engine_the_row_scan_picked(session, query, options):
    parsed = parse_sql(query) if isinstance(query, str) else query
    expected = select_engine_name(
        session.db, parsed,
        tuple_independent=scanned_tuple_independent_relations(session.db),
    )[0]
    assert select_engine_name(session.db, parsed)[0] == expected
    if "mode" in options or "samples" in options:
        return  # the spec, not the classification, decides these
    result = (
        session.sql(query, **options) if isinstance(query, str)
        else session.run(query, **options)
    )
    assert result.engine == expected
