"""A prepared plan keeps its step-I answer for the table epochs it read.

The slot lives on the :class:`~repro.query.executor.PreparedQuery` (so in
its ``PlanCache`` entry), is stamped with the database and the
``(table, epoch)`` of every base relation of the query, and admits rows
on second sight: runs 1 and 2 at a stamp walk the plan, run 3 onwards is
served from the slot.  Every test compares with a session rebuilt from
scratch, row order included.
"""

from __future__ import annotations

import gc
import sys
import threading
import time

from repro import connect, count_, sum_
from repro.algebra.expressions import Var
from repro.cache import capture_stamp
from repro.engine.base import PlanCache
from repro.query import executor
from repro.session import Session
from tests.property.test_mutation_conformance import rebuilt_from_scratch

ROWS = (("a", 10, 0.5), ("a", 20, 0.4), ("b", 30, 0.7), ("b", 40, 0.2))


def build(rows=ROWS, **options) -> Session:
    s = connect(**options)
    items = s.table("items", ["kind", "value"])
    for kind, value, p in rows:
        items.insert((kind, value), p=p)
    other = s.table("other", ["kind", "label"])
    other.insert(("a", "label-a"), p=0.6)
    other.insert(("b", "label-b"), p=0.3)
    return s


def fingerprint(result):
    return result.engine, [
        (row.values, row.probability().low, row.probability().high)
        for row in result
    ]


def totals(session: Session):
    return session.table("items").group_by("kind").agg(total=sum_("value")).build()


def reused(session: Session, query, **options) -> bool:
    return session.run(query, **options).stats["step1_reused"]


def warm(session: Session, query, **options) -> None:
    """Two sights admit the rows; the next run is served from the slot."""
    assert reused(session, query, **options) is False
    assert reused(session, query, **options) is False


class TestReuse:
    def test_third_and_later_runs_reuse(self):
        s = build()
        query = totals(s)
        first = s.run(query)
        second = s.run(query)
        assert first.stats["step1_reused"] is False
        assert second.stats["step1_reused"] is False  # second sight: admitted
        for _ in range(3):
            later = s.run(query)
            assert later.stats["step1_reused"] is True
            assert fingerprint(later) == fingerprint(first)
        assert s.plan_cache.stats()["answers_reused"] == 3
        assert fingerprint(first) == fingerprint(rebuilt_from_scratch(s).run(query))

    def test_a_plan_that_ran_once_keeps_no_rows(self):
        s = build()
        query = totals(s)
        s.run(query)
        prepared = s.engine("sprout").prepare(query)
        stamp = capture_stamp(s.db, query.base_relations())
        assert prepared.answer.get(stamp) is None
        s.run(query)
        assert prepared.answer.get(stamp) is not None

    def test_write_to_a_read_table_misses(self):
        s = build()
        query = totals(s)
        warm(s, query)
        assert reused(s, query)
        # Equal-size update: same plan-cache entry, newer epoch.
        s.table("items").update({"kind": "a", "value": 10}, {"value": 11})
        after = s.run(query)
        assert after.stats["step1_reused"] is False
        assert fingerprint(after) == fingerprint(rebuilt_from_scratch(s).run(query))
        assert ("a",) == after.rows[0].values[:1]

    def test_insert_and_delete_on_a_read_table_miss(self):
        s = build()
        query = totals(s)
        warm(s, query)
        s.table("items").insert(("c", 7), p=0.5)
        assert reused(s, query) is False
        s.table("items").delete({"kind": "c"})
        # Back at the old cardinality: the old plan entry, a newer epoch.
        after = s.run(query)
        assert after.stats["step1_reused"] is False
        assert fingerprint(after) == fingerprint(rebuilt_from_scratch(s).run(query))

    def test_write_to_an_unrelated_table_still_reuses(self):
        s = build()
        query = totals(s)
        warm(s, query)
        s.table("other").update({"kind": "a"}, {"label": "renamed"})
        s.table("other").insert(("c", "label-c"), p=0.5)
        assert reused(s, query) is True

    def test_probability_update_reuses_step_one_and_reports_the_new_probability(self):
        s = build()
        query = s.table("items").select("kind").build()
        warm(s, query)
        before = s.run(query)
        s.table("items").update({"kind": "b"}, p=0.9)
        after = s.run(query)
        assert after.stats["step1_reused"] is True
        assert fingerprint(after) != fingerprint(before)
        assert fingerprint(after) == fingerprint(rebuilt_from_scratch(s).run(query))

    def test_approx_engine_shares_the_slot(self):
        s = build()
        query = totals(s)
        warm(s, query, engine="sprout")
        result = s.run(query, engine="approx", epsilon=0.01)
        assert result.stats["step1_reused"] is True
        cold = rebuilt_from_scratch(s).run(query, engine="approx", epsilon=0.01)
        assert fingerprint(result) == fingerprint(cold)

    def test_close_drops_the_answer_with_the_plan(self):
        s = build()
        query = totals(s)
        warm(s, query)
        assert reused(s, query) is True
        s.close()
        assert s.plan_cache.stats()["entries"] == 0
        assert reused(s, query) is False


class TestEngineChoice:
    """``engine="auto"`` keeps its classification on the plan's record,
    stamped with the independence facts it was derived from."""

    def test_choice_follows_facts_moved_by_a_table_the_query_does_not_read(self):
        s = build()
        query = totals(s)
        warm(s, query, engine="auto")
        assert s.run(query, engine="auto").engine == "sprout"
        # Reusing one of items' variables in `other` makes items
        # dependent without moving its epoch: the kept rows stay valid,
        # the kept choice does not.
        shared = s.db.tables["items"].rows[0].annotation
        s.db.insert("other", ("z", "shared"), annotation=shared)
        after = s.run(query, engine="auto")
        assert after.engine == "approx"
        assert after.stats["step1_reused"] is True
        cold = rebuilt_from_scratch(s).run(query, engine="auto")
        assert fingerprint(after) == fingerprint(cold)

    def test_an_auto_run_is_still_one_counted_plan_lookup(self):
        s = build()
        query = totals(s)
        for _ in range(4):
            s.run(query, engine="auto")
        stats = s.plan_cache.stats()
        assert (stats["misses"], stats["hits"]) == (1, 3)


class TestNoCrossServing:
    def test_dropped_and_recreated_table(self):
        """Same name, same row count, same epoch — another table object."""
        s = build()
        query = totals(s)
        warm(s, query)
        old = s.db.tables.pop("items")
        items = s.table("items", ["kind", "value"])
        for kind, value, p in (("a", 1, 0.5), ("a", 2, 0.5), ("b", 3, 0.5), ("b", 4, 0.5)):
            items.insert((kind, value), p=p)
        assert (len(items.table), items.table.epoch) == (len(old), old.epoch)
        after = s.run(query)
        assert after.stats["step1_reused"] is False
        assert fingerprint(after) == fingerprint(rebuilt_from_scratch(s).run(query))

    def test_two_databases_sharing_one_plan_cache(self):
        plans = PlanCache()
        one = build(plan_cache=plans)
        two = build(
            (("a", 1, 0.9), ("a", 2, 0.9), ("b", 3, 0.9), ("b", 4, 0.9)),
            plan_cache=plans,
        )
        query = totals(one)
        expected_one = fingerprint(rebuilt_from_scratch(one).run(query))
        expected_two = fingerprint(rebuilt_from_scratch(two).run(query))
        assert expected_one != expected_two
        warm(one, query)
        assert reused(one, query) is True
        assert plans.stats()["entries"] == 1  # one plan, shared
        for _ in range(3):
            assert fingerprint(two.run(query)) == expected_two
            assert fingerprint(one.run(query)) == expected_one

    def test_a_database_at_a_reused_address(self):
        """The stamp holds the database itself, never ``id(db)``."""
        plans = PlanCache()
        for round_no in range(5):
            rows = tuple((kind, value + round_no, p) for kind, value, p in ROWS)
            s = build(rows, plan_cache=plans)
            query = totals(s)
            expected = fingerprint(rebuilt_from_scratch(s).run(query))
            for _ in range(3):
                assert fingerprint(s.run(query)) == expected
            del s
            gc.collect()


class TestWriteDuringTheWalk:
    def test_record_stamped_before_the_walk_is_never_accepted_later(self, monkeypatch):
        s = build()
        query = totals(s)
        s.run(query)  # first sight: the next walk would be admitted
        scan = executor._SymbolicDomain.scan
        fired = []

        def scan_then_write(domain, name):
            rows = scan(domain, name)
            if not fired:
                fired.append(name)
                s.table("items").update({"kind": "a", "value": 10}, {"value": 99})
            return rows

        monkeypatch.setattr(executor._SymbolicDomain, "scan", scan_then_write)
        s.run(query)  # walks the pre-write scan, stamped with the pre-write epoch
        monkeypatch.undo()
        assert fired == ["items"]
        after = s.run(query)
        assert after.stats["step1_reused"] is False
        assert fingerprint(after) == fingerprint(rebuilt_from_scratch(s).run(query))


class TestRewrite:
    def test_session_rewrite_goes_through_the_plan_cache(self):
        s = build()
        query = totals(s)
        s.rewrite(query)
        s.rewrite(query)
        stats = s.plan_cache.stats()
        assert (stats["misses"], stats["hits"]) == (1, 1)

    def test_the_returned_table_is_the_callers_own(self):
        s = build()
        query = s.table("items").select("kind").build()
        for _ in range(3):  # the third is served from the slot
            table = s.rewrite(query)
        expected = [(row.values, row.annotation) for row in table]
        table.add(("z",), Var("intruder"))
        table.rows.reverse()
        again = s.rewrite(query)
        assert again is not table
        assert [(row.values, row.annotation) for row in again] == expected
        assert [row.values for row in s.run(query)] == [v for v, _ in expected]


class TestWriterRacingReaders:
    def test_quiesced_answer_equals_a_fresh_session(self):
        """Two readers share one plan (one ``PlanCache``, one database)
        while a writer updates values, reassigns probabilities and
        inserts/deletes; once the writer stops, the next answers must be
        the final state's — a stale slot would keep an old one."""
        plans = PlanCache()
        writer_session = build(plan_cache=plans)
        db = writer_session.db
        readers = [
            Session(database=db, cache=writer_session.cache, plan_cache=plans)
            for _ in range(2)
        ]
        query = totals(writer_session)
        count = writer_session.table("items").group_by("kind").agg(n=count_()).build()
        stop = threading.Event()
        failures: list = []

        def read(session: Session):
            try:
                while not stop.is_set():
                    session.run(query)
                    session.run(count)
            except Exception as exc:  # surfaced by the assertion below
                failures.append(exc)

        def write():
            items = writer_session.table("items")
            try:
                deadline = time.monotonic() + 1.0
                step = 0
                while time.monotonic() < deadline:
                    step += 1
                    items.update({"kind": "a", "value": 10}, {"value": 10})
                    items.update({"kind": "b"}, {"value": 30 + step % 7})
                    items.update({"kind": "a"}, p=0.1 + (step % 8) / 10)
                    items.insert(("c", step), p=0.5)
                    items.delete({"kind": "c"})
            except Exception as exc:
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=read, args=(r,)) for r in readers]
            threads.append(threading.Thread(target=write))
            for thread in threads:
                thread.start()
            threads[-1].join(timeout=30)
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        fresh = rebuilt_from_scratch(writer_session)
        for session in readers:
            for q in (query, count):
                for _ in range(3):  # walk, admit, reuse
                    assert fingerprint(session.run(q)) == fingerprint(fresh.run(q))
