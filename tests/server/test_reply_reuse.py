"""A statement keeps its encoded reply for the database stamp it was
computed at; ``QueryServer.execute`` answers from it on the event loop.

The stamp is ``(table epochs, registry epoch)``, read *before* the
run; a reply is admitted on second sight (requests 1 and 2
of a text at a stamp run, request 3 onwards is handed request 2's
encoded result) and only when nothing but text, options and database
determined it.  Every comparison is against a cold session over copies
of the server's current rows and distributions.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading

import pytest

from repro.resilience import FaultPlan, fault_plan
from repro.server import (
    QueryServer,
    ServerClient,
    ServerConfig,
    demo_database,
    fingerprint,
)
from repro.session import Session
from tests.property.test_mutation_conformance import rebuilt_from_scratch

KIND_SQL = "SELECT kind FROM R WHERE kind = 'a'"
COUNT_SQL = "SELECT COUNT(*) AS n FROM R"
ROWS_SQL = "SELECT kind, value FROM R"
JOIN_SQL = "SELECT label FROM R, T WHERE kind = rkind"


def serve(scenario, **config):
    """Run ``scenario(server)`` against a started demo server."""

    async def main():
        server = QueryServer(demo_database(), ServerConfig(port=0, **config))
        await server.start()
        try:
            return await scenario(server)
        finally:
            await server.stop()

    return asyncio.run(main())


async def ask(server, sql, tenant="t", **request) -> dict:
    return await server.execute({"sql": sql, "tenant": tenant, **request})


async def reuses(server, sql, times, **request) -> list:
    return [
        (await ask(server, sql, **request))["reply_reused"] for _ in range(times)
    ]


def fresh(server) -> Session:
    """The oracle: a cold session over copies of the server's state."""
    return rebuilt_from_scratch(Session(database=server.db))


def expected(server, sql, **options) -> str:
    return fingerprint(fresh(server).run(sql, **options))


class TestReuse:
    def test_the_third_request_is_handed_the_second_ones_reply(self):
        async def scenario(server):
            replies = [await ask(server, KIND_SQL) for _ in range(4)]
            return replies, server.stats(), expected(server, KIND_SQL)

        replies, stats, oracle = serve(scenario)
        assert [r["reply_reused"] for r in replies] == [False, False, True, True]
        assert [r["statement_cache_hit"] for r in replies] == [False, True, True, True]
        assert replies[2]["result"] is replies[1]["result"]
        assert replies[3]["result"] is replies[1]["result"]
        assert all(fingerprint(r["result"]) == oracle for r in replies)
        assert stats["server"]["replies_reused"] == 2
        # The hit path's lookup is the counted one: 1 parse, 3 hits.
        assert stats["statement_cache"]["hits"] == 3
        assert stats["statement_cache"]["misses"] == 1

    def test_reuse_is_across_tenants_and_spellings(self):
        async def scenario(server):
            return [
                (await ask(server, sql, tenant=tenant))["reply_reused"]
                for tenant, sql in (
                    ("a", KIND_SQL),
                    ("b", KIND_SQL),
                    ("c", "  SELECT kind\n FROM R   WHERE kind = 'a' ;"),
                )
            ]

        assert serve(scenario) == [False, False, True]

    def test_each_option_set_is_its_own_record(self):
        async def scenario(server):
            flags = {
                "default": await reuses(server, ROWS_SQL, 3),
                "engine": await reuses(server, ROWS_SQL, 3, engine="sprout"),
                "spec": await reuses(server, ROWS_SQL, 3, spec={"time_limit": 60.0}),
                "approx": await reuses(
                    server, ROWS_SQL, 3, spec={"mode": "approx", "epsilon": 0.2}
                ),
                "default again": await reuses(server, ROWS_SQL, 1),
            }
            approx = await ask(
                server, ROWS_SQL, spec={"mode": "approx", "epsilon": 0.2}
            )
            oracle = expected(server, ROWS_SQL, mode="approx", epsilon=0.2)
            return flags, approx, oracle

        flags, approx, oracle = serve(scenario)
        assert flags == {
            "default": [False, False, True],
            "engine": [False, False, True],
            "spec": [False, False, True],
            "approx": [False, False, True],
            "default again": [True],
        }
        assert approx["reply_reused"]
        assert fingerprint(approx["result"]) == oracle

    def test_both_protocols_decode_the_flag_and_stats_count_it(self):
        async def scenario(server):
            host, port = server.http_address
            async with ServerClient(
                host, port, tcp_port=server.tcp_address[1], tenant="wire"
            ) as client:
                http = [await client.query(COUNT_SQL) for _ in range(3)]
                tcp = await client.tcp_query(COUNT_SQL)
                streamed = [
                    snapshot
                    async for snapshot in client.stream(
                        COUNT_SQL, mode="approx", epsilon=0.5
                    )
                ]
                return http, tcp, streamed, await client.stats()

        http, tcp, streamed, stats = serve(scenario)
        assert [r.reply_reused for r in http] == [False, False, True]
        assert tcp.reply_reused is True
        assert streamed and not any(s.reply_reused for s in streamed)
        assert fingerprint(tcp) == fingerprint(http[0])
        assert stats["server"]["replies_reused"] == 2


def drop_and_recreate_t(server) -> None:
    """Same name, same rows, same epoch — another table object, another
    set of variables with other probabilities."""
    old = server.db.tables.pop("T")
    table = server.db.create_table("T", old.schema.attributes)
    for row in old.rows:
        server.db.insert("T", row.values, p=0.5)
    assert (len(table), table.epoch) == (len(old), old.epoch)


WRITES = {
    "insert into a table the query does not read": lambda server: server.mutate(
        {"table": "B", "action": "insert", "values": ["s9", 70], "p": 0.5}
    ),
    "value update": lambda server: server.mutate(
        {"table": "R", "action": "update", "where": {"kind": "a"},
         "set": {"value": 35}}
    ),
    "p= update": lambda server: server.mutate(
        {"table": "R", "action": "update", "where": {"kind": "a"}, "p": 0.9}
    ),
    "delete": lambda server: server.mutate(
        {"table": "R", "action": "delete", "where": {"kind": "b"}}
    ),
    "dropped and recreated table": drop_and_recreate_t,
}


class TestWritesMiss:
    @pytest.mark.parametrize("write", sorted(WRITES))
    def test_any_write_misses_and_the_next_reply_is_a_fresh_sessions(self, write):
        texts = (KIND_SQL, COUNT_SQL, JOIN_SQL)

        async def scenario(server):
            for sql in texts:
                assert await reuses(server, sql, 3) == [False, False, True]
            outcome = WRITES[write](server)
            if outcome is not None:
                await outcome
            after = {}
            for sql in texts:
                replies = [await ask(server, sql) for _ in range(3)]
                after[sql] = (replies, expected(server, sql))
            return after

        for sql, (replies, oracle) in serve(scenario).items():
            assert [r["reply_reused"] for r in replies] == [False, False, True], sql
            assert all(fingerprint(r["result"]) == oracle for r in replies), sql


    def test_a_registry_change_that_bypasses_the_mutators_misses(self):
        """The registry epoch: ``db.generation`` moves, so does the stamp,
        even when no table and no cache was told."""

        async def scenario(server):
            assert await reuses(server, KIND_SQL, 3) == [False, False, True]
            generation = server.db.generation
            server.db.registry.bernoulli("declared-behind-the-servers-back", 0.5)
            assert server.db.generation == generation + 1
            return await reuses(server, KIND_SQL, 3)

        assert serve(scenario) == [False, False, True]


class TestNeverKept:
    def test_montecarlo_and_sampling_answers(self):
        async def scenario(server):
            return {
                "montecarlo": await reuses(
                    server, KIND_SQL, 4, engine="montecarlo", samples=200
                ),
                "sample": await reuses(
                    server, KIND_SQL, 4,
                    spec={"mode": "sample", "epsilon": 0.2, "delta": 0.1},
                ),
            }, server.stats()

        flags, stats = serve(scenario, seed=5)
        assert flags == {"montecarlo": [False] * 4, "sample": [False] * 4}
        assert stats["server"]["replies_reused"] == 0

    def test_a_degraded_request_neither_reads_nor_leaves_a_reply(self):
        async def scenario(server):
            degraded = [await ask(server, ROWS_SQL) for _ in range(4)]
            return degraded, server.stats()

        degraded, stats = serve(scenario, soft_limit=0, hard_limit=8)
        assert all(r["degraded"] for r in degraded)
        assert not any(r["reply_reused"] for r in degraded)
        assert stats["server"]["replies_reused"] == 0

    def test_a_reply_kept_before_the_load_is_not_served_degraded(self):
        """Past the soft limit the answer must be the budgeted one."""

        async def scenario(server):
            assert await reuses(server, ROWS_SQL, 3) == [False, False, True]
            # One admitted stream is the load: with soft_limit=1 the next
            # request is the second in flight and degrades.
            stream = server.execute_stream({
                "sql": COUNT_SQL, "tenant": "load",
                "spec": {"mode": "approx", "epsilon": 0.5},
            })
            await stream.__anext__()
            try:
                loaded = await ask(server, ROWS_SQL)
            finally:
                await stream.aclose()
            return loaded, await ask(server, ROWS_SQL)

        loaded, idle = serve(scenario, soft_limit=1, hard_limit=8)
        assert loaded["degraded"] and not loaded["reply_reused"]
        assert idle["reply_reused"] and not idle["degraded"]

    def test_a_reply_carrying_deadline_hit(self):
        async def scenario(server):
            plan = FaultPlan().add(
                "engine.sprout.row", "slow", delay=0.01, times=None
            )
            with fault_plan(plan):
                limited = [
                    await ask(server, ROWS_SQL, spec={"time_limit": 0.02})
                    for _ in range(4)
                ]
            return limited

        limited = serve(scenario)
        assert all(r["result"]["stats"]["deadline_hit"] for r in limited)
        assert not any(r["reply_reused"] for r in limited)

    def test_a_seeded_montecarlo_sequence_ignores_reused_exact_reads(self):
        def sequence(interleave):
            async def scenario(server):
                if interleave:
                    assert await reuses(server, COUNT_SQL, 3) == [False, False, True]
                answers = []
                for _ in range(4):
                    answers.append(fingerprint((await ask(
                        server, KIND_SQL, engine="montecarlo", samples=300
                    ))["result"]))
                    if interleave:
                        assert (await ask(server, COUNT_SQL))["reply_reused"]
                return answers

            return serve(scenario, seed=11)

        plain, interleaved = sequence(False), sequence(True)
        assert plain == interleaved
        assert len(set(plain)) > 1  # the stream advances: no answer replayed


class TestLifetime:
    def test_evicting_the_text_drops_its_replies(self):
        async def scenario(server):
            before = await reuses(server, KIND_SQL, 3)
            await ask(server, COUNT_SQL)
            await ask(server, ROWS_SQL)  # two entries: KIND_SQL is gone
            again = [await ask(server, KIND_SQL) for _ in range(3)]
            return before, again, server.stats()

        before, again, stats = serve(scenario, statement_cache_size=2)
        assert before == [False, False, True]
        assert [r["statement_cache_hit"] for r in again] == [False, True, True]
        assert [r["reply_reused"] for r in again] == [False, False, True]
        assert stats["statement_cache"]["evictions"] >= 1


class TestAHitIsStillARequest:
    def test_it_counts_like_one(self):
        async def scenario(server):
            await reuses(server, KIND_SQL, 2)
            before = server.stats()["server"]
            assert (await ask(server, KIND_SQL))["reply_reused"]
            return before, server.stats()["server"]

        before, after = serve(scenario)
        for counter in ("requests", "completed", "replies_reused"):
            assert after[counter] == before[counter] + 1, counter
        assert after["inflight"] == 0 and after["errors"] == before["errors"]

    def test_it_touches_the_tenant_lru(self):
        async def scenario(server):
            await reuses(server, KIND_SQL, 2, tenant="old")
            await ask(server, COUNT_SQL, tenant="young")
            kept = server.session("old")
            await ask(server, COUNT_SQL, tenant="young")  # young is MRU again
            # The hit makes "old" the most recent, so the newcomer
            # evicts "young".
            assert (await ask(server, KIND_SQL, tenant="old"))["reply_reused"]
            await ask(server, COUNT_SQL, tenant="newcomer")
            stats = server.stats()["server"]
            return kept is server.session("old"), stats

        survived, stats = serve(scenario, max_tenants=2)
        assert survived
        assert stats["tenants_evicted"] == 1

    def test_a_new_tenant_is_shed_when_every_tenant_is_busy(self):
        """``max_tenants`` shedding applies to a request that would hit."""
        from repro.server import ServerOverloadedError

        async def scenario(server):
            await reuses(server, KIND_SQL, 3, tenant="only")
            stream = server.execute_stream({
                "sql": COUNT_SQL, "tenant": "only",
                "spec": {"mode": "approx", "epsilon": 0.5},
            })
            await stream.__anext__()  # "only" is busy for the stream's life
            try:
                with pytest.raises(ServerOverloadedError):
                    await ask(server, KIND_SQL, tenant="second")
            finally:
                await stream.aclose()
            return server.stats()["server"]

        stats = serve(scenario, max_tenants=1)
        assert stats["shed"] == 1 and stats["inflight"] == 0

    def test_it_answers_while_a_stream_holds_the_tenants_lock(self):
        async def scenario(server):
            assert await reuses(server, KIND_SQL, 3) == [False, False, True]
            stream = server.execute_stream({
                "sql": COUNT_SQL, "tenant": "t",
                "spec": {"mode": "approx", "epsilon": 0.5},
            })
            await stream.__anext__()  # suspended with tenant t's lock held
            try:
                hot = await asyncio.wait_for(ask(server, KIND_SQL), timeout=5)
                cold = asyncio.ensure_future(ask(server, ROWS_SQL))
                await asyncio.sleep(0.05)
                waited = not cold.done()
            finally:
                await stream.aclose()
            return hot, waited, await asyncio.wait_for(cold, timeout=5)

        hot, waited, cold = serve(scenario)
        assert hot["reply_reused"]
        assert waited and not cold["reply_reused"]

    def test_it_passes_the_request_fault_point_and_encodes_nothing(self):
        async def scenario(server):
            host, port = server.http_address
            async with ServerClient(host, port, tenant="t") as client:
                for _ in range(2):
                    await client.query(KIND_SQL)
                plan = (
                    FaultPlan()
                    .add("server.http.request", "slow", delay=0.0, times=None)
                    .add("server.codec.encode", "slow", delay=0.0, times=None)
                )
                with fault_plan(plan):
                    hit = await client.query(KIND_SQL)
                    hits_after_hit = dict(plan.hits)
                    miss = await client.query(ROWS_SQL)
                return hit, miss, hits_after_hit, dict(plan.hits)

        hit, miss, after_hit, after_miss = serve(scenario)
        assert hit.reply_reused and not miss.reply_reused
        assert after_hit == {"server.http.request": 1}
        assert after_miss == {"server.http.request": 2, "server.codec.encode": 1}

    def test_a_hit_serialises_the_result_zero_times_a_miss_once(self, monkeypatch):
        """Counted where every ``json.dumps`` lands, ``JSONEncoder.encode``:
        a call serialises a result when its object is one (it has
        ``rows``) or holds one as a value, as a whole envelope does."""
        serialised = []
        encode = json.JSONEncoder.encode

        def counting(encoder, obj):
            if isinstance(obj, dict) and any(
                isinstance(value, dict) and "rows" in value
                for value in (obj, *obj.values())
            ):
                serialised.append(obj)
            return encode(encoder, obj)

        async def counted(call):
            serialised.clear()
            reply = await call()
            return reply.reply_reused, len(serialised)

        async def scenario(server):
            host, port = server.http_address
            async with ServerClient(
                host, port, tcp_port=server.tcp_address[1], tenant="t"
            ) as client:
                for _ in range(2):
                    await client.query(KIND_SQL)
                    await client.tcp_query(COUNT_SQL)
                monkeypatch.setattr(json.JSONEncoder, "encode", counting)
                return {
                    "http hit": await counted(lambda: client.query(KIND_SQL)),
                    "http miss": await counted(lambda: client.query(ROWS_SQL)),
                    "tcp hit": await counted(lambda: client.tcp_query(COUNT_SQL)),
                    "tcp miss": await counted(lambda: client.tcp_query(JOIN_SQL)),
                }

        assert serve(scenario) == {
            "http hit": (True, 0),
            "http miss": (False, 1),
            "tcp hit": (True, 0),
            "tcp miss": (False, 1),
        }


class TestInterleavings:
    """Each of these fails when the stamp component it names is taken
    out of ``QueryServer._stamp`` (or the stamp is read after the run)."""

    def test_a_write_between_the_stamp_read_and_the_run(self, monkeypatch):
        """Table epochs, read first: the run sees the new rows, the reply
        is stamped older than its content and no later request takes it."""
        write = {"table": "R", "action": "update", "where": {"kind": "a"},
                 "set": {"value": 45}}

        async def scenario(server):
            await ask(server, ROWS_SQL)  # first sight: the next run is kept
            lookup = server.statements.get_or_parse

            def write_then_lookup(text):
                # _run_statement has read its stamp; the run has not begun.
                monkeypatch.undo()
                server._apply_mutation("R", "update", write)
                return lookup(text)

            monkeypatch.setattr(server.statements, "get_or_parse", write_then_lookup)
            raced = await ask(server, ROWS_SQL)
            after = [await ask(server, ROWS_SQL) for _ in range(3)]
            return raced, after, expected(server, ROWS_SQL)

        raced, after, oracle = serve(scenario)
        assert fingerprint(raced["result"]) == oracle  # it ran after the write
        assert [r["reply_reused"] for r in after] == [False, False, True]
        assert all(fingerprint(r["result"]) == oracle for r in after)

    def test_a_write_landing_after_the_run_read_its_rows(self, monkeypatch):
        """The same, later: the reply holds the *old* rows.  Stamped with
        the epochs read before the run, it dies with them."""
        write = {"table": "R", "action": "update", "where": {"kind": "a"},
                 "set": {"value": 45}}

        async def scenario(server):
            await ask(server, ROWS_SQL)
            stale = expected(server, ROWS_SQL)
            session = server.session("t")
            run = session.run

            def run_then_write(query, **options):
                monkeypatch.undo()
                result = run(query, **options)
                server._apply_mutation("R", "update", write)
                return result

            monkeypatch.setattr(session, "run", run_then_write)
            raced = await ask(server, ROWS_SQL)
            after = [await ask(server, ROWS_SQL) for _ in range(3)]
            return stale, raced, after, expected(server, ROWS_SQL)

        stale, raced, after, oracle = serve(scenario)
        assert stale != oracle
        assert fingerprint(raced["result"]) == stale  # computed before the write
        assert [r["reply_reused"] for r in after] == [False, False, True]
        assert all(fingerprint(r["result"]) == oracle for r in after)

    def test_readers_between_reassign_and_the_return_of_update(self, monkeypatch):
        """Inside a ``p=`` update, from the moment ``registry.reassign``
        returns, every reader answers with the new marginal: the shared
        distribution cache reconciles with the registry on its next
        read, whatever the writer has or has not got round to.  (It used
        to be told last, so readers in this window were handed the old
        distributions under the new registry epoch, and a third stamp
        element existed to tell later requests apart from them.)"""

        async def scenario(server):
            loop = asyncio.get_running_loop()
            await ask(server, KIND_SQL)  # warms the distribution cache
            stale = expected(server, KIND_SQL)
            reassign = server.db.registry.reassign
            window = []

            def reassign_then_read_twice(name, distribution):
                # On the writer's helper thread, inside db.update().
                monkeypatch.undo()
                reassign(name, distribution)
                for _ in range(2):
                    reply = asyncio.run_coroutine_threadsafe(
                        ask(server, KIND_SQL, tenant="reader"), loop
                    ).result(timeout=10)
                    window.append((reply, expected(server, KIND_SQL)))

            monkeypatch.setattr(server.db.registry, "reassign", reassign_then_read_twice)
            # The served write path runs on the loop, which the readers
            # above need: drive the same write from a helper thread so
            # they still run inside its window.
            await asyncio.to_thread(
                server._apply_mutation,
                "R", "update", {"where": {"kind": "a"}, "p": 0.9},
            )
            after = [await ask(server, KIND_SQL) for _ in range(3)]
            return stale, window, after, expected(server, KIND_SQL)

        stale, window, after, oracle = serve(scenario)
        assert stale != oracle and len(window) == 2
        # Nothing stale is computed, so nothing stale can be kept: the
        # window's readers already equal a cold session at that instant.
        for reply, cold in window:
            assert fingerprint(reply["result"]) == cold != stale
            assert not reply["reply_reused"]
        # The update went on to its second variable: what the window
        # kept (its second reader's reply) died with that stamp.
        assert window[-1][1] != oracle
        assert [r["reply_reused"] for r in after] == [False, False, True]
        assert all(fingerprint(r["result"]) == oracle for r in after)

    def test_a_threaded_writer_against_two_tenants(self):
        """Readers hammer two tenants while a plain thread writes; once
        it is done, every reply equals a session that replayed the
        writes — whatever was kept along the way."""
        texts = (KIND_SQL, COUNT_SQL, ROWS_SQL, JOIN_SQL)
        cycle = (
            ("update", {"where": {"kind": "a"}, "p": 0.8}),
            ("update", {"where": {"kind": "b"}, "set_values": {"value": 15}}),
            ("insert", {"values": ("e", 25), "p": 0.4}),
            ("update", {"where": {"kind": "a"}, "p": 0.3}),
            ("delete", {"where": {"kind": "e"}}),
            ("update", {"where": {"kind": "b"}, "set_values": {"value": 30}}),
        )

        async def scenario(server):
            applied = []
            stop = threading.Event()

            def writer():
                while not stop.is_set() and len(applied) < 3000:
                    action, kwargs = cycle[len(applied) % len(cycle)]
                    getattr(server.db, action)("R", **kwargs)
                    applied.append((action, kwargs))

            async def reader(tenant):
                # At least 10 passes, and until 60 writes have raced them.
                deadline = loop.time() + 30
                passes = 0
                while passes < 10 or (len(applied) < 60 and loop.time() < deadline):
                    for sql in texts:
                        await ask(server, sql, tenant=tenant)
                    passes += 1

            loop = asyncio.get_running_loop()
            thread = threading.Thread(target=writer)
            thread.start()
            try:
                await asyncio.gather(reader("one"), reader("two"))
            finally:
                stop.set()
                thread.join(timeout=60)
            assert not thread.is_alive()
            quiesced = {
                (tenant, sql): [await ask(server, sql, tenant=tenant) for _ in range(3)]
                for tenant in ("one", "two")
                for sql in texts
            }
            return applied, quiesced

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            applied, quiesced = serve(scenario)
        finally:
            sys.setswitchinterval(previous)
        assert len(applied) >= 60
        replayed = Session(database=demo_database())
        for action, kwargs in applied:
            getattr(replayed.db, action)("R", **kwargs)
        for (tenant, sql), replies in quiesced.items():
            oracle = fingerprint(replayed.run(sql))
            for reply in replies:
                assert fingerprint(reply["result"]) == oracle, (tenant, sql)
            assert replies[-1]["reply_reused"], (tenant, sql)
