"""The server write path: ``POST /mutate`` and the TCP ``mutate`` op.

Every test boots a real server on ephemeral ports and compares its
post-mutation answers against a local :class:`Session` oracle that
applied the same mutations to an identically built database — the
multi-tenant freshness guarantee: no tenant ever reads an answer
compiled against a previous database generation.
"""

import asyncio
import json

import pytest

from repro.resilience import FaultPlan, fault_plan
from repro.server import (
    QueryServer,
    ServerClient,
    ServerConfig,
    ServerError,
    ServerOverloadedError,
    demo_database,
    demo_session,
    fingerprint,
)


def run(coro):
    return asyncio.run(coro)


async def booted(**overrides):
    config = ServerConfig(port=0, **overrides)
    server = QueryServer(demo_database(), config)
    await server.start()
    return server


def client_for(server, **kwargs) -> ServerClient:
    host, port = server.http_address
    _, tcp_port = server.tcp_address
    return ServerClient(host, port, tcp_port=tcp_port, **kwargs)


COUNT_SQL = "SELECT COUNT(*) AS n FROM R"
KIND_SQL = "SELECT kind FROM R WHERE kind = 'a'"


def oracle(mutations=()) -> dict:
    """Fingerprints of a local session after applying ``mutations``."""
    session = demo_session()
    for table, action, kwargs in mutations:
        getattr(session.db, action)(table, **kwargs)
    return {sql: fingerprint(session.sql(sql)) for sql in (COUNT_SQL, KIND_SQL)}


class TestHttpMutations:
    def test_probability_update_is_visible_to_all_tenants(self):
        """Warm tenant A, mutate from tenant B, and both tenants' next
        answers must match the mutated oracle — the shared distribution
        cache invalidated by lineage, not by luck."""

        async def scenario():
            server = await booted()
            try:
                async with client_for(server, tenant="a") as a, client_for(
                    server, tenant="b"
                ) as b:
                    before = await a.query(KIND_SQL)
                    mutation = await b.mutate(
                        "R", "update", where={"kind": "a"}, p=0.9
                    )
                    after_a = await a.query(KIND_SQL)
                    after_b = await b.query(KIND_SQL)
                    return before, mutation, after_a, after_b
            finally:
                await server.stop()

        before, mutation, after_a, after_b = run(scenario())
        assert mutation["mutation"]["rows"] >= 1
        expected = oracle(
            [("R", "update", {"where": {"kind": "a"}, "p": 0.9})]
        )[KIND_SQL]
        assert fingerprint(before) == oracle()[KIND_SQL]
        assert fingerprint(before) != expected
        assert fingerprint(after_a) == expected
        assert fingerprint(after_b) == expected

    def test_insert_update_delete_round_trip(self):
        async def scenario():
            server = await booted()
            try:
                async with client_for(server) as c:
                    inserted = await c.mutate(
                        "R", "insert", values=["zz", 70], p=0.5
                    )
                    grown = await c.query(COUNT_SQL)
                    updated = await c.mutate(
                        "R",
                        "update",
                        where={"kind": "zz"},
                        set_values={"value": 80},
                    )
                    deleted = await c.mutate(
                        "R", "delete", where={"kind": "zz"}
                    )
                    restored = await c.query(COUNT_SQL)
                    return inserted, grown, updated, deleted, restored
            finally:
                await server.stop()

        inserted, grown, updated, deleted, restored = run(scenario())
        assert inserted["mutation"]["rows"] == 1
        assert updated["mutation"]["rows"] == 1
        assert deleted["mutation"]["rows"] == 1
        # Generations are strictly monotonic across the three writes.
        generations = [
            step["mutation"]["db_generation"]
            for step in (inserted, updated, deleted)
        ]
        assert generations == sorted(generations)
        assert len(set(generations)) == 3
        expected = oracle(
            [("R", "insert", {"values": ("zz", 70), "p": 0.5})]
        )[COUNT_SQL]
        assert fingerprint(grown) == expected
        # Insert + delete of the same row restores the original answer.
        assert fingerprint(restored) == oracle()[COUNT_SQL]

    def test_validation_errors_reject_without_writing(self):
        async def scenario():
            server = await booted()
            try:
                async with client_for(server) as c:
                    before = await c.stats()
                    failures = []
                    for kwargs in (
                        dict(table="R", action="truncate"),
                        dict(table="R", action="update", where={"kind": "a"}),
                        dict(table="R", action="delete"),
                        dict(table="R", action="insert"),
                    ):
                        try:
                            await c.mutate(
                                kwargs.pop("table"), kwargs.pop("action"),
                                **kwargs,
                            )
                            failures.append("no error")
                        except ServerError as exc:
                            failures.append(str(exc))
                    stats = await c.stats()
                    return failures, before, stats
            finally:
                await server.stop()

        failures, before, stats = run(scenario())
        assert len(failures) == 4
        assert "no error" not in failures
        assert all("ProtocolError" in message for message in failures)
        # Validation failures never touched the database.
        assert stats["database"]["mutations"] == before["database"]["mutations"]
        assert stats["database"]["generation"] == before["database"]["generation"]

    def test_stats_report_generation_and_mutation_feed(self):
        async def scenario():
            server = await booted()
            try:
                async with client_for(server) as c:
                    before = await c.stats()
                    await c.mutate("R", "insert", values=["zz", 70], p=0.5)
                    await c.mutate("R", "delete", where={"kind": "zz"})
                    after = await c.stats()
                    return before, after
            finally:
                await server.stop()

        before, after = run(scenario())
        assert after["database"]["mutations"]["total"] == (
            before["database"]["mutations"]["total"] + 2
        )
        # The insert moves the generation twice (minted variable bumps
        # the registry epoch, the row bumps the table epoch); the delete
        # once.  Strict monotonicity is the contract that matters.
        assert after["database"]["generation"] == (
            before["database"]["generation"] + 3
        )
        assert after["server"]["mutations"] == 2
        assert after["server"]["errors"] == before["server"]["errors"]


class TestTcpMutations:
    def test_tcp_mutate_op_round_trip(self):
        async def scenario():
            server = await booted()
            try:
                host, tcp_port = server.tcp_address
                reader, writer = await asyncio.open_connection(host, tcp_port)
                try:
                    request = {
                        "op": "mutate",
                        "table": "R",
                        "action": "update",
                        "where": {"kind": "a"},
                        "p": 0.9,
                        "tenant": "tcp-writer",
                    }
                    writer.write(json.dumps(request).encode() + b"\n")
                    await writer.drain()
                    response = json.loads(await reader.readline())
                finally:
                    writer.close()
                    await writer.wait_closed()
                async with client_for(server) as c:
                    result = await c.query(KIND_SQL)
                return response, result
            finally:
                await server.stop()

        response, result = run(scenario())
        assert response["ok"] is True
        assert response["mutation"]["rows"] >= 1
        assert response["tenant"] == "tcp-writer"
        expected = oracle(
            [("R", "update", {"where": {"kind": "a"}, "p": 0.9})]
        )[KIND_SQL]
        assert fingerprint(result) == expected

    def test_tcp_rejects_malformed_mutation(self):
        async def scenario():
            server = await booted()
            try:
                host, tcp_port = server.tcp_address
                reader, writer = await asyncio.open_connection(host, tcp_port)
                try:
                    request = {"op": "mutate", "table": "R", "action": "drop"}
                    writer.write(json.dumps(request).encode() + b"\n")
                    await writer.drain()
                    return json.loads(await reader.readline())
                finally:
                    writer.close()
                    await writer.wait_closed()
            finally:
                await server.stop()

        response = run(scenario())
        assert response["ok"] is False
        assert response["error"]["type"] == "ProtocolError"


class TestConcurrentWritesAndReads:
    def test_interleaved_writers_and_readers_stay_consistent(self):
        """Concurrent writers serialise; every reader observes *some*
        prefix of the write sequence, and the final answer equals the
        oracle with all writes applied."""

        async def scenario():
            server = await booted(soft_limit=32, hard_limit=64)
            try:
                async def writer(n):
                    async with client_for(server, tenant=f"w{n}") as c:
                        await c.mutate(
                            "R", "insert", values=[f"w{n}", 10 + n], p=0.5
                        )

                async def reader(n):
                    async with client_for(server, tenant=f"r{n}") as c:
                        return await c.query(COUNT_SQL)

                await asyncio.gather(
                    *(writer(n) for n in range(4)),
                    *(reader(n) for n in range(4)),
                )
                async with client_for(server) as c:
                    final = await c.query(COUNT_SQL)
                    stats = await c.stats()
                return final, stats
            finally:
                await server.stop()

        final, stats = run(scenario())
        mutations = [
            ("R", "insert", {"values": (f"w{n}", 10 + n), "p": 0.5})
            for n in range(4)
        ]
        assert fingerprint(final) == oracle(mutations)[COUNT_SQL]
        assert stats["server"]["mutations"] == 4
        # 16 bootstrap inserts + the 4 concurrent writers.
        assert stats["database"]["mutations"]["insert"] == 20
        assert stats["server"]["errors"] == 0


ROWS_SQL = "SELECT kind, value FROM R"


def slow_rows(delay: float) -> FaultPlan:
    """Every sprout result row sleeps ``delay`` on its pool thread."""
    return FaultPlan().add("engine.sprout.row", "slow", delay=delay, times=None)


async def slow_read(server, tenant: str) -> asyncio.Future:
    """Start a read of ``ROWS_SQL`` and return once it holds its slot."""
    inflight = server.stats()["server"]["inflight"]
    read = asyncio.ensure_future(server.execute(
        {"sql": ROWS_SQL, "tenant": tenant, "engine": "sprout"}
    ))
    for _ in range(400):
        if server.stats()["server"]["inflight"] > inflight:
            return read
        await asyncio.sleep(0.005)
    raise AssertionError("the read never claimed a slot")


def state(db) -> tuple:
    """Everything a write can change: every table's rows, every marginal."""
    return (
        {name: list(table.rows) for name, table in db.tables.items()},
        dict(db.registry.items()),
    )


async def http_request(reader, writer, method: str, path: str, payload=None):
    """One raw HTTP/1.1 exchange: ``(status, lower-cased headers, body)``."""
    body = json.dumps(payload).encode() if payload is not None else b""
    writer.write(
        f"{method} {path} HTTP/1.1\r\nHost: x\r\n"
        f"Content-Length: {len(body)}\r\n\r\n".encode() + body
    )
    await writer.drain()
    status = int((await reader.readline()).split()[1])
    headers = {}
    while (line := await reader.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    reply = json.loads(await reader.readexactly(int(headers["content-length"])))
    return status, headers, reply


class TestWritesRunWhereTheyArrive:
    """A write compiles nothing, so ``mutate`` applies it on the event
    loop: it never waits for a pool thread, and two writes never
    overlap.  Admission (drain, ``hard_limit``) still covers it."""

    def test_a_write_does_not_queue_behind_a_read_holding_the_pool(self):
        """With the only pool thread held by a slow read, a write still
        returns first (one that took the pool hop would wait ≈0.8 s for
        the read and return after it)."""

        async def scenario():
            server = await booted(threads=1)
            try:
                plan = slow_rows(0.1)  # 8 rows: the read takes ≈0.8 s
                with fault_plan(plan):
                    read = await slow_read(server, "reader")
                    for _ in range(400):
                        if plan.hits:
                            break
                        await asyncio.sleep(0.005)
                    assert plan.hits, "the read never reached the pool"
                    mutation = await server.mutate({
                        "table": "T", "action": "update",
                        "where": {"rkind": "a"}, "p": 0.9, "tenant": "writer",
                    })
                    read_pending = not read.done()
                    result = await read
                return mutation, read_pending, result, server.stats()["server"]
            finally:
                await server.stop()

        mutation, read_pending, result, stats = run(scenario())
        assert read_pending
        assert mutation["mutation"]["rows"] == 1
        assert len(result["result"]["rows"]) == 8
        assert stats["mutations"] == 1 and stats["inflight"] == 0

    def test_a_write_arriving_while_the_server_drains_is_shed(self):
        async def scenario():
            server = await booted(drain_timeout=10.0)
            host, port = server.http_address
            reader, writer = await asyncio.open_connection(host, port)
            try:
                # A keep-alive connection accepted before the listeners
                # close; healthz bypasses admission control.
                status, _, _ = await http_request(
                    reader, writer, "GET", "/healthz"
                )
                assert status == 200
                before = state(server.db)
                with fault_plan(slow_rows(0.05)):
                    read = await slow_read(server, "reader")
                    stopping = asyncio.ensure_future(server.stop())
                    await asyncio.sleep(0.02)
                    assert server.stats()["server"]["draining"]
                    shed = await http_request(
                        reader, writer, "POST", "/mutate",
                        {"table": "R", "action": "update",
                         "where": {"kind": "a"}, "p": 0.9},
                    )
                    during = state(server.db)
                    result = await read
                    await stopping
                return shed, before, during, result, server.stats()["server"]
            finally:
                writer.close()
                await server.stop()

        (status, headers, reply), before, during, result, stats = run(scenario())
        assert status == 503
        assert float(headers["retry-after"]) == ServerConfig().retry_after
        assert reply["error"]["type"] == "ServerOverloadedError"
        assert during == before  # the shed write touched nothing
        assert len(result["result"]["rows"]) == 8  # the admitted read finished
        assert stats["shed"] == 1 and stats["mutations"] == 0

    def test_a_write_at_the_hard_limit_is_shed(self):
        async def scenario():
            server = await booted(threads=2, soft_limit=2, hard_limit=2)
            try:
                before = state(server.db)
                with fault_plan(slow_rows(0.05)):
                    reads = [
                        await slow_read(server, tenant) for tenant in ("r1", "r2")
                    ]
                    assert server.stats()["server"]["inflight"] == 2
                    with pytest.raises(ServerOverloadedError):
                        await server.mutate({
                            "table": "R", "action": "update",
                            "where": {"kind": "a"}, "p": 0.9,
                        })
                    during = state(server.db)
                    await asyncio.gather(*reads)
                return before, during, server.stats()["server"]
            finally:
                await server.stop()

        before, during, stats = run(scenario())
        assert during == before
        assert stats["shed"] == 1 and stats["mutations"] == 0
        assert stats["inflight"] == 0

    def test_a_write_burst_is_answered_in_full_one_write_at_a_time(self):
        """Twelve concurrent ``mutate`` calls against ``hard_limit=2``:
        inline writes never overlap, so none is shed (writes that held a
        slot across a pool hop would shed from the third on), and the
        result equals the twelve applied serially."""
        writes = []
        for n in range(12):
            if n % 4 == 0:
                writes.append({"action": "insert", "values": [f"w{n}", n], "p": 0.5})
            elif n % 4 == 1:
                writes.append({"action": "update", "where": {"kind": "a"},
                               "p": round(0.1 + 0.05 * n, 2)})
            elif n % 4 == 2:
                writes.append({"action": "update", "where": {"kind": f"w{n - 2}"},
                               "set": {"value": 100 + n}})
            else:
                writes.append({"action": "delete", "where": {"kind": "b"}})
        writes = [{"table": "R", **write} for write in writes]

        async def scenario():
            server = await booted(soft_limit=2, hard_limit=2)
            try:
                replies = await asyncio.gather(
                    *(server.mutate(dict(write)) for write in writes)
                )
                return replies, server.stats()["server"], state(server.db)
            finally:
                await server.stop()

        replies, stats, served = run(scenario())
        assert len(replies) == 12
        assert stats["mutations"] == 12 and stats["shed"] == 0
        assert stats["inflight"] == 0
        serial = demo_database()
        for write in writes:
            if write["action"] == "insert":
                serial.insert("R", tuple(write["values"]), p=write["p"])
            elif write["action"] == "update":
                serial.update("R", write["where"],
                              set_values=write.get("set"), p=write.get("p"))
            else:
                serial.delete("R", write["where"])
        assert served == state(serial)
        assert [r["mutation"]["db_generation"] for r in replies] == sorted(
            r["mutation"]["db_generation"] for r in replies
        )


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
