"""The query server end to end: conformance, backpressure, robustness.

All tests boot a real :class:`~repro.server.QueryServer` on ephemeral
localhost ports and drive it with real :class:`ServerClient` sockets.
Tests are written as sync functions running their own ``asyncio.run``
event loop (no pytest-asyncio dependency in the container).
"""

import asyncio
import json

import pytest

from repro.engine.spec import EvalSpec
from repro.server import (
    DEMO_QUERIES,
    ProtocolError,
    QueryServer,
    ServerClient,
    ServerConfig,
    ServerError,
    ServerOverloaded,
    ServerOverloadedError,
    demo_database,
    demo_session,
    fingerprint,
)

#: Deterministic queries (no Monte-Carlo) for byte-identity conformance.
ZOO = DEMO_QUERIES


def run(coro):
    return asyncio.run(coro)


async def booted(**overrides):
    """A started server over the standard demo database (port 0)."""
    config = ServerConfig(port=0, **overrides)
    server = QueryServer(demo_database(), config)
    await server.start()
    return server


def client_for(server, **kwargs) -> ServerClient:
    host, port = server.http_address
    _, tcp_port = server.tcp_address
    return ServerClient(host, port, tcp_port=tcp_port, **kwargs)


def oracle_fingerprints() -> dict:
    """Serial Session answers over an identically built database."""
    session = demo_session()
    return {sql: fingerprint(session.sql(sql)) for sql in ZOO}


class TestConcurrentConformance:
    def test_eight_concurrent_clients_match_serial_oracle(self):
        """The acceptance criterion: N >= 8 async clients, each running
        the full query zoo as its own tenant, produce results
        byte-identical (fingerprint: values, interval endpoints, stats
        modulo timing/caching counters) to a fresh serial Session — and
        the shared statement cache records cross-tenant hits."""
        expected = oracle_fingerprints()

        async def scenario():
            server = await booted(soft_limit=64, hard_limit=256)
            try:
                async def one_client(n):
                    async with client_for(server, tenant=f"tenant-{n}") as c:
                        results = {}
                        # stagger starting points so clients interleave
                        for i in range(len(ZOO)):
                            sql = ZOO[(n + i) % len(ZOO)]
                            results[sql] = await c.query(sql)
                        return results

                all_results = await asyncio.gather(
                    *(one_client(n) for n in range(8))
                )
                async with client_for(server) as c:
                    stats = await c.stats()
                return all_results, stats
            finally:
                await server.stop()

        all_results, stats = run(scenario())
        for results in all_results:
            assert set(results) == set(expected)
            for sql, remote in results.items():
                assert fingerprint(remote) == expected[sql], sql
        # 8 tenants x 7 statements over 7 distinct texts: at least the
        # 7 x 7 re-issues must be cross-tenant statement-cache hits.
        assert stats["statement_cache"]["hits"] >= 49
        assert stats["statement_cache"]["misses"] == len(ZOO)
        assert stats["plan_cache"]["hits"] > 0
        assert stats["server"]["completed"] == 8 * len(ZOO)
        assert stats["server"]["errors"] == 0

    def test_tcp_protocol_matches_http(self):
        expected = oracle_fingerprints()

        async def scenario():
            server = await booted()
            try:
                async with client_for(server) as c:
                    http_result = await c.query(ZOO[3])
                    tcp_result = await c.tcp_query(ZOO[3])
                    return http_result, tcp_result
            finally:
                await server.stop()

        http_result, tcp_result = run(scenario())
        assert fingerprint(http_result) == expected[ZOO[3]]
        assert fingerprint(tcp_result) == expected[ZOO[3]]

    def test_client_encoded_evalspec_is_accepted_on_every_op(self):
        """``ServerClient`` sends ``EvalSpec.to_json()`` — every field,
        defaults included — and the server accepts exactly the spec's
        own field list, over HTTP, TCP and the stream op."""
        spec = EvalSpec(mode="approx", epsilon=0.01)
        sql = ZOO[1]
        expected = fingerprint(
            demo_session().run(sql, engine="approx", spec=spec)
        )

        async def scenario():
            server = await booted()
            try:
                async with client_for(server) as c:
                    http_result = await c.query(sql, engine="approx", spec=spec)
                    tcp_result = await c.tcp_query(
                        sql, engine="approx", spec=spec
                    )
                    snapshots = [
                        snap async for snap in c.stream(
                            sql, engine="approx", spec=spec
                        )
                    ]
                    return http_result, tcp_result, snapshots
            finally:
                await server.stop()

        http_result, tcp_result, snapshots = run(scenario())
        assert fingerprint(http_result) == expected
        assert fingerprint(tcp_result) == expected
        assert fingerprint(snapshots[-1]) == expected

    def test_montecarlo_seeded_tenants_are_reproducible(self):
        """Sampling engines hold RNG state per session; two fresh tenants
        with the same seed must agree with each other (and a local
        Session) on the same seeded run."""
        async def scenario():
            server = await booted(seed=123)
            try:
                async with client_for(server) as c:
                    a = await c.query(ZOO[1], tenant="mc-a", engine="montecarlo")
                    b = await c.query(ZOO[1], tenant="mc-b", engine="montecarlo")
                    return a, b
            finally:
                await server.stop()

        a, b = run(scenario())
        assert fingerprint(a) == fingerprint(b)


class TestStepOneReuse:
    #: The benchmark's hot zoo: the demo queries plus COUNT/SUM/MIN per
    #: kind at five thresholds.
    HOT_ZOO = tuple(DEMO_QUERIES) + tuple(
        f"SELECT kind, {agg} AS x FROM R WHERE value >= {threshold} "
        f"GROUP BY kind"
        for agg in ("COUNT(*)", "SUM(value)", "MIN(value)")
        for threshold in (10, 20, 30, 40, 50)
    )

    def test_hot_statements_reuse_step_one_and_adhoc_texts_never_do(self):
        """Two passes admit the hot zoo's answers (second sight), both
        the plan's step-I rows and the statement's encoded reply.  From
        the third pass on the reply itself is handed back, across
        tenants, so no plan is looked up; the same texts under another
        option set are other records, run, and are served from their
        plan's step-I slot.  A never-repeated text keeps nothing."""
        session = demo_session()
        expected = {sql: fingerprint(session.sql(sql)) for sql in self.HOT_ZOO}

        async def scenario():
            server = await booted()
            try:
                passes = []
                for tenant in ("warm-1", "warm-2", "hot"):
                    async with client_for(server, tenant=tenant) as c:
                        passes.append(
                            {sql: await c.query(sql) for sql in self.HOT_ZOO}
                        )
                async with client_for(server, tenant="limited") as c:
                    passes.append({
                        sql: await c.query(sql, time_limit=60.0)
                        for sql in self.HOT_ZOO
                    })
                async with client_for(server, tenant="adhoc") as c:
                    adhoc = [
                        await c.query(
                            f"SELECT kind, value FROM R WHERE value <= {x}.125"
                        )
                        for x in range(10, 40)
                    ]
                    stats = await c.stats()
                return passes, adhoc, stats
            finally:
                await server.stop()

        passes, adhoc, stats = run(scenario())
        assert len(self.HOT_ZOO) == 22
        for results in passes:
            for sql, remote in results.items():
                assert fingerprint(remote) == expected[sql], sql
        for results in passes[:2]:
            assert not any(r.stats["step1_reused"] for r in results.values())
            assert not any(r.reply_reused for r in results.values())
        assert all(r.reply_reused for r in passes[2].values())
        # A reused reply is the second pass's, stats and all.
        assert not any(r.stats["step1_reused"] for r in passes[2].values())
        assert not any(r.reply_reused for r in passes[3].values())
        assert all(r.stats["step1_reused"] for r in passes[3].values())
        assert not any(r.stats["step1_reused"] for r in adhoc)
        assert not any(r.reply_reused for r in adhoc)
        assert stats["plan_cache"]["answers_reused"] == 22
        assert stats["server"]["replies_reused"] == 22


class TestBackpressure:
    def test_soft_limit_degrades_to_sound_intervals(self):
        """With soft_limit=0 every request degrades: answers become
        budgeted anytime intervals that still *contain* the exact
        probability — degraded, never wrong."""
        exact = {}
        session = demo_session()
        sql = ZOO[1]
        for row in session.sql(sql).rows:
            exact[row.values] = row.probability().value

        async def scenario():
            server = await booted(soft_limit=0, hard_limit=64)
            try:
                async with client_for(server) as c:
                    result = await c.query(sql)
                    stats = await c.stats()
                    return result, stats
            finally:
                await server.stop()

        result, stats = run(scenario())
        assert result.degraded
        assert result.engine in ("approx", "sprout")
        assert set(exact) == {row.values for row in result.rows}
        for row in result.rows:
            p = row.probability
            assert p.low - 1e-9 <= exact[row.values] <= p.high + 1e-9
        assert stats["server"]["degraded"] >= 1

    def test_degraded_montecarlo_intent_stays_sampling(self):
        async def scenario():
            server = await booted(soft_limit=0, hard_limit=64, seed=5)
            try:
                async with client_for(server) as c:
                    return await c.query(
                        ZOO[1], engine="montecarlo", samples=100000
                    )
            finally:
                await server.stop()

        result = run(scenario())
        assert result.degraded
        assert result.engine == "montecarlo"
        # the shed budget caps the requested 100k samples
        assert result.stats["samples"] <= ServerConfig().shed_budget

    def test_hard_limit_sheds_with_retry_after(self):
        async def scenario():
            server = await booted(
                soft_limit=0, hard_limit=0, retry_after=1.5
            )
            try:
                async with client_for(server) as c:
                    with pytest.raises(ServerOverloaded) as excinfo:
                        await c.query(ZOO[0])
                    # the server survives shedding: health + later success
                    health = await c.healthz()
                    stats = await c.stats()
                    return excinfo.value, health, stats
            finally:
                await server.stop()

        error, health, stats = run(scenario())
        assert error.retry_after == 1.5
        assert health["status"] == "ok"
        assert stats["server"]["shed"] == 1

    def test_burst_cannot_overshoot_hard_limit(self):
        """Twelve execute() coroutines fired in one burst against
        hard_limit=2: the in-flight slot is claimed synchronously with
        the admission check, so at most two are admitted regardless of
        how the burst interleaves with executor offloads (previously
        the count was read before an await and the whole burst got in)."""
        async def scenario():
            server = await booted(soft_limit=0, hard_limit=2)
            try:
                results = await asyncio.gather(
                    *(server.execute({"sql": ZOO[0], "tenant": f"burst-{n}"})
                      for n in range(12)),
                    return_exceptions=True,
                )
                return results, server.stats()
            finally:
                await server.stop()

        results, stats = run(scenario())
        shed = [r for r in results if isinstance(r, ServerOverloadedError)]
        answered = [r for r in results if isinstance(r, dict)]
        assert len(answered) + len(shed) == 12
        assert len(answered) <= 2
        assert len(shed) >= 10
        assert stats["server"]["shed"] == len(shed)
        assert stats["server"]["inflight"] == 0

    def test_recovers_after_shedding(self):
        """A server that shed under a tiny hard limit still serves
        correct answers afterwards (concurrent burst, then a check)."""
        expected = oracle_fingerprints()

        async def scenario():
            server = await booted(soft_limit=1, hard_limit=2)
            try:
                async def attempt(n):
                    async with client_for(server, tenant=f"burst-{n}") as c:
                        try:
                            return await c.query(ZOO[5])
                        except ServerOverloaded as exc:
                            return exc

                burst = await asyncio.gather(*(attempt(n) for n in range(12)))
                async with client_for(server) as c:
                    after = await c.query(ZOO[0], tenant="after")
                return burst, after
            finally:
                await server.stop()

        burst, after = run(scenario())
        answered = [r for r in burst if not isinstance(r, ServerOverloaded)]
        assert answered, "some burst requests should be admitted"
        for result in answered:
            if not result.degraded:
                assert fingerprint(result) == expected[ZOO[5]]
        assert fingerprint(after) == expected[ZOO[0]]


class TestStreaming:
    def test_stream_snapshots_tighten_and_stay_sound(self):
        session = demo_session()
        sql = ZOO[1]  # projection: identical row shape across modes
        exact = {
            row.values: row.probability().value
            for row in session.sql(sql).rows
        }

        async def scenario():
            server = await booted(seed=9)
            try:
                async with client_for(server) as c:
                    snapshots = []
                    async for snap in c.stream(
                        sql,
                        spec={"mode": "sample", "epsilon": 0.05,
                              "budget": 30000},
                    ):
                        snapshots.append(snap)
                    return snapshots
            finally:
                await server.stop()

        snapshots = run(scenario())
        assert len(snapshots) >= 2, "expected multiple refinement snapshots"
        max_widths = [
            max(row.probability.width for row in snap.rows)
            for snap in snapshots
        ]
        assert max_widths == sorted(max_widths, reverse=True)
        assert max_widths[-1] <= 0.05 + 1e-9
        # (ε, δ) confidence intervals: check the final bracket with a
        # generous slack for the documented per-interval failure rate.
        final = snapshots[-1]
        for remote_row in final.rows:
            p = remote_row.probability
            truth = exact[remote_row.values]
            assert p.low - 0.25 <= truth <= p.high + 0.25

    def test_abandoned_stream_does_not_wedge_the_server(self):
        """A client that disconnects mid-stream must not leave the
        producer thread blocked — the server keeps serving and stop()
        terminates (this deadlocked before the thread-queue hand-off)."""
        async def scenario():
            server = await booted(seed=9)
            try:
                reader, writer = await asyncio.open_connection(
                    *server.tcp_address
                )
                writer.write(json.dumps({
                    "op": "stream", "sql": ZOO[1],
                    "spec": {"mode": "sample", "epsilon": 0.001,
                             "budget": 200000},
                }).encode() + b"\n")
                await writer.drain()
                await reader.readline()  # first snapshot arrives...
                writer.close()           # ...then the client vanishes
                # the server must still answer other tenants promptly
                async with client_for(server) as c:
                    result = await c.query(ZOO[0], tenant="other")
                    # and the *stream's own* tenant must be serviceable
                    # again: the abandoned stream's cleanup stops the
                    # producer thread *before* releasing the tenant
                    # lock, so this cannot race run_iter on the shared
                    # Session — it just waits its turn.
                    same = await c.query(ZOO[0])  # tenant "default"
                return result, same
            finally:
                await asyncio.wait_for(server.stop(), timeout=30)

        result, same = run(scenario())
        assert len(result.rows) > 0
        assert len(same.rows) > 0

    def test_stream_rejects_samples_field(self):
        async def scenario():
            server = await booted()
            try:
                reader, writer = await asyncio.open_connection(
                    *server.tcp_address
                )
                writer.write(json.dumps({
                    "op": "stream", "sql": ZOO[0], "samples": 10,
                }).encode() + b"\n")
                await writer.drain()
                line = json.loads(await reader.readline())
                writer.close()
                return line
            finally:
                await server.stop()

        line = run(scenario())
        assert line["ok"] is False
        assert line["error"]["type"] == "ProtocolError"


class TestRobustness:
    def test_malformed_requests_get_structured_errors(self):
        """Bad JSON, missing fields, bad SQL, unknown ops: every failure
        is a structured error response and the server keeps serving."""
        async def scenario():
            server = await booted()
            try:
                host, port = server.http_address
                outcomes = {}

                # 1. invalid JSON body over raw HTTP
                reader, writer = await asyncio.open_connection(host, port)
                body = b"{not json"
                writer.write(
                    b"POST /query HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
                )
                await writer.drain()
                status = (await reader.readline()).split()[1]
                outcomes["bad_json"] = int(status)
                writer.close()

                # 2-5. structured client errors via the client
                async with client_for(server) as c:
                    for name, kwargs in {
                        "missing_sql": {"sql": "   "},
                        "bad_sql": {"sql": "SELECT FROM WHERE"},
                        "unknown_relation": {"sql": "SELECT a FROM nope"},
                    }.items():
                        try:
                            await c.query(**kwargs)
                            outcomes[name] = None  # pragma: no cover
                        except ServerError as exc:
                            outcomes[name] = exc.error["type"]
                    try:
                        await c.query(ZOO[0], engine="quantum")
                        outcomes["bad_engine"] = None  # pragma: no cover
                    except ServerError as exc:
                        outcomes["bad_engine"] = exc.error["type"]
                    try:
                        await c.query(ZOO[0], spec={"mode": "psychic"})
                        outcomes["bad_spec"] = None  # pragma: no cover
                    except ServerError as exc:
                        outcomes["bad_spec"] = exc.error["type"]

                    # 6. unknown TCP op
                    reader, writer = await asyncio.open_connection(
                        *server.tcp_address
                    )
                    writer.write(b'{"op": "explode"}\n')
                    writer.write(b"also not json\n")
                    # the same connection must still answer a good query
                    writer.write(json.dumps(
                        {"op": "query", "sql": ZOO[0]}
                    ).encode() + b"\n")
                    await writer.drain()
                    op_err = json.loads(await reader.readline())
                    json_err = json.loads(await reader.readline())
                    good = json.loads(await reader.readline())
                    writer.close()

                    # the event loop survived everything above
                    result = await c.query(ZOO[0])
                    stats = await c.stats()
                return outcomes, op_err, json_err, good, result, stats
            finally:
                await server.stop()

        outcomes, op_err, json_err, good, result, stats = run(scenario())
        assert outcomes["bad_json"] == 400
        assert outcomes["missing_sql"] == "ProtocolError"
        assert outcomes["bad_sql"] == "ParseError"
        assert outcomes["unknown_relation"] == "QueryValidationError"
        assert outcomes["bad_engine"] == "ProtocolError"
        assert outcomes["bad_spec"] == "QueryValidationError"
        assert op_err["ok"] is False
        assert json_err["ok"] is False
        assert good["ok"] is True and len(good["result"]["rows"]) > 0
        assert len(result.rows) > 0
        assert stats["server"]["errors"] >= 6

    @pytest.mark.parametrize("budget", [2.5, True])
    def test_non_integer_budget_is_a_validation_error(self, budget):
        """A float budget used to reach the sampler and fail there with
        a ``TypeError``; ``true`` ran as a budget of 1."""
        async def scenario():
            server = await booted()
            try:
                async with client_for(server) as c:
                    with pytest.raises(ServerError) as caught:
                        await c.query(
                            ZOO[0], spec={"mode": "sample", "budget": budget}
                        )
                return caught.value.error
            finally:
                await server.stop()

        error = run(scenario())
        assert error["type"] == "QueryValidationError"
        assert "budget" in error["message"]

    def test_overlong_request_line_gets_400(self):
        """A request line past the stream's line limit must come back as
        a structured 400, not a silently dropped connection plus an
        unhandled-exception log."""
        async def scenario():
            server = await booted()
            try:
                host, port = server.http_address
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"GET /" + b"a" * 66000 + b" HTTP/1.1\r\n\r\n")
                await writer.drain()
                status_line = await reader.readline()
                writer.close()
                return status_line
            finally:
                await server.stop()

        status_line = run(scenario())
        assert status_line, "server dropped the connection without a response"
        assert int(status_line.split()[1]) == 400

    @pytest.mark.parametrize("excess", [10, 4096])
    def test_overlong_tcp_line_gets_an_error_line_then_closes(self, excess):
        """Past ``MAX_LINE_BYTES`` + the stream's 1 KiB slack ``readline``
        raises instead of returning the line; both sizes must answer
        with the structured error line, then close."""
        from repro.server.tcp import MAX_LINE_BYTES

        async def scenario():
            server = await booted()
            try:
                reader, writer = await asyncio.open_connection(
                    *server.tcp_address
                )
                writer.write(b"x" * (MAX_LINE_BYTES + excess) + b"\n")
                try:
                    await writer.drain()
                except ConnectionError:
                    pass  # closed before it read the whole line
                reply = await asyncio.wait_for(reader.readline(), timeout=10)
                try:
                    rest = await asyncio.wait_for(reader.read(), timeout=10)
                except ConnectionError:
                    rest = b""
                writer.close()
                return reply, rest
            finally:
                await server.stop()

        reply, rest = run(scenario())
        assert reply, "server dropped the connection without a response"
        assert json.loads(reply) == {"ok": False, "error": {
            "type": "ReproError",
            "message": f"request line exceeds {MAX_LINE_BYTES} bytes",
        }}
        assert rest == b""

    def test_unknown_route_and_method(self):
        async def scenario():
            server = await booted()
            try:
                host, port = server.http_address

                async def raw(request):
                    reader, writer = await asyncio.open_connection(host, port)
                    writer.write(request)
                    await writer.drain()
                    status = int((await reader.readline()).split()[1])
                    writer.close()
                    return status

                not_found = await raw(
                    b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n"
                )
                wrong_method = await raw(
                    b"GET /query HTTP/1.1\r\nHost: x\r\n\r\n"
                )
                return not_found, wrong_method
            finally:
                await server.stop()

        not_found, wrong_method = run(scenario())
        assert not_found == 404
        assert wrong_method == 405

    def test_tenant_isolation_of_unknown_fields(self):
        async def scenario():
            server = await booted()
            try:
                host, port = server.http_address
                reader, writer = await asyncio.open_connection(host, port)
                body = json.dumps({"sql": ZOO[0], "bogus": 1}).encode()
                writer.write(
                    b"POST /query HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
                )
                await writer.drain()
                status = int((await reader.readline()).split()[1])
                writer.close()
                return status
            finally:
                await server.stop()

        assert run(scenario()) == 400


class TestTenantBound:
    def test_idle_tenants_are_lru_evicted(self):
        """Cycling tenant names must not grow server state without
        bound: past max_tenants the LRU idle tenant (and its lock) is
        evicted, and every request still gets a correct answer."""
        async def scenario():
            server = await booted(max_tenants=2)
            try:
                async with client_for(server) as c:
                    for n in range(5):
                        result = await c.query(ZOO[0], tenant=f"cycler-{n}")
                        assert len(result.rows) > 0
                    return await c.stats()
            finally:
                await server.stop()

        stats = run(scenario())
        assert stats["server"]["tenants"] <= 2
        assert stats["server"]["tenants_evicted"] == 3
        assert stats["server"]["completed"] == 5
        assert stats["server"]["errors"] == 0

    def test_new_tenant_sheds_when_every_tenant_is_busy(self):
        """With max_tenants=1 and that one tenant pinned by a live
        stream, a second tenant cannot evict it and is shed with the
        structured overload error instead."""
        async def scenario():
            server = await booted(seed=9, max_tenants=1)
            try:
                reader, writer = await asyncio.open_connection(
                    *server.tcp_address
                )
                writer.write(json.dumps({
                    "op": "stream", "sql": ZOO[1], "tenant": "pinned",
                    "spec": {"mode": "sample", "epsilon": 0.001,
                             "budget": 200000},
                }).encode() + b"\n")
                await writer.drain()
                await reader.readline()  # stream running: 'pinned' is busy
                async with client_for(server) as c:
                    with pytest.raises(ServerOverloaded):
                        await c.query(ZOO[0], tenant="someone-else")
                writer.close()
                return True
            finally:
                await asyncio.wait_for(server.stop(), timeout=30)

        assert run(scenario())


class TestServerConfig:
    def test_limit_validation(self):
        with pytest.raises(Exception):
            ServerConfig(soft_limit=8, hard_limit=4)
        with pytest.raises(Exception):
            ServerConfig(threads=0)
        with pytest.raises(Exception):
            ServerConfig(shed_budget=0)
        with pytest.raises(Exception):
            ServerConfig(max_tenants=0)

    def test_double_start_rejected(self):
        async def scenario():
            server = await booted()
            try:
                with pytest.raises(ProtocolError):
                    await server.start()
            finally:
                await server.stop()

        run(scenario())

    def test_stats_payload_is_json_encodable(self):
        async def scenario():
            server = await booted()
            try:
                async with client_for(server) as c:
                    await c.query(ZOO[0])
                    return await c.stats()
            finally:
                await server.stop()

        stats = run(scenario())
        json.dumps(stats)
        assert stats["database"]["tables"]["R"] == 8
        assert stats["config"]["soft_limit"] == ServerConfig().soft_limit
