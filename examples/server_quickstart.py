"""Serving: the async multi-tenant query server in five minutes.

Boots a :class:`~repro.server.QueryServer` in-process on ephemeral
ports, then drives it with the async :class:`~repro.server.ServerClient`:

1. two tenants run SQL over the same shared database — the second
   tenant's repeated statement is answered from the server-wide
   prepared-statement cache (no parse, no plan, no recompilation);
2. an explicit evaluation spec requests budgeted anytime answers
   (interval-valued results, exactly as with a local ``Session``);
3. the TCP streaming protocol delivers progressively tightening
   interval snapshots — consume until the current width is good enough;
4. ``GET /stats`` shows the cross-tenant cache hits and server counters.

Run with::

    python examples/server_quickstart.py
"""

import asyncio

from repro.server import QueryServer, ServerClient, ServerConfig, demo_database


async def main():
    # 1. Boot the server in-process on ephemeral ports (port=0). In
    #    production you would run `python -m repro.server --port 8642`
    #    and connect from other processes/machines.
    db = demo_database(scale=1)
    async with QueryServer(db, ServerConfig(port=0)) as server:
        host, http_port = server.http_address
        _, tcp_port = server.tcp_address
        print(f"server at http://{host}:{http_port} (tcp {tcp_port})\n")

        async with ServerClient(host, http_port, tcp_port=tcp_port) as alice, \
                   ServerClient(host, http_port, tcp_port=tcp_port) as bob:

            # 2. Two tenants, one shared database. Alice pays the parse
            #    + plan + compile cost; Bob's identical statement hits
            #    the shared prepared-statement cache.
            sql = "SELECT kind, SUM(value) AS total FROM R GROUP BY kind"
            first = await alice.query(sql, tenant="alice")
            again = await bob.query(sql, tenant="bob")
            print(f"alice: {len(first)} rows via {first.engine} "
                  f"(statement cache hit: {first.statement_cache_hit})")
            print(f"bob:   {len(again)} rows via {again.engine} "
                  f"(statement cache hit: {again.statement_cache_hit})")
            #    From the third request at an unchanged database the
            #    server hands back the encoded reply itself: no run.
            third = await alice.query(sql, tenant="alice")
            print(f"alice: {len(third)} rows again "
                  f"(reply reused: {third.reply_reused})\n")

            # 3. Anytime evaluation over the wire: the same EvalSpec
            #    surface as Session.run. Interval endpoints survive the
            #    JSON codec (a bare float would lose the bracket).
            approx = await alice.query(
                "SELECT kind FROM R WHERE value >= 20",
                tenant="alice", mode="approx", epsilon=0.05,
            )
            for row in approx:
                p = row.probability
                print(f"  {row.values[0]!r}: [{p.low:.4f}, {p.high:.4f}]")
            print()

            # 4. Streaming: one snapshot per refinement round over TCP.
            print("streaming Monte-Carlo refinement:")
            async for snap in bob.stream(
                "SELECT COUNT(*) AS n FROM R",
                tenant="bob",
                spec={"mode": "sample", "epsilon": 0.02, "budget": 4000},
            ):
                widths = max(row.probability.width for row in snap.rows)
                print(f"  snapshot via {snap.engine}: max width {widths:.4f}")
            print()

            # 5. Server-side observability: shared cache hit rates.
            stats = await alice.stats()
            for cache in ("statement_cache", "plan_cache", "distribution_cache"):
                c = stats[cache]
                print(f"{cache}: {c['hits']} hits / {c['misses']} misses "
                      f"({c['entries']} entries)")
            server_stats = stats["server"]
            print(f"served {server_stats['completed']} requests for "
                  f"{server_stats['tenants']} tenants")


if __name__ == "__main__":
    asyncio.run(main())
