"""``python -m repro.server`` — run the query server from the shell.

Serves the deterministic demo database by default (``--scale`` sizes
it); every operational knob of :class:`~repro.server.app.ServerConfig`
is a flag.  Example::

    python -m repro.server --port 8642 --threads 4 --soft-limit 8

then, from another shell::

    printf '{"op": "query", "sql": "SELECT kind FROM R"}\\n' | nc 127.0.0.1 8643
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import signal
import sys

from repro.server.app import QueryServer, ServerConfig
from repro.server.bootstrap import demo_database


def build_parser() -> argparse.ArgumentParser:
    defaults = ServerConfig()
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description=(
            "Serve a probabilistic database over HTTP (POST /query, "
            "GET /stats, GET /healthz) and a line-JSON TCP protocol "
            "with anytime streaming."
        ),
    )
    parser.add_argument("--host", default=defaults.host)
    parser.add_argument(
        "--port", type=int, default=defaults.port,
        help=f"HTTP port (default {defaults.port}; 0 picks an ephemeral port)",
    )
    parser.add_argument(
        "--tcp-port", type=int, default=None,
        help="TCP line-protocol port (default: HTTP port + 1)",
    )
    parser.add_argument(
        "--threads", type=int, default=defaults.threads,
        help="executor threads for compile/eval work of reads",
    )
    parser.add_argument(
        "--statement-cache", type=int, default=defaults.statement_cache_size,
        metavar="N", help="prepared-statement cache entries",
    )
    parser.add_argument(
        "--plan-cache", type=int, default=defaults.plan_cache_size,
        metavar="N", help="physical-plan cache entries",
    )
    parser.add_argument(
        "--distribution-cache", type=int,
        default=defaults.distribution_cache_size,
        metavar="N", help="compiled-distribution cache entries",
    )
    parser.add_argument(
        "--soft-limit", type=int, default=defaults.soft_limit,
        help="concurrent requests beyond which specs degrade to anytime mode",
    )
    parser.add_argument(
        "--hard-limit", type=int, default=defaults.hard_limit,
        help="concurrent requests beyond which requests are shed (503)",
    )
    parser.add_argument(
        "--max-tenants", type=int, default=defaults.max_tenants,
        help="bound on per-tenant sessions (LRU-evicts idle tenants)",
    )
    parser.add_argument(
        "--shed-epsilon", type=float, default=defaults.shed_epsilon,
        help="target interval width of degraded requests",
    )
    parser.add_argument(
        "--shed-budget", type=int, default=defaults.shed_budget,
        help="work budget (expansions/samples) of degraded requests",
    )
    parser.add_argument(
        "--shed-time-limit", type=float, default=defaults.shed_time_limit,
        help="wall-clock cap in seconds of degraded requests",
    )
    parser.add_argument(
        "--drain-timeout", type=float, default=defaults.drain_timeout,
        help="seconds to let in-flight requests finish on SIGTERM/SIGINT "
        "(new arrivals are shed with 503 during the drain)",
    )
    parser.add_argument(
        "--engine", default=defaults.default_engine,
        help="default engine of tenant sessions (auto/sprout/approx/"
        "naive/montecarlo)",
    )
    parser.add_argument(
        "--seed", type=int, default=7,
        help="Monte-Carlo seed of tenant sessions",
    )
    parser.add_argument(
        "--scale", type=int, default=1,
        help="size multiplier of the demo database",
    )
    return parser


async def _serve(args) -> None:
    config = ServerConfig(
        host=args.host,
        port=args.port,
        tcp_port=args.tcp_port,
        threads=args.threads,
        statement_cache_size=args.statement_cache,
        plan_cache_size=args.plan_cache,
        distribution_cache_size=args.distribution_cache,
        soft_limit=args.soft_limit,
        hard_limit=args.hard_limit,
        max_tenants=args.max_tenants,
        shed_epsilon=args.shed_epsilon,
        shed_budget=args.shed_budget,
        shed_time_limit=args.shed_time_limit,
        drain_timeout=args.drain_timeout,
        default_engine=args.engine,
        seed=args.seed,
    )
    server = QueryServer(demo_database(scale=args.scale), config)
    await server.start()
    http_host, http_port = server.http_address
    tcp_host, tcp_port = server.tcp_address
    print(f"repro query server: http://{http_host}:{http_port} "
          f"(POST /query, GET /stats, GET /healthz)")
    print(f"                    tcp://{tcp_host}:{tcp_port} "
          f"(line-JSON: ping/stats/query/stream)")
    print(f"database: {server.db!r}")

    # Graceful shutdown: SIGTERM/SIGINT flip an event instead of killing
    # the loop mid-request; stop() then drains — new arrivals shed with
    # 503 + Retry-After, admitted work gets up to --drain-timeout.
    loop = asyncio.get_running_loop()
    stop_requested = asyncio.Event()
    installed: list[signal.Signals] = []
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop_requested.set)
            installed.append(sig)
        except (NotImplementedError, RuntimeError):
            # Platforms without loop signal support (e.g. Windows
            # proactor) fall back to the KeyboardInterrupt path in main.
            pass
    serve_task = asyncio.ensure_future(server.serve_forever())
    stop_task = asyncio.ensure_future(stop_requested.wait())
    try:
        await asyncio.wait(
            {serve_task, stop_task}, return_when=asyncio.FIRST_COMPLETED
        )
        if stop_requested.is_set():
            print(f"\nsignal received: draining for up to "
                  f"{config.drain_timeout:g}s ...")
    finally:
        for task in (serve_task, stop_task):
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task
        for sig in installed:
            loop.remove_signal_handler(sig)
        await server.stop()
        print("server stopped")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with contextlib.suppress(asyncio.CancelledError):
            asyncio.run(_serve(args))
    except KeyboardInterrupt:
        print("\nshutting down")
    return 0


if __name__ == "__main__":
    sys.exit(main())
