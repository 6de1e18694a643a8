"""repro.server — the async multi-tenant query server.

A network front-end for the whole stack: one
:class:`~repro.server.app.QueryServer` serves one immutable
:class:`~repro.db.pvc_table.PVCDatabase` to many tenants over two wire
protocols (JSON-over-HTTP and a line-delimited-JSON TCP protocol with
anytime streaming), sharing a prepared-statement cache, a physical-plan
cache and the compiled-distribution cache across all of them — and
degrading gracefully under load by rewriting incoming requests to
budgeted anytime evaluation specs instead of queueing or failing.

Layout:

* :mod:`repro.server.app` — ``QueryServer``/``ServerConfig``: tenant
  sessions, shared caches, admission control, executor offloading;
* :mod:`repro.server.statements` — the normalised-SQL statement cache;
* :mod:`repro.server.codec` — the documented JSON wire codec
  (results, intervals, specs, stats);
* :mod:`repro.server.http` / :mod:`repro.server.tcp` — the protocols;
* :mod:`repro.server.client` — the asyncio ``ServerClient``;
* :mod:`repro.server.bootstrap` — deterministic demo databases;
* ``python -m repro.server`` — the CLI entry point.
"""

from repro.server.app import (
    ProtocolError,
    QueryServer,
    ServerConfig,
    ServerOverloadedError,
)
from repro.server.bootstrap import DEMO_QUERIES, demo_database, demo_session
from repro.server.client import (
    RetryPolicy,
    ServerClient,
    ServerError,
    ServerOverloaded,
)
from repro.server.codec import (
    RemoteResult,
    RemoteRow,
    SymbolicValue,
    fingerprint,
    result_from_json,
    result_to_json,
)
from repro.server.statements import (
    StatementCache,
    normalise_statement,
)

__all__ = [
    "QueryServer",
    "ServerConfig",
    "ProtocolError",
    "ServerOverloadedError",
    "ServerClient",
    "ServerError",
    "ServerOverloaded",
    "RetryPolicy",
    "RemoteResult",
    "RemoteRow",
    "SymbolicValue",
    "result_to_json",
    "result_from_json",
    "fingerprint",
    "StatementCache",
    "normalise_statement",
    "demo_database",
    "demo_session",
    "DEMO_QUERIES",
]
