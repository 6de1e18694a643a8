"""The async client of the query server.

Built directly on asyncio streams (no HTTP library in the container);
speaks both wire protocols:

* :meth:`ServerClient.query`, :meth:`ServerClient.stats`,
  :meth:`ServerClient.healthz` — JSON over HTTP on one keep-alive
  connection (reconnecting once if the server closed it);
* :meth:`ServerClient.stream` — the TCP line protocol's anytime path:
  an async iterator of progressively tightening
  :class:`~repro.server.codec.RemoteResult` snapshots;
* :meth:`ServerClient.tcp_query` — a one-shot query over the TCP
  protocol (used by tests to exercise both stacks);
* :meth:`ServerClient.mutate` — ``POST /mutate``: insert, update or
  delete rows of the server's shared database (never retried — writes
  are not idempotent).

`query` mirrors :meth:`Session.run`'s keyword surface (``engine=``,
``samples=``, ``spec=``, and the inline ``mode``/``epsilon``/…
overrides) and returns a :class:`~repro.server.codec.RemoteResult`
whose ``degraded``/``statement_cache_hit``/``reply_reused`` flags expose
the server-side envelope.  Server-reported failures raise
:class:`ServerError` (or :class:`ServerOverloaded`, carrying
``retry_after``, when admission control shed the request).

Pass ``retry=RetryPolicy(...)`` to make the idempotent operations
(``query``/``tcp_query``/``stats``/``healthz``) survive transient
failures — shedding, dropped connections, server-side infrastructure
errors — with capped exponential backoff, seeded jitter, and respect
for the server's ``Retry-After``.  Streams never retry.

Usage::

    async with ServerClient("127.0.0.1", 8642) as client:
        result = await client.query("SELECT kind FROM R", tenant="alice")
        for row in result:
            print(row.values, row.probability.low, row.probability.high)
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass

from repro.engine.spec import EvalSpec
from repro.errors import QueryValidationError, ReproError
from repro.server.codec import RemoteResult, result_from_json, spec_payload

__all__ = ["ServerClient", "ServerError", "ServerOverloaded", "RetryPolicy"]

#: Server-reported error types worth a retry: infrastructure failures
#: that a healthy server would not reproduce on the next attempt.
#: Protocol and query-validation errors are deterministic — retrying
#: them can only waste the budget — so they are deliberately absent.
_RETRYABLE_ERROR_TYPES = frozenset({
    "ConnectionError",
    "ConnectionResetError",
    "BrokenPipeError",
    "ConnectionClosed",
    "TimeoutError",
    "OSError",
})


class ServerError(ReproError):
    """The server reported a structured error for this request."""

    def __init__(self, error: dict):
        message = error.get("message", "server error")
        super().__init__(f"{error.get('type', 'ServerError')}: {message}")
        self.error = dict(error)


class ServerOverloaded(ServerError):
    """The server shed this request; retry after ``retry_after``."""

    def __init__(self, error: dict, retry_after: float):
        super().__init__(error)
        self.retry_after = retry_after


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with seeded jitter for idempotent requests.

    Attempt ``n`` (0-based) backs off ``base_delay * multiplier**n``
    capped at ``max_delay``, stretched by up to ``jitter * 100`` percent
    of seeded randomness (deterministic per policy instance, so tests
    and reproductions see the same schedule).  When the server sheds a
    request with ``Retry-After``, the client honours it: the actual
    sleep is ``max(backoff, retry_after)``.  ``max_attempts`` and
    ``max_elapsed`` bound the total budget — whichever trips first ends
    the retry loop and re-raises the last failure.

    Only idempotent operations retry (``query``/``tcp_query``/
    ``stats``/``healthz``; every query is a read over an immutable
    database).  Streams never retry: a re-sent stream would restart
    refinement from scratch mid-consumption.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.5
    max_elapsed: float = 30.0
    seed: int = 0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise QueryValidationError(
                f"max_attempts must be >= 1, got {self.max_attempts!r}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise QueryValidationError("retry delays must be >= 0")
        if self.multiplier < 1.0:
            raise QueryValidationError(
                f"multiplier must be >= 1, got {self.multiplier!r}"
            )
        if self.jitter < 0:
            raise QueryValidationError(
                f"jitter must be >= 0, got {self.jitter!r}"
            )
        if self.max_elapsed <= 0:
            raise QueryValidationError(
                f"max_elapsed must be positive, got {self.max_elapsed!r}"
            )

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """The base sleep before retry number ``attempt + 1``."""
        delay = min(
            self.base_delay * self.multiplier ** attempt, self.max_delay
        )
        if self.jitter:
            delay *= 1.0 + self.jitter * rng.random()
        return delay


def _raise_for_error(error: dict):
    retry_after = error.get("retry_after")
    if retry_after is not None or error.get("type") == "ServerOverloadedError":
        raise ServerOverloaded(error, float(retry_after or 0.0))
    raise ServerError(error)


def _envelope(response: dict) -> dict:
    """The server-side flags of a response, as ``RemoteResult`` fields
    (absent ones — an older server, a stream snapshot — read False)."""
    return {
        "degraded": response.get("degraded", False),
        "statement_cache_hit": response.get("statement_cache_hit", False),
        "reply_reused": response.get("reply_reused", False),
    }


class ServerClient:
    """An asyncio client for one query server (HTTP + TCP endpoints)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8642,
        tcp_port: int | None = None,
        tenant: str = "default",
        retry: RetryPolicy | None = None,
    ):
        self.host = host
        self.port = port
        self.tcp_port = tcp_port if tcp_port is not None else port + 1
        self.tenant = tenant
        self.retry = retry
        self._retry_rng = (
            random.Random(retry.seed) if retry is not None else None
        )
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        # One in-flight HTTP request at a time per client (the keep-alive
        # connection is a pipe); concurrency tests use many clients.
        self._lock = asyncio.Lock()

    async def _with_retry(self, attempt_once):
        """Run ``attempt_once`` under the client's retry policy.

        Retries transient failures only: admission-control shedding
        (honouring the server's ``Retry-After``), dropped or refused
        connections, and server-reported infrastructure errors
        (:data:`_RETRYABLE_ERROR_TYPES`).  Deterministic failures —
        protocol violations, bad SQL, bad spec values — raise
        immediately.
        """
        policy = self.retry
        if policy is None:
            return await attempt_once()
        start = time.monotonic()
        last: BaseException | None = None
        for attempt in range(policy.max_attempts):
            try:
                return await attempt_once()
            except ServerOverloaded as exc:
                last = exc
                delay = max(
                    policy.backoff(attempt, self._retry_rng), exc.retry_after
                )
            except ServerError as exc:
                if exc.error.get("type") not in _RETRYABLE_ERROR_TYPES:
                    raise
                last = exc
                delay = policy.backoff(attempt, self._retry_rng)
            except (ConnectionError, asyncio.IncompleteReadError, OSError) as exc:
                last = exc
                delay = policy.backoff(attempt, self._retry_rng)
            if attempt + 1 >= policy.max_attempts:
                break
            if time.monotonic() - start + delay > policy.max_elapsed:
                break
            await asyncio.sleep(delay)
        raise last

    # -- HTTP ------------------------------------------------------------------

    async def _connect_http(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def _http(self, method: str, path: str, payload: dict | None = None):
        """One HTTP round-trip; reconnects once on a dropped keep-alive."""
        body = json.dumps(payload).encode("utf-8") if payload is not None else b""
        request = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: keep-alive\r\n"
            f"\r\n"
        ).encode("latin-1") + body
        async with self._lock:
            for attempt in (0, 1):
                if self._writer is None:
                    await self._connect_http()
                try:
                    self._writer.write(request)
                    await self._writer.drain()
                    return await self._read_http_response()
                except (
                    ConnectionError,
                    asyncio.IncompleteReadError,
                    BrokenPipeError,
                ):
                    await self._close_http()
                    if attempt:
                        raise

    async def _read_http_response(self):
        status_line = await self._reader.readline()
        if not status_line:
            raise asyncio.IncompleteReadError(b"", None)
        parts = status_line.decode("latin-1").split(maxsplit=2)
        status = int(parts[1])
        headers: dict[str, str] = {}
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        body = await self._reader.readexactly(length) if length else b""
        if headers.get("connection", "").lower() == "close":
            await self._close_http()
        payload = json.loads(body.decode("utf-8")) if body else {}
        return status, headers, payload

    async def _close_http(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._reader = self._writer = None

    # -- public API ------------------------------------------------------------

    async def query(
        self,
        sql: str,
        *,
        tenant: str | None = None,
        engine: str | None = None,
        samples: int | None = None,
        spec: EvalSpec | str | dict | None = None,
        mode: str | None = None,
        epsilon: float | None = None,
        delta: float | None = None,
        budget: int | None = None,
        time_limit: float | None = None,
        workers: int | str | None = None,
        on_timeout: str | None = None,
    ) -> RemoteResult:
        """Run ``sql`` on the server; mirrors :meth:`Session.run`."""
        payload = {
            "sql": sql,
            "tenant": tenant if tenant is not None else self.tenant,
        }
        if engine is not None:
            payload["engine"] = engine
        if samples is not None:
            payload["samples"] = samples
        wire_spec = spec_payload(
            spec,
            mode=mode,
            epsilon=epsilon,
            delta=delta,
            budget=budget,
            time_limit=time_limit,
            workers=workers,
            on_timeout=on_timeout,
        )
        if wire_spec is not None:
            payload["spec"] = wire_spec

        async def attempt_once():
            status, _, response = await self._http("POST", "/query", payload)
            if status != 200:
                _raise_for_error(
                    response.get("error", {"message": f"HTTP {status}"})
                )
            return result_from_json(response["result"], **_envelope(response))

        return await self._with_retry(attempt_once)

    async def mutate(
        self,
        table: str,
        action: str,
        *,
        tenant: str | None = None,
        values=None,
        where: dict | None = None,
        set_values: dict | None = None,
        p: float | None = None,
    ) -> dict:
        """Apply one mutation on the server (``POST /mutate``).

        ``action`` is ``"insert"`` (with ``values`` and optional ``p``),
        ``"update"`` (with ``where`` and ``set_values`` and/or ``p``) or
        ``"delete"`` (with ``where``).  Returns the server's mutation
        summary (``rows`` affected, new ``db_generation``).  Mutations
        are **not idempotent**, so they never retry — a transient
        failure raises immediately and the caller decides whether the
        write landed (compare ``db_generation`` via :meth:`stats`).
        """
        payload: dict = {
            "table": table,
            "action": action,
            "tenant": tenant if tenant is not None else self.tenant,
        }
        if values is not None:
            payload["values"] = (
                list(values) if isinstance(values, tuple) else values
            )
        if where is not None:
            payload["where"] = where
        if set_values is not None:
            payload["set"] = set_values
        if p is not None:
            payload["p"] = p
        status, _, response = await self._http("POST", "/mutate", payload)
        if status != 200:
            _raise_for_error(
                response.get("error", {"message": f"HTTP {status}"})
            )
        return response

    async def stats(self) -> dict:
        return await self._with_retry(lambda: self._get_json("/stats"))

    async def healthz(self) -> dict:
        return await self._with_retry(lambda: self._get_json("/healthz"))

    async def _get_json(self, path: str) -> dict:
        status, _, response = await self._http("GET", path)
        if status != 200:
            _raise_for_error(response.get("error", {"message": f"HTTP {status}"}))
        return response

    # -- TCP -------------------------------------------------------------------

    async def _tcp_round_trip(self, request: dict, collect_stream: bool):
        reader, writer = await asyncio.open_connection(self.host, self.tcp_port)
        try:
            writer.write(json.dumps(request).encode("utf-8") + b"\n")
            await writer.drain()
            while True:
                line = await reader.readline()
                if not line:
                    raise ServerError(
                        {"type": "ConnectionClosed",
                         "message": "server closed the stream"}
                    )
                response = json.loads(line.decode("utf-8"))
                if not response.get("ok", False):
                    _raise_for_error(response.get("error", {}))
                if collect_stream:
                    if response.get("done"):
                        return
                    yield response
                else:
                    yield response
                    return
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _tcp_payload(self, op, sql, tenant, engine, spec, **overrides) -> dict:
        payload = {
            "op": op,
            "sql": sql,
            "tenant": tenant if tenant is not None else self.tenant,
        }
        if engine is not None:
            payload["engine"] = engine
        wire_spec = spec_payload(spec, **overrides)
        if wire_spec is not None:
            payload["spec"] = wire_spec
        return payload

    async def tcp_query(
        self,
        sql: str,
        *,
        tenant: str | None = None,
        engine: str | None = None,
        spec: EvalSpec | str | dict | None = None,
        **overrides,
    ) -> RemoteResult:
        """One-shot query over the TCP line protocol."""
        payload = self._tcp_payload("query", sql, tenant, engine, spec, **overrides)

        async def attempt_once():
            async for response in self._tcp_round_trip(
                payload, collect_stream=False
            ):
                return result_from_json(
                    response["result"], **_envelope(response)
                )

        return await self._with_retry(attempt_once)

    async def stream(
        self,
        sql: str,
        *,
        tenant: str | None = None,
        engine: str | None = None,
        spec: EvalSpec | str | dict | None = None,
        **overrides,
    ):
        """Async iterator of anytime snapshots (``Session.run_iter``).

        Each yielded :class:`RemoteResult` carries sound, monotonically
        tightening intervals; stop consuming whenever the current widths
        are good enough (each stream uses its own TCP connection, so
        abandoning it cannot desynchronise other requests).
        """
        payload = self._tcp_payload("stream", sql, tenant, engine, spec, **overrides)
        async for response in self._tcp_round_trip(payload, collect_stream=True):
            yield result_from_json(response["snapshot"], **_envelope(response))

    # -- lifecycle -------------------------------------------------------------

    async def close(self) -> None:
        await self._close_http()

    async def __aenter__(self) -> "ServerClient":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> bool:
        await self.close()
        return False

    def __repr__(self):
        return (
            f"ServerClient(http={self.host}:{self.port}, "
            f"tcp={self.host}:{self.tcp_port}, tenant={self.tenant!r})"
        )
