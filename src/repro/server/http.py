"""A minimal JSON-over-HTTP/1.1 protocol for the query server.

Implemented directly on asyncio streams (the container ships no web
framework, and the protocol surface is three routes):

``POST /query``
    Body ``{"sql": ..., "tenant": ..., "engine": ..., "samples": ...,
    "spec": {...}}`` → ``200`` with ``{"result": <encoded QueryResult>,
    "tenant": ..., "degraded": ..., "statement_cache_hit": ...,
    "reply_reused": ...}``.
``POST /mutate``
    Body ``{"table": ..., "action": "insert"|"update"|"delete",
    "values"/"where"/"set"/"p": ...}`` → ``200`` with
    ``{"mutation": {"table": ..., "action": ..., "rows": ...,
    "db_generation": ...}, "tenant": ...}``.
``GET /stats``
    Server counters and the hit/miss/eviction statistics of the three
    shared caches.
``GET /healthz``
    Cheap liveness probe.

Error mapping — errors are *responses*, never connection or event-loop
fatalities:

* malformed JSON, protocol violations and query-layer failures
  (parse/validation/compilation errors) → ``400`` with a structured
  ``{"error": {"type": ..., "message": ...}}`` body;
* admission-control shedding → ``503`` with a ``Retry-After`` header
  and the same structured body;
* anything unexpected → ``500`` (and the connection stays usable).

Connections are keep-alive by default (HTTP/1.1 semantics; a
``Connection: close`` header or an HTTP/1.0 request closes after the
response).

Every body is written by :func:`~repro.server.codec.encode_payload`: a
query's ``result`` arrives already serialised (the server encodes it
once, on the thread that computed it, and keeps the bytes with a kept
reply), so the event loop encodes only the envelope's other fields.
"""

from __future__ import annotations

import asyncio
import json

from repro.errors import ReproError
from repro.resilience.faults import fault_point
from repro.server.codec import encode_payload

__all__ = ["handle_connection", "MAX_BODY_BYTES"]

#: Requests larger than this are rejected with 413 before being read.
MAX_BODY_BYTES = 16 * 1024 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _error_body(exc: BaseException) -> dict:
    return {"error": {"type": type(exc).__name__, "message": str(exc)}}


async def _read_request(reader: asyncio.StreamReader):
    """``(method, path, headers, body)`` or ``None`` at end of stream."""
    try:
        request_line = await reader.readline()
    except (ConnectionError, asyncio.IncompleteReadError):
        return None
    except ValueError:
        # readline() raises ValueError past the stream's line limit:
        # answer with a structured 400, not a dropped connection.
        raise _BadRequest("HTTP request line exceeds the line-length limit")
    if not request_line:
        return None
    try:
        method, path, version = request_line.decode("latin-1").split()
    except ValueError:
        raise _BadRequest("malformed HTTP request line")
    headers: dict[str, str] = {}
    while True:
        try:
            line = await reader.readline()
        except ValueError:
            raise _BadRequest("HTTP header line exceeds the line-length limit")
        if line in (b"\r\n", b"\n", b""):
            break
        if len(headers) > 100:
            raise _BadRequest("too many headers")
        try:
            name, _, value = line.decode("latin-1").partition(":")
        except UnicodeDecodeError:
            raise _BadRequest("malformed header")
        headers[name.strip().lower()] = value.strip()
    length_header = headers.get("content-length", "0")
    try:
        length = int(length_header)
    except ValueError:
        raise _BadRequest(f"bad Content-Length {length_header!r}")
    if length < 0:
        raise _BadRequest(f"bad Content-Length {length_header!r}")
    if length > MAX_BODY_BYTES:
        raise _TooLarge(
            f"request body of {length} bytes exceeds {MAX_BODY_BYTES}"
        )
    body = await reader.readexactly(length) if length else b""
    return method, path, version, headers, body


class _BadRequest(Exception):
    pass


class _TooLarge(Exception):
    pass


def _write_response(
    writer: asyncio.StreamWriter,
    status: int,
    payload: dict,
    *,
    keep_alive: bool,
    extra_headers: dict | None = None,
) -> None:
    body = encode_payload(payload)
    headers = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        headers.append(f"{name}: {value}")
    writer.write("\r\n".join(headers).encode("latin-1") + b"\r\n\r\n" + body)


async def _dispatch(server, method: str, path: str, body: bytes):
    """``(status, payload, extra_headers)`` for one parsed request."""
    # Local import: app.py imports this module at its own import time.
    from repro.server.app import ProtocolError, ServerOverloadedError

    path = path.split("?", 1)[0]
    if path == "/healthz":
        if method != "GET":
            return 405, _error_body(ProtocolError("use GET /healthz")), None
        return 200, server.healthz(), None
    if path == "/stats":
        if method != "GET":
            return 405, _error_body(ProtocolError("use GET /stats")), None
        return 200, server.stats(), None
    if path in ("/query", "/mutate"):
        if method != "POST":
            return 405, _error_body(ProtocolError(f"use POST {path}")), None
        try:
            payload = json.loads(body.decode("utf-8")) if body else None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            server.note_error()
            return 400, _error_body(ProtocolError(f"bad JSON body: {exc}")), None
        handler = server.mutate if path == "/mutate" else server.execute
        try:
            # Injected faults escape this try on purpose: an io fault
            # here surfaces as a 500 (retryable by the client policy),
            # exactly like a genuine mid-request infrastructure failure.
            fault_point("server.http.request")
            return 200, await handler(payload), None
        except ServerOverloadedError as exc:
            server.note_error()
            return 503, {
                "error": {
                    "type": "ServerOverloadedError",
                    "message": str(exc),
                    "retry_after": exc.retry_after,
                },
            }, {"Retry-After": f"{exc.retry_after:g}"}
        except (ReproError, TypeError, ValueError, KeyError) as exc:
            # Query-layer failures (bad SQL, bad spec values, engine
            # validation) are client errors: report and keep serving.
            server.note_error()
            return 400, _error_body(exc), None
    return 404, _error_body(ProtocolError(f"no route {method} {path}")), None


async def handle_connection(
    server, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    """Serve one client connection until it closes (keep-alive loop)."""
    try:
        while True:
            try:
                request = await _read_request(reader)
            except _BadRequest as exc:
                server.note_error()
                _write_response(
                    writer, 400, _error_body(exc), keep_alive=False
                )
                break
            except _TooLarge as exc:
                server.note_error()
                _write_response(
                    writer, 413, _error_body(exc), keep_alive=False
                )
                break
            except asyncio.IncompleteReadError:
                break
            if request is None:
                break
            method, path, version, headers, body = request
            keep_alive = headers.get("connection", "").lower() != "close" and (
                version.upper() != "HTTP/1.0"
            )
            try:
                status, payload, extra = await _dispatch(
                    server, method, path, body
                )
            except Exception as exc:  # defensive: the loop must survive
                server.note_error()
                status, payload, extra = 500, _error_body(exc), None
            _write_response(
                writer,
                status,
                payload,
                keep_alive=keep_alive,
                extra_headers=extra,
            )
            await writer.drain()
            if not keep_alive:
                break
    except (ConnectionError, asyncio.CancelledError):
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
