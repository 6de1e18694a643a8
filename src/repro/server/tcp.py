"""The line-delimited-JSON TCP protocol, including anytime streaming.

Each request is one JSON object on one line; each response line is a
JSON object with an ``"ok"`` flag.  Supported ``"op"`` values:

``ping``
    → ``{"ok": true, "pong": true}`` (connection liveness).
``stats``
    → ``{"ok": true, "stats": {...}}`` (same payload as ``GET /stats``).
``query``
    Same request fields as ``POST /query``; one response line with the
    encoded result.
``mutate``
    Same request fields as ``POST /mutate``; one response line with the
    applied mutation summary (``rows``, ``db_generation``).
``stream``
    The anytime path: the server iterates ``Session.run_iter`` and
    pushes one line per interval snapshot —
    ``{"ok": true, "snapshot": <encoded result>, "seq": n, ...}`` —
    monotonically tightening until convergence (or the spec's
    budget/time cap), then a terminal
    ``{"ok": true, "done": true, "snapshots": n}`` line.  Clients can
    stop reading (or close) whenever the current interval is good
    enough; soundness is per-snapshot.

A malformed or failing request yields a single
``{"ok": false, "error": {"type": ..., "message": ...}}`` line (with
``retry_after`` when the server shed the request) and the connection
stays open for the next line — errors never kill the read loop.  The
one exception is a request line longer than :data:`MAX_LINE_BYTES`:
its error line is sent and the connection closed, since the rest of an
over-long line may still be unread.

Every line is written by :func:`~repro.server.codec.encode_payload`: a
``result`` or ``snapshot`` arrives already serialised (the server
encodes it once, on the thread that computed it, and keeps the bytes
with a kept reply), so the event loop encodes only the other fields.
"""

from __future__ import annotations

import asyncio
import json

from repro.errors import ReproError
from repro.resilience.faults import fault_point
from repro.server.codec import encode_payload

__all__ = ["handle_connection", "MAX_LINE_BYTES"]

#: One request line may be at most this long.
MAX_LINE_BYTES = 16 * 1024 * 1024


def _error_line(exc: BaseException) -> dict:
    error = {"type": type(exc).__name__, "message": str(exc)}
    retry_after = getattr(exc, "retry_after", None)
    if retry_after is not None:
        error["retry_after"] = retry_after
    return {"ok": False, "error": error}


async def _send(writer: asyncio.StreamWriter, payload: dict) -> None:
    writer.write(encode_payload(payload) + b"\n")
    await writer.drain()


async def _serve_line(server, writer: asyncio.StreamWriter, line: bytes) -> None:
    from repro.server.app import ProtocolError, ServerOverloadedError

    try:
        payload = json.loads(line.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        server.note_error()
        await _send(writer, _error_line(ProtocolError(f"bad JSON line: {exc}")))
        return
    if not isinstance(payload, dict):
        server.note_error()
        await _send(
            writer,
            _error_line(
                ProtocolError(
                    f"request must be a JSON object, "
                    f"got {type(payload).__name__}"
                )
            ),
        )
        return
    op = payload.get("op", "query")
    try:
        # An injected io fault escapes to the connection loop's generic
        # handler, which answers with a structured error line and keeps
        # the loop alive.
        fault_point("server.tcp.line")
        if op == "ping":
            await _send(writer, {"ok": True, "pong": True})
        elif op == "stats":
            await _send(writer, {"ok": True, "stats": server.stats()})
        elif op == "query":
            response = await server.execute(payload)
            await _send(writer, {"ok": True, **response})
        elif op == "mutate":
            response = await server.mutate(payload)
            await _send(writer, {"ok": True, **response})
        elif op == "stream":
            count = 0
            stream = server.execute_stream(payload)
            try:
                async for item in stream:
                    await _send(writer, {"ok": True, **item})
                    count += 1
            finally:
                # Explicit aclose: when the client vanishes mid-stream
                # the generator's cleanup must run *now* (stopping the
                # producer thread and only then releasing the tenant
                # lock), not whenever GC finalises the generator.
                await stream.aclose()
            await _send(writer, {"ok": True, "done": True, "snapshots": count})
        else:
            raise ProtocolError(
                f"unknown op {op!r}; expected ping, stats, query, mutate "
                f"or stream"
            )
    except ServerOverloadedError as exc:
        server.note_error()
        await _send(writer, _error_line(exc))
    except (ReproError, TypeError, ValueError, KeyError) as exc:
        server.note_error()
        await _send(writer, _error_line(exc))


async def handle_connection(
    server, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    """Serve one TCP client: a loop of request lines until it closes."""
    try:
        while True:
            try:
                line = await reader.readline()
                too_long = len(line) > MAX_LINE_BYTES
            except ValueError:
                # Past the stream limit readline() raises instead, with
                # the rest of the line still unread.
                too_long = True
            except ConnectionError:
                break
            if too_long:
                server.note_error()
                await _send(
                    writer,
                    _error_line(
                        ReproError(
                            f"request line exceeds {MAX_LINE_BYTES} bytes"
                        )
                    ),
                )
                break
            if not line:
                break
            if not line.strip():
                continue
            try:
                await _serve_line(server, writer, line)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # defensive: the loop must survive
                server.note_error()
                try:
                    await _send(writer, _error_line(exc))
                except (ConnectionError, OSError):
                    break
    except (ConnectionError, asyncio.CancelledError):
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
