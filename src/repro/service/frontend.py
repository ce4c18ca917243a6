"""The one TCP/HTTP front end of the service and the cluster coordinator.

:func:`listen` serves two transports on the *same* listening port, for
any object with the :class:`FrontEndApp` hooks (both
:class:`~repro.service.server.BurstingFlowService` and
:class:`~repro.cluster.ClusterCoordinator` have them):

* **NDJSON over TCP** — one JSON object per line, pipelined replies in
  request order (the primary, lowest-overhead transport;
  :class:`repro.service.client.ServiceClient` speaks it);
* **HTTP/1.1** — ``POST /query``, ``/batch``, ``/topk``, ``/append``,
  ``/scan`` and ``/patterns`` take a protocol message as the JSON body;
  ``GET /patterns?source=...`` takes the filters as a query string;
  ``GET /metrics`` (snapshot), ``GET /healthz`` (``503`` once draining)
  and ``POST /drain``.  One request per connection.

The transport is sniffed from the first line of the connection.  Hostile
input ends in a typed reply, never in a reset or an unhandled task
exception: a line over :data:`LINE_LIMIT` bytes gets an ``invalid``
error (NDJSON) or a ``400`` (HTTP) and the connection closes cleanly; a
bad ``Content-Length`` gets a ``400``, and one over :data:`LINE_LIMIT`
(the same per-message cap NDJSON enforces) gets a ``413`` before any of
the body is read; a body cut short by EOF closes the connection quietly.
An HTTP client gets :data:`HTTP_READ_TIMEOUT` seconds to send its headers
and body (else ``408``) and as long again to close after a final error
reply; an NDJSON connection may idle between requests.
"""

from __future__ import annotations

import asyncio
import functools
import json
import urllib.parse
from typing import Any, Protocol

from repro.service.protocol import (
    ERROR_INTERNAL,
    ERROR_INVALID,
    ERROR_OVERLOADED,
    ERROR_STALE,
    ERROR_TIMEOUT,
    PROTOCOL_VERSION,
    ErrorReply,
    encode,
    reply_payload,
)

#: Longest request line, HTTP header line and HTTP body the front end
#: reads: the asyncio stream default, made explicit.
LINE_LIMIT = 2**16

#: Seconds an HTTP client gets to send its headers and body, and to close
#: its end after an error reply.  A partial header or a short body then
#: answers ``408`` instead of holding the connection open.
HTTP_READ_TIMEOUT = 10.0

_HTTP_METHODS = (b"GET", b"POST", b"HEAD", b"PUT", b"DELETE")
_MESSAGE_ROUTES = ("/query", "/append", "/batch", "/topk", "/scan", "/patterns")
#: ``GET /patterns`` filters that are numbers (query strings are text).
_QUERY_NUMBERS = {"since": int, "until": int, "limit": int, "min_density": float}
_HTTP_STATUS = {
    ERROR_OVERLOADED: 429,
    ERROR_TIMEOUT: 408,
    ERROR_INTERNAL: 500,
    ERROR_STALE: 503,
}
_HTTP_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class FrontEndApp(Protocol):
    """The hooks the front end serves."""

    async def handle_raw(self, line: bytes | str) -> bytes:
        """One protocol message in, one encoded reply line out."""

    async def metrics_payload(self) -> dict[str, Any]:
        """The ``GET /metrics`` body."""

    def health_payload(self) -> dict[str, Any]:
        """The ``GET /healthz`` body; its ``ok`` picks 200 or 503."""

    def drain_payload(self) -> dict[str, Any]:
        """Begin draining; the ``POST /drain`` body."""


async def listen(app: FrontEndApp, host: str, port: int) -> asyncio.Server:
    """Bind ``host:port`` and serve ``app`` on it."""
    return await asyncio.start_server(
        functools.partial(_on_connection, app), host, port, limit=LINE_LIMIT
    )


async def _on_connection(
    app: FrontEndApp, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    """Serve one client connection, sniffing HTTP from its first line."""
    try:
        line = await _readline(reader)
        if line is not None and line.split(b" ", 1)[0] in _HTTP_METHODS:
            await _serve_http(app, line, reader, writer)
            return
        while line:
            if line.strip():
                writer.write(await app.handle_raw(line))
                await writer.drain()
            line = await _readline(reader)
        if line is None:
            error = ErrorReply(
                "", ERROR_INVALID, f"request line exceeds {LINE_LIMIT} bytes"
            )
            writer.write(encode(reply_payload(error)))
            await _linger(reader, writer)
    except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # The listener closed while this connection was draining;
            # the transport is already gone.
            pass


async def _readline(reader: asyncio.StreamReader) -> bytes | None:
    """The next line (``b""`` at EOF), or ``None`` if it overran
    :data:`LINE_LIMIT` — asyncio then raises ``ValueError``, having
    dropped the buffered part of the line."""
    try:
        return await reader.readline()
    except ValueError:
        return None


async def _linger(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
    """Send the reply written so far, then discard input until the client
    closes (for at most :data:`HTTP_READ_TIMEOUT` seconds): closing with
    unread input would reset the connection and could destroy the reply
    in flight."""
    await writer.drain()
    if writer.can_write_eof():
        writer.write_eof()
    try:
        async with asyncio.timeout(HTTP_READ_TIMEOUT):
            while await reader.read(LINE_LIMIT):
                pass
    except TimeoutError:
        pass


async def _serve_http(
    app: FrontEndApp,
    request_line: bytes,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    try:
        method, target, _ = request_line.decode("latin-1").split(" ", 2)
    except ValueError:
        _http_respond(writer, 400, {"error": "malformed request line"})
        await writer.drain()
        return
    try:
        async with asyncio.timeout(HTTP_READ_TIMEOUT):
            status, body = await _read_http_request(reader)
    except TimeoutError:
        status, body = 408, f"request not received within {HTTP_READ_TIMEOUT} s"
    if status != 200:
        _http_respond(writer, status, {"error": body})
        await _linger(reader, writer)
        return

    path, _, query = target.partition("?")
    path = path.rstrip("/")
    if method == "GET" and path == "/metrics":
        _http_respond(writer, 200, await app.metrics_payload())
    elif method == "GET" and path == "/healthz":
        health = app.health_payload()
        _http_respond(writer, 200 if health["ok"] else 503, health)
    elif method == "POST" and path == "/drain":
        _http_respond(writer, 200, app.drain_payload())
    elif (method == "GET" and path == "/patterns") or (
        method == "POST" and path in _MESSAGE_ROUTES
    ):
        message = body if method == "POST" else encode(_patterns_message(query))
        payload = json.loads(await app.handle_raw(message))
        status = 200 if payload.get("ok") else _http_status(payload)
        _http_respond(writer, status, payload)
    else:
        _http_respond(writer, 404, {"error": f"no route {method} {target}"})
    await writer.drain()


async def _read_http_request(reader: asyncio.StreamReader) -> tuple[int, Any]:
    """Read the headers and body: ``(200, body)``, or an error status and
    its message."""
    content_length = 0
    while True:
        header = await _readline(reader)
        if header is None:
            return 400, f"header line exceeds {LINE_LIMIT} bytes"
        if header in (b"\r\n", b"\n", b""):
            break
        name, _, value = header.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            try:
                content_length = int(value.strip())
            except ValueError:
                content_length = -1
            if content_length < 0:
                return 400, "bad Content-Length"
            if content_length > LINE_LIMIT:
                return 413, f"body exceeds {LINE_LIMIT} bytes"
    return 200, await reader.readexactly(content_length) if content_length else b""


def _patterns_message(query: str) -> dict[str, Any]:
    """Translate ``GET /patterns?...`` into a protocol ``patterns`` message.

    Query-string values arrive as strings; numeric filters are coerced
    (``since``/``until``/``limit`` to int, ``min_density`` to float) and
    left as-is otherwise so the protocol parser reports the type error
    through the ordinary typed-reply path.
    """
    message: dict[str, Any] = {"v": PROTOCOL_VERSION, "id": "http", "op": "patterns"}
    for key, values in urllib.parse.parse_qs(query).items():
        value: Any = values[-1]
        convert = _QUERY_NUMBERS.get(key)
        if convert is not None:
            try:
                value = convert(value)
            except ValueError:
                pass
        message[key] = value
    return message


def _http_status(payload: dict[str, Any]) -> int:
    return _HTTP_STATUS.get((payload.get("error") or {}).get("kind"), 400)


def _http_respond(
    writer: asyncio.StreamWriter, status: int, payload: dict[str, Any]
) -> None:
    body = json.dumps(payload).encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {_HTTP_REASONS.get(status, 'OK')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    writer.write(head.encode("latin-1") + body)
