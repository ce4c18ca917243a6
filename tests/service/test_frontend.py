"""Hostile input against the shared front end, on both of its users.

The single service and the cluster coordinator serve through the same
:mod:`repro.service.frontend`; every case runs against both.  Each one
asserts the typed outcome, that a fresh connection still answers
``ping``, and that nothing escaped as an unhandled loop exception.
"""

from __future__ import annotations

import asyncio
import gc
import json
from contextlib import asynccontextmanager

import pytest

from repro.cluster import ClusterCoordinator, InlineReplica
from repro.service import frontend
from repro.service.frontend import LINE_LIMIT
from repro.service.server import BurstingFlowService
from repro.temporal import TemporalFlowNetwork

from tests.cluster.test_cluster_e2e import boot_log
from tests.service.test_interleave import SEED_EDGES

FRONT_ENDS = ["service", "coordinator"]


@asynccontextmanager
async def serving(kind, tmp_path):
    """Start ``kind`` on an ephemeral port; yield ``(host, port, errors)``
    where ``errors`` collects every loop exception-handler call."""
    errors = []
    asyncio.get_running_loop().set_exception_handler(
        lambda loop, context: errors.append(context)
    )
    if kind == "service":
        app = BurstingFlowService(TemporalFlowNetwork.from_tuples(SEED_EDGES))
    else:
        path = boot_log(tmp_path)
        app = ClusterCoordinator(path, [InlineReplica("r0", path)])
    host, port = await app.start("127.0.0.1", 0)
    try:
        yield host, port, errors
    finally:
        await app.stop()
        # Unretrieved task exceptions surface when the task is collected.
        gc.collect()
        await asyncio.sleep(0)


async def ping(host, port):
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(b'{"v": 1, "id": "p", "op": "ping"}\n')
    await writer.drain()
    reply = json.loads(await reader.readline())
    writer.close()
    await writer.wait_closed()
    return reply


async def http_exchange(host, port, raw):
    """Send ``raw``, half-close, and return everything the server sent."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(raw)
    await writer.drain()
    writer.write_eof()
    answer = await reader.read()
    writer.close()
    await writer.wait_closed()
    return answer


@pytest.mark.parametrize("kind", FRONT_ENDS)
def test_oversized_ndjson_line_gets_typed_error_and_clean_close(kind, tmp_path):
    async def scenario():
        async with serving(kind, tmp_path) as (host, port, errors):
            reader, writer = await asyncio.open_connection(host, port)
            padding = b"x" * (3 * LINE_LIMIT)
            writer.write(b'{"v": 1, "id": "big", "op": "ping", "pad": "' + padding + b'"}\n')
            await writer.drain()
            reply = json.loads(await reader.readline())
            trailing = await reader.read()  # a reset would raise here
            writer.close()
            await writer.wait_closed()
            pong = await ping(host, port)
        return reply, trailing, pong, errors

    reply, trailing, pong, errors = asyncio.run(scenario())
    assert reply["ok"] is False
    assert reply["error"]["kind"] == "invalid"
    assert str(LINE_LIMIT) in reply["error"]["message"]
    assert trailing == b""
    assert pong["ok"] is True
    assert errors == []


BAD_HTTP = {
    "negative-content-length": (
        b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: -5\r\n\r\n"
    ),
    "non-numeric-content-length": (
        b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: many\r\n\r\n"
    ),
    "oversized-header-line": (
        b"GET /metrics HTTP/1.1\r\nX-Pad: " + b"y" * (2 * LINE_LIMIT) + b"\r\n\r\n"
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_HTTP))
@pytest.mark.parametrize("kind", FRONT_ENDS)
def test_bad_http_request_answers_400(kind, case, tmp_path):
    async def scenario():
        async with serving(kind, tmp_path) as (host, port, errors):
            answer = await http_exchange(host, port, BAD_HTTP[case])
            pong = await ping(host, port)
        return answer, pong, errors

    answer, pong, errors = asyncio.run(scenario())
    head, _, body = answer.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 ")
    assert "error" in json.loads(body)
    assert pong["ok"] is True
    assert errors == []


@pytest.mark.parametrize("kind", FRONT_ENDS)
def test_http_body_cut_short_by_eof_closes_quietly(kind, tmp_path):
    async def scenario():
        async with serving(kind, tmp_path) as (host, port, errors):
            answer = await http_exchange(
                host,
                port,
                b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n"
                b'{"v": 1, "op": "query"',
            )
            pong = await ping(host, port)
        return answer, pong, errors

    answer, pong, errors = asyncio.run(scenario())
    assert answer == b""
    assert pong["ok"] is True
    assert errors == []


@pytest.mark.parametrize("kind", FRONT_ENDS)
def test_http_content_length_over_limit_answers_413_without_waiting(kind, tmp_path):
    async def scenario():
        async with serving(kind, tmp_path) as (host, port, errors):
            reader, writer = await asyncio.open_connection(host, port)
            # Headers only, no body and no half-close: a server that waits
            # for the announced 2 GB never answers.
            writer.write(
                b"POST /query HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 2000000000\r\n\r\n"
            )
            await writer.drain()
            async with asyncio.timeout(5):
                answer = await reader.read()
            writer.close()
            await writer.wait_closed()
            pong = await ping(host, port)
        return answer, pong, errors

    answer, pong, errors = asyncio.run(scenario())
    head, _, body = answer.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 413 ")
    assert str(LINE_LIMIT) in json.loads(body)["error"]
    assert pong["ok"] is True
    assert errors == []


STALLED_HTTP = {
    "headers-without-blank-line": b"POST /query HTTP/1.1\r\nHost: x\r\n",
    "body-shorter-than-content-length": (
        b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 10\r\n\r\nabc"
    ),
}


@pytest.mark.parametrize("case", sorted(STALLED_HTTP))
@pytest.mark.parametrize("kind", FRONT_ENDS)
def test_stalled_http_request_answers_408(kind, case, tmp_path, monkeypatch):
    monkeypatch.setattr(frontend, "HTTP_READ_TIMEOUT", 0.2)

    async def scenario():
        async with serving(kind, tmp_path) as (host, port, errors):
            reader, writer = await asyncio.open_connection(host, port)
            # Part of a request, then wait without closing: a server with
            # no read deadline never answers.
            writer.write(STALLED_HTTP[case])
            await writer.drain()
            async with asyncio.timeout(5):
                answer = await reader.read()
            writer.close()
            await writer.wait_closed()
            pong = await ping(host, port)
        return answer, pong, errors

    answer, pong, errors = asyncio.run(scenario())
    head, _, body = answer.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 408 ")
    assert "error" in json.loads(body)
    assert pong["ok"] is True
    assert errors == []
