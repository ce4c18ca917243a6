"""Wire compatibility: the codec's bytes are pinned by a recorded fixture.

``wire_golden.ndjson`` holds, line for line, ``encode(request_payload(m))``
or ``encode(reply_payload(m))`` for every message in :data:`GOLDEN`.  Every
request and reply type appears, with optional fields both set and
``None``.  The bytes were recorded with a hand-written codec, independent
of the field-derived one: a change to them is a protocol change and
needs a version bump.

Re-record (only on a deliberate protocol change) with::

    PYTHONPATH=src python tests/service/test_wire_golden.py
"""

from __future__ import annotations

import asyncio
import json
import typing
from pathlib import Path

from repro.service import BurstingFlowService
from repro.service.protocol import (
    AppendReply,
    AppendRequest,
    BatchAnswer,
    BatchReply,
    BatchRequest,
    DrainReply,
    DrainRequest,
    ErrorReply,
    MetricsReply,
    MetricsRequest,
    PatternsReply,
    PatternsRequest,
    PingRequest,
    PongReply,
    QueryReply,
    QueryRequest,
    Reply,
    Request,
    ScanReply,
    ScanRequest,
    TopKBurst,
    TopKReply,
    TopKRequest,
    encode,
    parse_reply,
    parse_request,
    reply_payload,
    request_payload,
)

FIXTURE = Path(__file__).with_name("wire_golden.ndjson")

PATTERN = {
    "pattern_id": "bf_0123456789abcdef",
    "source": "s",
    "sink": "t",
    "interval": [10, 13],
    "density": 300.0,
    "epoch": 4,
}

GOLDEN = [
    # Requests: every op, optional fields set and omitted.
    QueryRequest(
        id="q1", source="s", sink="t", delta=3, algorithm="bfq*",
        timeout=5.0, min_epoch=7,
    ),
    QueryRequest(id="q2", source=1, sink=2, delta=1),
    BatchRequest(
        id="b1", queries=(("s", "t", 3), (1, 2, 4)), plan="independent",
        timeout=2.5, min_epoch=3,
    ),
    BatchRequest(id="b2", queries=(("s", "t", 3),)),
    TopKRequest(
        id="k1", pairs=(("s", "t"), ("a", 7)), delta=3, k=5, timeout=1.0,
        min_epoch=2,
    ),
    TopKRequest(id="k2", pairs=(("s", "t"),), delta=2),
    AppendRequest(id="a1", edges=(("s", "t", 7, 2.5), (1, 2, 8, 3.0))),
    AppendRequest(id="a2", edges=()),
    ScanRequest(
        id="s1", delta=4, pairs=(("s", "t"),), top=8, min_volume=1.5,
        persist="all", timeout=9.0, min_epoch=1,
    ),
    ScanRequest(id="s2", delta=4),
    PatternsRequest(
        id="g1", source="s", sink="t", since=1, until=20, min_density=1.5,
        limit=50,
    ),
    PatternsRequest(id="g2"),
    MetricsRequest(id="m1"),
    PingRequest(id="p1"),
    DrainRequest(id="d1"),
    # Replies: every type, nullable fields set and null.
    QueryReply(
        id="q1", density=900.0 / 7.0, interval=(10, 13), flow_value=0.1 + 0.2,
        cached=False, epoch=4, elapsed_ms=1.25,
    ),
    QueryReply(
        id="q2", density=0.0, interval=None, flow_value=0.0, cached=True,
        epoch=0, elapsed_ms=0.0,
    ),
    BatchReply(
        id="b1",
        results=(
            BatchAnswer(density=300.0, interval=(10, 13), flow_value=900.0, cached=True),
            BatchAnswer(density=0.0, interval=None, flow_value=0.0, cached=False),
        ),
        epoch=5,
        elapsed_ms=3.5,
        planner={"groups": 1, "windows_solved": 4, "cache_hits": 1, "cache_misses": 1},
    ),
    TopKReply(
        id="k1",
        entries=(
            TopKBurst(
                source="s", sink=7, delta=3, density=300.0, interval=(10, 13),
                flow_value=900.0,
            ),
        ),
        epoch=5,
        elapsed_ms=2.0,
        cached=False,
    ),
    TopKReply(id="k2", entries=(), epoch=0, elapsed_ms=0.5, cached=True),
    AppendReply(id="a1", appended=2, epoch=6, invalidated=3),
    ScanReply(
        id="s1",
        new_ids=("bf_0123456789abcdef",),
        deduped=1,
        funnel={"candidates": 12, "confirmed": 3, "flagged": 1},
        epoch=6,
        elapsed_ms=42.0,
    ),
    PatternsReply(id="g1", patterns=(PATTERN,)),
    PatternsReply(id="g2", patterns=()),
    MetricsReply(
        id="m1",
        snapshot={"requests": {"query": 3}, "cache": {"hits": 2}, "draining": False},
    ),
    PongReply(id="p1", epoch=6),
    DrainReply(id="d1", draining=True, inflight=2),
    ErrorReply(id="e1", kind="invalid", message="bad\nnews"),
    ErrorReply(id="e2", kind="overloaded", message="full", retry_after_ms=75),
    ErrorReply(id="e3", kind="stale", message="behind", epoch=4),
    ErrorReply(id="e4", kind="stale", message="behind", retry_after_ms=25, epoch=4),
]


def wire_bytes(message) -> bytes:
    """The NDJSON line the codec emits for one request or reply."""
    if hasattr(message, "op"):
        return encode(request_payload(message))
    return encode(reply_payload(message))


def test_fixture_covers_every_message_type():
    lines = FIXTURE.read_bytes().splitlines(keepends=True)
    assert len(lines) == len(GOLDEN)
    every_type = set(typing.get_args(Request)) | set(typing.get_args(Reply))
    assert {type(message) for message in GOLDEN} == every_type


def test_codec_reproduces_the_fixture_byte_for_byte():
    lines = FIXTURE.read_bytes().splitlines(keepends=True)
    for message, recorded in zip(GOLDEN, lines):
        assert wire_bytes(message) == recorded, message


def test_fixture_parses_back_to_equal_messages():
    lines = FIXTURE.read_bytes().splitlines(keepends=True)
    for message, recorded in zip(GOLDEN, lines):
        parse = parse_request if hasattr(message, "op") else parse_reply
        assert parse(recorded) == message


def test_legacy_engine_keys_share_the_default_cache_entry(burst_network):
    """A query still carrying ``kernel``/``transform`` keys parses, runs the
    default engine and is answered from the entry of the same query sent
    without them."""
    plain = {"v": 1, "id": "q1", "op": "query", "source": "s", "sink": "t", "delta": 2}
    legacy = dict(plain, id="q2", kernel="persistent", transform="skeleton")

    async def scenario():
        async with BurstingFlowService(burst_network) as service:
            first = await service.handle_raw(json.dumps(plain))
            second = await service.handle_raw(json.dumps(legacy))
            return json.loads(first), json.loads(second), len(service.cache)

    first, second, entries = asyncio.run(scenario())
    assert first["ok"] and second["ok"]
    assert first["result"]["cached"] is False
    assert second["result"]["cached"] is True
    assert entries == 1
    for field in ("density", "interval", "flow_value", "epoch"):
        assert second["result"][field] == first["result"][field]


if __name__ == "__main__":
    FIXTURE.write_bytes(b"".join(wire_bytes(message) for message in GOLDEN))
    print(f"wrote {len(GOLDEN)} messages to {FIXTURE}")
