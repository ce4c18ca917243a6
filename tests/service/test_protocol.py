"""Tests for the versioned JSON wire protocol."""

import json
import typing

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.service.protocol import (
    BATCH_PLANS,
    ERROR_KINDS,
    PROTOCOL_VERSION,
    SCAN_PERSIST_MODES,
    AppendReply,
    AppendRequest,
    BatchAnswer,
    BatchReply,
    BatchRequest,
    DeadlineExceededError,
    DrainReply,
    DrainRequest,
    ErrorReply,
    MetricsReply,
    MetricsRequest,
    OverloadedError,
    PatternsReply,
    PatternsRequest,
    PingRequest,
    PongReply,
    ProtocolError,
    QueryReply,
    QueryRequest,
    RemoteServiceError,
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
    raise_for_error,
    reply_payload,
    request_payload,
)


class TestRequestRoundTrip:
    def test_query_round_trips(self):
        request = QueryRequest(
            id="q1", source="s", sink="t", delta=3,
            algorithm="bfq*", timeout=5.0,
        )
        line = encode(request_payload(request))
        assert line.endswith(b"\n")
        assert parse_request(line) == request

    def test_query_defaults_omitted_on_wire(self):
        request = QueryRequest(id="q2", source=1, sink=2, delta=1)
        payload = request_payload(request)
        assert "algorithm" not in payload
        assert "timeout" not in payload
        assert parse_request(payload) == request

    def test_append_round_trips(self):
        request = AppendRequest(id="a1", edges=(("s", "t", 7, 2.5),))
        assert parse_request(encode(request_payload(request))) == request

    def test_metrics_and_ping_round_trip(self):
        for request in (MetricsRequest(id="m"), PingRequest(id="p")):
            assert parse_request(encode(request_payload(request))) == request


class TestRequestValidation:
    def test_wrong_version_is_typed(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request({"v": 99, "op": "ping", "id": "x"})
        assert excinfo.value.kind == "unsupported_version"

    def test_missing_version_is_typed(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request({"op": "ping", "id": "x"})
        assert excinfo.value.kind == "unsupported_version"

    def test_malformed_json(self):
        with pytest.raises(ProtocolError):
            parse_request(b"{nope\n")

    def test_unknown_op(self):
        with pytest.raises(ProtocolError, match="unknown op"):
            parse_request({"v": PROTOCOL_VERSION, "op": "drop-tables", "id": ""})

    @pytest.mark.parametrize("delta", [0, -3, 1.5, True, "2"])
    def test_bad_delta(self, delta):
        with pytest.raises(ProtocolError, match="delta"):
            parse_request(
                {"v": PROTOCOL_VERSION, "op": "query", "id": "",
                 "source": "s", "sink": "t", "delta": delta}
            )

    def test_missing_source(self):
        with pytest.raises(ProtocolError, match="source"):
            parse_request(
                {"v": PROTOCOL_VERSION, "op": "query", "id": "",
                 "sink": "t", "delta": 1}
            )

    @pytest.mark.parametrize("timeout", [0, -1, "fast", False])
    def test_bad_timeout(self, timeout):
        with pytest.raises(ProtocolError, match="timeout"):
            parse_request(
                {"v": PROTOCOL_VERSION, "op": "query", "id": "",
                 "source": "s", "sink": "t", "delta": 1,
                 "timeout": timeout}
            )

    def test_bad_append_edge_shape(self):
        with pytest.raises(ProtocolError, match=r"edges\[0\]"):
            parse_request(
                {"v": PROTOCOL_VERSION, "op": "append", "id": "",
                 "edges": [["s", "t", 1]]}
            )

    def test_bad_append_timestamp(self):
        with pytest.raises(ProtocolError, match="timestamp"):
            parse_request(
                {"v": PROTOCOL_VERSION, "op": "append", "id": "",
                 "edges": [["s", "t", 1.5, 2.0]]}
            )


class TestReplyRoundTrip:
    def test_query_reply_floats_are_exact(self):
        # JSON emits repr-exact doubles, so a served density compares ==
        # to the in-process engine answer — the acceptance criterion.
        reply = QueryReply(
            id="q1", density=900.0 / 7.0, interval=(10, 13),
            flow_value=0.1 + 0.2, cached=False, epoch=4, elapsed_ms=1.25,
        )
        parsed = parse_reply(encode(reply_payload(reply)))
        assert parsed.density == reply.density
        assert parsed.flow_value == reply.flow_value
        assert parsed.interval == (10, 13)
        assert parsed.cached is False
        assert parsed.epoch == 4

    def test_not_found_reply(self):
        reply = QueryReply(
            id="q", density=0.0, interval=None, flow_value=0.0,
            cached=False, epoch=0, elapsed_ms=0.0,
        )
        parsed = parse_reply(encode(reply_payload(reply)))
        assert parsed.interval is None
        assert not parsed.found

    def test_append_and_pong_round_trip(self):
        append = AppendReply(id="a", appended=3, epoch=9, invalidated=2)
        assert parse_reply(encode(reply_payload(append))) == append
        pong = PongReply(id="p", epoch=9)
        assert parse_reply(encode(reply_payload(pong))) == pong

    def test_error_reply_round_trips(self):
        reply = ErrorReply(id="e", kind="overloaded", message="full",
                           retry_after_ms=50)
        parsed = parse_reply(encode(reply_payload(reply)))
        assert parsed == reply

    def test_wire_is_single_line(self):
        payload = reply_payload(
            ErrorReply(id="e", kind="invalid", message="bad\nnews")
        )
        line = encode(payload)
        assert line.count(b"\n") == 1  # the terminator only
        assert json.loads(line)["error"]["message"] == "bad\nnews"


class TestRaiseForError:
    def test_ok_reply_passes_through(self):
        pong = PongReply(id="p", epoch=1)
        assert raise_for_error(pong) is pong

    def test_overloaded_raises_with_hint(self):
        with pytest.raises(OverloadedError) as excinfo:
            raise_for_error(ErrorReply("", "overloaded", "full", 75))
        assert excinfo.value.retry_after_ms == 75

    def test_timeout_raises_deadline(self):
        with pytest.raises(DeadlineExceededError):
            raise_for_error(ErrorReply("", "timeout", "late"))

    def test_invalid_raises_protocol(self):
        with pytest.raises(ProtocolError):
            raise_for_error(ErrorReply("", "invalid", "bad"))

    def test_internal_raises_remote(self):
        with pytest.raises(RemoteServiceError):
            raise_for_error(ErrorReply("", "internal", "boom"))


# ----------------------------------------------------------------------
# Round-trip property over every message type
# ----------------------------------------------------------------------
ids = st.text(max_size=8)
nodes = st.one_of(st.text(max_size=6), st.integers())
deltas = st.integers(min_value=1)
counts = st.integers(min_value=0)
numbers = st.floats(allow_nan=False, allow_infinity=False)
timeouts = st.none() | st.floats(min_value=1e-3, max_value=1e6)
fences = st.none() | counts
texts = st.text(max_size=10)
intervals = st.tuples(st.integers(), st.integers())
pairs = st.lists(st.tuples(nodes, nodes), min_size=1, max_size=4).map(tuple)
json_values = st.one_of(st.integers(), numbers, texts, st.booleans(), st.none())
json_objects = st.dictionaries(st.text(max_size=6), json_values, max_size=4)

REQUESTS = {
    QueryRequest: st.builds(
        QueryRequest, id=ids, source=nodes, sink=nodes, delta=deltas,
        algorithm=st.none() | texts, timeout=timeouts, min_epoch=fences,
    ),
    BatchRequest: st.builds(
        BatchRequest, id=ids,
        queries=st.lists(st.tuples(nodes, nodes, deltas), min_size=1, max_size=4).map(tuple),
        plan=st.sampled_from(BATCH_PLANS), timeout=timeouts, min_epoch=fences,
    ),
    TopKRequest: st.builds(
        TopKRequest, id=ids, pairs=pairs, delta=deltas, k=deltas,
        timeout=timeouts, min_epoch=fences,
    ),
    AppendRequest: st.builds(
        AppendRequest, id=ids,
        edges=st.lists(st.tuples(nodes, nodes, st.integers(), numbers), max_size=4).map(tuple),
    ),
    ScanRequest: st.builds(
        ScanRequest, id=ids, delta=deltas, pairs=st.none() | pairs,
        top=st.none() | deltas, min_volume=st.none() | st.floats(min_value=0, max_value=1e9),
        persist=st.sampled_from(SCAN_PERSIST_MODES), timeout=timeouts, min_epoch=fences,
    ),
    PatternsRequest: st.builds(
        PatternsRequest, id=ids, source=st.none() | nodes, sink=st.none() | nodes,
        since=st.none() | st.integers(), until=st.none() | st.integers(),
        min_density=st.none() | numbers, limit=st.none() | deltas,
    ),
    MetricsRequest: st.builds(MetricsRequest, id=ids),
    PingRequest: st.builds(PingRequest, id=ids),
    DrainRequest: st.builds(DrainRequest, id=ids),
}

REPLIES = {
    QueryReply: st.builds(
        QueryReply, id=ids, density=numbers, interval=st.none() | intervals,
        flow_value=numbers, cached=st.booleans(), epoch=counts, elapsed_ms=numbers,
    ),
    BatchReply: st.builds(
        BatchReply, id=ids,
        results=st.lists(
            st.builds(
                BatchAnswer, density=numbers, interval=st.none() | intervals,
                flow_value=numbers, cached=st.booleans(),
            ),
            max_size=3,
        ).map(tuple),
        epoch=counts, elapsed_ms=numbers, planner=json_objects,
    ),
    TopKReply: st.builds(
        TopKReply, id=ids,
        entries=st.lists(
            st.builds(
                TopKBurst, source=nodes, sink=nodes, delta=deltas, density=numbers,
                interval=intervals, flow_value=numbers,
            ),
            max_size=3,
        ).map(tuple),
        epoch=counts, elapsed_ms=numbers, cached=st.booleans(),
    ),
    AppendReply: st.builds(
        AppendReply, id=ids, appended=counts, epoch=counts, invalidated=counts
    ),
    ScanReply: st.builds(
        ScanReply, id=ids, new_ids=st.lists(texts, max_size=3).map(tuple),
        deduped=counts, funnel=json_objects, epoch=counts, elapsed_ms=numbers,
    ),
    PatternsReply: st.builds(
        PatternsReply, id=ids, patterns=st.lists(json_objects, max_size=3).map(tuple)
    ),
    # A snapshot shaped exactly like another reply's result would be
    # read as that reply; real snapshots never are.
    MetricsReply: st.builds(
        MetricsReply, id=ids,
        snapshot=st.dictionaries(
            st.text(max_size=6).map(lambda key: "m_" + key), json_values, max_size=4
        ),
    ),
    PongReply: st.builds(PongReply, id=ids, epoch=counts),
    DrainReply: st.builds(DrainReply, id=ids, draining=st.booleans(), inflight=counts),
    ErrorReply: st.builds(
        ErrorReply, id=ids, kind=st.sampled_from(sorted(ERROR_KINDS)), message=texts,
        retry_after_ms=st.none() | counts, epoch=st.none() | st.integers(),
    ),
}


class TestRoundTripProperty:
    def test_strategies_cover_every_message_type(self):
        assert set(REQUESTS) == set(typing.get_args(Request))
        assert set(REPLIES) == set(typing.get_args(Reply))

    @given(request=st.one_of(*REQUESTS.values()))
    def test_every_request_round_trips(self, request):
        assert parse_request(encode(request_payload(request))) == request

    @given(reply=st.one_of(*REPLIES.values()))
    def test_every_reply_round_trips(self, reply):
        assert parse_reply(encode(reply_payload(reply))) == reply
