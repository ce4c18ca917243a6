"""Versioned JSON wire protocol of the delta-BFlow query service.

One request or reply per message.  Over raw TCP, messages are
newline-delimited JSON objects (NDJSON); over HTTP, the same objects
travel as request/response bodies (see :mod:`repro.service.frontend` for
the endpoint map).  Every message carries the protocol version ``v`` and
an opaque correlation ``id`` that the server echoes back, so clients may
pipeline requests on one connection.

Requests (``op`` selects the type)::

    {"v": 1, "id": "q1", "op": "query", "source": "s", "sink": "t",
     "delta": 3, "algorithm": "bfq*", "timeout": 5.0}
    {"v": 1, "id": "b1", "op": "batch", "plan": "shared",
     "queries": [["s", "t", 3], ["s", "t", 4], ...]}
    {"v": 1, "id": "k1", "op": "topk", "delta": 3, "k": 10,
     "pairs": [["s", "t"], ["s", "u"], ...]}
    {"v": 1, "id": "a1", "op": "append",
     "edges": [["s", "t", 7, 2.5], ...]}
    {"v": 1, "id": "s1", "op": "scan", "delta": 3, "top": 8,
     "persist": "flagged"}
    {"v": 1, "id": "g1", "op": "patterns", "source": "s",
     "min_density": 1.0, "limit": 50}
    {"v": 1, "id": "m1", "op": "metrics"}
    {"v": 1, "id": "p1", "op": "ping"}
    {"v": 1, "id": "d1", "op": "drain"}

``op: "batch"`` answers many delta-BFlow queries in one round trip;
``plan: "shared"`` (the default) routes the batch through the multi-query
planner — queries grouped by (source, sink) share one window skeleton and
a per-epoch candidate-window Maxflow memo — while ``"independent"``
solves each entry on its own.  ``op: "topk"`` is the first-class top-k
densest-bursts query over a candidate (source, sink) list.  Both carry
the same ``min_epoch`` fence as single queries.

A query may carry ``min_epoch``, the read-your-writes fence: a server
whose epoch is behind it answers with a typed ``stale`` error (carrying
its current ``epoch``) instead of a possibly stale result.  The cluster
coordinator (:mod:`repro.cluster`) stamps every routed query with the
cluster's committed epoch, and per-replica ``AppendReply.epoch`` values
double as the replication acknowledgements.

Replies are either ``{"ok": true, ...}`` payloads or typed errors
``{"ok": false, "error": {"kind": ..., "message": ...}}``.  The error
kinds are a closed set (:data:`ERROR_KINDS`); ``"overloaded"`` is the
load-shedding response required by admission control and carries a
``retry_after_ms`` hint.

Densities and flow values round-trip exactly: Python's ``json`` emits
``repr``-exact doubles, so a served answer compares equal (``==``) to the
in-process :func:`repro.core.engine.find_bursting_flow` answer.

Declaring an op
---------------
Every message is a frozen dataclass decorated with :func:`wire_message`.
A request class names its ``op`` in a class attribute, a reply class its
``ok``.  Each field after ``id`` declares its wire check once, next to
the field: ``delta: int = wire(POSITIVE_INT)``, or with a default,
``plan: str = wire(choice(BATCH_PLANS), "shared")``.  A field defaulting
to ``None`` also accepts ``null``.  The kinds are :data:`NODE`,
:data:`INT`, :data:`POSITIVE_INT`, :data:`NUMBER`, :func:`choice`,
:func:`array`, :func:`record` (a fixed-arity tuple), :func:`nested` (a
dataclass) and their siblings below.  Adding an op means declaring one
such dataclass; the decorator computes its field specs once, at import,
and :func:`parse_request` / :func:`request_payload` / :func:`reply_payload`
/ :func:`parse_reply` walk them.

How the bytes are derived:

* a request is ``v``, ``id``, ``op``, then its fields in declaration
  order, omitting ``None``;
* a reply is ``v``, ``id``, ``ok``, then ``result`` holding its non-``id``
  fields in declaration order — nested dataclasses as objects, tuples as
  arrays, ``None`` as ``null``;
* two exceptions: a :class:`MetricsReply`'s ``result`` is the snapshot
  itself, and an :class:`ErrorReply` nests its fields under ``error``,
  omitting ``None``.

Parsing reads only the fields a message declares; any other key is
ignored, so a request written against an older field set still parses.

A reply's type is recovered from its ``result`` keys: the reply class
whose field names they are, exactly; any other object is a metrics
snapshot.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Callable, Mapping, Sequence

from repro.exceptions import ReproError
from repro.temporal.edge import NodeId, Timestamp

#: The one protocol version this build speaks.
PROTOCOL_VERSION = 1

#: Closed set of typed error kinds.
ERROR_OVERLOADED = "overloaded"
ERROR_TIMEOUT = "timeout"
ERROR_INVALID = "invalid"
ERROR_UNSUPPORTED_VERSION = "unsupported_version"
ERROR_INTERNAL = "internal"
#: The server's network epoch is behind the ``min_epoch`` the query
#: demanded (read-your-writes).  Retryable: the cluster coordinator
#: re-routes, a direct client waits for replication to catch up.
ERROR_STALE = "stale"
ERROR_KINDS = frozenset(
    {
        ERROR_OVERLOADED,
        ERROR_TIMEOUT,
        ERROR_INVALID,
        ERROR_UNSUPPORTED_VERSION,
        ERROR_INTERNAL,
        ERROR_STALE,
    }
)


class ProtocolError(ReproError):
    """A malformed or unsupported message.

    Attributes:
        kind: the typed error kind to report back
            (``"invalid"`` or ``"unsupported_version"``).
    """

    def __init__(self, message: str, *, kind: str = ERROR_INVALID) -> None:
        super().__init__(message)
        self.kind = kind


class OverloadedError(ReproError):
    """The server shed this request (admission queue full)."""

    def __init__(self, message: str, *, retry_after_ms: int = 100) -> None:
        super().__init__(message)
        self.retry_after_ms = retry_after_ms


class DeadlineExceededError(ReproError):
    """The request's deadline expired before an answer was produced."""


class RemoteServiceError(ReproError):
    """Client-side surfacing of a server-reported ``internal`` error."""


class StaleEpochError(ReproError):
    """The replica's epoch is behind the query's ``min_epoch``.

    Attributes:
        epoch: the replica's current epoch (``-1`` when unknown).
        retry_after_ms: the server's suggested wait before retrying
            (``None`` when the reply carried no hint).
    """

    def __init__(
        self,
        message: str,
        *,
        epoch: int = -1,
        retry_after_ms: int | None = None,
    ) -> None:
        super().__init__(message)
        self.epoch = epoch
        self.retry_after_ms = retry_after_ms


# ----------------------------------------------------------------------
# Field kinds: one wire check per field, declared next to it
# ----------------------------------------------------------------------
class _Invalid(Exception):
    """A value failed its check.  ``path`` grows as the error leaves each
    container, so the success path never builds a field name."""

    def __init__(self, describe: Callable[[str], str], path: str = "") -> None:
        super().__init__()
        self.describe = describe
        self.path = path


@dataclass(frozen=True, slots=True)
class Kind:
    """How one field travels.

    ``load(value)`` checks a decoded JSON value and converts it, raising
    :class:`_Invalid`; ``dump(value)`` gives the JSON-able form of a
    non-``None`` value (``None``: the value as is).
    """

    load: Callable[[Any], Any]
    dump: Callable[[Any], Any] | None = None


def _checked(
    types: tuple[type, ...],
    expect: str,
    *,
    test: Callable[[Any], bool] | None = None,
    convert: Callable[[Any], Any] | None = None,
) -> Kind:
    """A value of ``types`` passing ``test``.  ``bool`` (an ``int`` to
    Python, not to JSON) is accepted only where ``types`` names it."""
    not_bool = () if bool in types else bool

    def load(value: Any) -> Any:
        if (
            isinstance(value, types)
            and not isinstance(value, not_bool)
            and (test is None or test(value))
        ):
            return value if convert is None else convert(value)
        raise _Invalid(lambda key: f"{key} must be {expect}, got {value!r}")

    return Kind(load)


NODE = _checked((str, int), "a string or integer node id")
INT = _checked((int,), "an int")
TIMESTAMP = _checked((int,), "an int timestamp")
POSITIVE_INT = _checked((int,), "a positive int", test=lambda v: v >= 1)
NON_NEGATIVE_INT = _checked((int,), "a non-negative int", test=lambda v: v >= 0)
NUMBER = _checked((int, float), "a number", convert=float)
POSITIVE_NUMBER = _checked(
    (int, float), "a positive number", test=lambda v: v > 0, convert=float
)
NON_NEGATIVE_NUMBER = _checked(
    (int, float), "a non-negative number", test=lambda v: v >= 0, convert=float
)
TEXT = _checked((str,), "a string")
FLAG = _checked((bool,), "a boolean")
OBJECT = Kind(_checked((Mapping,), "an object", convert=dict).load, dict)


def choice(options: Sequence[str]) -> Kind:
    """One of a closed set of strings."""
    return _checked((str,), f"one of {', '.join(options)}", test=options.__contains__)


def maybe(kind: Kind) -> Kind:
    """``kind`` or ``null``."""
    load = kind.load
    return Kind(lambda v: None if v is None else load(v), kind.dump)


def record(**items: Kind) -> Kind:
    """A fixed-arity tuple travelling as the array ``[a, b, ...]``."""
    names = tuple(items)
    loads = tuple(kind.load for kind in items.values())
    shape = f"[{', '.join(names)}]"

    def load(value: Any) -> tuple:
        if not isinstance(value, (list, tuple)) or len(value) != len(loads):
            raise _Invalid(lambda key: f"{key} must be {shape}, got {value!r}")
        out: list[Any] = []
        try:
            for item_load, item in zip(loads, value):
                out.append(item_load(item))
        except _Invalid as exc:
            exc.path = f".{names[len(out)]}{exc.path}"
            raise
        return tuple(out)

    return Kind(load, list)


def array(item: Kind, *, non_empty: bool = False) -> Kind:
    """A homogeneous tuple travelling as a JSON array."""
    item_load, item_dump = item.load, item.dump

    def load(value: Any) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise _Invalid(lambda key: f"{key} must be an array, got {value!r}")
        if non_empty and not value:
            raise _Invalid(lambda key: f"{key} must not be empty")
        out: list[Any] = []
        try:
            for entry in value:
                out.append(item_load(entry))
        except _Invalid as exc:
            exc.path = f"[{len(out)}]{exc.path}"
            raise
        return tuple(out)

    if item_dump is None:
        return Kind(load, list)
    return Kind(load, lambda value: [item_dump(entry) for entry in value])


def nested(cls: type) -> Kind:
    """A dataclass with :func:`wire` fields, travelling as a JSON object."""
    spec = _Spec(cls)

    def load(value: Any) -> Any:
        if not isinstance(value, Mapping):
            raise _Invalid(lambda key: f"{key} must be an object, got {value!r}")
        try:
            return cls(*spec.load(value))
        except _Invalid as exc:
            exc.path = f".{exc.path}"
            raise

    return Kind(load, lambda value: spec.dump(value, {}, omit_none=False))


def wire(kind: Kind, default: Any = MISSING) -> Any:
    """Declare a message field: its wire kind and, if optional, default.

    A field defaulting to ``None`` also accepts ``null`` on the wire.
    """
    if default is None:
        kind = maybe(kind)
    return field(default=default, metadata={"wire": kind})


_ABSENT = object()


class _Spec:
    """The per-class field specs of one message, computed once."""

    __slots__ = ("loads", "dumps", "names")

    def __init__(self, cls: type) -> None:
        specs = [f for f in fields(cls) if f.name != "id"]
        for f in specs:
            if "wire" not in f.metadata:
                raise TypeError(f"{cls.__name__}.{f.name} declares no wire kind")
        self.names = frozenset(f.name for f in specs)
        self.loads = tuple(
            (f.name, f.metadata["wire"].load, _ABSENT if f.default is MISSING else f.default)
            for f in specs
        )
        self.dumps = tuple((f.name, f.metadata["wire"].dump) for f in specs)

    def load(self, source: Mapping[str, Any]) -> list[Any]:
        values = []
        for name, load, default in self.loads:
            value = source.get(name, _ABSENT)
            if value is _ABSENT:
                if default is _ABSENT:
                    raise _Invalid(lambda key: f"missing required field {key!r}", name)
                values.append(default)
                continue
            try:
                values.append(load(value))
            except _Invalid as exc:
                exc.path = name + exc.path
                raise
        return values

    def dump(self, message: Any, target: dict[str, Any], *, omit_none: bool) -> dict[str, Any]:
        for name, dump in self.dumps:
            value = getattr(message, name)
            if value is None:
                if not omit_none:
                    target[name] = None
            else:
                target[name] = value if dump is None else dump(value)
        return target


#: Registered requests by ``op``, and replies by class.
_REQUESTS: dict[str, tuple[type, _Spec]] = {}
_REPLIES: dict[type, _Spec] = {}


def wire_message(cls: type) -> type:
    """Register a message dataclass with the codec.

    Requests carry an ``op`` class attribute, replies an ``ok`` one.
    """
    spec = _Spec(cls)
    if hasattr(cls, "op"):
        _REQUESTS[cls.op] = (cls, spec)
    else:
        _REPLIES[cls] = spec
    return cls


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
#: Wire-level ``plan`` choices for ``op: "batch"``.
BATCH_PLANS = ("shared", "independent")

#: Wire-level ``persist`` choices for ``op: "scan"`` (mirrors
#: :data:`repro.mining.PERSIST_MODES`).
SCAN_PERSIST_MODES = ("flagged", "all")

_PAIR = record(source=NODE, sink=NODE)


@wire_message
@dataclass(frozen=True, slots=True)
class QueryRequest:
    """One delta-BFlow query: ``op: "query"``.

    ``min_epoch`` is the read-your-writes fence: a server whose network
    epoch is below it answers with a typed ``stale`` error instead of a
    potentially stale result.  The cluster coordinator stamps it with the
    cluster's committed epoch before routing to a replica.
    """

    id: str
    source: NodeId = wire(NODE)
    sink: NodeId = wire(NODE)
    delta: int = wire(POSITIVE_INT)
    algorithm: str | None = wire(TEXT, None)
    timeout: float | None = wire(POSITIVE_NUMBER, None)
    min_epoch: int | None = wire(NON_NEGATIVE_INT, None)

    op = "query"


@wire_message
@dataclass(frozen=True, slots=True)
class BatchRequest:
    """Many delta-BFlow queries in one round trip: ``op: "batch"``.

    ``queries`` are ``(source, sink, delta)`` triples; the reply's
    ``results`` align with them.  ``plan="shared"`` (default) amortises
    the batch through the planner; ``"independent"`` solves each entry on
    its own.  ``min_epoch`` fences the whole batch at one epoch.
    """

    id: str
    queries: tuple[tuple[NodeId, NodeId, int], ...] = wire(
        array(record(source=NODE, sink=NODE, delta=POSITIVE_INT), non_empty=True)
    )
    plan: str = wire(choice(BATCH_PLANS), "shared")
    timeout: float | None = wire(POSITIVE_NUMBER, None)
    min_epoch: int | None = wire(NON_NEGATIVE_INT, None)

    op = "batch"


@wire_message
@dataclass(frozen=True, slots=True)
class TopKRequest:
    """Top-k densest bursts over candidate pairs: ``op: "topk"``.

    Each ``(source, sink)`` pair contributes its delta-BFlow answer;
    entries are ranked by the canonical tie-break (density desc, earlier
    ``tau_s``, shorter interval, input order) and the best ``k`` return.
    """

    id: str
    pairs: tuple[tuple[NodeId, NodeId], ...] = wire(array(_PAIR, non_empty=True))
    delta: int = wire(POSITIVE_INT)
    k: int = wire(POSITIVE_INT, 10)
    timeout: float | None = wire(POSITIVE_NUMBER, None)
    min_epoch: int | None = wire(NON_NEGATIVE_INT, None)

    op = "topk"


@wire_message
@dataclass(frozen=True, slots=True)
class AppendRequest:
    """A streaming edge append: ``op: "append"``."""

    id: str
    edges: tuple[tuple[NodeId, NodeId, Timestamp, float], ...] = wire(
        array(record(u=NODE, v=NODE, tau=TIMESTAMP, capacity=NUMBER))
    )

    op = "append"


@wire_message
@dataclass(frozen=True, slots=True)
class ScanRequest:
    """One mining-funnel scan: ``op: "scan"``.

    Runs the server's :class:`repro.mining.MiningPipeline` — pre-filter,
    confirm through the planner, persist flagged patterns to the durable
    store.  ``pairs`` pins the candidate set explicitly; omitted, the
    pre-filter ranks candidates itself (``top`` emitters x ``top``
    collectors above ``min_volume``).  ``persist="all"`` keeps every
    positive-density confirmation instead of only the flagged outliers.
    """

    id: str
    delta: int = wire(POSITIVE_INT)
    pairs: tuple[tuple[NodeId, NodeId], ...] | None = wire(
        array(_PAIR, non_empty=True), None
    )
    top: int | None = wire(POSITIVE_INT, None)
    min_volume: float | None = wire(NON_NEGATIVE_NUMBER, None)
    persist: str = wire(choice(SCAN_PERSIST_MODES), "flagged")
    timeout: float | None = wire(POSITIVE_NUMBER, None)
    min_epoch: int | None = wire(NON_NEGATIVE_INT, None)

    op = "scan"


@wire_message
@dataclass(frozen=True, slots=True)
class PatternsRequest:
    """A pattern-store query: ``op: "patterns"``.

    All filters are optional and conjunctive; ``since``/``until`` select
    patterns whose bursting interval intersects ``[since, until]``.
    """

    id: str
    source: NodeId | None = wire(NODE, None)
    sink: NodeId | None = wire(NODE, None)
    since: Timestamp | None = wire(TIMESTAMP, None)
    until: Timestamp | None = wire(TIMESTAMP, None)
    min_density: float | None = wire(NUMBER, None)
    limit: int | None = wire(POSITIVE_INT, None)

    op = "patterns"


@wire_message
@dataclass(frozen=True, slots=True)
class MetricsRequest:
    """A metrics-snapshot request: ``op: "metrics"``."""

    id: str

    op = "metrics"


@wire_message
@dataclass(frozen=True, slots=True)
class PingRequest:
    """A liveness/epoch probe: ``op: "ping"``."""

    id: str

    op = "ping"


@wire_message
@dataclass(frozen=True, slots=True)
class DrainRequest:
    """Begin a graceful drain: ``op: "drain"``.

    The server stops admitting new queries/appends (they get typed
    ``overloaded`` errors) while in-flight work finishes; ``/healthz``
    reports ``draining`` so load balancers take the instance out of
    rotation.  The cluster supervisor sends this before SIGTERM.
    """

    id: str

    op = "drain"


Request = (
    QueryRequest
    | BatchRequest
    | TopKRequest
    | AppendRequest
    | ScanRequest
    | PatternsRequest
    | MetricsRequest
    | PingRequest
    | DrainRequest
)


# ----------------------------------------------------------------------
# Replies
# ----------------------------------------------------------------------
_INTERVAL = record(tau_s=TIMESTAMP, tau_e=TIMESTAMP)


@wire_message
@dataclass(frozen=True, slots=True)
class QueryReply:
    """A served delta-BFlow answer."""

    id: str
    density: float = wire(NUMBER)
    interval: tuple[Timestamp, Timestamp] | None = wire(maybe(_INTERVAL))
    flow_value: float = wire(NUMBER)
    cached: bool = wire(FLAG)
    epoch: int = wire(INT)
    elapsed_ms: float = wire(NUMBER)

    ok = True

    @property
    def found(self) -> bool:
        """Whether a positive-density bursting flow exists."""
        return self.interval is not None and self.density > 0


@dataclass(frozen=True, slots=True)
class BatchAnswer:
    """One entry of a :class:`BatchReply` (aligned with the request)."""

    density: float = wire(NUMBER)
    interval: tuple[Timestamp, Timestamp] | None = wire(maybe(_INTERVAL))
    flow_value: float = wire(NUMBER)
    cached: bool = wire(FLAG)


@wire_message
@dataclass(frozen=True, slots=True)
class BatchReply:
    """Served answers for one batch, plus what the planner amortised."""

    id: str
    results: tuple[BatchAnswer, ...] = wire(array(nested(BatchAnswer)))
    epoch: int = wire(INT)
    elapsed_ms: float = wire(NUMBER)
    planner: Mapping[str, Any] = wire(OBJECT)

    ok = True


@dataclass(frozen=True, slots=True)
class TopKBurst:
    """One ranked entry of a :class:`TopKReply`."""

    source: NodeId = wire(NODE)
    sink: NodeId = wire(NODE)
    delta: int = wire(INT)
    density: float = wire(NUMBER)
    interval: tuple[Timestamp, Timestamp] = wire(_INTERVAL)
    flow_value: float = wire(NUMBER)


@wire_message
@dataclass(frozen=True, slots=True)
class TopKReply:
    """The k densest bursts over the requested candidate pairs."""

    id: str
    entries: tuple[TopKBurst, ...] = wire(array(nested(TopKBurst)))
    epoch: int = wire(INT)
    elapsed_ms: float = wire(NUMBER)
    cached: bool = wire(FLAG)

    ok = True


@wire_message
@dataclass(frozen=True, slots=True)
class AppendReply:
    """Acknowledgement of a streaming append."""

    id: str
    appended: int = wire(INT)
    epoch: int = wire(INT)
    invalidated: int = wire(INT)

    ok = True


@wire_message
@dataclass(frozen=True, slots=True)
class ScanReply:
    """The outcome of one mining-funnel scan."""

    id: str
    new_ids: tuple[str, ...] = wire(array(TEXT))
    deduped: int = wire(INT)
    funnel: Mapping[str, Any] = wire(OBJECT)
    epoch: int = wire(INT)
    elapsed_ms: float = wire(NUMBER)

    ok = True

    @property
    def new(self) -> int:
        """How many previously-unseen patterns this scan persisted."""
        return len(self.new_ids)


@wire_message
@dataclass(frozen=True, slots=True)
class PatternsReply:
    """Matching pattern records (dict form, density-descending)."""

    id: str
    patterns: tuple[Mapping[str, Any], ...] = wire(array(OBJECT))

    ok = True


@wire_message
@dataclass(frozen=True, slots=True)
class MetricsReply:
    """A point-in-time metrics snapshot (on the wire: the ``result``)."""

    id: str
    snapshot: Mapping[str, Any] = wire(OBJECT)

    ok = True


@wire_message
@dataclass(frozen=True, slots=True)
class PongReply:
    """Liveness acknowledgement with the current network epoch."""

    id: str
    epoch: int = wire(INT)

    ok = True


@wire_message
@dataclass(frozen=True, slots=True)
class DrainReply:
    """Acknowledgement that the server entered (or is in) drain mode."""

    id: str
    draining: bool = wire(FLAG)
    inflight: int = wire(INT)

    ok = True


@wire_message
@dataclass(frozen=True, slots=True)
class ErrorReply:
    """A typed failure (:data:`ERROR_KINDS`), under ``error`` on the wire."""

    id: str
    kind: str = wire(TEXT)
    message: str = wire(TEXT)
    retry_after_ms: int | None = wire(INT, None)
    epoch: int | None = wire(INT, None)

    ok = False


Reply = (
    QueryReply
    | BatchReply
    | TopKReply
    | AppendReply
    | ScanReply
    | PatternsReply
    | MetricsReply
    | PongReply
    | DrainReply
    | ErrorReply
)

#: The reply-type discriminator: an ok reply's ``result`` keys name its
#: class exactly; anything else is a metrics snapshot.
_REPLY_BY_KEYS = {
    spec.names: cls
    for cls, spec in _REPLIES.items()
    if cls.ok and cls is not MetricsReply
}
assert len(_REPLY_BY_KEYS) == len(_REPLIES) - 2, "two replies share a result shape"


# ----------------------------------------------------------------------
# The codec
# ----------------------------------------------------------------------
def _decode(raw: bytes | str | Mapping[str, Any], what: str) -> Mapping[str, Any]:
    if isinstance(raw, (bytes, bytearray, str)):
        try:
            payload = json.loads(raw)
        except (ValueError, RecursionError) as exc:
            raise ProtocolError(f"malformed JSON {what}: {exc}") from None
    else:
        payload = raw
    if not isinstance(payload, Mapping):
        raise ProtocolError(f"{what} must be a JSON object, got {payload!r}")
    return payload


def _load(spec: _Spec, source: Mapping[str, Any]) -> list[Any]:
    try:
        return spec.load(source)
    except _Invalid as exc:
        raise ProtocolError(exc.describe(exc.path)) from None


def parse_request(raw: bytes | str | Mapping[str, Any]) -> Request:
    """Decode one request message (bytes/str line or a parsed mapping).

    Raises:
        ProtocolError: malformed JSON, wrong version, unknown op, bad
            field types — with ``kind`` set for the typed error reply.
    """
    payload = _decode(raw, "request")
    version = payload.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version!r} "
            f"(this server speaks v{PROTOCOL_VERSION})",
            kind=ERROR_UNSUPPORTED_VERSION,
        )
    request_id = payload.get("id", "")
    if not isinstance(request_id, str):
        raise ProtocolError(f"id must be a string, got {request_id!r}")
    op = payload.get("op", _ABSENT)
    if op is _ABSENT:
        raise ProtocolError("missing required field 'op'")
    registered = _REQUESTS.get(op) if isinstance(op, str) else None
    if registered is None:
        raise ProtocolError(f"unknown op {op!r}")
    cls, spec = registered
    return cls(request_id, *_load(spec, payload))


def request_payload(request: Request) -> dict[str, Any]:
    """The JSON-able dict form of a request (client side)."""
    payload = {"v": PROTOCOL_VERSION, "id": request.id, "op": request.op}
    return _REQUESTS[request.op][1].dump(request, payload, omit_none=True)


def reply_payload(reply: Reply) -> dict[str, Any]:
    """The JSON-able dict form of a reply (server side)."""
    payload: dict[str, Any] = {"v": PROTOCOL_VERSION, "id": reply.id, "ok": reply.ok}
    cls = type(reply)
    if cls is MetricsReply:
        payload["result"] = dict(reply.snapshot)
    elif cls is ErrorReply:
        payload["error"] = _REPLIES[cls].dump(reply, {}, omit_none=True)
    else:
        payload["result"] = _REPLIES[cls].dump(reply, {}, omit_none=False)
    return payload


def encode(payload: Mapping[str, Any]) -> bytes:
    """Serialize one message as an NDJSON line (trailing newline included)."""
    return json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"


def parse_reply(raw: bytes | str | Mapping[str, Any]) -> Reply:
    """Decode one reply message (client side).

    Raises:
        ProtocolError: malformed JSON or a reply shape this client does
            not understand.
    """
    payload = _decode(raw, "reply")
    reply_id = payload.get("id", "")
    if payload.get("ok"):
        result = payload.get("result")
        if not isinstance(result, Mapping):
            raise ProtocolError(f"ok reply without result object: {payload!r}")
        cls = _REPLY_BY_KEYS.get(frozenset(result))
        if cls is None:
            return MetricsReply(id=reply_id, snapshot=dict(result))
        return cls(reply_id, *_load(_REPLIES[cls], result))
    error = payload.get("error")
    if not isinstance(error, Mapping):
        raise ProtocolError(f"error reply without an error object: {payload!r}")
    return ErrorReply(reply_id, *_load(_REPLIES[ErrorReply], error))


def raise_for_error(reply: Reply) -> Reply:
    """Raise the matching typed exception for an :class:`ErrorReply`.

    Returns the reply unchanged when it is not an error, so the call can
    be chained: ``raise_for_error(parse_reply(line))``.
    """
    if not isinstance(reply, ErrorReply):
        return reply
    if reply.kind == ERROR_OVERLOADED:
        raise OverloadedError(
            reply.message, retry_after_ms=reply.retry_after_ms or 100
        )
    if reply.kind == ERROR_TIMEOUT:
        raise DeadlineExceededError(reply.message)
    if reply.kind == ERROR_STALE:
        raise StaleEpochError(
            reply.message,
            epoch=reply.epoch if reply.epoch is not None else -1,
            retry_after_ms=reply.retry_after_ms,
        )
    if reply.kind in (ERROR_INVALID, ERROR_UNSUPPORTED_VERSION):
        raise ProtocolError(reply.message, kind=reply.kind)
    raise RemoteServiceError(f"[{reply.kind}] {reply.message}")
