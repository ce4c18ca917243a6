"""The traced run: spans around the program's public entry points.

Wrappers are installed from the benchmark's own files, at the name the
caller looks up (``network_maxflow`` as imported into
``repro.core.incremental``, a method on its class, ...).  Each call
records one span ``[name, start, end, parent, request_id, value]`` in
memory; counters record zero-length spans whose ``value`` carries the
count.  The current span and request id travel in context variables, so
spans nest correctly per thread and per asyncio task.  An entry point
that no longer exists is listed as absent instead of failing the run.

Spans use ``time.monotonic()``, one system-wide clock, so spans dumped
by a server subprocess can be cut to the benchmark's measured interval.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import json
import os
import time
from collections import defaultdict
from pathlib import Path

_current: contextvars.ContextVar[int | None] = contextvars.ContextVar("span", default=None)
_request: contextvars.ContextVar[str | None] = contextvars.ContextVar("rid", default=None)

clock = time.monotonic


class Tracer:
    """In-memory span store."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.absent: list[str] = []

    def open(self, name: str) -> int:
        self.spans.append([name, clock(), None, _current.get(), _request.get(), None])
        return len(self.spans) - 1

    def count(self, name: str, value: float = 1.0) -> None:
        now = clock()
        self.spans.append([name, now, now, _current.get(), _request.get(), value])

    def request(self, rid: str):
        """Context manager tagging spans opened inside with ``rid``."""
        return _RequestScope(rid)

    def dump(self, path: str | Path) -> None:
        payload = {"spans": self.spans, "absent": self.absent}
        Path(path).write_text(json.dumps(payload))


class _RequestScope:
    def __init__(self, rid: str) -> None:
        self.rid = rid

    def __enter__(self):
        self.token = _request.set(self.rid)

    def __exit__(self, *exc):
        _request.reset(self.token)


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _wrap_sync(tracer: Tracer, name: str, fn, on_result=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        token = _current.set(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            _current.reset(token)
            tracer.spans[index][2] = clock()
        if on_result is not None:
            on_result(tracer, args, result)
        return result

    return wrapper


def _wrap_async(tracer: Tracer, name: str, fn, on_result=None):
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        index = tracer.open(name)
        token = _current.set(index)
        try:
            result = await fn(*args, **kwargs)
        finally:
            _current.reset(token)
            tracer.spans[index][2] = clock()
        if on_result is not None:
            on_result(tracer, args, result)
        return result

    return wrapper


def _wrap_request(tracer: Tracer, name: str, fn, on_result=None):
    """An async request handler: tags its spans with the request's id."""
    inner = _wrap_async(tracer, name, fn, on_result)

    @functools.wraps(fn)
    async def wrapper(self, request, *args, **kwargs):
        token = _request.set(str(getattr(request, "id", "")))
        try:
            return await inner(self, request, *args, **kwargs)
        finally:
            _request.reset(token)

    return wrapper


def _wrap_enter(tracer: Tracer, name: str, fn, on_result=None):
    """An async context-manager factory: the span covers entering only
    (for a lock, the time spent waiting for it)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _TimedEnter(tracer, name, fn(*args, **kwargs))

    return wrapper


class _TimedEnter:
    def __init__(self, tracer: Tracer, name: str, manager) -> None:
        self.tracer = tracer
        self.name = name
        self.manager = manager

    async def __aenter__(self):
        index = self.tracer.open(self.name)
        try:
            return await self.manager.__aenter__()
        finally:
            self.tracer.spans[index][2] = clock()

    async def __aexit__(self, *exc):
        return await self.manager.__aexit__(*exc)


def _wrap_count(tracer: Tracer, name: str, fn, on_result=None):
    """No span, only counters (for calls too cheap and too many to time)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        on_result(tracer, args, result)
        return result

    return wrapper


# ----------------------------------------------------------------------
# Counters taken from arguments and results
# ----------------------------------------------------------------------
def _count_candidates(tracer, args, plan):
    tracer.count("intervals.candidates", float(plan.count()))


def _count_window(tracer, args, window):
    tracer.count("skeleton.windows")
    tracer.count("skeleton.window_arcs", float(len(window.arena.heads)))


def _count_paths(tracer, args, run):
    tracer.count("algorithms.augmenting_paths", float(run.augmenting_paths))


def _count_prune(tracer, args, pruned):
    tracer.count("record.prune_checks")
    if pruned:
        tracer.count("record.prune_skips")


def _count_memo(tracer, args, hit):
    tracer.count("planner.memo_gets")
    if hit is None:
        tracer.count("planner.windows_solved")
    else:
        tracer.count("planner.memo_hits")


def _count_cache(tracer, args, hit):
    tracer.count("service.cache.gets")
    if hit is not None:
        tracer.count("service.cache.hits")


def _count_purged(tracer, args, dropped):
    tracer.count("service.cache.invalidated", float(dropped))


def _count_log_edges(tracer, args, _result):
    record = args[1]
    tracer.count("store.log.edges", float(len(record.get("edges") or ())))


def _wrap_flush(tracer: Tracer, name: str, fn, on_result=None):
    """``AppendLog.flush``: a span plus the bytes the flush made durable."""
    timed = _wrap_sync(tracer, name, fn)

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        before = _file_size(self)
        result = timed(self, *args, **kwargs)
        after = _file_size(self)
        if before is not None and after is not None and after > before:
            tracer.count("store.log.bytes", float(after - before))
        return result

    return wrapper


def _file_size(log) -> int | None:
    try:
        return os.fstat(log._handle.fileno()).st_size
    except (AttributeError, OSError, ValueError):
        return None


#: (span or counter name, module, attribute path, wrapper, result hook).
#: Module-level functions are patched in every module that calls them by
#: an imported name; methods are patched on their class.
PATCHES = [
    ("engine.find_bursting_flow", "repro.core.engine", "find_bursting_flow", _wrap_sync, None),
    ("engine.find_bursting_flow", "repro.service.workers", "find_bursting_flow", _wrap_sync, None),
    ("intervals.enumerate", "repro.core.bfq_star", "enumerate_candidates", _wrap_sync, _count_candidates),
    ("intervals.enumerate", "repro.core.bfq_plus", "enumerate_candidates", _wrap_sync, _count_candidates),
    ("intervals.enumerate", "repro.core.bfq", "enumerate_candidates", _wrap_sync, _count_candidates),
    ("intervals.enumerate", "repro.core.planner", "enumerate_candidates", _wrap_sync, _count_candidates),
    ("skeleton.compile", "repro.core.skeleton", "WindowSkeleton.__init__", _wrap_sync, None),
    ("skeleton.materialize", "repro.core.skeleton", "WindowSkeleton.materialize", _wrap_sync, _count_window),
    ("incremental.build", "repro.core.incremental", "IncrementalTransformedNetwork.__init__", _wrap_sync, None),
    ("incremental.extend", "repro.core.incremental", "IncrementalTransformedNetwork.extend_end", _wrap_sync, None),
    ("incremental.advance", "repro.core.incremental", "IncrementalTransformedNetwork.advance_start", _wrap_sync, None),
    ("incremental.clone", "repro.core.incremental", "IncrementalTransformedNetwork.clone", _wrap_sync, None),
    ("residual.network_maxflow", "repro.core.incremental", "network_maxflow", _wrap_sync, None),
    ("residual.network_maxflow", "repro.core.bfq_plus", "network_maxflow", _wrap_sync, None),
    ("algorithms.solve", "repro.flownet.algorithms.selector", "arena_solve", _wrap_sync, _count_paths),
    ("record.should_prune", "repro.core.bfq_star", "should_prune", _wrap_count, _count_prune),
    ("record.should_prune", "repro.core.bfq_plus", "should_prune", _wrap_count, _count_prune),
    ("planner.answer_planned", "repro.core.planner", "answer_planned", _wrap_sync, None),
    ("planner.answer_planned", "repro.service.workers", "answer_planned", _wrap_sync, None),
    ("planner.top_k_bursts", "repro.core.planner", "top_k_bursts", _wrap_sync, None),
    ("planner.top_k_bursts", "repro.service.workers", "top_k_bursts", _wrap_sync, None),
    ("planner.memo_get", "repro.core.planner", "WindowMemo.get", _wrap_count, _count_memo),
    ("service.protocol.parse", "repro.service.server", "parse_request", _wrap_sync, None),
    ("service.protocol.encode", "repro.service.server", "reply_payload", _wrap_sync, None),
    ("service.protocol.encode", "repro.service.server", "encode", _wrap_sync, None),
    ("service.server.handle", "repro.service.server", "BurstingFlowService.handle_request", _wrap_request, None),
    ("service.cache.get", "repro.service.cache", "ResultCache.get", _wrap_sync, _count_cache),
    ("service.cache.purge", "repro.service.cache", "ResultCache.purge_epochs_below", _wrap_sync, _count_purged),
    ("service.workers.answer", "repro.service.workers", "InlineEngine.answer", _wrap_async, None),
    ("service.workers.answer", "repro.service.workers", "InlineEngine.answer_batch", _wrap_async, None),
    ("service.workers.answer", "repro.service.workers", "InlineEngine.answer_topk", _wrap_async, None),
    ("service.lock.wait", "repro.service.server", "_ReadWriteLock.read", _wrap_enter, None),
    ("service.lock.wait", "repro.service.server", "_ReadWriteLock.write", _wrap_enter, None),
    ("service.client.rtt", "repro.service.client", "ServiceClient.request", _wrap_sync, None),
    ("store.log.append", "repro.store.log", "AppendLog.append", _wrap_sync, _count_log_edges),
    ("store.log.flush", "repro.store.log", "AppendLog.flush", _wrap_flush, None),
    ("store.snapshot.save", "repro.store.snapshot", "SnapshotStore.save", _wrap_sync, None),
    ("cluster.coordinator.handle", "repro.cluster.coordinator", "ClusterCoordinator.handle_request", _wrap_request, None),
    ("service.protocol.parse", "repro.cluster.coordinator", "parse_request", _wrap_sync, None),
    ("service.protocol.encode", "repro.cluster.coordinator", "reply_payload", _wrap_sync, None),
    ("service.protocol.encode", "repro.cluster.coordinator", "encode", _wrap_sync, None),
    ("cluster.coordinator.replicate", "repro.cluster.coordinator", "ClusterCoordinator._replicate_append", _wrap_async, None),
    ("cluster.coordinator.ack", "repro.cluster.coordinator", "ClusterCoordinator._append_to", _wrap_async, None),
    ("cluster.coordinator.forward", "repro.cluster.coordinator", "ClusterCoordinator._forward_keyed", _wrap_async, None),
    ("cluster.coordinator.checkpoint", "repro.cluster.coordinator", "ClusterCoordinator._checkpoint_locked", _wrap_sync, None),
]


def install(tracer: Tracer, modules: tuple[str, ...] | None = None) -> Tracer:
    """Install every wrapper in :data:`PATCHES` (optionally only those in
    the given modules).  Missing modules or attributes are recorded in
    ``tracer.absent``."""
    for name, module_name, path, make, hook in PATCHES:
        if modules is not None and module_name not in modules:
            continue
        where = f"{module_name}:{path}"
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            tracer.absent.append(where)
            continue
        setattr(owner, attr, make(tracer, name, original, hook))
    return tracer


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = None
    start = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            if end is not None:
                total += end - start
            start, end = lo, hi
        elif hi > end:
            end = hi
    if end is not None:
        total += end - start
    return total


def summarize(spans: list[list], t0: float, t1: float) -> dict:
    """Self time, call count and counter sums per name, over spans that
    start inside ``[t0, t1]``.

    Self time is a span's duration minus the union of its children's
    intervals, clipped to the span.  ``union.<name>`` is the union of all
    spans of that name (concurrent calls counted once).
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for index, (name, start, end, parent, _rid, value) in enumerate(spans):
        if parent is not None and value is None and end is not None:
            children[parent].append((start, end))
    self_ms: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    totals: dict[str, float] = defaultdict(float)
    per_name: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for index, (name, start, end, _parent, _rid, value) in enumerate(spans):
        if not (t0 <= start <= t1) or end is None:
            continue
        if value is not None:
            totals[name] += value
            continue
        kids = [(max(lo, start), min(hi, end)) for lo, hi in children.get(index, ())]
        covered = _union_length([k for k in kids if k[1] > k[0]])
        self_ms[name] += (end - start - covered) * 1000.0
        calls[name] += 1
        per_name[name].append((start, end))
    union_ms = {name: _union_length(iv) * 1000.0 for name, iv in per_name.items()}
    return {"self_ms": dict(self_ms), "calls": dict(calls), "totals": dict(totals), "union_ms": union_ms}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict, wall_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, as ``name -> (value, unit)``; a layer that
    did no work in this workload reads 0."""
    self_ms = summary["self_ms"]
    calls = summary["calls"]
    totals = summary["totals"]
    wall_ms = wall_s * 1000.0
    out: dict[str, tuple[float, str]] = {}

    def timed(metric: str, span: str, *, union: bool = False) -> None:
        value = summary["union_ms"].get(span, 0.0) if union else self_ms.get(span, 0.0)
        out[f"{metric}_ms"] = (value, "ms")
        out[f"{metric}_share"] = (_ratio(value, wall_ms), "ratio")

    timed("intervals.enumerate", "intervals.enumerate")
    out["intervals.candidates"] = (totals.get("intervals.candidates", 0.0), "count")
    timed("skeleton.compile", "skeleton.compile")
    out["skeleton.compiles"] = (float(calls.get("skeleton.compile", 0)), "count")
    timed("skeleton.materialize", "skeleton.materialize")
    out["skeleton.windows"] = (totals.get("skeleton.windows", 0.0), "count")
    out["skeleton.window_arcs"] = (totals.get("skeleton.window_arcs", 0.0), "count")
    timed("incremental.build", "incremental.build")
    timed("incremental.extend", "incremental.extend")
    timed("incremental.advance", "incremental.advance")
    timed("incremental.clone", "incremental.clone")
    out["incremental.extends"] = (float(calls.get("incremental.extend", 0)), "count")
    out["incremental.advances"] = (float(calls.get("incremental.advance", 0)), "count")
    timed("residual.sync", "residual.network_maxflow")
    timed("algorithms.solve", "algorithms.solve")
    out["algorithms.runs"] = (float(calls.get("algorithms.solve", 0)), "count")
    out["algorithms.augmenting_paths"] = (totals.get("algorithms.augmenting_paths", 0.0), "count")
    checks = totals.get("record.prune_checks", 0.0)
    out["record.prune_checks"] = (checks, "count")
    out["record.prune_skip_ratio"] = (_ratio(totals.get("record.prune_skips", 0.0), checks), "ratio")
    out["planner.memo_hit_ratio"] = (
        _ratio(totals.get("planner.memo_hits", 0.0), totals.get("planner.memo_gets", 0.0)),
        "ratio",
    )
    out["planner.windows_solved"] = (totals.get("planner.windows_solved", 0.0), "count")
    timed("planner.self", "planner.answer_planned")
    timed("engine.self", "engine.find_bursting_flow")
    timed("service.protocol.parse", "service.protocol.parse")
    timed("service.protocol.encode", "service.protocol.encode")
    timed("service.server.handle", "service.server.handle")
    out["service.cache.hit_ratio"] = (
        _ratio(totals.get("service.cache.hits", 0.0), totals.get("service.cache.gets", 0.0)),
        "ratio",
    )
    timed("service.cache.get", "service.cache.get")
    timed("service.client.rtt", "service.client.rtt", union=True)
    timed("service.workers.answer", "service.workers.answer")
    timed("service.lock.wait", "service.lock.wait")
    out["service.cache.invalidated"] = (totals.get("service.cache.invalidated", 0.0), "count")
    timed("store.log.append", "store.log.append")
    timed("store.log.flush", "store.log.flush")
    out["store.log.bytes_per_edge"] = (
        _ratio(totals.get("store.log.bytes", 0.0), totals.get("store.log.edges", 0.0)),
        "B",
    )
    timed("store.snapshot.save", "store.snapshot.save")
    out["store.snapshot.saves"] = (float(calls.get("store.snapshot.save", 0)), "count")
    timed("cluster.coordinator.replicate", "cluster.coordinator.replicate")
    timed("cluster.coordinator.fanout", "cluster.coordinator.ack", union=True)
    timed("cluster.coordinator.forward", "cluster.coordinator.forward")
    timed("cluster.coordinator.checkpoint", "cluster.coordinator.checkpoint")
    return out


def merge_spans(*dumps: dict) -> tuple[list[list], list[str]]:
    """Concatenate span dumps (parent indexes are re-based per dump)."""
    spans: list[list] = []
    absent: list[str] = []
    for dump in dumps:
        base = len(spans)
        for name, start, end, parent, rid, value in dump["spans"]:
            spans.append([name, start, end, None if parent is None else parent + base, rid, value])
        absent.extend(dump.get("absent", ()))
    return spans, sorted(set(absent))
