"""The serving workloads: ``serve_reads`` and ``ingest_durable``.

Both are open loops driven from this one process over at most two NDJSON
connections (one blocking ``ServiceClient`` per thread), against the
server running as its own subprocess, so generator and system under test
each get a core.  Arrivals come at fixed spacing (a constant-rate open
loop) at a few offered rates, one phase per rate; a phase starts only
after the previous one drained.  Fixed spacing and fixed op positions
keep the offered load identical across seeds: with Poisson arrivals
the op count of a 4 s phase alone moved the completed rate by 6 %.
Every latency is timed from the operation's *scheduled* send, so a stall
also charges the operations queued behind it.
"""

from __future__ import annotations

import csv
import json
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path

from common import (
    BENCH_DIR,
    ROOT,
    BenchmarkError,
    median,
    note,
    percentile,
    process_cpu_s,
    process_peak_rss_mb,
    scratch_dir,
)
from inputs import Replica, build_replica, check_pins, fingerprint, random_pairs
from results import RunResult, agree, same_answer

CONNECTIONS = 2
SETUP_BOOTS = 3
BOOT_TIMEOUT_S = 120.0

#: Share of the run each rate's phase gets.  The first phase is the
#: reference: latency is reported there, so it is long enough for its
#: tail percentile to have at least ten samples beyond it.  The last
#: rate overloads the server on purpose and is kept short, because its
#: backlog takes seconds to drain.
PHASE_SHARES = (0.65, 0.3, 0.05)

# serve_reads ----------------------------------------------------------
#: Offered rates (ops/s).  On a 2-CPU host the server saturates between
#: 600 and 2000 ops/s with a warm cache, depending on what else the host
#: runs: 200 and 400 pass the limit with margin, 3600 fails it.
SERVE_RATES = (200.0, 400.0, 3600.0)
#: sustained_ops_per_s counts a rate only if query p99 stays under this.
SERVE_P99_LIMIT_MS = 100.0
SERVE_TAIL = 99
#: Hot (s, t, delta) keys, zipf-popular and all queried once before
#: measuring; they fit the default 4096-entry result cache.  Every
#: SERVE_COLD_EVERY-th op queries a key never asked before (a miss:
#: 2 % of ops, so misses form the query p99), every SERVE_BATCH_EVERY-th
#: op is a ``batch`` and every SERVE_TOPK_EVERY-th a ``topk`` on hot pairs.
SERVE_HOT_KEYS = 300
SERVE_ZIPF = 1.1
SERVE_COLD_EVERY = 50
SERVE_BATCH_EVERY = 25
SERVE_TOPK_EVERY = 50

# ingest_durable -------------------------------------------------------
#: Offered rates (ops/s); the fsync'd cluster saturates between 70 and
#: 110 ops/s: 50 and 75 pass the limit with margin, 200 fails it.
INGEST_RATES = (50.0, 75.0, 200.0)
#: Op pattern, repeated: 3 appends and 2 fenced queries in every 5 ops.
INGEST_PATTERN = ("append", "query", "append", "query", "append")
#: sustained_ops_per_s counts a rate only if append and query p99 stay
#: under this.
INGEST_P99_LIMIT_MS = 250.0
#: Checkpoint (snapshot + log compaction) every this many appends: 10 %
#: of appends checkpoint, so the append tail measures the checkpoint.
INGEST_SNAPSHOT_EVERY = 10
INGEST_FINAL_CHECKS = 5
#: ~270 appends in the reference phase support p95, not p99.
INGEST_TAIL = 95


# ----------------------------------------------------------------------
# The server subprocess
# ----------------------------------------------------------------------
class ServerProcess:
    """``repro-bfq serve|cluster`` in a subprocess, via ``launch.py``."""

    _LISTEN = re.compile(r" on ([0-9.]+):(\d+)")

    def __init__(self, argv: list[str], workdir: Path, trace_out: Path | None = None) -> None:
        cmd = [sys.executable, "-u", str(BENCH_DIR / "launch.py")]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        cmd += ["--", *argv]
        self.out_path = workdir / f"server-{id(self)}.out"
        self._out = self.out_path.open("w")
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, stdout=self._out, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL
        )
        self.address = self._await_listening()

    def _await_listening(self) -> tuple[str, int]:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            match = self._LISTEN.search(self.out_path.read_text())
            if match:
                return match.group(1), int(match.group(2))
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise BenchmarkError(f"server did not start: {self.out_path.read_text()[-2000:]}")

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.proc.pid)

    def stop(self) -> int:
        """SIGINT (graceful), then SIGKILL after a grace period; waits."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._out.close()
        return self.proc.returncode


def _client(address):
    from repro.service.client import ServiceClient

    return ServiceClient(address[0], address[1], timeout=60.0)


def boot(argv: list[str], workdir: Path, trace_out: Path | None = None) -> ServerProcess:
    """Start a server and wait for its first ping."""
    server = ServerProcess(argv, workdir, trace_out)
    try:
        with _client(server.address) as client:
            client.ping()
    except BaseException:
        server.stop()
        raise
    return server


# ----------------------------------------------------------------------
# Open-loop load generator
# ----------------------------------------------------------------------
@dataclass
class Done:
    op: tuple
    due: float
    sent: float
    finished: float
    reply: object = None
    error: str | None = None
    backlog: int = 0

    @property
    def latency_ms(self) -> float:
        return (self.finished - self.due) * 1000.0


@dataclass
class Phase:
    rate: float
    done: list[Done] = field(default_factory=list)
    start: float = 0.0
    #: CPU seconds the server process used during the phase.
    server_cpu_s: float = 0.0

    def latencies(self, kind: str) -> list[float]:
        return [d.latency_ms for d in self.done if d.op[0] == kind and d.error is None]

    def drained_in_time(self, limit_ms: float) -> bool:
        """The backlog did not grow: the last reply came within the
        latency limit of the last scheduled send."""
        last_due = max(d.due for d in self.done)
        return max(d.finished for d in self.done) <= last_due + limit_ms / 1000.0

    def completed_per_s(self) -> float:
        ok = sum(1 for d in self.done if d.error is None)
        return ok / (max(d.finished for d in self.done) - self.start)


def fixed_schedule(rate: float, seconds: float) -> list[float]:
    """Send offsets at fixed spacing ``1 / rate``."""
    return [(i + 0.5) / rate for i in range(int(rate * seconds))]


def drive(address, schedule: list[tuple[float, tuple]], execute, tracer=None) -> Phase:
    """Send ``schedule`` (``[(offset_s, op), ...]``) open-loop over
    CONNECTIONS blocking connections; ``execute(client, op, state)``
    performs one op and returns its reply."""
    phase = Phase(rate=0.0)
    offsets = [offset for offset, _op in schedule]
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter() + 0.05
    phase.start = start
    errors: list[BaseException] = []

    def worker() -> None:
        try:
            with _client(address) as client:
                while True:
                    with lock:
                        index = cursor[0]
                        if index >= len(schedule):
                            return
                        cursor[0] += 1
                    offset, op = schedule[index]
                    due = start + offset
                    delay = due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    sent = time.perf_counter()
                    backlog = bisect_right(offsets, sent - start) - index - 1
                    entry = Done(op, due, sent, 0.0, backlog=max(0, backlog))
                    try:
                        if tracer is not None:
                            with tracer.request(f"{op[0]}{index}"):
                                entry.reply = execute(client, op)
                        else:
                            entry.reply = execute(client, op)
                    except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
                        entry.error = f"{type(exc).__name__}: {exc}"
                    entry.finished = time.perf_counter()
                    with lock:
                        phase.done.append(entry)
        except BaseException as exc:  # noqa: BLE001 - re-raised by the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise BenchmarkError(f"load generator failed: {errors[0]!r}")
    phase.done.sort(key=lambda d: d.due)
    return phase


def run_phases(server: ServerProcess, schedules, rates, execute) -> list[Phase]:
    phases = []
    for schedule, rate in zip(schedules, rates):
        cpu0 = process_cpu_s(server.proc.pid)
        phase = drive(server.address, schedule, execute)
        phase.server_cpu_s = process_cpu_s(server.proc.pid) - cpu0
        phase.rate = rate
        phases.append(phase)
    return phases


def server_cpu_ms_per_op(phase: Phase) -> float:
    return phase.server_cpu_s * 1000.0 / len(phase.done)


def generator_health(phases: list[Phase]) -> dict[str, tuple[float, str]]:
    lags = [(d.sent - d.due) * 1000.0 for p in phases for d in p.done]
    return {
        "bench.lag_p99_ms": (percentile(lags, 99), "ms"),
        "bench.backlog_max": (float(max((d.backlog for p in phases for d in p.done), default=0)), "count"),
    }


def sustained(phases: list[Phase], kinds: tuple[str, ...], limit_ms: float) -> float:
    """Completed ops/s at the highest offered rate whose p99 (for every
    op kind in ``kinds``) met ``limit_ms``, with no failed op and a
    backlog that drained in time; 0 when no rate met it."""
    best = 0.0
    for phase in phases:
        ok = all(percentile(phase.latencies(k), 99) <= limit_ms for k in kinds)
        ok = ok and all(d.error is None for d in phase.done) and phase.drained_in_time(limit_ms)
        if ok:
            best = phase.completed_per_s()
    return best


def write_edges(rows, path: Path) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["u", "v", "tau", "capacity"])
        for u, v, tau, cap in rows:
            writer.writerow([u, v, tau, repr(cap)])


# ----------------------------------------------------------------------
# serve_reads
# ----------------------------------------------------------------------
def phase_plan(seconds: float, rates, trace: bool) -> list[tuple[float, float]]:
    """``[(rate, seconds), ...]``: every rate for an untraced run; the
    reference rate for half the run (twice) for a traced one."""
    if trace:
        return [(rates[0], seconds / 2)]
    return [(rate, seconds * share) for rate, share in zip(rates, PHASE_SHARES)]


def _variant(seconds: float, trace: bool) -> str:
    return f"{seconds:g}s-trace{int(trace)}"


def serve_trace(replica: Replica, seed: int, plan) -> dict:
    """The seeded read trace: zipf-ranked hot keys (the warm-up list),
    never-repeated cold keys and one schedule per rate."""
    rng = random.Random(seed)
    colds = sum(int(rate * seconds) for rate, seconds in plan) // SERVE_COLD_EVERY
    pairs = random_pairs(replica, rng, SERVE_HOT_KEYS + colds)
    hot_pairs, cold_pairs = pairs[:SERVE_HOT_KEYS], pairs[SERVE_HOT_KEYS:]
    hot = [(s, t, rng.choice(replica.deltas)) for s, t in hot_pairs]
    weights = [1.0 / (rank + 1) ** SERVE_ZIPF for rank in range(len(hot))]
    cold = iter(cold_pairs)
    phases = []
    for rate, seconds in plan:
        schedule = []
        for index, offset in enumerate(fixed_schedule(rate, seconds)):
            if index % SERVE_COLD_EVERY == SERVE_COLD_EVERY - 1:
                op = ("query",) + next(cold) + (rng.choice(replica.deltas),)
            elif index % SERVE_BATCH_EVERY == 12:
                op = ("batch",) + rng.choices(hot, weights)[0][:2]
            elif index % SERVE_TOPK_EVERY == 24:
                picks = {rng.choices(hot, weights)[0][:2] for _ in range(4)}
                op = ("topk", rng.choice(replica.deltas), tuple(sorted(picks)))
            else:
                op = ("query",) + rng.choices(hot, weights)[0]
            schedule.append((round(offset, 6), op))
        phases.append({"rate": rate, "schedule": schedule})
    return {"warm": hot, "phases": phases}


def _execute_read(deltas):
    def execute(client, op):
        if op[0] == "query":
            return client.query(op[1], op[2], op[3])
        if op[0] == "batch":
            return client.batch([(op[1], op[2], d) for d in deltas])
        return client.topk(op[2], op[1], k=3)

    return execute


def _check_reads(csv_path: Path, phases: list[Phase], deltas, corrupt: bool) -> int:
    """Mismatches against in-process library answers over the same edges."""
    from repro.core.engine import find_bursting_flow
    from repro.core.planner import top_k_bursts
    from repro.temporal.io import load_edge_list

    network = load_edge_list(csv_path)
    memo: dict[tuple, tuple] = {}

    def reference(s, t, d):
        if (s, t, d) not in memo:
            r = find_bursting_flow(network, source=s, sink=t, delta=d)
            memo[(s, t, d)] = (r.density, r.interval, r.flow_value)
        return memo[(s, t, d)]

    failed = 0
    first = True
    for phase in phases:
        for entry in phase.done:
            if entry.error is not None:
                failed += 1
                continue
            op, reply = entry.op, entry.reply
            if op[0] == "query":
                got = [(reply.density, _interval(reply.interval), reply.flow_value)]
                want = [reference(op[1], op[2], op[3])]
            elif op[0] == "batch":
                got = [(a.density, _interval(a.interval), a.flow_value) for a in reply.results]
                want = [reference(op[1], op[2], d) for d in deltas]
            else:
                got = [(e.source, e.sink, e.density, _interval(e.interval), e.flow_value) for e in reply.entries]
                want = [
                    (e.source, e.sink, e.density, e.interval, e.flow_value)
                    for e in top_k_bursts(network, op[2], op[1], k=3)
                ]
            if corrupt and first:
                got = got[1:] + [None]
                first = False
            if not agree(got, want):
                failed += 1
    return failed


def _interval(value):
    return tuple(value) if value is not None else None


def _setup_server(workload: str, dataset: str, seed: int, make_trace, server_argv, workdir: Path, variant: str):
    """Build inputs and boot the server SETUP_BOOTS times (all but the last
    boot are stopped again); returns the last boot and the median set-up."""
    times: list[float] = []
    prints: set[str] = set()
    server = None
    for boot_index in range(SETUP_BOOTS):
        if server is not None:
            server.stop()
        started = time.perf_counter()
        replica = build_replica(dataset)
        trace = make_trace(replica, seed)
        csv_path = workdir / f"{dataset}.csv"
        write_edges(replica.rows, csv_path)
        server = boot(server_argv(csv_path, workdir, boot_index), workdir)
        times.append(time.perf_counter() - started)
        fp = fingerprint(workload, seed, replica, trace, variant)
        prints.add(repr(sorted(fp.items())))
    if len(prints) != 1:
        server.stop()
        raise BenchmarkError(f"workload {workload}: seed {seed} gave different inputs on rebuild")
    try:
        check_pins(fp)
    except BenchmarkError:
        server.stop()
        raise
    note(f"fingerprint {fp}")
    return replica, trace, csv_path, server, median(times)


def serve_reads(seed: int, seconds: float, trace: bool, *, corrupt: bool = False, rates=SERVE_RATES) -> RunResult:
    workdir = scratch_dir()
    plan = phase_plan(seconds, rates, trace)

    def make_trace(replica, seed):
        return serve_trace(replica, seed, plan)

    def argv(csv_path, _workdir, _boot):
        return ["serve", str(csv_path), "--port", "0"]

    server = None
    try:
        replica, read_trace, csv_path, server, setup_s = _setup_server(
            "serve_reads", "bayc", seed, make_trace, argv, workdir, _variant(seconds, trace)
        )
        execute = _execute_read(replica.deltas)
        result = RunResult()
        schedules = [[tuple(x) for x in p["schedule"]] for p in read_trace["phases"]]
        if not trace:
            _warm(server.address, read_trace["warm"])
            phases = run_phases(server, schedules, rates, execute)
            rss = server.peak_rss_mb()
            server.stop()
            server = None
            result.e2e(setup_s, rss, server_cpu_ms_per_op(phases[0]),
                       sustained(phases, ("query",), SERVE_P99_LIMIT_MS))
            result.latency(phases[0].latencies("query"), SERVE_TAIL)
            _phase_notes(result, phases, ("query",))
        else:
            phases = _traced_serving(result, server, lambda: argv(csv_path, workdir, 0), workdir, schedules[0],
                                     lambda: execute, warm=read_trace["warm"], kind="query", tail=SERVE_TAIL)
            server = None
        result.attempted = sum(len(p.done) for p in phases)
        result.failed = _check_reads(csv_path, phases, replica.deltas, corrupt)
        return result
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(workdir, ignore_errors=True)


def _warm(address, keys) -> None:
    with _client(address) as client:
        for s, t, d in keys:
            client.query(s, t, d)


def _phase_notes(result: RunResult, phases: list[Phase], kinds) -> None:
    for phase in phases:
        for kind in kinds:
            lat = phase.latencies(kind)
            result.extra[f"{kind}@{int(phase.rate)}_p50_ms"] = median(lat)
            result.extra[f"{kind}@{int(phase.rate)}_p99_ms"] = percentile(lat, 99)
        result.extra[f"done@{int(phase.rate)}_per_s"] = phase.completed_per_s()


def _traced_serving(result: RunResult, server: ServerProcess, make_argv, workdir: Path, schedule,
                    make_execute, *, warm=None, kind: str, tail: int):
    """Untraced half on the set-up server, traced half on a fresh traced
    server (started from ``make_argv()``) over the same schedule;
    per-layer metrics from the traced half (server spans plus this
    process's client spans)."""
    from spans import Tracer, clock, install, merge_spans

    if warm:
        _warm(server.address, warm)
    plain = drive(server.address, schedule, make_execute())
    server.stop()
    spans_path = workdir / "server-spans.json"
    traced_server = boot(make_argv(), workdir, trace_out=spans_path)
    try:
        if warm:
            _warm(traced_server.address, warm)
        tracer = install(Tracer(), modules=("repro.service.client",))
        t0 = clock()
        traced = drive(traced_server.address, schedule, make_execute(), tracer)
        t1 = clock()
    finally:
        traced_server.stop()
    server_dump = json.loads(spans_path.read_text())
    spans, absent = merge_spans(server_dump, {"spans": tracer.spans, "absent": tracer.absent})
    result.trace_from(spans, absent, t0, t1)
    result.overhead(plain.latencies(kind), traced.latencies(kind), tail)
    result.metrics.update(generator_health([plain]))
    return [plain, traced]


# ----------------------------------------------------------------------
# ingest_durable
# ----------------------------------------------------------------------
def ingest_trace(replica: Replica, seed: int, plan) -> dict:
    """Appends of fresh past-horizon edges between existing nodes,
    interleaved with queries (fenced at run time)."""
    rng = random.Random(seed)
    nodes = sorted({row[0] for row in replica.rows} | {row[1] for row in replica.rows})
    pairs = random_pairs(replica, rng, 300)
    tau = replica.t_max
    phases = []
    for rate, seconds in plan:
        schedule = []
        for index, offset in enumerate(fixed_schedule(rate, seconds)):
            if INGEST_PATTERN[index % len(INGEST_PATTERN)] == "append":
                tau += 1
                u, v = rng.sample(nodes, 2)
                op = ("append", u, v, tau, round(rng.uniform(1.0, 50.0), 3))
            else:
                s, t = rng.choice(pairs)
                op = ("query", s, t, rng.choice(replica.deltas))
            schedule.append((round(offset, 6), op))
        phases.append({"rate": rate, "schedule": schedule})
    final = [(s, t, rng.choice(replica.deltas)) for s, t in rng.sample(pairs, INGEST_FINAL_CHECKS)]
    return {"phases": phases, "final": final}


class _Fence:
    """The highest epoch any append ack has shown the generator."""

    def __init__(self) -> None:
        self.epoch = 0
        self.lock = threading.Lock()

    def execute(self, client, op):
        if op[0] == "append":
            reply = client.append([op[1:]])
            with self.lock:
                self.epoch = max(self.epoch, reply.epoch)
            return reply
        with self.lock:
            fence = self.epoch
        return client.query(op[1], op[2], op[3], min_epoch=fence or None)


def _cluster_argv(csv_path: Path, workdir: Path, boot_index: int) -> list[str]:
    state = workdir / f"cluster-{boot_index}"
    return [
        "cluster", str(csv_path), "--port", "0",
        "--replicas", "2", "--replica-mode", "inline", "--fsync",
        "--log", str(state / "append.log"),
        "--snapshots", str(state / "snapshots"),
        "--snapshot-every", str(INGEST_SNAPSHOT_EVERY),
    ]


def _check_ingest(server: ServerProcess, csv_path: Path, phases: list[Phase], final, corrupt: bool) -> tuple[int, int]:
    """Errors, acks beyond the committed epoch, and final fenced answers
    that differ from a sequential solve over seed + acked edges.
    Returns (attempted, failed) for the final checks."""
    from repro.core.engine import find_bursting_flow
    from repro.temporal.edge import TemporalEdge
    from repro.temporal.io import load_edge_list

    failed = sum(1 for p in phases for d in p.done if d.error is not None)
    acks = sorted(
        (d.reply.epoch, d.op) for p in phases for d in p.done if d.op[0] == "append" and d.error is None
    )
    fence = acks[-1][0] if acks else 0
    with _client(server.address) as client:
        committed = client.ping()
        served = []
        for s, t, d in final:
            try:
                served.append(client.query(s, t, d, min_epoch=fence or None))
            except Exception as exc:  # noqa: BLE001 - counted as a failure
                served.append(exc)
    failed += sum(1 for epoch, _op in acks if epoch > committed)
    network = load_edge_list(csv_path)
    for _epoch, (_kind, u, v, tau, cap) in acks:
        network.add_edge(TemporalEdge(u, v, tau, cap))
    for index, ((s, t, d), reply) in enumerate(zip(final, served)):
        if isinstance(reply, Exception):
            failed += 1
            continue
        want = find_bursting_flow(network, source=s, sink=t, delta=d)
        got = (reply.density, _interval(reply.interval), reply.flow_value)
        if corrupt and index == 0:
            got = (got[0] + 1.0, got[1], got[2])
        if not same_answer(got, (want.density, want.interval, want.flow_value)):
            failed += 1
    return len(final), failed


def ingest_durable(seed: int, seconds: float, trace: bool, *, corrupt: bool = False, rates=INGEST_RATES) -> RunResult:
    workdir = scratch_dir()
    plan = phase_plan(seconds, rates, trace)

    def make_trace(replica, seed):
        return ingest_trace(replica, seed, plan)

    server = None
    try:
        replica, write_trace, csv_path, server, setup_s = _setup_server(
            "ingest_durable", "bayc", seed, make_trace, _cluster_argv, workdir, _variant(seconds, trace)
        )
        result = RunResult()
        schedules = [[tuple(x) for x in p["schedule"]] for p in write_trace["phases"]]
        if not trace:
            phases = run_phases(server, schedules, rates, _Fence().execute)
            checks, check_failed = _check_ingest(server, csv_path, phases, write_trace["final"], corrupt)
            rss = server.peak_rss_mb()
            server.stop()
            server = None
            result.e2e(setup_s, rss, server_cpu_ms_per_op(phases[0]),
                       sustained(phases, ("append", "query"), INGEST_P99_LIMIT_MS))
            result.latency(phases[0].latencies("append"), INGEST_TAIL)
            _phase_notes(result, phases, ("append", "query"))
        else:
            # A fresh log and snapshot directory for the traced cluster.
            phases = _traced_serving(result, server, lambda: _cluster_argv(csv_path, workdir, SETUP_BOOTS),
                                     workdir, schedules[0], lambda: _Fence().execute,
                                     kind="append", tail=INGEST_TAIL)
            server = None
            checks, check_failed = 0, sum(1 for p in phases for d in p.done if d.error is not None)
        result.attempted = sum(len(p.done) for p in phases) + checks
        result.failed = check_failed
        return result
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(workdir, ignore_errors=True)
