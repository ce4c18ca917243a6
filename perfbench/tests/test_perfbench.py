"""The benchmark's own tests, at tiny scale.

    python3 -m pytest perfbench/tests -q

Each workload runs for about a second on a small replica (library
workloads) or at low offered rates (serving workloads).
"""

from __future__ import annotations

import json

import pytest

import inputs
import library
import run
import serving
from common import ROOT

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}

#: Spans (per-layer metrics) that must fire on each workload: the layers
#: README.md says each workload exercises.
MUST_FIRE = {
    "solve_sparse": [
        "intervals.enumerate_ms", "intervals.candidates", "skeleton.compile_ms",
        "skeleton.compiles", "incremental.build_ms", "incremental.extend_ms",
        "incremental.extends", "incremental.clone_ms", "residual.sync_ms",
        "algorithms.solve_ms", "algorithms.runs", "record.prune_checks", "engine.self_ms",
    ],
    "batch_dense": [
        "skeleton.compile_ms", "skeleton.materialize_ms", "skeleton.windows",
        "skeleton.window_arcs", "algorithms.solve_ms", "algorithms.augmenting_paths",
        "planner.windows_solved", "planner.self_ms",
    ],
    "serve_reads": [
        "service.protocol.parse_ms", "service.protocol.encode_ms", "service.server.handle_ms",
        "service.cache.get_ms", "service.cache.hit_ratio", "service.client.rtt_ms",
        "service.workers.answer_ms", "service.lock.wait_ms", "bench.lag_p99_ms",
        # batch and topk ops: the planner layers, measured here because
        # batch_dense is not a listed workload.
        "planner.windows_solved", "skeleton.materialize_ms", "algorithms.solve_ms",
    ],
    "ingest_durable": [
        "store.log.append_ms", "store.log.flush_ms", "store.log.bytes_per_edge",
        "store.snapshot.save_ms", "store.snapshot.saves", "service.cache.invalidated",
        "cluster.coordinator.replicate_ms", "cluster.coordinator.fanout_ms",
        "cluster.coordinator.forward_ms", "cluster.coordinator.checkpoint_ms",
        "incremental.advance_ms", "incremental.advances",
    ],
}

TINY = {
    "solve_sparse": lambda **kw: library.solve_sparse(1, 1.0, scale=0.3, **kw),
    "batch_dense": lambda **kw: library.batch_dense(1, 1.0, scale=0.3, **kw),
    "serve_reads": lambda **kw: serving.serve_reads(1, 3.0, rates=(40.0, 60.0, 80.0), **kw),
    "ingest_durable": lambda **kw: serving.ingest_durable(1, 3.0, rates=(60.0, 70.0, 80.0), **kw),
}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_prints_every_end_to_end_metric_and_is_correct(workload):
    result = TINY[workload](trace=False)
    metrics = run.render(result, trace=False)
    assert {name: m["unit"] for name, m in metrics.items()} == E2E
    assert all(m["value"] > 0 for name, m in metrics.items() if name != "throughput_per_s")
    assert result.attempted > 0
    assert result.failed == 0


@pytest.mark.parametrize("workload", sorted(TINY))
def test_corrupted_answer_counts_as_failed(workload):
    result = TINY[workload](trace=False, corrupt=True)
    assert result.failed_fraction > 0


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_run_reports_every_layer_and_named_spans_fire(workload):
    result = TINY[workload](trace=True)
    metrics = run.render(result, trace=True)
    assert {name: m["unit"] for name, m in metrics.items()} == PER_LAYER
    assert result.absent == []
    silent = [name for name in MUST_FIRE[workload] if metrics[name]["value"] <= 0]
    assert silent == []
    assert "bench.trace_overhead_ms" in result.metrics
    assert result.failed == 0


def test_every_named_span_fires_on_some_workload():
    named = {name for names in MUST_FIRE.values() for name in names}
    timed = {name[: -len("_ms")] for name in PER_LAYER if name.endswith("_ms")}
    timed = {name for name in timed if not name.startswith("bench.")}
    assert {t for t in timed if f"{t}_ms" not in named} == set()


def _fingerprint(seed):
    replica = inputs.build_replica("ctu13", 0.3)
    return inputs.fingerprint("solve_sparse", seed, replica, library.solve_cycles(replica, seed))


def test_same_seed_same_fingerprint_different_seed_different():
    assert _fingerprint(1) == _fingerprint(1)
    assert _fingerprint(1)["input_digest"] != _fingerprint(2)["input_digest"]
    assert _fingerprint(1)["edge_digest"] == _fingerprint(2)["edge_digest"]


def test_changed_pinned_input_fails_loudly():
    replica = inputs.build_replica("ctu13")
    fp = inputs.fingerprint("solve_sparse", 1, replica, library.solve_cycles(replica, 1))
    inputs.check_pins(fp)  # the committed pins hold at this commit
    with pytest.raises(inputs.BenchmarkError, match="changed"):
        inputs.check_pins(dict(fp, input_digest="0" * 20))
    with pytest.raises(inputs.BenchmarkError, match="changed"):
        inputs.check_pins(dict(fp, edge_digest="0" * 20))


def test_missing_entry_point_is_reported_absent(monkeypatch):
    import spans

    monkeypatch.setattr(spans, "PATCHES", [("x.gone", "repro.core.engine", "no_such_function",
                                            spans._wrap_sync, None)])
    tracer = spans.install(spans.Tracer())
    assert tracer.absent == ["repro.core.engine:no_such_function"]
