"""Perf-regression harness for the engine's kernel choices.

Two experiments, selected with ``--experiment``:

* ``kernel`` (EXP-3 regression, writes ``BENCH_PR2.json`` by default) —
  reruns the incremental-maxflow workload (the per-candidate-interval
  ``maxflow_seconds`` samples of BFQ+/BFQ* sweeps) under both engine
  kernels: ``object`` (Dinic resumed by walking the ``Arc`` object graph)
  vs ``persistent`` (the flat CSR arena kernel).

* ``shm`` (writes ``BENCH_PR9.json`` by default) — an append-heavy
  service microbench comparing the shared-memory edge log against
  per-epoch pool rebuilds.

Configurations are interleaved within each repetition and the
per-configuration minimum across repetitions is kept, which cancels
machine drift without favouring either side.  The JSON written to
``--output`` records the raw numbers (see docs/benchmarks.md for the
schemas); CI's bench-smoke step runs a reduced configuration of this
script and uploads the artifact.

Usage::

    PYTHONPATH=src python benchmarks/perf_regression.py \
        [--experiment kernel|shm] [--output FILE.json] \
        [--scale 1.0] [--queries 6] [--reps 3]
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from datetime import datetime, timezone
from pathlib import Path

from repro.core.bfq_plus import bfq_plus
from repro.core.bfq_star import bfq_star
from repro.core.query import BurstingFlowQuery
from repro.datasets.queries import generate_queries
from repro.datasets.registry import make_dataset

#: EXP-3's datasets (bayc's transformed networks are too small to time).
DATASETS = ("btc2011", "ctu13", "prosper")
ALGORITHMS = {"bfq_plus": bfq_plus, "bfq_star": bfq_star}
KERNELS = ("object", "persistent")
#: Same workload seed and delta fraction as the EXP benchmarks.
QUERY_SEED = 648
DELTA_FRACTION = 0.03


def _run_workload(algorithm, network, queries, kernel):
    """One full sweep; returns (maxflow seconds, wall seconds)."""
    maxflow_seconds = 0.0
    wall_start = time.perf_counter()
    for query in queries:
        result = algorithm(network, query, kernel=kernel)
        maxflow_seconds += sum(
            sample.maxflow_seconds for sample in result.stats.samples
        )
    return maxflow_seconds, time.perf_counter() - wall_start


def run_benchmark(
    *,
    datasets=DATASETS,
    scale: float = 1.0,
    query_count: int = 6,
    reps: int = 3,
) -> dict:
    """Compare both kernels on the EXP-3 workload; returns the report."""
    configs = []
    for name in datasets:
        network = make_dataset(name, scale=scale)
        workload = generate_queries(network, count=query_count, seed=QUERY_SEED)
        delta = workload.delta_for(DELTA_FRACTION)
        queries = [
            BurstingFlowQuery(source=s, sink=t, delta=delta)
            for s, t in workload.pairs
        ]
        for algo_name, algorithm in ALGORITHMS.items():
            best = {k: {"maxflow_s": None, "wall_s": None} for k in KERNELS}
            for _ in range(reps):
                for kernel in KERNELS:  # interleaved: drift hits both sides
                    mf, wall = _run_workload(algorithm, network, queries, kernel)
                    slot = best[kernel]
                    if slot["maxflow_s"] is None or mf < slot["maxflow_s"]:
                        slot["maxflow_s"] = mf
                    if slot["wall_s"] is None or wall < slot["wall_s"]:
                        slot["wall_s"] = wall
            configs.append(
                {
                    "dataset": name,
                    "algorithm": algo_name,
                    "delta": delta,
                    "num_queries": len(queries),
                    "kernels": best,
                    "speedup_maxflow": best["object"]["maxflow_s"]
                    / max(best["persistent"]["maxflow_s"], 1e-12),
                    "speedup_wall": best["object"]["wall_s"]
                    / max(best["persistent"]["wall_s"], 1e-12),
                }
            )

    total = {
        kernel: sum(c["kernels"][kernel]["maxflow_s"] for c in configs)
        for kernel in KERNELS
    }
    return {
        "benchmark": "exp3-incremental-maxflow-kernel-regression",
        "metric": (
            "sum of per-candidate-interval maxflow_seconds over the EXP-3 "
            "BFQ+/BFQ* sweeps (min over interleaved repetitions)"
        ),
        "baseline": "object (pre-persistent-arena engine)",
        "candidate": "persistent (flat CSR arena kernel)",
        "config": {
            "datasets": list(datasets),
            "scale": scale,
            "queries_per_dataset": query_count,
            "query_seed": QUERY_SEED,
            "delta_fraction": DELTA_FRACTION,
            "reps": reps,
        },
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "timestamp_utc": datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            ),
        },
        "configs": configs,
        "aggregate": {
            "object_maxflow_s": total["object"],
            "persistent_maxflow_s": total["persistent"],
            "speedup": total["object"] / max(total["persistent"], 1e-12),
        },
    }


def run_shm_benchmark(*, shm_cycles: int = 8, shm_scale: float = 1.0) -> dict:
    """The shared-memory edge-log microbench; returns the report."""
    return {
        "benchmark": "pr9-shared-memory-edge-log",
        "metric": (
            "shm: per-append worker state-refresh seconds, shared-memory "
            "log vs pool rebuild"
        ),
        "baseline": "pool rebuild per epoch",
        "candidate": "shared-memory edge log",
        "config": {"shm_cycles": shm_cycles, "shm_scale": shm_scale},
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "timestamp_utc": datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            ),
        },
        "shm": _shm_section(shm_cycles, shm_scale),
    }


def summarise_kernels_report(report: dict) -> dict:
    """Roll the headline number out of an shm report (used by CI too)."""
    return {"shm_refresh_eliminated": report["shm"]["refresh_eliminated"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--experiment",
        default="kernel",
        choices=["kernel", "shm"],
        help="kernel: EXP-3 object-vs-persistent; shm: shared-memory edge "
        "log vs pool rebuild (default: kernel)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="where to write the JSON report (default: ./BENCH_PR2.json "
        "for kernel, ./BENCH_PR9.json for shm)",
    )
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--queries", type=int, default=6)
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument(
        "--shm-cycles",
        type=int,
        default=8,
        help="append+query cycles per side in the shm experiment "
        "(default: 8)",
    )
    parser.add_argument(
        "--datasets",
        nargs="+",
        default=list(DATASETS),
        choices=list(DATASETS),
    )
    args = parser.parse_args(argv)
    if args.output is None:
        args.output = Path(
            {
                "kernel": "BENCH_PR2.json",
                "shm": "BENCH_PR9.json",
            }[args.experiment]
        )

    if args.experiment == "shm":
        report = run_shm_benchmark(
            shm_cycles=args.shm_cycles, shm_scale=args.scale
        )
        args.output.write_text(json.dumps(report, indent=2) + "\n")
        shm = report["shm"]
        print(
            f"     shm refresh/append: rebuild"
            f" {shm['rebuild']['refresh_per_append_s'] * 1e3:.1f}ms ->"
            f" shared {shm['shared']['refresh_per_append_s'] * 1e3:.1f}ms"
            f" ({shm['refresh_eliminated'] * 100:.0f}% eliminated)"
        )
        headline = summarise_kernels_report(report)
        print(f"headline: {json.dumps(headline)} ({args.output})")
        return 0

    report = run_benchmark(
        datasets=tuple(args.datasets),
        scale=args.scale,
        query_count=args.queries,
        reps=args.reps,
    )
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    for config in report["configs"]:
        kernels = config["kernels"]
        print(
            f"{config['dataset']:>8} {config['algorithm']:<9}"
            f" object {kernels['object']['maxflow_s'] * 1e3:8.1f}ms"
            f" persistent {kernels['persistent']['maxflow_s'] * 1e3:8.1f}ms"
            f" speedup {config['speedup_maxflow']:.2f}x"
        )
    aggregate = report["aggregate"]
    print(
        f"aggregate: {aggregate['object_maxflow_s'] * 1e3:.0f}ms ->"
        f" {aggregate['persistent_maxflow_s'] * 1e3:.0f}ms"
        f" = {aggregate['speedup']:.2f}x ({args.output})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
