"""Perf-regression harness for the engine's kernel and transform choices.

Three experiments, selected with ``--experiment``:

* ``kernel`` (EXP-3 regression, writes ``BENCH_PR2.json`` by default) —
  reruns the incremental-maxflow workload (the per-candidate-interval
  ``maxflow_seconds`` samples of BFQ+/BFQ* sweeps) under both engine
  kernels: ``object`` (Dinic resumed by walking the ``Arc`` object graph)
  vs ``persistent`` (the flat CSR arena kernel).

* ``transform`` (EXP-4 regression, writes ``BENCH_PR4.json`` by default) —
  times full end-to-end queries under both window transforms: ``object``
  (every candidate window rebuilt through ``build_transformed_network`` /
  per-extension reachability sweeps) vs ``skeleton`` (one compiled
  :class:`~repro.core.skeleton.WindowSkeleton` per query, candidates
  materialised as binary-searched array slices into residual arenas).  BFQ is the headline (it rebuilds every window, so the
  transform dominates); BFQ+/BFQ* are included to show the skeleton is
  never a regression for the incremental solutions.

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
        [--experiment kernel|transform|shm] [--output FILE.json] \
        [--scale 1.0] [--queries 6] [--reps 3]
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from datetime import datetime, timezone
from pathlib import Path

from repro.core.bfq import bfq
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


#: EXP-4 transform comparison: skeleton slicing vs object-graph rebuilds.
TRANSFORMS = ("object", "skeleton")
TRANSFORM_ALGORITHMS = {"bfq": bfq, "bfq_plus": bfq_plus, "bfq_star": bfq_star}


def _run_transform_workload(algorithm, network, queries, transform):
    """One full end-to-end sweep; returns wall seconds."""
    wall_start = time.perf_counter()
    for query in queries:
        algorithm(network, query, transform=transform)
    return time.perf_counter() - wall_start


def run_transform_benchmark(
    *,
    datasets=DATASETS,
    scale: float = 1.0,
    query_count: int = 6,
    reps: int = 3,
) -> dict:
    """Compare both window transforms end-to-end; returns the report."""
    configs = []
    for name in datasets:
        network = make_dataset(name, scale=scale)
        workload = generate_queries(network, count=query_count, seed=QUERY_SEED)
        delta = workload.delta_for(DELTA_FRACTION)
        queries = [
            BurstingFlowQuery(source=s, sink=t, delta=delta)
            for s, t in workload.pairs
        ]
        for algo_name, algorithm in TRANSFORM_ALGORITHMS.items():
            best = {t: None for t in TRANSFORMS}
            for _ in range(reps):
                for transform in TRANSFORMS:  # interleaved
                    wall = _run_transform_workload(
                        algorithm, network, queries, transform
                    )
                    if best[transform] is None or wall < best[transform]:
                        best[transform] = wall
            configs.append(
                {
                    "dataset": name,
                    "algorithm": algo_name,
                    "delta": delta,
                    "num_queries": len(queries),
                    "transforms": {
                        t: {"wall_s": best[t]} for t in TRANSFORMS
                    },
                    "speedup_wall": best["object"]
                    / max(best["skeleton"], 1e-12),
                }
            )

    bfq_configs = [c for c in configs if c["algorithm"] == "bfq"]
    total = {
        transform: sum(
            c["transforms"][transform]["wall_s"] for c in bfq_configs
        )
        for transform in TRANSFORMS
    }
    return {
        "benchmark": "exp4-window-transform-regression",
        "metric": (
            "end-to-end wall seconds per query sweep (min over interleaved "
            "repetitions); aggregate speedup is over the BFQ configs, where "
            "the per-window transform dominates"
        ),
        "baseline": "object (per-window object-graph rebuild)",
        "candidate": "skeleton (compiled per-query WindowSkeleton slices)",
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
            "bfq_object_wall_s": total["object"],
            "bfq_skeleton_wall_s": total["skeleton"],
            "speedup": total["object"] / max(total["skeleton"], 1e-12),
        },
    }


# ----------------------------------------------------------------------
# --experiment shm: the shared-memory edge log (BENCH_PR9's shm section)
# ----------------------------------------------------------------------
def _shm_section(shm_cycles: int, shm_scale: float):
    """Append-heavy refresh cost: shared-memory publish vs pool rebuild.

    Each cycle appends a few edges and immediately queries; the per-cycle
    state-refresh overhead is the cycle time minus the warm solve time.
    The shared log should eliminate nearly all of it (no pool teardown,
    no network re-pickle — workers replay only the appended records).
    """
    import asyncio

    from repro.service.workers import ProcessEnginePool
    from repro.temporal.edge import TemporalEdge

    async def measure(shared: bool) -> dict:
        network = make_dataset("ctu13", scale=shm_scale)
        workload = generate_queries(network, count=2, seed=QUERY_SEED)
        source, sink = workload.pairs[0]
        delta = workload.delta_for(DELTA_FRACTION)
        pool = ProcessEnginePool(
            network, processes=2, mp_context="fork", shared=shared
        )
        try:
            await pool.answer(source, sink, delta, "bfq*")  # warm
            warm_start = time.perf_counter()
            warm_solves = 3
            for _ in range(warm_solves):
                await pool.answer(source, sink, delta, "bfq*")
            warm_s = (time.perf_counter() - warm_start) / warm_solves
            tau = network.t_max
            cycle_start = time.perf_counter()
            for cycle in range(shm_cycles):
                fresh = [
                    TemporalEdge(source, f"shmb{cycle}_{i}", tau + cycle + 1, 1.0)
                    for i in range(4)
                ]
                for edge in fresh:
                    network.add_edge(edge)
                pool.mark_stale(fresh if shared else None)
                await pool.answer(source, sink, delta, "bfq*")
            cycles_s = time.perf_counter() - cycle_start
            refresh_s = max(cycles_s - shm_cycles * warm_s, 0.0) / shm_cycles
            return {
                "warm_solve_s": warm_s,
                "cycle_total_s": cycles_s,
                "refresh_per_append_s": refresh_s,
            }
        finally:
            pool.close()

    rebuild = asyncio.run(measure(False))
    shm = asyncio.run(measure(True))
    eliminated = 1.0 - (
        shm["refresh_per_append_s"]
        / max(rebuild["refresh_per_append_s"], 1e-12)
    )
    return {
        "dataset": "ctu13",
        "cycles": shm_cycles,
        "rebuild": rebuild,
        "shared": shm,
        "refresh_eliminated": eliminated,
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
        choices=["kernel", "transform", "shm"],
        help="kernel: EXP-3 object-vs-persistent; transform: EXP-4 "
        "object-vs-skeleton; shm: shared-memory edge log vs pool rebuild "
        "(default: kernel)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="where to write the JSON report (default: ./BENCH_PR2.json "
        "for kernel, ./BENCH_PR4.json for transform, ./BENCH_PR9.json "
        "for shm)",
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
                "transform": "BENCH_PR4.json",
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

    if args.experiment == "transform":
        report = run_transform_benchmark(
            datasets=tuple(args.datasets),
            scale=args.scale,
            query_count=args.queries,
            reps=args.reps,
        )
        args.output.write_text(json.dumps(report, indent=2) + "\n")
        for config in report["configs"]:
            transforms = config["transforms"]
            print(
                f"{config['dataset']:>8} {config['algorithm']:<9}"
                f" object {transforms['object']['wall_s'] * 1e3:8.1f}ms"
                f" skeleton {transforms['skeleton']['wall_s'] * 1e3:8.1f}ms"
                f" speedup {config['speedup_wall']:.2f}x"
            )
        aggregate = report["aggregate"]
        print(
            f"aggregate (bfq): {aggregate['bfq_object_wall_s'] * 1e3:.0f}ms ->"
            f" {aggregate['bfq_skeleton_wall_s'] * 1e3:.0f}ms"
            f" = {aggregate['speedup']:.2f}x ({args.output})"
        )
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
