"""Run one benchmark workload and print its result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload solve_sparse --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload half untraced and half traced and prints the per-layer metrics
(see README.md).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit codes:
0 after a result line, 2 when the checkout holds no program, 3 when a
pinned input changed.
"""

from __future__ import annotations

import argparse
import sys

from common import BenchmarkError, emit_result, note, use_program

WORKLOADS = ("solve_sparse", "batch_dense", "serve_reads", "ingest_durable")

#: Figures of the benchmark itself, not of a layer: the untraced half's
#: latency, the tracing overhead, and the open-loop generator's health
#: (0 on the closed-loop workloads).
BENCH_LAYER = {
    "bench.latency_p50_ms": "ms",
    "bench.latency_tail_ms": "ms",
    "bench.trace_overhead_ms": "ms",
    "bench.trace_overhead_ratio": "ratio",
    "bench.lag_p99_ms": "ms",
    "bench.backlog_max": "count",
}


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    from spans import layer_metrics

    names = {name: unit for name, (_v, unit) in layer_metrics(
        {"self_ms": {}, "calls": {}, "totals": {}, "union_ms": {}}, 1.0
    ).items()}
    names.update(BENCH_LAYER)
    return names


def render(result, trace: bool) -> dict:
    """The ``metrics`` object of the result line."""
    metrics = result.metric_payload()
    if trace:
        for name, unit in per_layer_names().items():
            metrics.setdefault(name, {"value": 0.0, "unit": unit})
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool):
    if workload in ("solve_sparse", "batch_dense"):
        import library

        return getattr(library, workload)(seed, seconds, trace)
    import serving

    return getattr(serving, workload)(seed, seconds, trace)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        use_program()
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3 if "changed" in str(exc) else 2

    metrics = render(result, bool(args.trace))
    if result.absent:
        note(f"absent entry points: {', '.join(result.absent)}")
    summary = {k: round(v, 4) if isinstance(v, float) else v for k, v in result.extra.items()}
    note(
        f"{args.workload} seed={args.seed}: attempted={result.attempted} "
        f"failed={result.failed} failed_fraction={result.failed_fraction:.4f} {summary}"
    )
    emit_result(result.failed == 0, max(1, result.attempted), result.failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
