"""One run's outcome and its rendering as the result line."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from common import median, percentile
from spans import layer_metrics, summarize

#: End-to-end metrics every workload reports (BENCHMARK.json ``end_to_end``).
#: What each one counts, per workload, is in README.md.
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cpu_ms_per_op": "ms",
    "throughput_per_s": "1/s",
}

#: Answers agree when intervals are equal and values agree to this
#: relative tolerance (independent solvers sum flows in another order).
REL_TOL = 1e-9


def same_answer(got: tuple, want: tuple) -> bool:
    """``(density, interval, flow_value)`` triples agree."""
    if got[1] != want[1]:
        return False
    return all(
        math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12) for a, b in ((got[0], want[0]), (got[2], want[2]))
    )


def agree(got: list, want: list) -> bool:
    """Entries ``(*keys, density, interval, flow_value)`` agree pairwise."""
    return len(got) == len(want) and all(
        g is not None and g[:-3] == w[:-3] and same_answer(g[-3:], w[-3:]) for g, w in zip(got, want)
    )


@dataclass
class RunResult:
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Workload-specific figures printed on the summary line only.
    extra: dict[str, float] = field(default_factory=dict)
    absent: list[str] = field(default_factory=list)

    def e2e(self, setup_s: float, rss_mb: float, cpu_ms_per_op: float, per_s: float) -> None:
        values = {
            "setup_s": setup_s,
            "peak_rss_mb": rss_mb,
            "cpu_ms_per_op": cpu_ms_per_op,
            "throughput_per_s": per_s,
        }
        for name, value in values.items():
            self.metrics[name] = (value, E2E_UNITS[name])

    def latency(self, latencies_ms: list[float], tail: int) -> None:
        """Latency median and tail, for the summary line."""
        self.extra["latency_p50_ms"] = median(latencies_ms)
        self.extra[f"latency_p{tail}_ms"] = percentile(latencies_ms, tail)

    def trace_from(self, spans: list, absent: list[str], t0: float, t1: float) -> None:
        """Per-layer metrics from the spans that start in ``[t0, t1]``."""
        self.metrics.update(layer_metrics(summarize(spans, t0, t1), t1 - t0))
        self.absent = sorted(set(absent))

    def overhead(self, plain_ms: list[float], traced_ms: list[float], tail: int) -> None:
        """Latency of the untraced half (median and tail), and the tracing
        overhead: traced median latency minus untraced, same operations."""
        plain_p50, traced_p50 = median(plain_ms), median(traced_ms)
        self.metrics["bench.latency_p50_ms"] = (plain_p50, "ms")
        self.metrics["bench.latency_tail_ms"] = (percentile(plain_ms, tail), "ms")
        self.metrics["bench.trace_overhead_ms"] = (traced_p50 - plain_p50, "ms")
        self.metrics["bench.trace_overhead_ratio"] = (
            (traced_p50 - plain_p50) / plain_p50 if plain_p50 else 0.0,
            "ratio",
        )

    @property
    def failed_fraction(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def metric_payload(self) -> dict:
        return {name: {"value": float(v), "unit": u} for name, (v, u) in sorted(self.metrics.items())}
