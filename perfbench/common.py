"""Shared helpers: locating the program, percentiles, memory and results.

The benchmark lives beside the program it measures and imports it from
``src/`` of the same checkout, so the code under test is always the code
that was checked out, never an installed copy.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for generated edge lists, logs and span dumps; inside
#: the checkout, removed by the run that made it.
SCRATCH_PARENT = ROOT / ".perfbench_tmp"


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing program, changed inputs)."""


def use_program() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``.

    Raises:
        BenchmarkError: when the checkout holds no ``repro`` package, as
            in a directory with only the benchmark's own files.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program to measure: {SRC / 'repro'} is missing")
    path = str(SRC)
    if path not in sys.path:
        sys.path.insert(0, path)


def scratch_dir() -> Path:
    """A fresh private directory under the checkout's scratch parent."""
    SCRATCH_PARENT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH_PARENT))


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear between closest ranks."""
    if not values:
        return math.nan
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def self_peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchmarkError(f"no VmHWM for pid {pid}")


def emit_result(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Print the result object as the last line of standard output."""
    line = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }
    sys.stdout.write(json.dumps(line) + "\n")
    sys.stdout.flush()


def note(message: str) -> None:
    """A human-readable progress line (never the last line of stdout)."""
    print(message, flush=True)


def process_cpu_s(pid: int) -> float:
    """User plus system CPU seconds a live process has used."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
