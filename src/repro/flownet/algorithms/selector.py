"""Adaptive per-window kernel selection over the arena kernels.

``kernel="adaptive"`` routes every arena solve through a
:class:`KernelSelector`: a size/density policy seeds the choice, and an
EWMA of *observed* seconds-per-arc (bucketed by arena magnitude, fed by
every adaptive solve) takes over as soon as the candidate kernels have
been sampled in a bucket — so a sweep over similar windows
converges onto whichever kernel is actually fastest on this machine and
workload, not on whichever the static thresholds guessed.

The selector also keeps per-kernel choice counters
(:meth:`KernelSelector.snapshot`), which
:class:`repro.core.profile.PhaseBreakdown` and the service ``/metrics``
phases section surface — adaptive decisions are observable, not folklore.

:func:`arena_solve` is the single dispatch point used by the incremental
engine and the transform compiler; it stamps the executed kernel onto the
returned :class:`~repro.flownet.algorithms.base.MaxflowRun` so per-kernel
accounting works even when ``adaptive`` made the call.
"""

from __future__ import annotations

import threading
import time

from repro.flownet.algorithms.base import MaxflowRun
from repro.flownet.algorithms.dinic import dinic
from repro.flownet.algorithms.dinic_flat_persistent import arena_maxflow
from repro.flownet.algorithms.push_relabel_flat import arena_push_relabel
from repro.flownet.network import FlowNetwork
from repro.flownet.residual import ResidualArena

#: The concrete arena kernels ``adaptive`` chooses between.
ARENA_SOLVERS = {
    "persistent": arena_maxflow,
    "push_relabel": arena_push_relabel,
}

#: Below this arc count push-relabel's per-run setup (capacity
#: localisation) dominates any win — always persistent.
SMALL_ARENA_ARCS = 3_000
#: Densest-window heuristic: average arc-per-node degree at which the
#: preflow wave beats path-at-a-time augmentation on short windows.
DENSE_DEGREE = 6.0


class KernelSelector:
    """Threshold-seeded, EWMA-refined kernel chooser (thread-safe).

    Observations are bucketed by ``arcs.bit_length()`` (powers of two) so
    timings from very different window sizes never mix.  Within a bucket
    the first call for each eligible-but-unsampled kernel explores it
    once; afterwards the lowest per-arc EWMA wins.
    """

    __slots__ = ("_lock", "_per_arc", "_choices", "alpha")

    def __init__(self, alpha: float = 0.3) -> None:
        self._lock = threading.Lock()
        #: {bucket: {kernel: EWMA seconds-per-arc}}
        self._per_arc: dict[int, dict[str, float]] = {}
        self._choices: dict[str, int] = {}
        self.alpha = alpha

    # ------------------------------------------------------------------
    def eligible(self, nodes: int, arcs: int) -> list[str]:
        """Kernels worth considering for an arena of this shape."""
        if arcs >= SMALL_ARENA_ARCS and nodes and arcs / nodes >= DENSE_DEGREE:
            return ["persistent", "push_relabel"]
        return ["persistent"]

    def choose(self, nodes: int, arcs: int) -> str:
        """Pick a kernel for one solve and count the choice."""
        return self.route(nodes, arcs)[0]

    def route(self, nodes: int, arcs: int) -> tuple[str, bool]:
        """Pick a kernel and say whether the solve is worth timing.

        When only one kernel is eligible there is no competition to
        learn from, so the caller should skip the stopwatch and the EWMA
        feedback entirely — that fast path is what keeps ``adaptive``
        within noise of a fixed ``persistent`` on sweeps of small
        windows, where the per-solve bookkeeping would otherwise be a
        measurable fraction of sub-millisecond solves.
        """
        if arcs < SMALL_ARENA_ARCS:
            # The dominant case on real workloads (Lemma-2 windows are
            # mostly tiny); keep it to one dict bump.  Lock-free: a lost
            # increment under thread contention is acceptable for an
            # advisory metric, and the GIL keeps the dict consistent.
            choices = self._choices
            choices["persistent"] = choices.get("persistent", 0) + 1
            return "persistent", False
        kernels = self.eligible(nodes, arcs)
        if len(kernels) == 1:
            chosen = kernels[0]
            self._choices[chosen] = self._choices.get(chosen, 0) + 1
            return chosen, False
        with self._lock:
            bucket = self._per_arc.get(arcs.bit_length(), {})
            unsampled = [k for k in kernels if k not in bucket]
            if unsampled:
                chosen = unsampled[0]  # explore each candidate once
            else:
                chosen = min(kernels, key=lambda k: bucket[k])
            self._choices[chosen] = self._choices.get(chosen, 0) + 1
            return chosen, True

    def record(self, kernel: str, arcs: int, seconds: float) -> None:
        """Feed one observed solve back into the per-bucket EWMA."""
        if arcs <= 0:
            return
        per_arc = seconds / arcs
        with self._lock:
            bucket = self._per_arc.setdefault(arcs.bit_length(), {})
            previous = bucket.get(kernel)
            if previous is None:
                bucket[kernel] = per_arc
            else:
                bucket[kernel] = previous + self.alpha * (per_arc - previous)

    def snapshot(self) -> dict[str, int]:
        """Per-kernel choice counts so far (for profiles and /metrics)."""
        with self._lock:
            return dict(self._choices)


#: Process-wide selector: sweeps, service workers and batch solves all
#: share one learned model per process.
DEFAULT_SELECTOR = KernelSelector()


def arena_solve(
    arena: ResidualArena,
    source: int,
    sink: int,
    *,
    kernel: str = "persistent",
    value_bound: float | None = None,
    selector: KernelSelector | None = None,
) -> MaxflowRun:
    """Run the named (or adaptively chosen) arena kernel on one arena.

    The returned run is stamped with the kernel that actually executed —
    under ``adaptive`` that is the chosen concrete kernel, which is what
    per-kernel profiling should attribute the time to.
    """
    if kernel == "adaptive":
        active = selector if selector is not None else DEFAULT_SELECTOR
        arcs = len(arena.heads)
        chosen, timed = active.route(len(arena.slots), arcs)
        if timed:
            started = time.perf_counter()
            run = ARENA_SOLVERS[chosen](
                arena, source, sink, value_bound=value_bound
            )
            active.record(chosen, arcs, time.perf_counter() - started)
        else:
            run = ARENA_SOLVERS[chosen](
                arena, source, sink, value_bound=value_bound
            )
        run.kernel = chosen
        return run
    run = ARENA_SOLVERS[kernel](arena, source, sink, value_bound=value_bound)
    run.kernel = kernel
    return run


def network_maxflow(
    network: FlowNetwork,
    source: int,
    sink: int,
    *,
    kernel: str = "persistent",
    value_bound: float | None = None,
    selector: KernelSelector | None = None,
) -> MaxflowRun:
    """Run an engine kernel on an attached network (the engine's front door).

    ``"object"`` runs the pre-arena object-graph Dinic directly.  Every
    arena kernel first attaches (or journal-syncs) the network's persistent
    :class:`ResidualArena`, then dispatches through :func:`arena_solve` —
    so ``kernel="adaptive"`` and the specialised kernels get exactly the
    persistence the flat Dinic pioneered.
    """
    if kernel == "object":
        run = dinic(network, source, sink)
        run.kernel = "object"
        return run
    arena = network.arena
    if arena is None:
        arena = ResidualArena(network)
        network.attach_arena(arena)
    else:
        arena.sync(network)  # replay the structural journal in one batch
    return arena_solve(
        arena, source, sink, kernel=kernel, value_bound=value_bound,
        selector=selector,
    )
