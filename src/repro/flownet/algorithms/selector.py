"""The arena dispatch point: every engine maxflow run enters here.

:func:`arena_solve` runs the persistent arena Dinic
(:func:`~repro.flownet.algorithms.dinic_flat_persistent.arena_maxflow`) on
one :class:`ResidualArena` and stamps the executed kernel onto the returned
:class:`~repro.flownet.algorithms.base.MaxflowRun`, so per-kernel
accounting can attribute the time.  :func:`network_maxflow` is the
incremental engine's front door: the engine's residual store decides the
kernel — ``kernel="object"`` runs the reference object-graph Dinic on a
:class:`FlowNetwork`, and ``"persistent"`` runs :func:`arena_solve` on a
:class:`ResidualArena`.
"""

from __future__ import annotations

from repro.flownet.algorithms.base import MaxflowRun
from repro.flownet.algorithms.dinic import dinic
from repro.flownet.algorithms.dinic_flat_persistent import arena_maxflow
from repro.flownet.network import FlowNetwork
from repro.flownet.residual import ResidualArena


def arena_solve(
    arena: ResidualArena,
    source: int,
    sink: int,
    *,
    value_bound: float | None = None,
) -> MaxflowRun:
    """Run the persistent arena kernel on one arena, stamped ``persistent``."""
    run = arena_maxflow(arena, source, sink, value_bound=value_bound)
    run.kernel = "persistent"
    return run


def network_maxflow(
    store: FlowNetwork | ResidualArena,
    source: int,
    sink: int,
    *,
    kernel: str = "persistent",
    value_bound: float | None = None,
) -> MaxflowRun:
    """Run an engine kernel on its residual store (the engine's front door).

    ``"object"`` runs the object-graph Dinic on a :class:`FlowNetwork`
    (ignoring ``value_bound``); ``"persistent"`` dispatches a
    :class:`ResidualArena` through :func:`arena_solve`.
    """
    if kernel == "object":
        run = dinic(store, source, sink)
        run.kernel = "object"
        return run
    return arena_solve(store, source, sink, value_bound=value_bound)
