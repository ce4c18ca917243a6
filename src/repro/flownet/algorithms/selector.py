"""The arena dispatch point: every engine maxflow run enters here.

:func:`arena_solve` runs the persistent arena Dinic
(:func:`~repro.flownet.algorithms.dinic_flat_persistent.arena_maxflow`) on
one :class:`ResidualArena` and stamps the executed kernel onto the returned
:class:`~repro.flownet.algorithms.base.MaxflowRun`, so per-kernel
accounting can attribute the time.  :func:`network_maxflow` is the
engine's front door for an attached network: ``kernel="object"`` runs the
reference object-graph Dinic, and ``"persistent"`` attaches (or
journal-syncs) the arena and calls :func:`arena_solve`.
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
    network: FlowNetwork,
    source: int,
    sink: int,
    *,
    kernel: str = "persistent",
    value_bound: float | None = None,
) -> MaxflowRun:
    """Run an engine kernel on an attached network (the engine's front door).

    ``"object"`` runs the pre-arena object-graph Dinic directly.
    ``"persistent"`` first attaches (or journal-syncs) the network's
    :class:`ResidualArena`, then dispatches through :func:`arena_solve`.
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
    return arena_solve(arena, source, sink, value_bound=value_bound)
