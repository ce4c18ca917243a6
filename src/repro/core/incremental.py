"""Incrementally maintained transformed networks (Section 5).

:class:`IncrementalTransformedNetwork` is the engine room of BFQ+ and BFQ*.
It maintains a live transformed network together with the residual state of
the Maxflow found so far, and supports the two structural moves the paper's
incremental lemmas describe:

* :meth:`extend_end` — the **insertion case** (Lemma 3).  Increasing
  ``tau_e`` only inserts nodes and edges, so the residual state (and with it
  every augmenting path found so far) stays valid; a subsequent Dinic run
  finds only the new augmenting paths.

* :meth:`advance_start` — the **deletion case** (Lemma 4/5).  Increasing
  ``tau_s`` removes a prefix of the network.  Flow crossing the new start
  boundary is *withdrawn*: hold edges spanning the boundary are split by
  timestamp injection (``Δ``), a virtual node absorbs the crossing flow
  through reverse Dinic from the sink, and the prefix is retired.

  One deliberate deviation from the paper's operator order: the prefix is
  retired *before* the withdrawal Dinic runs, so withdrawal paths cannot
  meander through soon-to-be-deleted nodes.  This realises exactly the
  canonical path set ``P`` whose existence Lemma 5 proves, and guarantees
  per-boundary-node balance after the prefix disappears (the paper's
  formulation reaches the same state through the
  ``(N_f ⊎ N(P)) \\ (N_[tau_s,tau_s'] \\ N_[tau_s',tau_s'])`` algebra).

Flow-value accounting uses the invariant measure ``|f| =`` flow leaving the
*active* source timeline on capacity edges, which survives both moves.

**One residual store per state.**  The state's network lives in exactly one
store, chosen by the kernel: a :class:`~repro.flownet.residual.ResidualArena`
for ``kernel="persistent"`` (the default — the flat arrays the arena Dinic
runs on, appended to directly) or a :class:`~repro.flownet.network.
FlowNetwork` for ``kernel="object"`` (the reference Dinic's object graph).
The engine logic below is written once, against the operations both stores
provide: ``add_node`` / ``add_edge`` (returning an edge handle),
``flow_on`` / ``push_on`` / ``disable_edge``, ``in_flow`` / ``out_flow``,
``retire_node`` / ``is_retired`` and ``compacted_clone``.
The engine keeps its own per-node timelines of store indices and edge
handles, so it never asks a store for a label.

**One inclusion path.**  Which temporal edges enter the state comes from a
:class:`~repro.core.skeleton.WindowSkeleton`: every extension is a
stamp-range slice of the current start's reachability index.  BFQ+/BFQ*
share one skeleton across all of a query's states, and the streaming
monitor shares one across its whole stream (a skeleton follows appends).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import accumulate

from repro.exceptions import GraphError, InvalidIntervalError
from repro.flownet.algorithms.base import MaxflowRun
from repro.flownet.algorithms.registry import DEFAULT_ENGINE_KERNEL, validate_kernel
from repro.flownet.algorithms.selector import network_maxflow
from repro.flownet.network import FlowNetwork
from repro.flownet.residual import ResidualArena
from repro.core.skeleton import WindowSkeleton
from repro.temporal.edge import NodeId, Timestamp
from repro.temporal.network import TemporalFlowNetwork

#: Tolerance when asserting complete withdrawal of boundary-crossing flow.
_WITHDRAW_TOLERANCE = 1e-6

#: Maxflow kernel driving the incremental moves.  ``"persistent"`` keeps
#: the state in a flat residual arena and runs the resumable arena Dinic on
#: it; ``"object"`` keeps it in a :class:`FlowNetwork` and runs the
#: reference engine walking ``Arc`` objects.  The list lives in
#: :data:`repro.flownet.algorithms.registry.ENGINE_KERNELS`.
DEFAULT_KERNEL = DEFAULT_ENGINE_KERNEL


class _Timeline:
    """One temporal node's chain of transformed nodes ``<node, tau>``.

    ``stamps`` is sorted; ``nodes[i]`` is the store index of
    ``<node, stamps[i]>`` and ``holds[i]`` the handle of the hold edge into
    it (``None`` for the first node, which has no live predecessor).
    """

    __slots__ = ("stamps", "nodes", "holds")

    def __init__(self) -> None:
        self.stamps: list[Timestamp] = []
        self.nodes: list[int] = []
        self.holds: list = []


class IncrementalTransformedNetwork:
    """A transformed network that can grow at the end and shrink at the start."""

    def __init__(
        self,
        temporal: TemporalFlowNetwork,
        source: NodeId,
        sink: NodeId,
        tau_s: Timestamp,
        tau_e: Timestamp,
        *,
        kernel: str = DEFAULT_KERNEL,
        skeleton: WindowSkeleton | None = None,
    ) -> None:
        if tau_e <= tau_s:
            raise InvalidIntervalError(f"window [{tau_s}, {tau_e}] is degenerate")
        self.kernel = validate_kernel(kernel)
        # Every _include_window slices the skeleton's per-start
        # reachability index (shared across all of a query's states —
        # BFQ+/BFQ* and the streaming monitor pass one in).
        self._skeleton = (
            skeleton if skeleton is not None else WindowSkeleton(temporal, source, sink)
        )
        self.temporal = temporal
        self.source = source
        self.sink = sink
        self.tau_s = tau_s
        self.tau_e = tau_e
        #: The state's one residual store (see the module docstring).
        self.network: ResidualArena | FlowNetwork = (
            FlowNetwork() if self.kernel == "object" else ResidualArena()
        )
        self._timeline: dict[NodeId, _Timeline] = {}
        # (stamp, handle) of every capacity edge leaving a live source node:
        # the arcs flow_value() sums.  Retirement drops them by stamp.
        self._source_arcs: list[tuple[Timestamp, object]] = []
        # Order matters: the source boundary node comes first (its event
        # stamps are >= tau_s, so the timeline appends monotonically), the
        # sink boundary node last (its event stamps are <= tau_e).
        self._ensure_timeline_node(source, tau_s)
        self._include_window(tau_s, tau_e)
        self._ensure_timeline_node(sink, tau_e)
        self._sync_endpoints()

    # ------------------------------------------------------------------
    # Public views
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """``|V'|`` — active transformed nodes (every one lies on a timeline)."""
        return sum(len(timeline.stamps) for timeline in self._timeline.values())

    def flow_value(self) -> float:
        """``|f|`` for the current residual state."""
        flow_on = self.network.flow_on
        return sum((flow_on(handle) for _, handle in self._source_arcs), 0.0)

    def run_maxflow(self, *, value_bound: float | None = None) -> MaxflowRun:
        """Resume Dinic on the current residual state (Lemma 3 / Lemma 4).

        ``value_bound`` optionally caps how much this run can possibly add
        (Observation 2: sink capacity inserted since the last computed
        Maxflow).  The persistent kernel uses it to certify maximality
        without its final failed BFS; the object kernel ignores it, staying
        exactly the pre-persistent engine for comparison purposes.
        """
        return self._run_kernel(
            self.source_index, self.sink_index, value_bound=value_bound
        )

    def _run_kernel(
        self, source: int, sink: int, *, value_bound: float | None = None
    ) -> MaxflowRun:
        """Dispatch a resumable maxflow run to the configured kernel."""
        return network_maxflow(
            self.network, source, sink, kernel=self.kernel,
            value_bound=value_bound,
        )

    def clone(self) -> "IncrementalTransformedNetwork":
        """Deep copy of the state (BFQ*'s mid-sweep snapshot).

        The copy is *compacted*: nodes retired by earlier
        :meth:`advance_start` calls are dropped and every stored index and
        edge handle is remapped, so successive BFQ* generations do not
        inherit dead prefixes (this mirrors the paper's operator semantics,
        where the subtracted prefix simply no longer exists in the new
        network).
        """
        other = IncrementalTransformedNetwork.__new__(IncrementalTransformedNetwork)
        other.kernel = self.kernel
        other._skeleton = self._skeleton  # compiled index; safely shared
        other.temporal = self.temporal
        other.source = self.source
        other.sink = self.sink
        other.tau_s = self.tau_s
        other.tau_e = self.tau_e
        network = self.network
        other.network, edge_map = network.compacted_clone()
        # Both stores keep surviving nodes in order, so a live node's new
        # index is its rank among the live nodes.
        rank = list(
            accumulate(not network.is_retired(i) for i in range(network.num_nodes))
        )
        other._timeline = {}
        for node, timeline in self._timeline.items():
            if not timeline.stamps:
                continue
            copy = _Timeline()
            copy.stamps = list(timeline.stamps)
            copy.nodes = [rank[index] - 1 for index in timeline.nodes]
            copy.holds = [
                None if handle is None else edge_map[handle]
                for handle in timeline.holds
            ]
            other._timeline[node] = copy
        other._source_arcs = [
            (tau, edge_map[handle]) for tau, handle in self._source_arcs
        ]
        other._sync_endpoints()
        return other

    # ------------------------------------------------------------------
    # Insertion case (Lemma 3)
    # ------------------------------------------------------------------
    def extend_end(self, new_tau_e: Timestamp) -> None:
        """Grow the window to ``[tau_s, new_tau_e]`` in place.

        Equivalent to ``N_f ⊎ (N_[tau_e, new_tau_e] \\ N_[tau_e, tau_e])``
        followed by re-pointing the sink at ``<t, new_tau_e>``.
        """
        if new_tau_e <= self.tau_e:
            raise InvalidIntervalError(
                f"extend_end must move forward: {new_tau_e} <= {self.tau_e}"
            )
        old_tau_e = self.tau_e
        # New edges live strictly after the old end (an edge exactly at the
        # old end was already included).
        self._include_window(self.tau_e + 1, new_tau_e)
        self.tau_e = new_tau_e
        self._ensure_timeline_node(self.sink, new_tau_e)
        self._re_terminate_sink_flow(old_tau_e)
        self._sync_endpoints()

    def _re_terminate_sink_flow(self, old_tau_e: Timestamp) -> None:
        """Push flow stored at the old sink node forward to the new one.

        Lemma 3's proof re-terminates every previously found augmenting
        path at the new sink by assigning its flow to the freshly inlined
        hold edges of ``t``.  Doing the same keeps the residual state
        canonical, which the deletion case relies on: withdrawal paths
        trace the flow *backwards from the current sink*.
        """
        network = self.network
        timeline = self._timeline[self.sink]
        position = bisect_left(timeline.stamps, old_tau_e)
        old_index = timeline.nodes[position]
        excess = network.in_flow(old_index) - network.out_flow(old_index)
        if excess <= 0:
            return
        for handle in timeline.holds[position + 1 :]:
            network.push_on(handle, excess)

    # ------------------------------------------------------------------
    # Deletion case (Lemma 4/5)
    # ------------------------------------------------------------------
    def advance_start(self, new_tau_s: Timestamp) -> float:
        """Shrink the window to ``[new_tau_s, tau_e]`` in place.

        Returns the total flow value withdrawn from the boundary.

        Raises:
            InvalidIntervalError: unless ``tau_s < new_tau_s < tau_e``.
            GraphError: if the withdrawal Maxflow fails to absorb all
                boundary-crossing flow (would indicate a broken invariant).
        """
        if not self.tau_s < new_tau_s < self.tau_e:
            raise InvalidIntervalError(
                f"advance_start needs tau_s < {new_tau_s} < tau_e "
                f"(have [{self.tau_s}, {self.tau_e}])"
            )
        network = self.network
        self._inject_timestamp(new_tau_s)
        crossings = self._boundary_crossings(new_tau_s)
        total_crossing = sum(flow for _, flow in crossings)

        virtual_index: int | None = None
        if total_crossing > _WITHDRAW_TOLERANCE:
            virtual_index = network.add_node(("__virtual__", self.tau_s, new_tau_s))
            for boundary_index, flow in crossings:
                network.add_edge(boundary_index, virtual_index, flow)

        # Retire the prefix *before* withdrawing so withdrawal paths stay in
        # the surviving suffix (see module docstring).
        self._retire_prefix(new_tau_s)

        withdrawn = 0.0
        if virtual_index is not None:
            run = self._run_kernel(self.sink_index, virtual_index)
            withdrawn = run.value
            if abs(withdrawn - total_crossing) > _WITHDRAW_TOLERANCE * max(
                1.0, total_crossing
            ):
                raise GraphError(
                    f"withdrawal incomplete: absorbed {withdrawn} of "
                    f"{total_crossing} boundary-crossing flow"
                )
            network.retire_node(virtual_index)

        self.tau_s = new_tau_s
        self._ensure_timeline_node(self.source, new_tau_s)
        self._sync_endpoints()
        # Later extensions slice the per-start index of the *new* tau_s, a
        # from-scratch temporal reachability.  Edges it reaches only through
        # dropped sink-out edges have no inflow in the live graph, so they
        # cannot change any Maxflow value.
        return withdrawn

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _sync_endpoints(self) -> None:
        # The source timeline starts at tau_s and the sink timeline ends at
        # tau_e: no included edge leaves the source earlier or enters the
        # sink later.
        self.source_index = self._timeline[self.source].nodes[0]
        self.sink_index = self._timeline[self.sink].nodes[-1]

    def _include_window(self, tau_lo: Timestamp, tau_hi: Timestamp) -> None:
        """Materialise reachable edges with timestamps in [tau_lo, tau_hi]."""
        if tau_hi < tau_lo:
            return
        # Any window's inclusion set is a stamp-range slice of the current
        # start's index (arrival labels only depend on earlier stamps).
        included = self._skeleton.included_between(self.tau_s, tau_lo, tau_hi)
        add_edge = self.network.add_edge
        ensure = self._ensure_timeline_node
        source = self.source
        sink = self.sink
        source_arcs = self._source_arcs
        for u, v, tau, capacity in included:
            if u == sink or v == source:
                continue  # cannot carry s-t flow (see transform.assemble)
            handle = add_edge(ensure(u, tau), ensure(v, tau), capacity)
            if u == source:
                source_arcs.append((tau, handle))

    def _ensure_timeline_node(self, node: NodeId, tau: Timestamp) -> int:
        """Get or create ``<node, tau>``, chaining it into the timeline.

        New stamps are appended at the end (edges arrive in timestamp order
        and the window grows rightward) or — for the source boundary after
        an :meth:`advance_start` — prepended at the front.  Interior stamps
        only ever appear through timestamp injection.
        """
        timeline = self._timeline.get(node)
        if timeline is None:
            timeline = self._timeline[node] = _Timeline()
        stamps = timeline.stamps
        nodes = timeline.nodes
        if stamps:
            last = stamps[-1]
            if last == tau:
                return nodes[-1]
            if last < tau:
                # Append — the common case in _include_window.
                network = self.network
                index = network.add_node((node, tau))
                timeline.holds.append(network.add_edge(nodes[-1], index, math.inf))
                stamps.append(tau)
                nodes.append(index)
                return index
        position = bisect_left(stamps, tau)
        if position < len(stamps):
            if stamps[position] == tau:
                return nodes[position]
            if position:
                raise GraphError(
                    f"timeline of {node!r} only grows at its ends: cannot add "
                    f"{tau} inside [{stamps[0]}, {stamps[-1]}]"
                )
        # First stamp, or a fresh boundary node ahead of the first stamp.
        network = self.network
        index = network.add_node((node, tau))
        if stamps:
            timeline.holds[0] = network.add_edge(index, nodes[0], math.inf)
        stamps.insert(0, tau)
        nodes.insert(0, index)
        timeline.holds.insert(0, None)
        return index

    def _inject_timestamp(self, tau: Timestamp) -> None:
        """``Δ_tau``: split every hold edge spanning ``tau`` (live version).

        The split preserves both capacity (infinite) and currently routed
        flow: each half carries the original flow, realised by zeroing out
        the spanning edge and manually pushing the flow onto the halves.
        """
        network = self.network
        for node, timeline in self._timeline.items():
            position = _span_position(timeline.stamps, tau)
            if position is None:
                continue
            after = position + 1
            nodes = timeline.nodes
            holds = timeline.holds
            spanning = holds[after]
            routed = network.flow_on(spanning)
            # Disable the spanning edge entirely (capacity and flow to 0).
            network.disable_edge(spanning)
            middle = network.add_node((node, tau))
            first = network.add_edge(nodes[position], middle, math.inf)
            second = network.add_edge(middle, nodes[after], math.inf)
            if routed > 0:
                network.push_on(first, routed)
                network.push_on(second, routed)
            holds[after] = second
            timeline.stamps.insert(after, tau)
            nodes.insert(after, middle)
            holds.insert(after, first)

    def _boundary_crossings(self, tau: Timestamp) -> list[tuple[int, float]]:
        """Positive flow entering ``<u, tau>`` along u's hold chain, u != s.

        After injection, all flow crossing the new start boundary does so on
        a hold edge whose head is exactly ``<u, tau>``.
        """
        network = self.network
        crossings: list[tuple[int, float]] = []
        for node, timeline in self._timeline.items():
            if node == self.source:
                continue
            stamps = timeline.stamps
            position = bisect_left(stamps, tau)
            if not position or position == len(stamps) or stamps[position] != tau:
                continue
            routed = network.flow_on(timeline.holds[position])
            if routed > _WITHDRAW_TOLERANCE:
                crossings.append((timeline.nodes[position], routed))
        return crossings

    def _retire_prefix(self, new_tau_s: Timestamp) -> None:
        """Retire all ``<u, tau>`` nodes with ``tau < new_tau_s``."""
        network = self.network
        for timeline in self._timeline.values():
            cut = bisect_left(timeline.stamps, new_tau_s)
            if not cut:
                continue
            for index in timeline.nodes[:cut]:
                network.retire_node(index)
            del timeline.stamps[:cut]
            del timeline.nodes[:cut]
            del timeline.holds[:cut]
            if timeline.holds:
                # The hold edge into the first surviving stamp now dangles.
                timeline.holds[0] = None
        self._source_arcs = [
            (tau, handle) for tau, handle in self._source_arcs if tau >= new_tau_s
        ]


def _span_position(timeline: list[Timestamp], tau: Timestamp) -> int | None:
    """Index i with timeline[i] < tau < timeline[i+1], or None."""
    position = bisect_left(timeline, tau)
    if position < len(timeline) and timeline[position] == tau:
        return None  # node already has this stamp
    if position == 0 or position >= len(timeline):
        return None  # tau is outside the timeline span
    return position - 1
