"""Flow extraction, validation, and the flat residual arena.

The solvers leave the flow implicitly encoded in the residual state.  These
helpers decode it back into explicit per-edge assignments, verify the flow
axioms, and decompose a flow into paths — all of which the test-suite uses
to check Lemma 1 style equivalences.

This module also hosts :class:`ResidualArena`, the flat-array residual
network the persistent Dinic kernel
(:func:`~repro.flownet.algorithms.dinic_flat_persistent.arena_maxflow`)
runs on.  An arena is a residual store in its own right, not a view of a
:class:`~repro.flownet.network.FlowNetwork`: the transform compiler
(:meth:`repro.core.skeleton.WindowSkeleton.materialize`) builds one per
BFQ window, and the incremental engine
(:class:`repro.core.incremental.IncrementalTransformedNetwork`) owns one
per BFQ+/BFQ* state and grows it through the mutators below
(:meth:`~ResidualArena.add_node`, :meth:`~ResidualArena.add_edge`,
:meth:`~ResidualArena.push_on`, ...).  Those mutators are also where the
kernel's min-cut certificate is watched: any change that could open a
residual path into the certified sink side clears it.
"""

from __future__ import annotations

import math
from collections import defaultdict

from repro.exceptions import FlowValidationError
from repro.flownet.network import FLOW_EPSILON, EdgeKind, FlowNetwork

#: Tolerance for conservation checks (scaled by magnitude internally).
_TOLERANCE = 1e-6

#: Level-array sentinels shared with the persistent kernel.  Retirement is
#: folded into the level labels so the kernel's hot loops need no separate
#: ``retired[]`` lookups: a retired node can never look "unvisited".
ARENA_UNREACHED = -1
ARENA_RETIRED = -2


class ResidualArena:
    """A residual network held in flat parallel arrays.

    Layout: every edge occupies two adjacent *slots* of the parallel arrays
    ``heads`` / ``caps`` / ``rev`` — its forward arc at an even slot ``k``
    and its reverse arc at ``k + 1`` (``rev[k]`` is the partner's slot, so
    ``rev[k] == k ^ 1``).  ``caps`` holds residual capacities: the flow on
    an edge is the cap of its reverse slot.  ``slots[i]`` lists node *i*'s
    arc slots in insertion order.  A list-of-lists costs more to build than
    a CSR offset array, but the hot loops iterate each row thousands of
    times per build, and CPython iterates a materialised int list with no
    per-step allocation — measurably faster than ``range``-based CSR
    scans, which allocate an int per arc visited.  An edge's handle is its
    forward slot.

    ``level`` and ``iters`` are the kernel's scratch state, kept here so a
    resumed run allocates nothing: ``level`` doubles as the retirement mask
    (:data:`ARENA_RETIRED`), and ``stale_labels`` remembers which entries
    the previous BFS dirtied so clearing costs O(labelled), not O(n).

    **Min-cut certificate.**  Every completed kernel run ends with a
    *backward* BFS from the sink that fails to reach the source, leaving
    T = ``{i : level[i] >= 0}`` as the residual can-reach-sink side: no
    positive residual arc enters T from outside.  The certificate
    (:attr:`cut_closed` / :attr:`cut_sink`) stays valid until a mutation
    *pierces* the cut — a new positive-capacity edge from outside T into
    it (:meth:`add_edge`), or a push that opens such a residual arc
    (:meth:`push_on`).  Nodes appended later are outside T by
    construction, and retiring a T-member only shrinks T; a retired node
    cannot lie on an augmenting path, so arcs into it need no monitoring.
    While the certificate holds, a kernel re-run towards ``cut_sink`` from
    any source outside T is a no-op and returns without touching the
    arrays — this is what makes resumed runs on unpierced states O(1)
    instead of O(|V| + |E|).
    """

    __slots__ = (
        "heads",
        "caps",
        "rev",
        "slots",
        "level",
        "iters",
        "stale_labels",
        "cut_closed",
        "cut_sink",
    )

    def __init__(
        self,
        heads: list[int] | None = None,
        caps: list[float] | None = None,
        rev: list[int] | None = None,
        slots: list[list[int]] | None = None,
    ) -> None:
        """An arena over caller-built arrays, or an empty one to grow.

        The transform compiler assembles a window straight into ``heads`` /
        ``caps`` / ``rev`` / ``slots`` and hands them over; the incremental
        engine starts empty and appends.
        """
        self.heads: list[int] = [] if heads is None else heads
        self.caps: list[float] = [] if caps is None else caps
        self.rev: list[int] = [] if rev is None else rev
        self.slots: list[list[int]] = [] if slots is None else slots
        n = len(self.slots)
        self.level = [ARENA_UNREACHED] * n
        self.iters = [0] * n
        self.stale_labels: list[int] = []
        self.cut_closed = False
        self.cut_sink = -1

    # ------------------------------------------------------------------
    # Growth and retirement
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Total nodes ever added (including retired ones)."""
        return len(self.slots)

    def add_node(self, label: object = None) -> int:
        """Append a node; returns its index.

        ``label`` is accepted for call compatibility with
        :meth:`FlowNetwork.add_node` and not stored: arena nodes are bare
        indices.  A new node is outside the certified sink side.
        """
        index = len(self.slots)
        self.slots.append([])
        self.level.append(ARENA_UNREACHED)
        self.iters.append(0)
        return index

    def add_edge(self, tail: int, head: int, capacity: float) -> int:
        """Append an edge pair; returns its forward slot (the edge handle)."""
        heads = self.heads
        k = len(heads)
        heads += (head, tail)
        caps = self.caps
        caps += (capacity, 0.0)
        rev = self.rev
        rev += (k + 1, k)
        self.slots[tail].append(k)
        self.slots[head].append(k + 1)
        if self.cut_closed and capacity > 0:
            # A positive arc from outside T into T pierces the cut.
            level = self.level
            if level[head] >= 0 and level[tail] < 0:
                self.cut_closed = False
        return k

    def retire_node(self, index: int) -> None:
        """Mark a node deleted: it carries the retired level for good."""
        self.level[index] = ARENA_RETIRED

    def is_retired(self, index: int) -> bool:
        """Whether a node index has been retired."""
        return self.level[index] == ARENA_RETIRED

    # ------------------------------------------------------------------
    # Flow on edges
    # ------------------------------------------------------------------
    def flow_on(self, slot: int) -> float:
        """Flow routed through the edge with forward slot ``slot``."""
        return self.caps[slot + 1]

    def push_on(self, slot: int, amount: float) -> None:
        """Push ``amount`` along an edge (negative withdraws); no bounds check."""
        caps = self.caps
        caps[slot] -= amount  # inf - finite stays inf
        caps[slot + 1] += amount
        if self.cut_closed:
            # The push opens residual capacity head -> tail (amount > 0) or
            # tail -> head (amount < 0); it pierces the cut if that arc
            # enters T from outside.
            level = self.level
            tail_in = level[self.heads[slot + 1]] >= 0
            head_in = level[self.heads[slot]] >= 0
            if amount > 0:
                pierced = tail_in and not head_in
            else:
                pierced = head_in and not tail_in
            if pierced:
                self.cut_closed = False

    def disable_edge(self, slot: int) -> None:
        """Zero both residual directions of an edge (capacity *and* flow)."""
        self.caps[slot] = 0.0
        self.caps[slot + 1] = 0.0

    def in_flow(self, index: int) -> float:
        """Total flow entering node ``index`` on its edges."""
        caps = self.caps
        return sum((caps[k] for k in self.slots[index] if k & 1), 0.0)

    def out_flow(self, index: int) -> float:
        """Total flow leaving node ``index`` on its edges."""
        caps = self.caps
        return sum((caps[k + 1] for k in self.slots[index] if not k & 1), 0.0)

    def successors(self, index: int) -> list[int]:
        """Heads of the node's edges that still carry capacity or flow."""
        caps = self.caps
        heads = self.heads
        return [
            heads[k]
            for k in self.slots[index]
            if not k & 1 and (caps[k] > 0 or caps[k + 1] > 0)
        ]

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def compacted_clone(self) -> tuple["ResidualArena", list[int]]:
        """Copy of the residual state without retired nodes and their edges.

        Surviving nodes keep their relative order.  Returns the new arena
        and a slot map: ``slot_map[k]`` is the new slot of old slot ``k``,
        or ``-1`` when the edge had a retired endpoint.  The copy carries
        no kernel scratch state and no certificate.
        """
        level = self.level
        node_map = [-1] * len(level)
        survivors = 0
        for index, label in enumerate(level):
            if label != ARENA_RETIRED:
                node_map[index] = survivors
                survivors += 1
        heads = self.heads
        caps = self.caps
        slot_map = [-1] * len(heads)
        new_heads: list[int] = []
        new_caps: list[float] = []
        for k in range(0, len(heads), 2):
            head = node_map[heads[k]]
            tail = node_map[heads[k + 1]]
            if head < 0 or tail < 0:
                continue
            slot_map[k] = len(new_heads)
            slot_map[k + 1] = len(new_heads) + 1
            new_heads += (head, tail)
            new_caps += (caps[k], caps[k + 1])
        new_slots = [
            [slot_map[k] for k in row if slot_map[k] >= 0]
            for index, row in enumerate(self.slots)
            if node_map[index] >= 0
        ]
        new_rev = [k ^ 1 for k in range(len(new_heads))]
        return ResidualArena(new_heads, new_caps, new_rev, new_slots), slot_map


def extract_flow(
    network: FlowNetwork, *, kinds: tuple[EdgeKind, ...] | None = None
) -> dict[tuple[int, int], float]:
    """Read the routed flow off every (active) forward edge.

    Returns a dict mapping (tail index, head index) to total flow; parallel
    edges are merged.  Retired endpoints are skipped.
    """
    flows: dict[tuple[int, int], float] = defaultdict(float)
    for tail, arc in network.iter_edges():
        if network.is_retired(tail) or network.is_retired(arc.head):
            continue
        if kinds is not None and arc.kind not in kinds:
            continue
        routed = network._adj[arc.head][arc.rev].cap  # noqa: SLF001
        if routed > FLOW_EPSILON:
            flows[(tail, arc.head)] += routed
    return dict(flows)


def flow_value_at(network: FlowNetwork, source: int) -> float:
    """Net flow leaving ``source`` (out minus in on forward edges)."""
    return network.out_flow(source) - network.in_flow(source)


def validate_classical_flow(
    network: FlowNetwork, source: int, sink: int
) -> float:
    """Verify capacity + conservation; returns the flow value.

    Raises:
        FlowValidationError: on any violated axiom.
    """
    balance: dict[int, float] = defaultdict(float)
    for tail, arc in network.iter_edges():
        if network.is_retired(tail) or network.is_retired(arc.head):
            continue
        routed = network._adj[arc.head][arc.rev].cap  # noqa: SLF001
        if routed < -FLOW_EPSILON:
            raise FlowValidationError(
                f"negative flow {routed} on edge "
                f"{network.label_of(tail)!r} -> {network.label_of(arc.head)!r}"
            )
        if math.isfinite(arc.cap) and arc.cap < -FLOW_EPSILON:
            raise FlowValidationError(
                f"negative residual {arc.cap} on edge "
                f"{network.label_of(tail)!r} -> {network.label_of(arc.head)!r}"
            )
        balance[tail] -= routed
        balance[arc.head] += routed
    for node, net in balance.items():
        if node in (source, sink):
            continue
        if abs(net) > _TOLERANCE * max(1.0, abs(net)) + _TOLERANCE:
            raise FlowValidationError(
                f"conservation violated at {network.label_of(node)!r}: {net}"
            )
    out_value = -balance.get(source, 0.0)
    in_value = balance.get(sink, 0.0)
    if abs(out_value - in_value) > _TOLERANCE * max(1.0, out_value, in_value):
        raise FlowValidationError(
            f"source emits {out_value} but sink absorbs {in_value}"
        )
    return out_value


def decompose_into_paths(
    network: FlowNetwork, source: int, sink: int
) -> list[tuple[list[int], float]]:
    """Decompose the routed flow into (path, amount) pairs.

    Standard flow decomposition by repeatedly tracing a positive-flow path
    from source to sink and subtracting its bottleneck.  Cycles (possible in
    principle after withdrawals) are cancelled silently.  The input network
    is not modified; decomposition works on a copy of the flow.
    """
    flows = defaultdict(float)
    adjacency: dict[int, list[int]] = defaultdict(list)
    for (tail, head), amount in extract_flow(network).items():
        flows[(tail, head)] = amount
        adjacency[tail].append(head)

    paths: list[tuple[list[int], float]] = []
    guard = 0
    while True:
        guard += 1
        if guard > 10_000_000:  # pragma: no cover - safety valve
            raise FlowValidationError("flow decomposition did not terminate")
        path = _trace_path(flows, adjacency, source, sink)
        if path is None:
            break
        bottleneck = min(
            flows[(path[i], path[i + 1])] for i in range(len(path) - 1)
        )
        for i in range(len(path) - 1):
            key = (path[i], path[i + 1])
            flows[key] -= bottleneck
            if flows[key] <= FLOW_EPSILON:
                flows[key] = 0.0
        if path[0] == source and path[-1] == sink:
            paths.append((path, bottleneck))
        # else: a cycle got cancelled; nothing to record.
    return paths


def _trace_path(
    flows: dict[tuple[int, int], float],
    adjacency: dict[int, list[int]],
    source: int,
    sink: int,
) -> list[int] | None:
    """Follow positive-flow edges from source; detect cycles on the way."""
    path = [source]
    position: dict[int, int] = {source: 0}
    node = source
    while node != sink:
        next_node = None
        for head in adjacency.get(node, []):
            if flows.get((node, head), 0.0) > FLOW_EPSILON:
                next_node = head
                break
        if next_node is None:
            return None
        if next_node in position:
            # Found a cycle: return just the cycle for cancellation.
            start = position[next_node]
            return path[start:] + [next_node]
        path.append(next_node)
        position[next_node] = len(path) - 1
        node = next_node
    return path
