"""White-box tests for the incremental network's internal operations."""

import pytest

from repro.core.incremental import (
    IncrementalTransformedNetwork,
    _span_position,
)
from repro.flownet.algorithms.registry import ENGINE_KERNELS
from repro.temporal import TemporalFlowNetwork


@pytest.fixture
def network() -> TemporalFlowNetwork:
    return TemporalFlowNetwork.from_tuples(
        [
            ("s", "a", 1, 4.0),
            ("a", "t", 6, 4.0),
            ("s", "t", 8, 1.0),
        ]
    )


class TestSpanPosition:
    def test_interior_span(self):
        assert _span_position([1, 6], 3) == 0
        assert _span_position([1, 4, 9], 7) == 1

    def test_existing_stamp_returns_none(self):
        assert _span_position([1, 3, 6], 3) is None

    def test_outside_timeline_returns_none(self):
        assert _span_position([3, 6], 1) is None
        assert _span_position([3, 6], 9) is None
        assert _span_position([3], 5) is None


def states(network, tau_s, tau_e):
    """One state per engine kernel, i.e. one per residual store."""
    return [
        IncrementalTransformedNetwork(network, "s", "t", tau_s, tau_e, kernel=kernel)
        for kernel in ENGINE_KERNELS
    ]


def label_of(state, index):
    """The ``(node, tau)`` of a store index, read off the state's timelines."""
    for node, timeline in state._timeline.items():
        if index in timeline.nodes:
            return node, timeline.stamps[timeline.nodes.index(index)]
    raise KeyError(index)


class TestTimestampInjection:
    def test_split_preserves_capacity_and_flow(self, network):
        for state in states(network, 1, 8):
            state.run_maxflow()
            # 'a' holds 4 units across [1, 6]; inject tau=3 mid-hold.
            spanning = state._timeline["a"].holds[1]
            state._inject_timestamp(3)
            store = state.network
            chain = state._timeline["a"]
            assert chain.stamps == [1, 3, 6]
            first, second = chain.holds[1], chain.holds[2]
            assert store.flow_on(first) == pytest.approx(4.0)
            assert store.flow_on(second) == pytest.approx(4.0)
            middle = chain.nodes[1]
            assert store.in_flow(middle) == pytest.approx(4.0)
            assert store.out_flow(middle) == pytest.approx(4.0)
            # The old spanning edge is disabled entirely: no flow, and it
            # no longer links <a, 1> to <a, 6>.
            assert store.flow_on(spanning) == 0.0
            assert store.successors(chain.nodes[0]) == [middle]

    def test_injection_is_flow_neutral(self, network):
        for state in states(network, 1, 8):
            state.run_maxflow()
            before = state.flow_value()
            state._inject_timestamp(3)
            assert state.flow_value() == pytest.approx(before)
            # Resuming Dinic finds nothing new after a pure injection.
            assert state.run_maxflow().value == pytest.approx(0.0)

    def test_injection_at_existing_stamp_is_noop(self, network):
        for state in states(network, 1, 8):
            nodes_before = state.network.num_nodes
            state._inject_timestamp(6)  # 'a' and 't' already have tau=6 nodes
            # Only nodes lacking the stamp get one ('s' spans 1..8).
            assert state.network.num_nodes == nodes_before + 1
            assert 6 in state._timeline["s"].stamps
            assert state._timeline["a"].stamps == [1, 6]


class TestBoundaryCrossings:
    def test_crossings_report_held_flow(self, network):
        for state in states(network, 1, 8):
            state.run_maxflow()
            state._inject_timestamp(3)
            crossings = state._boundary_crossings(3)
            labels = {label_of(state, index): flow for index, flow in crossings}
            assert labels == {("a", 3): pytest.approx(4.0)}

    def test_source_chain_excluded(self, network):
        for state in states(network, 1, 8):
            state.run_maxflow()
            state._inject_timestamp(7)
            for index, _ in state._boundary_crossings(7):
                node, _tau = label_of(state, index)
                assert node != "s"


class TestRetirement:
    def test_prefix_nodes_retire_and_leave_the_timelines(self, network):
        for state in states(network, 1, 8):
            state.run_maxflow()
            prefix = [state._timeline["s"].nodes[0], state._timeline["a"].nodes[0]]
            state.advance_start(3)
            assert all(state.network.is_retired(index) for index in prefix)
            chain = state._timeline["a"]
            assert chain.stamps == [3, 6]
            # The hold edge from the retired <a, 1> dangles and is dropped.
            assert chain.holds[0] is None and chain.holds[1] is not None
            assert state.num_nodes == 6  # s: 3, 8; a: 3, 6; t: 6, 8


class TestFlowValueAccounting:
    def test_value_counts_only_active_source_emission(self, network):
        for state in states(network, 1, 8):
            state.run_maxflow()
            assert state.flow_value() == pytest.approx(5.0)
            state.advance_start(7)
            state.run_maxflow()
            # Only the tau=8 direct edge remains usable.
            assert state.flow_value() == pytest.approx(1.0)

    def test_stats_modes_partition_candidates(self, network):
        from repro import BurstingFlowQuery, bfq_star

        result = bfq_star(network, BurstingFlowQuery("s", "t", 2))
        modes = {sample.mode for sample in result.stats.samples}
        assert modes <= {"dinic", "maxflow+", "maxflow-", "pruned"}
        assert len(result.stats.samples) == result.stats.candidates_enumerated
