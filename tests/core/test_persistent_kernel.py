"""Property tests for the persistent residual arena inside the engine.

The incremental engine's ``kernel="persistent"`` path keeps its state in a
flat residual arena across ``extend_end`` / ``advance_start`` /
``run_maxflow`` calls; ``kernel="object"`` keeps it in a ``FlowNetwork``.
Hypothesis drives random operation sequences against both twins and
asserts, after every step, that each twin's flow value equals a
from-scratch Dinic on the same window's transformed network (the
*assignments* may differ — all are maximum flows).

The agreement matrix then checks the full BFQ* pipeline end to end: every
registry kernel must produce the identical ``(density, interval,
flow_value)`` on the same queries.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bfq_plus import bfq_plus
from repro.core.bfq_star import bfq_star
from repro.core.incremental import IncrementalTransformedNetwork
from repro.core.query import BurstingFlowQuery
from repro.core.transform import build_transformed_network
from repro.exceptions import SolverError
from repro.flownet.algorithms.dinic import dinic
from repro.flownet.algorithms.registry import ENGINE_KERNELS
from repro.temporal import TemporalEdge, TemporalFlowNetwork

TOLERANCE = 1e-7


@st.composite
def temporal_networks(draw) -> TemporalFlowNetwork:
    num_nodes = draw(st.integers(min_value=3, max_value=7))
    horizon = draw(st.integers(min_value=4, max_value=12))
    num_edges = draw(st.integers(min_value=4, max_value=20))
    network = TemporalFlowNetwork()
    for _ in range(num_edges):
        u = draw(st.integers(min_value=0, max_value=num_nodes - 1))
        v = draw(st.integers(min_value=0, max_value=num_nodes - 1))
        if u == v:
            continue
        tau = draw(st.integers(min_value=1, max_value=horizon))
        capacity = float(draw(st.integers(min_value=1, max_value=9)))
        network.add_edge(TemporalEdge(f"n{u}", f"n{v}", tau, capacity))
    network.add_node("n0")
    network.add_node("n1")
    if not network.num_edges:
        network.add_edge(TemporalEdge("n0", "n1", 1, 1.0))
    return network


def _twins(network, tau_s, tau_e):
    persistent = IncrementalTransformedNetwork(
        network, "n0", "n1", tau_s, tau_e, kernel="persistent"
    )
    reference = IncrementalTransformedNetwork(
        network, "n0", "n1", tau_s, tau_e, kernel="object"
    )
    return persistent, reference


def _check_step(network, *twins):
    """Every twin holds the Maxflow of its window, computed from scratch."""
    for twin in twins:
        transformed = build_transformed_network(
            network, "n0", "n1", twin.tau_s, twin.tau_e
        )
        expected = dinic(
            transformed.flow_network,
            transformed.source_index,
            transformed.sink_index,
        ).value
        assert twin.flow_value() == pytest.approx(expected, abs=TOLERANCE), (
            twin.kernel,
            twin.tau_s,
            twin.tau_e,
        )


@settings(max_examples=60, deadline=None)
@given(
    temporal_networks(),
    st.data(),
)
def test_operation_sequences_keep_twins_equivalent(network, data):
    """Random extend/advance/run interleavings keep both stores maximal."""
    t_min, t_max = network.t_min, network.t_max
    if t_max - t_min < 2:
        return
    tau_s = t_min
    tau_e = data.draw(
        st.integers(min_value=tau_s + 1, max_value=min(tau_s + 4, t_max)),
        label="initial tau_e",
    )
    persistent, reference = _twins(network, tau_s, tau_e)
    persistent.run_maxflow()
    reference.run_maxflow()
    _check_step(network, persistent, reference)

    for _ in range(data.draw(st.integers(min_value=1, max_value=4), label="steps")):
        can_extend = persistent.tau_e < t_max
        can_advance = persistent.tau_e - persistent.tau_s > 1
        options = ["run"]
        if can_extend:
            options.append("extend")
        if can_advance:
            options.append("advance")
        op = data.draw(st.sampled_from(options), label="op")
        if op == "extend":
            new_tau_e = data.draw(
                st.integers(min_value=persistent.tau_e + 1, max_value=t_max),
                label="new tau_e",
            )
            persistent.extend_end(new_tau_e)
            reference.extend_end(new_tau_e)
        elif op == "advance":
            new_tau_s = data.draw(
                st.integers(
                    min_value=persistent.tau_s + 1,
                    max_value=persistent.tau_e - 1,
                ),
                label="new tau_s",
            )
            persistent.advance_start(new_tau_s)
            reference.advance_start(new_tau_s)
        persistent.run_maxflow()
        reference.run_maxflow()
        _check_step(network, persistent, reference)


@settings(max_examples=40, deadline=None)
@given(temporal_networks())
def test_value_bound_run_matches_unbounded_twin(network):
    """Bounded runs (Observation 2) must not under-report the Maxflow."""
    t_min, t_max = network.t_min, network.t_max
    if t_max - t_min < 2:
        return
    persistent, reference = _twins(network, t_min, t_min + 1)
    persistent.run_maxflow()
    reference.run_maxflow()
    for new_tau_e in range(t_min + 2, t_max + 1):
        pending = network.sink_capacity_in_window(
            "n1", persistent.tau_e + 1, new_tau_e
        )
        persistent.extend_end(new_tau_e)
        reference.extend_end(new_tau_e)
        persistent.run_maxflow(value_bound=pending)
        reference.run_maxflow()
        _check_step(network, persistent, reference)


def test_unknown_kernel_rejected(burst_network):
    # The retired arena kernels are unknown names too.
    for kernel in ("quantum", "adaptive", "push_relabel"):
        with pytest.raises(SolverError, match="persistent, object"):
            IncrementalTransformedNetwork(
                burst_network, "s", "t", 0, 2, kernel=kernel
            )


def test_clone_preserves_kernel(burst_network):
    state = IncrementalTransformedNetwork(
        burst_network, "s", "t", 0, 2, kernel="object"
    )
    assert state.clone().kernel == "object"


class TestAgreementMatrix:
    """Every registry kernel answers BFQ* identically, end to end."""

    DELTAS = (2, 3, 5, 10)

    def test_all_kernels_agree_on_burst_network(self, burst_network):
        baseline = {
            delta: bfq_star(
                burst_network,
                BurstingFlowQuery("s", "t", delta),
                kernel="persistent",
            )
            for delta in self.DELTAS
        }
        for kernel in ENGINE_KERNELS:
            for delta in self.DELTAS:
                result = bfq_star(
                    burst_network,
                    BurstingFlowQuery("s", "t", delta),
                    kernel=kernel,
                )
                expected = baseline[delta]
                assert result.density == pytest.approx(
                    expected.density, abs=TOLERANCE
                ), (kernel, delta)
                assert result.interval == expected.interval, (kernel, delta)
                assert result.flow_value == pytest.approx(
                    expected.flow_value, abs=TOLERANCE
                ), (kernel, delta)

    def test_kernel_runs_are_stamped_and_tallied(self, burst_network):
        for kernel in ("persistent", "object"):
            result = bfq_star(
                burst_network, BurstingFlowQuery("s", "t", 3), kernel=kernel
            )
            tally = result.stats.kernel_runs
            assert tally, kernel
            assert set(tally) == {kernel}
            assert result.stats.kernel_seconds.keys() == tally.keys()


@pytest.mark.parametrize("kernel", ["adaptive", "push_relabel"])
def test_bfq_entry_points_reject_unknown_kernel_up_front(kernel):
    # One edge, so no incremental state is ever built to validate it.
    network = TemporalFlowNetwork.from_tuples([("s", "t", 1, 1.0)])
    for solve in (bfq_plus, bfq_star):
        with pytest.raises(SolverError, match="persistent, object"):
            solve(network, BurstingFlowQuery("s", "t", 1), kernel=kernel)
