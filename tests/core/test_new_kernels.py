"""Property and agreement tests for the specialised maxflow kernels.

``kernel="push_relabel"`` (flat FIFO preflow) and ``kernel="adaptive"``
(per-window selection) both run on the *same* persistent residual arena
as ``kernel="persistent"``,
and must be interchangeable mid-stream: any kernel may pick up the arena
another kernel left behind.  Hypothesis drives random ``extend_end`` /
``advance_start`` / ``run_maxflow`` interleavings against an
object-graph twin and asserts, after every step:

* value parity — all kernels report the same maximum flow;
* mirror parity — the arena still byte-mirrors the object graph
  (``ResidualArena.mirrors``), i.e. the preflow kernel wrote its
  residual updates back exactly like the Dinic kernel does;
* the executed kernel is stamped on the run (``MaxflowRun.kernel``), and
  under ``adaptive`` it is always one of the real arena kernels.

The agreement matrix then checks the full BFQ* pipeline end-to-end: every
registry kernel must produce the identical ``(density, interval,
flow_value)`` on the same queries.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bfq_star import bfq_star
from repro.core.incremental import IncrementalTransformedNetwork
from repro.core.query import BurstingFlowQuery
from repro.flownet.algorithms.registry import ARENA_KERNELS, ENGINE_KERNELS
from repro.flownet.algorithms.selector import DENSE_DEGREE, KernelSelector
from tests.core.test_persistent_kernel import temporal_networks

TOLERANCE = 1e-7

#: The kernels under test here (everything that runs on the flat arena).
NEW_KERNELS = ("push_relabel", "adaptive")


def _twins(network, kernel, tau_s, tau_e):
    specialised = IncrementalTransformedNetwork(
        network, "n0", "n1", tau_s, tau_e, kernel=kernel
    )
    reference = IncrementalTransformedNetwork(
        network, "n0", "n1", tau_s, tau_e, kernel="object"
    )
    return specialised, reference


def _check_step(specialised, reference):
    assert specialised.flow_value() == pytest.approx(
        reference.flow_value(), abs=TOLERANCE
    )
    arena = specialised.network.arena
    if arena is not None:  # attached lazily on the first kernel run
        assert arena.mirrors(specialised.network)


@settings(max_examples=40, deadline=None)
@given(temporal_networks(), st.sampled_from(NEW_KERNELS), st.data())
def test_operation_sequences_keep_twins_equivalent(network, kernel, data):
    """Random interleavings per kernel: value + mirror invariants."""
    t_min, t_max = network.t_min, network.t_max
    if t_max - t_min < 2:
        return
    tau_s = t_min
    tau_e = data.draw(
        st.integers(min_value=tau_s + 1, max_value=min(tau_s + 4, t_max)),
        label="initial tau_e",
    )
    specialised, reference = _twins(network, kernel, tau_s, tau_e)
    specialised.run_maxflow()
    reference.run_maxflow()
    _check_step(specialised, reference)

    for _ in range(data.draw(st.integers(min_value=1, max_value=4), label="steps")):
        options = ["run"]
        if specialised.tau_e < t_max:
            options.append("extend")
        if specialised.tau_e - specialised.tau_s > 1:
            options.append("advance")
        op = data.draw(st.sampled_from(options), label="op")
        if op == "extend":
            new_tau_e = data.draw(
                st.integers(min_value=specialised.tau_e + 1, max_value=t_max),
                label="new tau_e",
            )
            specialised.extend_end(new_tau_e)
            reference.extend_end(new_tau_e)
        elif op == "advance":
            new_tau_s = data.draw(
                st.integers(
                    min_value=specialised.tau_s + 1,
                    max_value=specialised.tau_e - 1,
                ),
                label="new tau_s",
            )
            specialised.advance_start(new_tau_s)
            reference.advance_start(new_tau_s)
        specialised.run_maxflow()
        reference.run_maxflow()
        _check_step(specialised, reference)


@settings(max_examples=25, deadline=None)
@given(temporal_networks(), st.data())
def test_kernels_interchange_on_one_arena(network, data):
    """Any kernel may resume the arena another kernel left behind."""
    t_min, t_max = network.t_min, network.t_max
    if t_max - t_min < 2:
        return
    mixed, reference = _twins(network, "persistent", t_min, t_min + 1)
    for _ in range(data.draw(st.integers(min_value=2, max_value=5), label="steps")):
        if mixed.tau_e < t_max and data.draw(st.booleans(), label="extend?"):
            new_tau_e = data.draw(
                st.integers(min_value=mixed.tau_e + 1, max_value=t_max),
                label="new tau_e",
            )
            mixed.extend_end(new_tau_e)
            reference.extend_end(new_tau_e)
        # Hop between kernels on the same persistent arena.
        mixed.kernel = data.draw(
            st.sampled_from(sorted(ARENA_KERNELS) + ["adaptive"]),
            label="kernel",
        )
        mixed.run_maxflow()
        reference.run_maxflow()
        _check_step(mixed, reference)


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
        for kernel in ("persistent", "push_relabel"):
            result = bfq_star(
                burst_network, BurstingFlowQuery("s", "t", 3), kernel=kernel
            )
            tally = result.stats.kernel_runs
            assert tally, kernel
            assert set(tally) == {kernel}
            assert result.stats.kernel_seconds.keys() == tally.keys()

    def test_adaptive_only_executes_arena_kernels(self, burst_network):
        result = bfq_star(
            burst_network, BurstingFlowQuery("s", "t", 5), kernel="adaptive"
        )
        assert result.stats.kernel_runs
        assert set(result.stats.kernel_runs) <= ARENA_KERNELS


class TestSelector:
    def test_small_arenas_stay_scalar(self):
        selector = KernelSelector()
        assert selector.choose(arcs=100, nodes=20) == "persistent"

    def test_learning_converges_to_cheapest(self):
        selector = KernelSelector()
        # A dense arena, so push_relabel competes with persistent.
        nodes = 1_000
        arcs = int(nodes * DENSE_DEGREE) * 8
        assert selector.eligible(nodes, arcs) == ["persistent", "push_relabel"]
        # Feed consistent timings: push_relabel is 4x cheaper at this size.
        for _ in range(6):
            for kernel in ARENA_KERNELS:
                seconds = 0.01 if kernel == "push_relabel" else 0.04
                selector.record(kernel, arcs=arcs, seconds=seconds)
        choices = {selector.choose(arcs=arcs, nodes=nodes) for _ in range(8)}
        assert choices == {"push_relabel"}

    def test_snapshot_counts_choices(self):
        selector = KernelSelector()
        selector.choose(arcs=100, nodes=20)
        assert selector.snapshot() == {"persistent": 1}
