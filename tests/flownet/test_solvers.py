"""Per-solver unit tests on hand-checked networks.

Every solver is exercised on the same fixtures:

* the paper's Figure 2 network (Maxflow 7);
* degenerate cases (no path, source == sink);
* a bipartite bottleneck;
* infinite-capacity hold edges (the transformed-network pattern).
"""

import math

import pytest

from repro.exceptions import SolverError
from repro.flownet import (
    EdgeKind,
    FlowNetwork,
    dinic,
    dinic_flat_persistent,
    edmonds_karp,
    ford_fulkerson,
    get_solver,
    lp_maxflow,
    push_relabel,
    solve_max_flow,
)

ALL_SOLVERS = [
    dinic,
    dinic_flat_persistent,
    edmonds_karp,
    ford_fulkerson,
    push_relabel,
    lp_maxflow,
]
MUTATING_SOLVERS = [dinic, dinic_flat_persistent, edmonds_karp, ford_fulkerson]


def st(net: FlowNetwork) -> tuple[int, int]:
    return net.index_of("s"), net.index_of("t")


@pytest.mark.parametrize("solver", ALL_SOLVERS, ids=lambda f: f.__name__)
class TestAllSolvers:
    def test_figure2_value(self, solver, figure2_network):
        s, t = st(figure2_network)
        assert solver(figure2_network.clone(), s, t).value == pytest.approx(7.0)

    def test_no_path(self, solver):
        net = FlowNetwork()
        net.add_edge_labeled("s", "a", 5.0)
        net.add_edge_labeled("b", "t", 5.0)
        s, t = st(net)
        assert solver(net, s, t).value == 0.0

    def test_source_equals_sink(self, solver):
        net = FlowNetwork()
        net.add_edge_labeled("s", "t", 5.0)
        s = net.index_of("s")
        assert solver(net, s, s).value == 0.0

    def test_single_edge(self, solver):
        net = FlowNetwork()
        net.add_edge_labeled("s", "t", 5.0)
        s, t = st(net)
        assert solver(net, s, t).value == pytest.approx(5.0)

    def test_bottleneck_diamond(self, solver):
        net = FlowNetwork()
        net.add_edge_labeled("s", "a", 10.0)
        net.add_edge_labeled("s", "b", 10.0)
        net.add_edge_labeled("a", "m", 10.0)
        net.add_edge_labeled("b", "m", 10.0)
        net.add_edge_labeled("m", "t", 7.0)
        s, t = st(net)
        assert solver(net, s, t).value == pytest.approx(7.0)

    def test_infinite_hold_chain(self, solver):
        # s -> a --inf--> b -> t: the hold edge must not break anything.
        net = FlowNetwork()
        net.add_edge_labeled("s", "a", 5.0)
        net.add_edge_labeled("a", "b", math.inf, kind=EdgeKind.HOLD)
        net.add_edge_labeled("b", "t", 3.0)
        s, t = st(net)
        assert solver(net, s, t).value == pytest.approx(3.0)

    def test_retired_node_blocks_flow(self, solver):
        net = FlowNetwork()
        net.add_edge_labeled("s", "a", 5.0)
        net.add_edge_labeled("a", "t", 5.0)
        net.add_edge_labeled("s", "b", 2.0)
        net.add_edge_labeled("b", "t", 2.0)
        net.retire_label("a")
        s, t = st(net)
        assert solver(net, s, t).value == pytest.approx(2.0)

    def test_antiparallel_pair(self, solver):
        net = FlowNetwork()
        net.add_edge_labeled("s", "a", 4.0)
        net.add_edge_labeled("a", "t", 4.0)
        net.add_edge_labeled("t", "a", 9.0)  # antiparallel distractor
        s, t = st(net)
        assert solver(net, s, t).value == pytest.approx(4.0)


@pytest.mark.parametrize("solver", MUTATING_SOLVERS, ids=lambda f: f.__name__)
class TestResumableSolvers:
    def test_rerun_after_saturation_adds_nothing(self, solver, figure2_network):
        s, t = st(figure2_network)
        first = solver(figure2_network, s, t)
        second = solver(figure2_network, s, t)
        assert first.value == pytest.approx(7.0)
        assert second.value == 0.0

    def test_resume_after_capacity_increase(self, solver, figure2_network):
        s, t = st(figure2_network)
        solver(figure2_network, s, t)
        # Open up the v3->v4->t corridor: Maxflow grows 7 -> 10 (limited by
        # s's total out-capacity 3 + 4).
        figure2_network.add_edge_labeled("v3", "v4", 10.0)
        figure2_network.add_edge_labeled("v4", "t", 10.0)
        gained = solver(figure2_network, s, t).value
        assert gained == pytest.approx(0.0)  # s-side already saturated
        figure2_network.add_edge_labeled("s", "v1", 3.0)
        figure2_network.add_edge_labeled("v1", "v3", 3.0)
        gained = solver(figure2_network, s, t).value
        assert gained == pytest.approx(3.0)

    def test_augmenting_path_count_positive(self, solver, figure2_network):
        s, t = st(figure2_network)
        run = solver(figure2_network, s, t)
        assert run.augmenting_paths >= 2  # 7 units need >= 2 paths here


class TestDinicSpecifics:
    def test_track_paths(self, figure2_network):
        s, t = st(figure2_network)
        run = dinic(figure2_network, s, t, track_paths=True)
        assert len(run.paths) == run.augmenting_paths
        for path in run.paths:
            assert path[0] == s and path[-1] == t

    def test_phases_reported(self, figure2_network):
        s, t = st(figure2_network)
        assert dinic(figure2_network, s, t).phases >= 1


class TestRegistry:
    def test_known_names(self):
        for name in (
            "dinic",
            "dinic-flat-persistent",
            "edmonds-karp",
            "ford-fulkerson",
            "push-relabel",
            "lp",
        ):
            assert callable(get_solver(name))

    def test_unknown_name_raises(self):
        with pytest.raises(SolverError, match="unknown maxflow solver"):
            get_solver("simplex9000")

    def test_solve_max_flow_dispatch(self, figure2_network):
        s, t = st(figure2_network)
        run = solve_max_flow(figure2_network.clone(), s, t, algorithm="push-relabel")
        assert run.value == pytest.approx(7.0)
