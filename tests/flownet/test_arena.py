"""Tests for the flat residual arena's mutators and min-cut certificate."""

import math

import pytest

from repro.flownet import ResidualArena
from repro.flownet.algorithms.selector import arena_solve


def build(num_nodes, edges):
    """An arena with ``num_nodes`` nodes and ``(tail, head, cap)`` edges."""
    arena = ResidualArena()
    for _ in range(num_nodes):
        arena.add_node()
    handles = [arena.add_edge(tail, head, cap) for tail, head, cap in edges]
    return arena, handles


class TestMutators:
    def test_edges_occupy_adjacent_slot_pairs(self):
        arena, (first, second) = build(3, [(0, 1, 2.0), (1, 2, 5.0)])
        assert (first, second) == (0, 2)
        assert arena.rev == [1, 0, 3, 2]
        assert arena.slots == [[0], [1, 2], [3]]
        assert arena.heads == [1, 0, 2, 1]

    def test_push_moves_residual_onto_the_partner(self):
        arena, (ref,) = build(2, [(0, 1, 5.0)])
        arena.push_on(ref, 3.0)
        assert arena.flow_on(ref) == 3.0
        assert arena.caps[ref] == 2.0
        assert arena.out_flow(0) == 3.0 and arena.in_flow(1) == 3.0
        arena.push_on(ref, -1.0)
        assert arena.flow_on(ref) == 2.0

    def test_infinite_capacity_survives_pushes(self):
        arena, (ref,) = build(2, [(0, 1, math.inf)])
        arena.push_on(ref, 4.0)
        assert math.isinf(arena.caps[ref])
        assert arena.flow_on(ref) == 4.0

    def test_disable_zeroes_both_directions(self):
        arena, (ref, _) = build(3, [(0, 1, 5.0), (0, 2, 1.0)])
        arena.push_on(ref, 2.0)
        arena.disable_edge(ref)
        assert arena.flow_on(ref) == 0.0 and arena.caps[ref] == 0.0
        assert arena.successors(0) == [2]

    def test_retirement_blocks_the_kernel(self):
        arena, _ = build(3, [(0, 1, 5.0), (1, 2, 5.0)])
        arena.retire_node(1)
        assert arena.is_retired(1) and not arena.is_retired(0)
        assert arena_solve(arena, 0, 2).value == 0.0

    def test_compacted_clone_drops_retired_nodes_and_remaps(self):
        arena, (dead, keep) = build(3, [(0, 1, 5.0), (1, 2, 7.0)])
        arena.push_on(keep, 2.0)
        arena.retire_node(0)
        compact, slot_map = arena.compacted_clone()
        assert compact.num_nodes == 2
        assert slot_map[dead] == -1
        new_ref = slot_map[keep]
        assert compact.flow_on(new_ref) == 2.0
        assert compact.caps[new_ref] == 5.0
        assert compact.rev == [1, 0]
        assert compact.slots == [[new_ref], [new_ref + 1]]
        # The copy is independent of the original.
        compact.push_on(new_ref, 1.0)
        assert arena.flow_on(keep) == 2.0


class TestCertificate:
    """A completed run records a closed sink-side cut; mutators pierce it."""

    def solved(self):
        # s=0 -> a=1 (cap 1) -> t=2 (cap 5), plus s -> b=3 (cap 3) and a
        # spare a -> b arc.  One unit flows; T = {a, t} afterwards.
        arena, handles = build(
            4, [(0, 1, 1.0), (1, 2, 5.0), (0, 3, 3.0), (1, 3, math.inf)]
        )
        assert arena_solve(arena, 0, 2).value == 1.0
        assert arena.cut_closed and arena.cut_sink == 2
        assert [arena.level[i] >= 0 for i in range(4)] == [False, True, True, False]
        return arena, handles

    def test_closed_cut_makes_a_rerun_free(self):
        arena, _ = self.solved()
        run = arena_solve(arena, 0, 2)
        assert run.value == 0.0 and run.phases == 0

    def test_appended_arc_into_the_cut_pierces_it(self):
        arena, _ = self.solved()
        arena.add_edge(3, 2, 2.0)  # b (outside T) -> t (inside T)
        assert not arena.cut_closed
        assert arena_solve(arena, 0, 2).value == pytest.approx(2.0)

    def test_push_opening_an_arc_into_the_cut_pierces_it(self):
        arena, handles = self.solved()
        # Routing 2 units a -> b opens the residual arc b -> a, into T.
        arena.push_on(handles[3], 2.0)
        assert not arena.cut_closed
        assert arena_solve(arena, 0, 2).value == pytest.approx(2.0)
        # The new path s -> b -> a cancelled the manual push again.
        assert arena.flow_on(handles[3]) == pytest.approx(0.0)

    def test_arcs_that_pierce_nothing_keep_the_cut(self):
        arena, _ = self.solved()
        fresh = arena.add_node()
        arena.add_edge(2, fresh, 4.0)  # out of T
        arena.add_edge(0, 3, 2.0)  # outside T to outside T
        arena.add_edge(fresh, 2, 0.0)  # into T, but with no capacity
        assert arena.cut_closed
        run = arena_solve(arena, 0, 2)
        assert run.value == 0.0 and run.phases == 0
