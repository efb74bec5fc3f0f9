"""Tests for DynamicMaxTruss state bookkeeping."""

import pytest

from repro.dynamic import DynamicMaxTruss
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    paper_example_graph,
    planted_kmax_truss,
)
from repro.graph.memgraph import Graph, MutableGraph


class TestInitialisation:
    def test_initial_class(self):
        state = DynamicMaxTruss(paper_example_graph())
        assert state.k_max == 4
        assert state.truss_edge_count() == 15
        assert state.truss_pairs() == paper_example_graph().edge_pairs()

    def test_initial_class_partial(self):
        g = planted_kmax_truss(8, periphery_n=40, seed=0)
        state = DynamicMaxTruss(g)
        assert state.k_max == 8
        assert state.truss_edge_count() == 28

    def test_empty_graph(self):
        state = DynamicMaxTruss(Graph.empty(3))
        assert state.k_max == 0
        assert state.truss_pairs() == []

    def test_triangle_free_graph(self):
        state = DynamicMaxTruss(cycle_graph(5))
        assert state.k_max == 2
        assert state.truss_edge_count() == 5


class TestMembershipQueries:
    def test_edge_and_vertex_membership(self):
        g = planted_kmax_truss(6, periphery_n=30, seed=1)
        state = DynamicMaxTruss(g)
        assert state.truss_contains_edge(0, 1)
        assert state.truss_contains_vertex(0)
        # A periphery vertex is not in the clique class.
        assert not state.truss_contains_vertex(g.n - 1)

    def test_truss_edge_id(self):
        state = DynamicMaxTruss(complete_graph(4))
        assert state.truss_edge_id(0, 1) >= 0
        assert state.truss_edge_id(0, 0) == -1


class TestCorenessCache:
    def test_core_upper_bound_sound_under_insertions(self):
        from repro.semiexternal.core_decomp import core_decomposition_inmemory

        g = paper_example_graph()
        state = DynamicMaxTruss(g)
        state.insert(0, 4)
        state.insert(0, 5)
        frozen, _ = state.graph.to_graph()
        exact = core_decomposition_inmemory(frozen)
        for v in range(frozen.n):
            assert state.core_upper(v) >= exact[v]

    def test_refresh_resets_staleness(self):
        state = DynamicMaxTruss(paper_example_graph())
        state.insert(0, 4)
        state.refresh_coreness()
        assert state._insertions_since_refresh == 0

    def test_core_upper_bounded_by_degree(self):
        state = DynamicMaxTruss(complete_graph(4))
        assert state.core_upper(0) <= 3


class TestGlobalPhase:
    def test_global_phase_recomputes_exactly(self):
        from repro.baselines import max_truss_edges

        g = planted_kmax_truss(7, periphery_n=30, seed=2)
        state = DynamicMaxTruss(g)
        state.global_phase(3)  # weak bound: must still be exact
        k, edges = max_truss_edges(g)
        assert state.k_max == k
        assert state.truss_pairs() == edges

    def test_global_phase_freezes_the_graph_once(self, monkeypatch):
        """The coreness refresh and the candidate subgraphs share one
        frozen copy of the graph; the refresh still bills its scan."""
        state = DynamicMaxTruss(planted_kmax_truss(7, periphery_n=30, seed=2))
        frozen_copies = []
        to_graph = MutableGraph.to_graph
        monkeypatch.setattr(
            MutableGraph, "to_graph",
            lambda graph: frozen_copies.append(graph) or to_graph(graph),
        )
        before = state.device.stats.snapshot()
        state.global_phase(3)
        assert len(frozen_copies) == 1
        assert state.device.stats.since(before).read_ios > 0
        state.refresh_coreness()  # the insertion gate's refresh builds its own
        assert len(frozen_copies) == 2

    def test_global_phase_on_triangle_free(self):
        state = DynamicMaxTruss(cycle_graph(6))
        state.global_phase(3)
        assert state.k_max == 2
        assert state.truss_edge_count() == 6

    def test_io_charged_for_updates(self):
        state = DynamicMaxTruss(paper_example_graph())
        result = state.insert(0, 4)
        assert result.io.total_ios >= 0
        result2 = state.delete(0, 4)
        assert result2.k_max_after == 4


class TestErrors:
    def test_duplicate_insert_rejected(self):
        from repro.errors import GraphFormatError

        state = DynamicMaxTruss(complete_graph(3))
        with pytest.raises(GraphFormatError):
            state.insert(0, 1)

    def test_absent_delete_rejected(self):
        from repro.errors import GraphFormatError

        state = DynamicMaxTruss(complete_graph(3))
        with pytest.raises(GraphFormatError):
            state.delete(0, 5)

    def test_self_loop_insert_rejected(self):
        from repro.errors import GraphFormatError

        state = DynamicMaxTruss(complete_graph(3))
        with pytest.raises(GraphFormatError):
            state.insert(1, 1)
