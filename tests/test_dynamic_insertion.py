"""Tests for edge-insertion maintenance (Algorithms 6/7)."""

import pytest

from repro.baselines import max_truss_edges
from repro.dynamic import DynamicMaxTruss, YLJMaintenance
from repro.errors import GraphFormatError
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    paper_example_graph,
    planted_kmax_truss,
)
from repro.graph.memgraph import Graph


def _reference_after_insert(graph, u, v):
    mutable = graph.to_mutable()
    mutable.insert_edge(u, v)
    frozen, _ = mutable.to_graph()
    return max_truss_edges(frozen)


class TestLemma9Gate:
    def test_low_support_insert_untouched(self):
        g = planted_kmax_truss(7, periphery_n=60, seed=0)
        state = DynamicMaxTruss(g)
        # Two far periphery vertices: the new edge has no triangles.
        u, v = g.n - 1, g.n - 2
        if g.has_edge(u, v):
            v = g.n - 3
        result = state.insert(u, v)
        assert result.mode == "untouched"
        assert state.k_max == 7

    def test_untouched_is_cheap(self):
        g = planted_kmax_truss(7, periphery_n=60, seed=1)
        state = DynamicMaxTruss(g)
        u, v = g.n - 1, g.n - 4
        result = state.insert(u, v)
        assert result.io.total_ios < 20


class TestPromotion:
    def test_paper_example_6(self):
        """Inserting (v1, v5) upgrades k_max from 4 to 5 (paper Example 6)."""
        state = DynamicMaxTruss(paper_example_graph())
        result = state.insert(0, 4)
        assert result.mode == "local"
        assert result.k_max_before == 4
        assert state.k_max == 5
        expected_k, expected_edges = _reference_after_insert(
            paper_example_graph(), 0, 4
        )
        assert state.k_max == expected_k
        assert state.truss_pairs() == expected_edges

    def test_promotion_rollback_when_no_bigger_truss(self):
        # K5 missing one edge + noise: inserting the missing edge completes
        # K5 and promotes; inserting elsewhere must roll back supports.
        edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        edges.remove((0, 1))
        g = Graph.from_edges(edges)
        state = DynamicMaxTruss(g)
        assert state.k_max == 4
        state.insert(0, 1)
        assert state.k_max == 5
        assert state.truss_edge_count() == 10


class TestGrowthFallback:
    def test_outside_edges_join_class(self):
        """Insertion pulls previously-outside edges into the k_max-class."""
        # Two K4s sharing nothing; bridge them into a K5-able pattern.
        g = paper_example_graph()
        state = DynamicMaxTruss(g)
        state.delete(1, 4)  # weaken the bridge first
        mutable = g.to_mutable()
        mutable.delete_edge(1, 4)
        # Now insert it back: class must return to the full 15 edges.
        state.insert(1, 4)
        mutable.insert_edge(1, 4)
        frozen, _ = mutable.to_graph()
        expected_k, expected_edges = max_truss_edges(frozen)
        assert state.k_max == expected_k
        assert state.truss_pairs() == expected_edges

    def test_first_triangle_bootstraps(self):
        state = DynamicMaxTruss(Graph.from_edges([(0, 1), (1, 2)]))
        assert state.k_max == 2
        state.insert(0, 2)
        assert state.k_max == 3
        assert state.truss_edge_count() == 3

    def test_insert_into_empty_graph(self):
        state = DynamicMaxTruss(Graph.empty(0))
        state.insert(0, 1)
        assert state.k_max == 2
        assert state.truss_pairs() == [(0, 1)]

    def test_triangle_free_growth(self):
        state = DynamicMaxTruss(cycle_graph(6))
        state.insert(0, 3)  # chord, still triangle-free
        assert state.k_max == 2
        assert state.truss_edge_count() == 7


@pytest.mark.parametrize("u, v", [(20, -1), (-1, 20)])
@pytest.mark.parametrize("maintainer", [DynamicMaxTruss, YLJMaintenance])
def test_negative_endpoint_leaves_the_graph_as_it_was(maintainer, u, v):
    """A negative id is rejected before the other endpoint grows ``n``,
    which global phases, coreness refreshes and the truss file size from."""
    state = maintainer(paper_example_graph())
    n_before = state.graph.n
    with pytest.raises(GraphFormatError, match="non-negative"):
        state.insert(u, v)
    assert state.graph.n == n_before
    fresh = maintainer(paper_example_graph())
    for target in (state, fresh):
        target.insert(0, 4)  # closes K5 over vertices 0..4
    assert state.graph.n == fresh.graph.n == n_before
    assert state.k_max == fresh.k_max == 5
    assert state.truss_pairs() == fresh.truss_pairs()


class TestSequences:
    def test_build_clique_incrementally(self):
        state = DynamicMaxTruss(Graph.empty(6))
        mutable = Graph.empty(6).to_mutable()
        for u in range(6):
            for v in range(u + 1, 6):
                state.insert(u, v)
                mutable.insert_edge(u, v)
                frozen, _ = mutable.to_graph()
                expected_k, expected_edges = max_truss_edges(frozen)
                assert state.k_max == expected_k
                assert state.truss_pairs() == expected_edges
        assert state.k_max == 6

    def test_insert_then_delete_roundtrip(self):
        g = complete_graph(5)
        state = DynamicMaxTruss(g)
        state.insert(0, 5)
        state.insert(1, 5)
        state.delete(0, 5)
        state.delete(1, 5)
        assert state.k_max == 5
        assert state.truss_pairs() == g.edge_pairs()
