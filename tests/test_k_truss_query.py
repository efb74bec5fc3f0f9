"""Tests for arbitrary-k semi-external truss queries."""

import pytest
from hypothesis import given, settings

from repro import EngineConfig, ExecutionContext
from repro.baselines import k_truss_edges
from repro.core.k_truss import k_truss_semi_external
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    paper_example_graph,
    planted_kmax_truss,
)
from repro.graph.memgraph import Graph

from conftest import small_graphs


class TestBasics:
    def test_paper_example_levels(self):
        g = paper_example_graph()
        assert k_truss_semi_external(g, 2).edge_count == 15
        assert k_truss_semi_external(g, 3).edge_count == 15
        assert k_truss_semi_external(g, 4).edge_count == 15
        assert k_truss_semi_external(g, 5).edge_count == 0

    def test_mixed_levels(self):
        g = planted_kmax_truss(7, periphery_n=40, seed=0)
        result = k_truss_semi_external(g, 7)
        assert result.edge_count == 21
        assert result.vertices() == list(range(7))
        assert k_truss_semi_external(g, 8).exists is False

    def test_k2_returns_all_edges(self):
        g = cycle_graph(6)
        assert k_truss_semi_external(g, 2).edges == g.edge_pairs()

    def test_triangle_free_above_two(self):
        assert not k_truss_semi_external(cycle_graph(6), 3).exists

    def test_empty_graph(self):
        result = k_truss_semi_external(Graph.empty(3), 3)
        assert result.edges == []

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            k_truss_semi_external(complete_graph(3), 1)

    def test_io_reported(self):
        result = k_truss_semi_external(complete_graph(8), 5)
        assert result.io.total_ios > 0


class TestNothingLeaks:
    """Both return paths that build a device free every extent they made."""

    @pytest.mark.parametrize(
        "graph, k, edges",
        [
            (cycle_graph(40), 3, 0),            # no triangle: early return
            (paper_example_graph(), 6, 0),      # level above every support
            (paper_example_graph(), 4, 15),     # the peel
        ],
        ids=["triangle-free", "above-supports", "peeled"],
    )
    def test_device_is_empty_after_the_query(self, graph, k, edges):
        context = ExecutionContext(
            EngineConfig(block_size=256, cache_blocks=8, cache_policy="lru")
        )
        try:
            result = k_truss_semi_external(graph, k, context=context)
            assert result.edge_count == edges
            assert context.device.used_bytes == 0
        finally:
            context.close()


@given(small_graphs(max_n=14))
@settings(max_examples=20)
def test_matches_inmemory_reference(g):
    for k in (3, 4, 5):
        expected = k_truss_edges(g, k)
        got = k_truss_semi_external(g, k).edges
        assert got == expected
