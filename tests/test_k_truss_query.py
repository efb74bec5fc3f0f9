"""Tests for arbitrary-k semi-external truss queries."""

import pytest
from hypothesis import given, settings

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


@given(small_graphs(max_n=14))
@settings(max_examples=20)
def test_matches_inmemory_reference(g):
    for k in (3, 4, 5):
        expected = k_truss_edges(g, k)
        got = k_truss_semi_external(g, k).edges
        assert got == expected
