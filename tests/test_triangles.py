"""Tests for triangle utilities."""

import numpy as np
from hypothesis import given

from repro.graph.generators import complete_graph, cycle_graph, paper_example_graph
from repro.semiexternal.triangles import (
    edge_triangle_supports_naive,
    enumerate_triangles,
    triangle_count,
)

from conftest import small_graphs


class TestEnumeration:
    def test_complete_graph_count(self):
        triangles = list(enumerate_triangles(complete_graph(5)))
        assert len(triangles) == 10

    def test_ordered_output(self):
        for u, v, w in enumerate_triangles(paper_example_graph()):
            assert u < v < w

    def test_cycle_has_none(self):
        assert list(enumerate_triangles(cycle_graph(6))) == []

    def test_each_triangle_once(self):
        g = paper_example_graph()
        triangles = list(enumerate_triangles(g))
        assert len(triangles) == len(set(triangles))
        assert len(triangles) == triangle_count(g)

    @given(small_graphs(max_n=14))
    def test_count_matches_supports(self, g):
        assert len(list(enumerate_triangles(g))) == g.triangle_count()

    @given(small_graphs(max_n=12))
    def test_naive_supports_match_fast(self, g):
        assert np.array_equal(edge_triangle_supports_naive(g), g.edge_supports())
