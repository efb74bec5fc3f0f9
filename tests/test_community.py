"""Tests for truss-based community search."""

import pytest

from repro.applications import max_truss_communities, truss_community
from repro.baselines.inmemory import truss_decomposition
from repro.graph.generators import (
    complete_graph,
    paper_example_graph,
    planted_kmax_truss,
)
from repro.graph.memgraph import Graph


class TestVertexCommunities:
    def test_query_inside_clique(self):
        g = planted_kmax_truss(6, periphery_n=40, seed=0)
        result = truss_community(g, [0, 1])
        assert result is not None
        assert result.k == 6
        assert set(result.vertices) >= {0, 1}
        assert all(0 <= v < 6 for v in result.vertices)

    def test_single_query_vertex(self):
        g = paper_example_graph()
        result = truss_community(g, [0])
        assert result.k == 4
        assert 0 in result.vertices

    def test_cross_component_query_falls_to_lower_k(self):
        # Two K4s joined by a single path: queries in both sides force a
        # community at the path's low trussness... here the bridge is a
        # bare edge, so trussness 2 connects them.
        edges = complete_graph(4).edge_pairs()
        edges += [(u + 10, v + 10) for u, v in complete_graph(4).edge_pairs()]
        edges += [(3, 10)]
        g = Graph.from_edges(edges)
        result = truss_community(g, [0, 11])
        assert result is not None
        assert result.k == 2  # only the trivial level spans the bridge

    def test_disconnected_query_returns_none(self):
        edges = complete_graph(3).edge_pairs()
        edges += [(u + 5, v + 5) for u, v in complete_graph(3).edge_pairs()]
        g = Graph.from_edges(edges)
        assert truss_community(g, [0, 6]) is None

    def test_isolated_query_returns_none(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2)], n=5)
        assert truss_community(g, [4]) is None

    def test_empty_graph(self):
        assert truss_community(Graph.empty(3), [0]) is None

    def test_invalid_queries(self):
        g = complete_graph(3)
        with pytest.raises(ValueError):
            truss_community(g, [])
        with pytest.raises(ValueError):
            truss_community(g, [99])
        with pytest.raises(ValueError):
            truss_community(g, [0], connectivity="nope")

    def test_community_is_a_k_truss(self):
        """Contract: every edge of the answer has τ >= k, the subgraph is
        connected, and contains the queries."""
        g = planted_kmax_truss(5, periphery_n=50, seed=3)
        result = truss_community(g, [2, g.n - 1])
        assert result is not None
        sub = Graph.from_edges(result.edges)
        internal = truss_decomposition(sub)
        assert int(internal.min()) >= result.k

    def test_precomputed_trussness_accepted(self):
        g = complete_graph(5)
        values = truss_decomposition(g)
        result = truss_community(g, [0, 4], trussness=values)
        assert result.k == 5


class TestTriangleCommunities:
    def test_bowtie_separates(self):
        # Two triangles sharing vertex 2: triangle connectivity refuses to
        # bridge them, so a cross query drops to None (no common class).
        edges = [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]
        g = Graph.from_edges(edges)
        vertex_result = truss_community(g, [0, 4], connectivity="vertex")
        triangle_result = truss_community(g, [0, 4], connectivity="triangle")
        assert vertex_result is not None
        assert triangle_result is None

    def test_within_one_triangle_class(self):
        g = complete_graph(5)
        result = truss_community(g, [1, 3], connectivity="triangle")
        assert result.k == 5
        assert result.vertices == list(range(5))


class TestMaxTrussCommunities:
    def test_two_separate_max_trusses(self):
        edges = complete_graph(5).edge_pairs()
        edges += [(u + 10, v + 10) for u, v in complete_graph(5).edge_pairs()]
        edges += [(0, 10)]
        g = Graph.from_edges(edges)
        communities = max_truss_communities(g)
        assert len(communities) == 2
        assert all(c.k == 5 for c in communities)

    def test_empty(self):
        assert max_truss_communities(Graph.empty(2)) == []


class TestAmbientContext:
    """truss_community runs inside the ambient tracer's span, and a caller
    wanting charged trussness passes the semi-external decomposition."""

    def test_search_runs_inside_community_span(self):
        from repro.engine import ExecutionContext
        from repro.observability import Tracer

        records = []
        context = ExecutionContext()
        context.attach_tracer(Tracer(records.append))
        result = truss_community(paper_example_graph(), [0])
        context.close()
        assert result.k == 4
        assert any(
            record.get("type") == "span" and record.get("name") == "community"
            for record in records
        )

    def test_semi_external_charges_callers_device(self):
        from repro.baselines import truss_decomposition_semi_external
        from repro.engine import ExecutionContext

        graph = paper_example_graph()
        with ExecutionContext() as context:
            values = truss_decomposition_semi_external(graph, context=context)
            result = truss_community(graph, [0], trussness=values)
            assert result.k == 4
            assert context.stats.snapshot().read_ios > 0
