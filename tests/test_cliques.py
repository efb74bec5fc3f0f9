"""Tests for the maximum-clique and maximum-core comparators (Fig 9)."""

import networkx as nx
from hypothesis import given, settings

from repro.analysis.cliques import clique_number, maximum_clique, maximum_core
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    paper_example_graph,
    star_graph,
    word_association,
)
from repro.graph.memgraph import Graph

from conftest import triangle_rich_graphs


class TestMaximumClique:
    def test_clique_graph(self):
        assert maximum_clique(complete_graph(6)) == list(range(6))

    def test_cycle(self):
        assert clique_number(cycle_graph(7)) == 2

    def test_star(self):
        assert clique_number(star_graph(5)) == 2

    def test_paper_example(self):
        clique = maximum_clique(paper_example_graph())
        assert len(clique) == 4

    def test_empty_and_edgeless(self):
        assert maximum_clique(Graph.empty(0)) == []
        assert clique_number(Graph.empty(5)) == 1

    def test_result_is_a_clique(self):
        g = paper_example_graph()
        clique = maximum_clique(g)
        for i, u in enumerate(clique):
            for v in clique[i + 1:]:
                assert g.has_edge(u, v)

    @given(triangle_rich_graphs(max_n=18))
    @settings(max_examples=15)
    def test_matches_networkx(self, g):
        nx_graph = nx.Graph()
        nx_graph.add_nodes_from(range(g.n))
        nx_graph.add_edges_from(g.edge_pairs())
        expected = max(len(c) for c in nx.find_cliques(nx_graph))
        assert clique_number(g) == expected

    def test_kmax_bounds_clique_number(self):
        """ω(G) <= k_max — the FPT parameterisation claim."""
        from repro.baselines import max_truss_edges
        from repro.graph.generators import gnp_random

        for seed in range(4):
            g = gnp_random(22, 0.4, seed=seed)
            k_max, _ = max_truss_edges(g)
            assert clique_number(g) <= max(k_max, 2)


class TestMaximumCore:
    def test_clique(self):
        assert maximum_core(complete_graph(5)) == list(range(5))

    def test_empty(self):
        assert maximum_core(Graph.empty(3)) == []

    def test_paper_example(self):
        assert maximum_core(paper_example_graph()) == list(range(8))


class TestCaseStudyShape:
    def test_fig9_relationships(self):
        """k_max-truss recovers whole communities; the clique misses
        noise-separated members; the core over-expands (paper Fig 9)."""
        from repro.baselines import max_truss_edges

        g, labels = word_association(
            num_communities=2, community_size=10, intra_missing=0.12,
            noise_words=30, seed=3,
        )
        k, truss_edges = max_truss_edges(g)
        truss_vertices = {x for e in truss_edges for x in e}
        clique = set(maximum_clique(g))
        core = set(maximum_core(g))
        # Clique is strictly smaller than the truss community.
        assert len(clique) < max(10, len(truss_vertices))
        # The truss stays within themed words (noise-resistant) ...
        assert all(not labels[v].startswith("noise") for v in truss_vertices)
        # ... while the max core may sprawl wider than one community.
        assert len(core) >= len(clique)
