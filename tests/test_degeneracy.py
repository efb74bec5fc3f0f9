"""Tests for degeneracy analysis (Exp-6 machinery)."""

import networkx as nx
from hypothesis import given

from repro.analysis.degeneracy import (
    degeneracy,
    degeneracy_ordering,
    kmax_vs_degeneracy_gap,
)
from repro.baselines import max_truss_edges
from repro.graph.generators import complete_graph, cycle_graph, paper_example_graph, star_graph
from repro.graph.memgraph import Graph

from conftest import small_graphs


class TestDegeneracy:
    def test_clique(self):
        assert degeneracy(complete_graph(6)) == 5

    def test_cycle(self):
        assert degeneracy(cycle_graph(9)) == 2

    def test_star(self):
        assert degeneracy(star_graph(7)) == 1

    def test_empty(self):
        assert degeneracy(Graph.empty(4)) == 0

    @given(small_graphs(max_n=18))
    def test_matches_networkx(self, g):
        nx_graph = nx.Graph()
        nx_graph.add_nodes_from(range(g.n))
        nx_graph.add_edges_from(g.edge_pairs())
        expected = max(nx.core_number(nx_graph).values()) if g.n else 0
        assert degeneracy(g) == expected


class TestOrdering:
    def test_is_permutation(self):
        g = paper_example_graph()
        order = degeneracy_ordering(g)
        assert sorted(order) == list(range(g.n))

    def test_later_neighbor_bound(self):
        """Each vertex has at most c_max neighbours later in the order."""
        g = paper_example_graph()
        order = degeneracy_ordering(g)
        position = {v: i for i, v in enumerate(order)}
        c_max = degeneracy(g)
        for v in range(g.n):
            later = sum(1 for w in g.neighbors(v) if position[int(w)] > position[v])
            assert later <= c_max

    @given(small_graphs(max_n=16))
    def test_later_neighbor_bound_random(self, g):
        if g.n == 0:
            return
        order = degeneracy_ordering(g)
        position = {v: i for i, v in enumerate(order)}
        c_max = degeneracy(g)
        for v in range(g.n):
            later = sum(1 for w in g.neighbors(v) if position[int(w)] > position[v])
            assert later <= c_max


class TestGap:
    def test_gap_formula(self):
        assert kmax_vs_degeneracy_gap(4, 8) == 0.5
        assert kmax_vs_degeneracy_gap(5, 0) == 0.0

    def test_kmax_at_most_cmax_plus_one(self):
        """Lemma 3's corollary holds on every generated graph."""
        for seed in range(5):
            from repro.graph.generators import gnp_random

            g = gnp_random(20, 0.3, seed=seed)
            k_max, _ = max_truss_edges(g)
            c_max = degeneracy(g)
            if g.m:
                assert k_max <= c_max + 1
