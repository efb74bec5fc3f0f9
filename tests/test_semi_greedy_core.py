"""Tests for SemiGreedyCore (Algorithm 2)."""

from repro import EngineConfig, semi_binary, semi_greedy_core
from repro.graph.datasets import load_dataset
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    paper_example_graph,
    planted_kmax_truss,
)
from repro.graph.memgraph import Graph
from repro.storage import DEFAULT_CACHE_BLOCKS


class TestResults:
    def test_paper_example(self):
        result = semi_greedy_core(paper_example_graph())
        assert result.k_max == 4
        assert result.truss_edge_count == 15

    def test_clique(self):
        assert semi_greedy_core(complete_graph(6)).k_max == 6

    def test_triangle_free(self):
        result = semi_greedy_core(cycle_graph(7))
        assert result.k_max == 2
        assert result.truss_edge_count == 7

    def test_empty(self):
        assert semi_greedy_core(Graph.empty(2)).k_max == 0

    def test_planted(self):
        result = semi_greedy_core(planted_kmax_truss(11, periphery_n=60, seed=0))
        assert result.k_max == 11

    def test_two_cliques_case2(self):
        """Case 2 of the greedy analysis: G_cmax misses part of the truss.

        Two overlapping communities where the cmax-core is one clique but
        the k_max-truss spans more; the H' expansion must still find it.
        """
        # K6 (coreness 5) + a separate K5 (coreness 4).
        edges = [(u, v) for u in range(6) for v in range(u + 1, 6)]
        edges += [(u, v) for u in range(6, 11) for v in range(u + 1, 11)]
        g = Graph.from_edges(edges)
        result = semi_greedy_core(g)
        assert result.k_max == 6
        assert result.truss_edge_count == 15


class TestDiagnostics:
    def test_table2_extras(self):
        """The Table II quantities are reported."""
        g = load_dataset("wikipedia-s", seed=0)
        result = semi_greedy_core(g)
        assert result.extras["cmax_edges"] > 0
        assert 0 < result.extras["cmax_edge_fraction"] <= 1
        assert result.extras["local_kmax"] <= result.k_max
        assert result.k_max - result.extras["local_kmax"] <= 4  # paper's gap
        assert result.extras["core_rounds"] >= 1

    def test_local_kmax_is_lower_bound(self):
        g = load_dataset("youtube-s", seed=1)
        result = semi_greedy_core(g)
        assert result.extras["local_kmax"] <= result.k_max

    def test_greedy_does_fewer_ios_than_binary_on_cored_graph(self):
        """The Fig 5 (c) ordering at reproduction scale."""
        g = planted_kmax_truss(20, periphery_n=300, seed=5)
        config = EngineConfig(cache_blocks=DEFAULT_CACHE_BLOCKS)
        binary = semi_binary(g, context=config)
        greedy = semi_greedy_core(g, context=config)
        assert binary.k_max == greedy.k_max
        assert greedy.io.total_ios < binary.io.total_ios
