"""Tests for SemiLazyUpdate (Algorithm 3)."""

import pytest

from repro import EngineConfig, ExecutionContext, semi_greedy_core, semi_lazy_update
from repro.errors import CapacityError
from repro.graph.datasets import load_dataset
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    paper_example_graph,
    planted_kmax_truss,
)
from repro.graph.memgraph import Graph


class TestResults:
    def test_paper_example(self):
        result = semi_lazy_update(paper_example_graph())
        assert result.k_max == 4
        assert result.truss_edge_count == 15

    def test_clique(self):
        assert semi_lazy_update(complete_graph(8)).k_max == 8

    def test_triangle_free(self):
        assert semi_lazy_update(cycle_graph(5)).k_max == 2

    def test_empty(self):
        assert semi_lazy_update(Graph.empty(0)).k_max == 0

    def test_planted(self):
        result = semi_lazy_update(planted_kmax_truss(13, periphery_n=70, seed=2))
        assert result.k_max == 13

    def test_capacity_default_is_vertex_count(self):
        g = paper_example_graph()
        result = semi_lazy_update(g)
        assert result.extras["dheap_capacity"] == g.n

    def test_small_capacity_still_correct(self):
        g = planted_kmax_truss(8, periphery_n=40, seed=1)
        for capacity in (1, 2, 8, 64):
            result = semi_lazy_update(g, capacity=capacity)
            assert result.k_max == 8

    @pytest.mark.parametrize("capacity", [0, -3])
    def test_bad_capacity_raises_before_any_io(self, capacity):
        context = ExecutionContext(EngineConfig(block_size=256, cache_blocks=8))
        with pytest.raises(CapacityError):
            semi_lazy_update(
                planted_kmax_truss(7, periphery_n=60, seed=2),
                capacity=capacity, context=context,
            )
        assert context.stats.total_ios == 0


class TestIOAdvantage:
    def test_fewer_ios_than_greedy(self):
        """The headline claim at reproduction scale: LHDH cuts I/O versus
        the eager A_disk on the same pipeline (Fig 5 c-d ordering).

        Uses a dense-nucleus stand-in: the advantage scales with how often
        edge supports are updated, i.e. with support magnitude.
        """
        g = load_dataset("wikipedia-s", seed=0)
        greedy = semi_greedy_core(g, context=EngineConfig())
        lazy = semi_lazy_update(g, context=EngineConfig())
        assert lazy.k_max == greedy.k_max
        assert sorted(lazy.truss_edges) == sorted(greedy.truss_edges)
        assert lazy.io.total_ios < greedy.io.total_ios

    def test_tiny_capacity_costs_more_io_than_large(self):
        """The LHDH capacity ablation direction: spills cost I/O."""
        g = load_dataset("cagrqc-s", seed=0)
        tiny = semi_lazy_update(g, context=EngineConfig(), capacity=2)
        large = semi_lazy_update(g, context=EngineConfig())
        assert tiny.k_max == large.k_max
        assert tiny.io.total_ios >= large.io.total_ios
