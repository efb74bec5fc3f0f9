"""Tests for SemiBinary (Algorithm 1)."""

import pytest

from repro import EngineConfig, ExecutionContext, semi_binary
from repro._util import WorkBudget
from repro.errors import WorkLimitExceeded
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    paper_example_graph,
    planted_kmax_truss,
    star_graph,
)
from repro.graph.memgraph import Graph


class TestResults:
    def test_paper_example(self):
        result = semi_binary(paper_example_graph())
        assert result.k_max == 4
        assert result.truss_edge_count == 15

    def test_clique(self):
        result = semi_binary(complete_graph(7))
        assert result.k_max == 7
        assert result.truss_edge_count == 21

    def test_triangle_free_graph(self):
        result = semi_binary(cycle_graph(9))
        assert result.k_max == 2
        assert result.truss_edge_count == 9  # all edges at trussness 2

    def test_star(self):
        assert semi_binary(star_graph(5)).k_max == 2

    def test_empty_graph(self):
        result = semi_binary(Graph.empty(4))
        assert result.k_max == 0
        assert result.truss_edges == []

    def test_planted(self):
        result = semi_binary(planted_kmax_truss(9, periphery_n=50, seed=3))
        assert result.k_max == 9
        assert result.truss_edge_count == 36

    def test_lemma1_overshoot_recovered(self):
        """The triangle-fan where Lemma 1 overshoots: safety nets recover."""
        edges = [(0, 1)]
        for w in range(2, 7):
            edges += [(0, w), (1, w)]
        result = semi_binary(Graph.from_edges(edges))
        assert result.k_max == 3
        assert result.truss_edge_count == 11


class TestDiagnostics:
    def test_extras_populated(self):
        result = semi_binary(paper_example_graph())
        assert result.extras["triangles"] == 11
        assert result.extras["search_probes"] >= 1
        assert result.extras["initial_lb"] >= 3

    def test_io_charged(self):
        result = semi_binary(complete_graph(10))
        assert result.io.read_ios > 0
        assert result.io.write_ios > 0

    def test_memory_tracked(self):
        result = semi_binary(complete_graph(10))
        assert result.peak_memory_bytes > 0

    def test_external_device_accepted(self):
        context = ExecutionContext(EngineConfig(block_size=512, cache_blocks=64))
        result = semi_binary(complete_graph(6), context=context)
        assert result.k_max == 6
        assert context.device.stats.total_ios > 0

    def test_work_budget_propagates(self):
        budget = WorkBudget(limit=2)
        with pytest.raises(WorkLimitExceeded):
            # The planted graph forces real peel work beyond the cap.
            semi_binary(planted_kmax_truss(8, periphery_n=60, seed=0),
                        budget=budget)
