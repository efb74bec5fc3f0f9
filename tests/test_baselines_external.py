"""Tests specific to the external baselines (Bottom-Up, Top-Down)."""

import numpy as np
import pytest

from repro._util import WorkBudget
from repro.baselines import bottom_up, top_down, truss_decomposition
from repro.errors import WorkLimitExceeded
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    paper_example_graph,
    planted_kmax_truss,
)
from repro.graph.memgraph import Graph


class TestBottomUp:
    def test_produces_full_trussness(self):
        g = paper_example_graph()
        result = bottom_up(g)
        assert result.k_max == 4
        assert np.array_equal(result.extras["trussness"], truss_decomposition(g))

    def test_empty(self):
        assert bottom_up(Graph.empty(2)).k_max == 0

    def test_mixed_levels(self):
        g = planted_kmax_truss(6, periphery_n=30, seed=0)
        result = bottom_up(g)
        assert result.k_max == 6
        trussness = result.extras["trussness"]
        assert int(trussness.min()) >= 2

    def test_budget(self):
        with pytest.raises(WorkLimitExceeded):
            bottom_up(complete_graph(10), budget=WorkBudget(limit=2))


class TestTopDown:
    def test_correct_on_example(self):
        result = top_down(paper_example_graph())
        assert result.k_max == 4
        assert result.truss_edge_count == 15

    def test_triangle_free(self):
        result = top_down(cycle_graph(6))
        assert result.k_max == 2

    def test_empty(self):
        assert top_down(Graph.empty(1)).k_max == 0

    def test_reports_partitions(self):
        result = top_down(planted_kmax_truss(7, periphery_n=40, seed=1))
        assert result.k_max == 7
        assert result.extras["partitions"] >= 1

    def test_budget_inf_emulation(self):
        with pytest.raises(WorkLimitExceeded):
            top_down(planted_kmax_truss(10, periphery_n=100, seed=0),
                     budget=WorkBudget(limit=5))

    def test_memory_footprint_exceeds_semi_external(self):
        """Fig 5 (e-f): Top-Down's in-memory partitions cost more memory."""
        from repro import semi_lazy_update

        g = planted_kmax_truss(9, periphery_n=100, seed=2)
        td = top_down(g)
        lazy = semi_lazy_update(g)
        assert td.k_max == lazy.k_max
        assert td.peak_memory_bytes > lazy.peak_memory_bytes

    def test_io_exceeds_semi_lazy(self):
        """Fig 5 (c-d): Top-Down pays far more I/O than SemiLazyUpdate."""
        from repro import EngineConfig, semi_lazy_update

        from repro.graph.datasets import load_dataset

        g = load_dataset("wikipedia-s", seed=0)
        td = top_down(g, context=EngineConfig())
        lazy = semi_lazy_update(g, context=EngineConfig())
        assert td.k_max == lazy.k_max
        assert td.io.total_ios > lazy.io.total_ios
