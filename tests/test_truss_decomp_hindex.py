"""Tests for the h-index semi-external truss decomposition."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro._util import WorkBudget
from repro.baselines import truss_decomposition
from repro.errors import WorkLimitExceeded
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    paper_example_graph,
    planted_kmax_truss,
)
from repro.graph.memgraph import Graph
from repro.semiexternal.truss_decomp import h_index_truss_decomposition

from conftest import small_graphs


class TestConvergence:
    def test_paper_example(self):
        result = h_index_truss_decomposition(paper_example_graph())
        assert list(result.trussness) == [4] * 15
        assert result.k_max == 4

    def test_clique(self):
        result = h_index_truss_decomposition(complete_graph(6))
        assert list(result.trussness) == [6] * 15

    def test_triangle_free(self):
        result = h_index_truss_decomposition(cycle_graph(7))
        assert list(result.trussness) == [2] * 7
        assert result.k_max == 2

    def test_empty(self):
        result = h_index_truss_decomposition(Graph.empty(3))
        assert result.k_max == 0
        assert result.trussness.size == 0

    def test_planted(self):
        g = planted_kmax_truss(8, periphery_n=50, seed=2)
        result = h_index_truss_decomposition(g)
        assert np.array_equal(result.trussness, truss_decomposition(g))

    def test_reports_rounds(self):
        result = h_index_truss_decomposition(paper_example_graph())
        assert result.rounds >= 1

    @given(small_graphs(max_n=16))
    @settings(max_examples=20)
    def test_matches_peeling_random(self, g):
        result = h_index_truss_decomposition(g)
        assert np.array_equal(result.trussness, truss_decomposition(g))


class TestBoundMode:
    def test_truncated_rounds_stay_upper_bounds(self):
        """With max_rounds, values remain sound upper bounds on τ
        (this is exactly how Top-Down uses the technique)."""
        g = planted_kmax_truss(7, periphery_n=60, seed=1)
        exact = truss_decomposition(g)
        for rounds in (1, 2):
            bound = h_index_truss_decomposition(g, max_rounds=rounds)
            assert (bound.trussness >= exact).all()

    def test_budget_enforced(self):
        with pytest.raises(WorkLimitExceeded):
            h_index_truss_decomposition(
                complete_graph(10), budget=WorkBudget(limit=3)
            )

    def test_charges_io(self):
        from repro import EngineConfig, ExecutionContext

        context = ExecutionContext(EngineConfig(block_size=256, cache_blocks=8))
        h_index_truss_decomposition(complete_graph(10), context=context)
        assert context.device.stats.read_ios > 0
