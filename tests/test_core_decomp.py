"""Tests for core decomposition (in-memory and semi-external)."""

import networkx as nx
import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.graph.disk_graph import DiskGraph
from repro.graph.generators import complete_graph, cycle_graph, paper_example_graph, star_graph
from repro.semiexternal.core_decomp import (
    core_decomposition_inmemory,
    h_index,
    semi_external_core_decomposition,
)
from repro.storage import BlockDevice, MemoryMeter

from conftest import small_graphs


class TestHIndex:
    def test_empty(self):
        assert h_index(np.array([], dtype=np.int64)) == 0

    def test_classic(self):
        assert h_index(np.array([3, 0, 6, 1, 5])) == 3

    def test_all_equal(self):
        assert h_index(np.array([2, 2, 2])) == 2

    def test_all_zero(self):
        assert h_index(np.array([0, 0])) == 0

    def test_single(self):
        assert h_index(np.array([7])) == 1

    @given(st.lists(st.integers(min_value=0, max_value=50), max_size=40))
    def test_definition(self, values):
        arr = np.array(values, dtype=np.int64)
        h = h_index(arr)
        assert (arr >= h).sum() >= h
        assert (arr >= h + 1).sum() < h + 1


class TestInMemoryCoreness:
    def test_complete_graph(self):
        coreness = core_decomposition_inmemory(complete_graph(5))
        assert list(coreness) == [4] * 5

    def test_cycle(self):
        assert list(core_decomposition_inmemory(cycle_graph(6))) == [2] * 6

    def test_star(self):
        coreness = core_decomposition_inmemory(star_graph(5))
        assert list(coreness) == [1] * 6

    def test_paper_example(self):
        coreness = core_decomposition_inmemory(paper_example_graph())
        assert list(coreness) == [3] * 8  # every vertex is in the 3-core

    def test_empty_graph(self):
        from repro.graph.memgraph import Graph

        assert core_decomposition_inmemory(Graph.empty(0)).size == 0
        assert list(core_decomposition_inmemory(Graph.empty(3))) == [0, 0, 0]

    @given(small_graphs(max_n=20))
    def test_matches_networkx(self, g):
        coreness = core_decomposition_inmemory(g)
        nx_graph = nx.Graph()
        nx_graph.add_nodes_from(range(g.n))
        nx_graph.add_edges_from(g.edge_pairs())
        expected = nx.core_number(nx_graph)
        for v in range(g.n):
            assert coreness[v] == expected[v]


class TestSemiExternalCoreness:
    def _decompose(self, g):
        device = BlockDevice(block_size=64, cache_blocks=16)
        dg = DiskGraph(g, device, MemoryMeter())
        return semi_external_core_decomposition(dg), device

    def test_matches_inmemory_example(self):
        g = paper_example_graph()
        result, _ = self._decompose(g)
        assert np.array_equal(result.coreness, core_decomposition_inmemory(g))

    def test_reports_rounds(self):
        result, _ = self._decompose(complete_graph(6))
        assert result.rounds >= 1

    def test_charges_io(self):
        g = complete_graph(12)
        device = BlockDevice(block_size=64, cache_blocks=2)
        dg = DiskGraph(g, device, MemoryMeter())
        device.stats.reset()
        semi_external_core_decomposition(dg)
        assert device.stats.read_ios > 0

    def test_c_max_property(self):
        result, _ = self._decompose(paper_example_graph())
        assert result.c_max == 3

    @given(small_graphs(max_n=16))
    def test_matches_inmemory_random(self, g):
        result, _ = self._decompose(g)
        assert np.array_equal(result.coreness, core_decomposition_inmemory(g))
