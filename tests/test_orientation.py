"""Tests for the degeneracy-oriented support scan."""

import numpy as np
from hypothesis import given, settings

from repro import EngineConfig, ExecutionContext
from repro.graph.disk_graph import DiskGraph
from repro.graph.generators import (
    chung_lu,
    complete_graph,
    cycle_graph,
    paper_example_graph,
)
from repro.graph.memgraph import Graph
from repro.semiexternal.orientation import compute_supports_oriented
from repro.semiexternal.support import compute_supports
from repro.storage import BlockDevice, MemoryMeter

from conftest import small_graphs


class TestCorrectness:
    def test_paper_example(self):
        scan = compute_supports_oriented(paper_example_graph())
        assert np.array_equal(
            scan.supports.to_numpy(), paper_example_graph().edge_supports()
        )

    def test_clique(self):
        scan = compute_supports_oriented(complete_graph(7))
        assert list(scan.supports.to_numpy()) == [5] * 21
        assert scan.triangle_count == 35

    def test_triangle_free(self):
        scan = compute_supports_oriented(cycle_graph(9))
        assert scan.triangle_count == 0
        assert scan.zero_support_edges == 9
        assert scan.max_support == 0

    def test_empty(self):
        scan = compute_supports_oriented(Graph.empty(4))
        assert scan.triangle_count == 0
        assert len(scan.supports) == 0

    @given(small_graphs(max_n=18))
    @settings(max_examples=25)
    def test_matches_baseline_scan(self, g):
        oriented = compute_supports_oriented(
            g, context=EngineConfig(block_size=256, cache_blocks=16)
        )
        baseline_device = BlockDevice(block_size=256, cache_blocks=16)
        disk_graph = DiskGraph(g, baseline_device, MemoryMeter())
        baseline = compute_supports(disk_graph)
        assert np.array_equal(
            oriented.supports.to_numpy(), baseline.supports.to_numpy()
        )
        assert oriented.triangle_count == baseline.triangle_count
        assert oriented.zero_support_edges == baseline.zero_support_edges
        assert oriented.max_support == baseline.max_support


class TestCosts:
    def test_memory_charged_for_accumulator(self):
        memory = MemoryMeter()
        g = chung_lu(200, 8, seed=0)
        compute_supports_oriented(g, memory=memory)
        assert memory.peak_bytes >= 8 * g.m  # the O(m) buffer is declared
        assert memory.current_bytes == 0     # and released

    def test_less_intersection_work_on_heavy_tail(self):
        """On a hub-heavy graph the oriented scan reads fewer blocks."""
        g = chung_lu(800, 10, 2.05, seed=3)
        oriented = ExecutionContext(EngineConfig(block_size=4096, cache_blocks=16))
        compute_supports_oriented(g, context=oriented)
        baseline_device = BlockDevice(block_size=4096, cache_blocks=16)
        disk_graph = DiskGraph(g, baseline_device, MemoryMeter())
        compute_supports(disk_graph)
        assert oriented.stats.read_ios < baseline_device.stats.read_ios
