"""The DESIGN.md §6 invariants, enforced as one consolidated suite.

Several appear piecemeal in module tests; this file states each one
explicitly against randomized inputs so a regression in any subsystem
trips a named invariant rather than an incidental assertion.
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings

from repro import EngineConfig, ExecutionContext, max_truss, semi_lazy_update
from repro.baselines import max_truss_edges, truss_decomposition
from repro.baselines.partitioned import partitioned_truss_decomposition
from repro.core import bounds
from repro.core.k_truss import k_truss_semi_external
from repro.core.peeling import PlainDiskHeap, peel_below, surviving_edge_ids
from repro.graph.disk_graph import DiskGraph
from repro.graph.generators import cycle_graph, gnm_random, paper_example_graph, star_graph
from repro.graph.memgraph import Graph
from repro.semiexternal.core_decomp import core_decomposition_inmemory
from repro.semiexternal.support import compute_supports
from repro.semiexternal.truss_decomp import h_index_truss_decomposition
from repro.storage import BlockDevice, MemoryMeter
from repro.structures import LHDH

from conftest import small_graphs, triangle_rich_graphs


class TestInvariant1TrussDefinition:
    """Every reported k_max-truss satisfies Definition 2 intrinsically."""

    @given(triangle_rich_graphs(max_n=14))
    @settings(max_examples=15)
    def test_support_floor_and_maximality(self, g):
        result = semi_lazy_update(g)
        if result.k_max < 3:
            return
        truss = Graph.from_edges(result.truss_edges)
        assert int(truss.edge_supports().min()) >= result.k_max - 2
        # Maximality: nothing above k_max anywhere in the graph.
        assert int(truss_decomposition(g).max()) == result.k_max


class TestInvariant3BoundsBracket:
    """Sound bounds bracket k_max on every graph."""

    @given(small_graphs(max_n=16))
    @settings(max_examples=20)
    def test_bracket(self, g):
        if g.m == 0:
            return
        k_max, _ = max_truss_edges(g)
        coreness = core_decomposition_inmemory(g)
        supports = g.edge_supports()
        assert bounds.nash_williams_lower_bound(g.triangle_count(), g.m) <= max(k_max, 2)
        assert k_max <= bounds.support_upper_bound(int(supports.max()) if g.m else 0)
        assert k_max <= bounds.core_upper_bound(coreness, g.edges)


class TestInvariantPeelLevels:
    """Peeling below t leaves exactly the (t+2)-truss edge set, and the
    surviving sets are nested across levels."""

    @given(triangle_rich_graphs(max_n=12))
    @settings(max_examples=10)
    def test_nested_levels(self, g):
        if g.m == 0:
            return
        trussness = truss_decomposition(g)
        device = BlockDevice(block_size=512, cache_blocks=32)
        disk_graph = DiskGraph(g, device, MemoryMeter())
        scan = compute_supports(disk_graph)
        heap = PlainDiskHeap(device, range(g.m), scan.supports.to_numpy())
        previous = None
        for threshold in range(0, int(trussness.max())):
            peel_below(heap, disk_graph, threshold)
            survivors = set(surviving_edge_ids(heap))
            expected = set(np.nonzero(trussness >= threshold + 2)[0])
            assert survivors == expected
            if previous is not None:
                assert survivors <= previous
            previous = survivors


class TestInvariantHeapEquivalence:
    """Plain A_disk and LHDH peel to identical survivor sets."""

    @given(triangle_rich_graphs(max_n=12))
    @settings(max_examples=10)
    def test_same_survivors(self, g):
        outcomes = []
        for factory in (PlainDiskHeap, partial(LHDH, capacity=max(1, g.m))):
            device = BlockDevice(block_size=512, cache_blocks=32)
            disk_graph = DiskGraph(g, device, MemoryMeter())
            scan = compute_supports(disk_graph)
            heap = factory(device, range(g.m), scan.supports.to_numpy())
            peel_below(heap, disk_graph, 3)
            outcomes.append(surviving_edge_ids(heap))
        assert outcomes[0] == outcomes[1]


class TestInvariant7IOAccounting:
    """Counters are monotone; cached re-reads are free; flush idempotent."""

    def test_monotone_during_algorithm(self):
        g = Graph.from_edges([(u, v) for u in range(8) for v in range(u + 1, 8)])
        context = ExecutionContext(EngineConfig(block_size=256, cache_blocks=8))
        device = context.device_for(g.n)
        before = device.stats.snapshot()
        max_truss(g, method="semi-lazy-update", context=context)
        after = device.stats
        assert after.read_ios >= before.read_ios
        assert after.write_ios >= before.write_ios
        assert after.bytes_read == after.read_ios * device.block_size
        assert after.bytes_written == after.write_ios * device.block_size

    def test_flush_idempotent_post_run(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2)])
        context = ExecutionContext(EngineConfig(block_size=256, cache_blocks=8))
        max_truss(g, context=context)
        device = context.device
        writes = device.stats.write_ios
        device.flush()
        assert device.stats.write_ios == writes

    @pytest.mark.parametrize("policy", ["lru", "fifo", "clock"])
    def test_every_charged_run_bills_its_write_backs(self, policy):
        """Each charged computation returns with its dirty blocks written
        back, early returns (triangle-free graph, no k-truss) included: a
        flush afterwards charges nothing."""
        runs = {
            method: partial(max_truss, method=method)
            for method in (
                "semi-binary", "semi-greedy-core", "semi-lazy-update",
                "bottom-up", "top-down",
            )
        }
        for k in (3, 4, 8):
            runs[f"k-truss k={k}"] = partial(k_truss_semi_external, k=k)
        runs["partitioned"] = partitioned_truss_decomposition
        runs["h-index"] = h_index_truss_decomposition
        graphs = {
            "edgeless(5)": Graph.empty(5),
            "cycle(40)": cycle_graph(40),
            "star(30)": star_graph(30),
            "paper": paper_example_graph(),
            "gnm(40,220)": gnm_random(40, 220, seed=1),
        }
        left_dirty = []
        for graph_name, graph in graphs.items():
            for run_name, run in runs.items():
                context = ExecutionContext(
                    EngineConfig(block_size=256, cache_blocks=8, cache_policy=policy)
                )
                run(graph, context=context)
                before = context.stats.snapshot()
                context.device_for(graph.n).flush()
                if context.stats != before:
                    left_dirty.append((graph_name, run_name))
        assert left_dirty == []


class TestInvariantClassSubgraphCoreness:
    """Every k_max-truss vertex has coreness >= k_max - 1 (Lemma 4's base)."""

    @given(triangle_rich_graphs(max_n=14))
    @settings(max_examples=15)
    def test_core_floor(self, g):
        k_max, edges = max_truss_edges(g)
        if k_max < 3:
            return
        coreness = core_decomposition_inmemory(g)
        for u, v in edges:
            assert coreness[u] >= k_max - 1
            assert coreness[v] >= k_max - 1
