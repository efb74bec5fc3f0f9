"""Tests for the shared peeling kernels."""

from functools import partial

import pytest

from repro._util import WorkBudget
from repro.core.peeling import (
    PeelStats,
    PlainDiskHeap,
    peel_below,
    surviving_edge_ids,
)
from repro.errors import WorkLimitExceeded
from repro.graph.disk_graph import DiskGraph
from repro.graph.generators import complete_graph, paper_example_graph
from repro.semiexternal.support import compute_supports
from repro.storage import BlockDevice, MemoryMeter
from repro.structures import LHDH

#: An LHDH whose dynamic heap never spills on these small graphs.
UNSPILLED_LHDH = partial(LHDH, capacity=1 << 20)


def _setup(graph, factory):
    device = BlockDevice(block_size=64, cache_blocks=32)
    dg = DiskGraph(graph, device, MemoryMeter())
    scan = compute_supports(dg)
    heap = factory(device, range(graph.m), scan.supports.to_numpy())
    return dg, heap, scan


# The ids keep these cases' names from when heap kinds were factory functions.
@pytest.mark.parametrize(
    "factory", [PlainDiskHeap, UNSPILLED_LHDH], ids=["make_plain_heap", "make_lhdh_heap"]
)
class TestPeelBelow:
    def test_no_op_when_threshold_zero(self, factory):
        dg, heap, _ = _setup(paper_example_graph(), factory)
        stats = peel_below(heap, dg, 0)
        assert stats.removed_edges == 0
        assert len(heap) == 15

    def test_full_drain_at_high_threshold(self, factory):
        dg, heap, _ = _setup(paper_example_graph(), factory)
        stats = peel_below(heap, dg, 100)
        assert stats.removed_edges == 15
        assert len(heap) == 0

    def test_destroys_all_triangles_on_full_drain(self, factory):
        g = paper_example_graph()
        dg, heap, scan = _setup(g, factory)
        stats = peel_below(heap, dg, 100)
        assert stats.destroyed_triangles == scan.triangle_count

    def test_truss_survivors(self, factory):
        # K5 plus a pendant triangle: peeling below support 3 keeps the K5.
        edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        edges += [(4, 5), (4, 6), (5, 6)]
        from repro.graph.memgraph import Graph

        g = Graph.from_edges(edges)
        dg, heap, _ = _setup(g, factory)
        peel_below(heap, dg, 3)
        survivors = surviving_edge_ids(heap)
        surviving_pairs = sorted(
            (int(g.edges[eid, 0]), int(g.edges[eid, 1])) for eid in survivors
        )
        assert surviving_pairs == [(u, v) for u in range(5) for v in range(u + 1, 5)]

    def test_work_budget_enforced(self, factory):
        dg, heap, _ = _setup(complete_graph(8), factory)
        budget = WorkBudget(limit=3)
        with pytest.raises(WorkLimitExceeded):
            peel_below(heap, dg, 100, budget=budget)

    def test_survivor_supports_meet_threshold(self, factory):
        g = paper_example_graph()
        dg, heap, _ = _setup(g, factory)
        peel_below(heap, dg, 2)
        survivors = surviving_edge_ids(heap)
        # Recompute supports inside the surviving subgraph: all >= 2.
        induced = g.edge_induced_support(survivors)
        assert all(sup >= 2 for sup in induced.values())


class TestPeelStats:
    def test_merge(self):
        a = PeelStats(1, 2, 3)
        b = PeelStats(10, 20, 30)
        a.merge(b)
        assert (a.removed_edges, a.destroyed_triangles, a.kernel_calls) == (11, 22, 33)


class TestHeapEquivalence:
    def test_plain_and_lhdh_agree_on_survivors(self):
        g = complete_graph(7)
        for threshold in (2, 4, 5):
            dg1, plain, _ = _setup(g, PlainDiskHeap)
            dg2, lazy, _ = _setup(g, UNSPILLED_LHDH)
            peel_below(plain, dg1, threshold)
            peel_below(lazy, dg2, threshold)
            assert surviving_edge_ids(plain) == surviving_edge_ids(lazy)

    def test_lhdh_does_fewer_ios_on_update_heavy_peel(self):
        from repro.graph.datasets import load_dataset

        g = load_dataset("cagrqc-s", seed=0)

        def run(factory):
            # Semi-external-sized buffer pool: edge state exceeds the cache.
            device = BlockDevice(block_size=4096, cache_blocks=16)
            dg = DiskGraph(g, device, MemoryMeter())
            scan = compute_supports(dg)
            heap = factory(device, range(g.m), scan.supports.to_numpy())
            device.stats.reset()
            peel_below(heap, dg, 10_000)
            return device.stats.total_ios

        assert run(UNSPILLED_LHDH) < run(PlainDiskHeap)
