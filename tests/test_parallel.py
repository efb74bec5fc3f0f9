"""Whole-batch work equals its one-at-a-time spec.

Two places do a batch of work at once where the model is defined one item
at a time: the peel removes a whole minimum support class per wave, and
``count_block_touches`` tallies a whole access batch in one numpy pass.
These tests pin that neither is observable: the wave order depends only on
(support class, edge id), never on heap insertion history or heap
structure, and the vectorised touch count equals the device's per-access
tally.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.core.peeling import PlainDiskHeap, peel_below
from repro.graph.disk_graph import DiskGraph
from repro.graph.generators import gnm_random
from repro.semiexternal.support import compute_supports
from repro.storage import (
    DEFAULT_BLOCK_SIZE,
    BlockDevice,
    MemoryMeter,
    count_block_touches,
    semi_external_cache_blocks,
)
from repro.structures import LHDH


def _peel_order(graph, heap_factory, permute_seed=None):
    """The exact removal sequence peel_below produces for *graph*."""
    device = BlockDevice(
        cache_blocks=semi_external_cache_blocks(graph.n, DEFAULT_BLOCK_SIZE)
    )
    memory = MemoryMeter()
    disk_graph = DiskGraph(graph, device, memory, name="G")
    scan = compute_supports(disk_graph)
    supports = scan.supports.to_numpy()
    order = np.arange(graph.m)
    if permute_seed is not None:
        order = np.random.default_rng(permute_seed).permutation(graph.m)
    heap = heap_factory(
        device, order.tolist(), supports[order].tolist(), memory=memory
    )
    removed = []
    original_pop = heap.pop_edge

    def recording_pop(eid):
        removed.append(eid)
        return original_pop(eid)

    heap.pop_edge = recording_pop
    peel_below(heap, disk_graph, support_threshold=supports.max() + 1)
    return removed


class TestDeterministicPeelOrder:
    """Waves fix the peel order to (support class, edge id) — nothing else."""

    def test_insertion_order_is_irrelevant(self):
        graph = gnm_random(60, 400, seed=13)
        baseline = _peel_order(graph, PlainDiskHeap)
        for permute_seed in (1, 2):
            assert _peel_order(graph, PlainDiskHeap, permute_seed) == baseline

    def test_plain_heap_and_lhdh_agree(self):
        """Two different heap structures, one canonical removal sequence."""
        graph = gnm_random(60, 400, seed=13)
        lhdh = partial(LHDH, capacity=graph.m)
        assert _peel_order(graph, lhdh) == _peel_order(graph, PlainDiskHeap)

    def test_waves_are_ascending_edge_id_within_a_class(self):
        device = BlockDevice(
            cache_blocks=semi_external_cache_blocks(8, DEFAULT_BLOCK_SIZE)
        )
        heap = PlainDiskHeap(device, [5, 1, 9, 3], [2, 2, 2, 7])
        key, wave = heap.collect_min_class()
        assert key == 2
        assert wave == [1, 5, 9]


class TestCountBlockTouches:
    def test_matches_device_tally(self):
        rng = np.random.default_rng(3)
        device = BlockDevice(block_size=64, cache_blocks=8)
        extent = device.allocate("x", 4096)
        device.enable_touch_counting()
        offsets = rng.integers(0, 4000, size=50)
        lengths = rng.integers(1, 96, size=50)
        lengths = np.minimum(lengths, 4096 - offsets)
        for offset, length in zip(offsets.tolist(), lengths.tolist()):
            device.touch_read(extent, offset, length)
        assert (
            count_block_touches(offsets, lengths, 64)
            == device.touch_counts_by_extent()["x"]
        )

    def test_zero_length_and_empty(self):
        assert count_block_touches(np.array([0, 64]), np.array([0, 0]), 64) == 0
        assert count_block_touches(np.array([], dtype=np.int64), 8, 64) == 0
        # scalar broadcast
        assert count_block_touches(np.array([0, 64, 128]), 8, 64) == 3
