"""Tests for the composite LHDH structure."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import CapacityError, HeapEmptyError
from repro.storage import BlockDevice, MemoryMeter
from repro.structures import LHDH


def _build(keys, capacity=4, writeback=False):
    device = BlockDevice(block_size=64, cache_blocks=16)
    heap = LHDH(device, range(len(keys)), keys, capacity=capacity,
                memory=MemoryMeter(), writeback=writeback)
    return heap, device


class TestBasics:
    def test_initially_all_in_lheap(self):
        heap, _ = _build([3, 1, 2])
        assert len(heap.lheap) == 3
        assert len(heap.dheap) == 0

    def test_min_key_across_components(self):
        heap, _ = _build([5, 3, 9])
        heap.decrement_edge(0, 0)  # moves eid 0 into dheap at key 4
        assert 0 in heap.dheap
        assert heap.min_key() == 3

    def test_pop_min_global(self):
        heap, _ = _build([5, 3, 9])
        heap.decrement_edge(2, 0)  # eid 2 -> dheap at 8
        popped = [heap.pop_min() for _ in range(3)]
        assert [key for _, key in popped] == [3, 5, 8]

    def test_pop_empty(self):
        heap, _ = _build([])
        with pytest.raises(HeapEmptyError):
            heap.pop_min()

    def test_capacity_validation(self):
        device = BlockDevice(block_size=64, cache_blocks=16)
        with pytest.raises(CapacityError):
            LHDH(device, [], [], capacity=0)


class TestKernelProtocol:
    def test_key_if_alive(self):
        heap, _ = _build([4, 2])
        assert heap.key_if_alive(0) == 4
        heap.pop_min()  # removes eid 1
        assert heap.key_if_alive(1) is None

    def test_decrement_moves_to_dheap(self):
        heap, _ = _build([4, 2])
        heap.decrement_edge(0, 2)
        assert 0 in heap.dheap
        assert heap.dheap.key_of(0) == 3
        assert len(heap.lheap) == 1

    def test_decrement_at_level_is_noop(self):
        heap, _ = _build([2, 2])
        heap.decrement_edge(0, 2)  # key == level: pending deletion
        assert 0 not in heap.dheap
        assert heap.key_if_alive(0) == 2

    def test_repeated_decrements_stay_in_memory(self):
        heap, device = _build([10, 0])
        heap.decrement_edge(0, 0)
        device.drop_cache()
        device.stats.reset()
        heap.decrement_edge(0, 0)
        heap.decrement_edge(0, 0)
        assert device.stats.total_ios == 0  # pure dheap updates
        assert heap.dheap.key_of(0) == 7

    def test_spill_on_overflow(self):
        heap, _ = _build([9, 9, 9, 9, 9, 0], capacity=2)
        for eid in range(5):
            heap.decrement_edge(eid, 0)
        heap.after_kernel()
        assert len(heap.dheap) <= 2

    def test_writeback_when_dheap_top_is_min(self):
        """Paper-exact mode (Alg 4 lines 18-20)."""
        heap, _ = _build([5, 9], writeback=True)
        heap.decrement_edge(0, 0)   # dheap: (0, 4); lheap min = 9
        heap.after_kernel()         # 4 <= 9: written back
        assert 0 not in heap.dheap
        assert heap.lheap.key_of(0) == 4

    def test_writeback_keeps_smaller_lheap_min(self):
        heap, _ = _build([5, 1], writeback=True)
        heap.decrement_edge(0, 1)   # dheap: (0, 4); lheap min = 1
        heap.after_kernel()
        assert 0 in heap.dheap      # 1 < 4: stays lazy

    def test_writeback_off_by_default(self):
        heap, _ = _build([5, 9])
        heap.decrement_edge(0, 0)
        heap.after_kernel()
        assert 0 in heap.dheap      # lazy mode keeps it in memory
        assert heap.pop_min() == (0, 4)  # still pops the true minimum

    def test_live_items_spans_components(self):
        heap, _ = _build([4, 2, 6])
        heap.decrement_edge(2, 2)
        items = dict(heap.live_items())
        assert items == {0: 4, 1: 2, 2: 5}

    def test_release(self):
        heap, device = _build([1, 2])
        used = device.used_bytes
        heap.release()
        assert device.used_bytes < used


@given(st.lists(st.integers(min_value=1, max_value=15), min_size=1, max_size=30),
       st.integers(min_value=1, max_value=8))
def test_drain_sorted_after_random_decrements(keys, capacity):
    heap, _ = _build(keys, capacity=capacity)
    # Decrement a deterministic subset above level 0.
    for eid in range(0, len(keys), 3):
        if heap.key_if_alive(eid) is not None and heap.key_if_alive(eid) > 1:
            heap.decrement_edge(eid, 1)
    heap.after_kernel()
    drained = []
    while len(heap):
        drained.append(heap.pop_min()[1])
    assert drained == sorted(drained)
    assert len(drained) == len(keys)
