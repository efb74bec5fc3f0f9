"""Tests for the disk-based LinearHeap."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import HeapEmptyError, HeapError
from repro.storage import BlockDevice, MemoryMeter
from repro.structures import LinearHeap


def _build(eids, keys, **kwargs):
    device = BlockDevice(block_size=64, cache_blocks=16)
    return LinearHeap(device, eids, keys, **kwargs), device


class TestBuild:
    def test_size(self):
        heap, _ = _build([0, 1, 2], [5, 1, 3])
        assert len(heap) == 3

    def test_build_length_mismatch(self):
        device = BlockDevice(block_size=64, cache_blocks=16)
        with pytest.raises(HeapError):
            LinearHeap(device, [0, 1], [1])

    def test_empty_build(self):
        heap, _ = _build([], [])
        assert len(heap) == 0
        assert heap.min_key() is None

    def test_memory_charge(self):
        device = BlockDevice(block_size=64, cache_blocks=16)
        memory = MemoryMeter()
        LinearHeap(device, [0], [0], memory=memory)
        assert memory.current_bytes > 0


class TestOperations:
    def test_pop_min_order(self):
        heap, _ = _build([0, 1, 2, 3], [5, 1, 3, 1])
        popped = [heap.pop_min() for _ in range(4)]
        assert [key for _, key in popped] == [1, 1, 3, 5]

    def test_same_key_fifo_by_build_order(self):
        heap, _ = _build([0, 1, 2], [2, 2, 2])
        assert heap.pop_min()[0] == 0  # ascending ids within a bucket

    def test_top_does_not_remove(self):
        heap, _ = _build([0], [4])
        assert heap.top() == (0, 4)
        assert len(heap) == 1

    def test_pop_empty(self):
        heap, _ = _build([], [])
        with pytest.raises(HeapEmptyError):
            heap.pop_min()

    def test_contains_and_key_of(self):
        heap, _ = _build([0, 1], [3, 7])
        assert heap.contains(1)
        assert heap.key_of(1) == 7
        heap.remove(1)
        assert not heap.contains(1)
        with pytest.raises(HeapError):
            heap.key_of(1)

    def test_remove_relinks_bucket(self):
        heap, _ = _build([0, 1, 2], [4, 4, 4])
        heap.remove(1)  # middle of the bucket list
        assert sorted(heap.iter_bucket(4)) == [0, 2]

    def test_remove_head(self):
        heap, _ = _build([0, 1], [4, 4])
        heap.remove(0)
        assert list(heap.iter_bucket(4)) == [1]

    def test_double_remove_raises(self):
        heap, _ = _build([0], [1])
        heap.remove(0)
        with pytest.raises(HeapError):
            heap.remove(0)

    def test_update_key(self):
        heap, _ = _build([0, 1], [5, 9])
        heap.update_key(1, 2)
        assert heap.pop_min() == (1, 2)

    def test_decrement(self):
        heap, _ = _build([0], [5])
        assert heap.decrement(0) == 4
        assert heap.key_of(0) == 4

    def test_decrement_at_zero_raises(self):
        heap, _ = _build([0], [0])
        with pytest.raises(HeapError):
            heap.decrement(0)

    def test_insert_below_min_updates_cursor(self):
        heap, _ = _build([0], [9], num_edges=2)
        assert heap.min_key() == 9
        heap.insert(1, 2)
        assert heap.min_key() == 2

    def test_key_out_of_range(self):
        heap, _ = _build([0], [3])
        with pytest.raises(HeapError):
            heap.insert(1, heap.max_key + 1)

    def test_live_items(self):
        heap, _ = _build([0, 1, 2], [2, 0, 2])
        assert sorted(heap.live_items()) == [(0, 2), (1, 0), (2, 2)]

    def test_release_frees_extents(self):
        heap, device = _build([0, 1], [1, 2])
        used = device.used_bytes
        heap.release()
        assert device.used_bytes < used


class TestAccounting:
    def test_operations_charge_io(self):
        device = BlockDevice(block_size=64, cache_blocks=2)
        heap = LinearHeap(device, range(100), [i % 7 for i in range(100)])
        device.stats.reset()
        heap.pop_min()
        assert device.stats.total_ios >= 0  # cached small case
        device.drop_cache()
        device.stats.reset()
        heap.remove(50)
        assert device.stats.read_ios > 0

    def test_min_key_scan_is_free(self):
        device = BlockDevice(block_size=64, cache_blocks=4)
        heap = LinearHeap(device, range(10), [9] * 10, max_key=100)
        device.drop_cache()
        device.stats.reset()
        assert heap.min_key() == 9  # in-memory head scan
        assert device.stats.total_ios == 0


@given(
    st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=40)
)
def test_drain_is_sorted(keys):
    heap, _ = _build(range(len(keys)), keys)
    drained = []
    while len(heap):
        drained.append(heap.pop_min()[1])
    assert drained == sorted(keys)
