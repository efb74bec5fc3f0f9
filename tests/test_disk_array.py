"""Tests for DiskArray."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ArrayBoundsError
from repro.storage import BlockDevice, DiskArray


@pytest.fixture
def dev():
    return BlockDevice(block_size=64, cache_blocks=8)


class TestBasics:
    def test_length_and_dtype(self, dev):
        arr = DiskArray(dev, 10, np.int32, name="x")
        assert len(arr) == 10
        assert arr.dtype == np.dtype(np.int32)

    def test_get_set_roundtrip(self, dev):
        arr = DiskArray(dev, 10)
        arr.set(3, 42)
        assert arr.get(3) == 42

    def test_fill_parameter(self, dev):
        arr = DiskArray(dev, 5, fill=7)
        assert list(arr.to_numpy()) == [7] * 5

    def test_from_numpy_roundtrip(self, dev):
        values = np.arange(20, dtype=np.int64)
        arr = DiskArray.from_numpy(dev, values)
        assert np.array_equal(arr.to_numpy(), values)

    def test_read_slice_returns_copy(self, dev):
        arr = DiskArray.from_numpy(dev, np.arange(8))
        chunk = arr.read_slice(0, 4)
        chunk[0] = 99
        assert arr.get(0) == 0

    def test_write_slice(self, dev):
        arr = DiskArray(dev, 10)
        arr.write_slice(4, np.array([1, 2, 3]))
        assert list(arr.read_slice(4, 7)) == [1, 2, 3]

    def test_fill_method(self, dev):
        arr = DiskArray(dev, 6)
        arr.fill(-1)
        assert list(arr.to_numpy()) == [-1] * 6

    def test_negative_length_rejected(self, dev):
        with pytest.raises(ArrayBoundsError):
            DiskArray(dev, -1)

    def test_out_of_bounds_get(self, dev):
        arr = DiskArray(dev, 4)
        with pytest.raises(ArrayBoundsError):
            arr.get(4)
        with pytest.raises(ArrayBoundsError):
            arr.get(-1)

    def test_out_of_bounds_slice(self, dev):
        arr = DiskArray(dev, 4)
        with pytest.raises(ArrayBoundsError):
            arr.read_slice(0, 5)

    def test_zero_length_array(self, dev):
        arr = DiskArray(dev, 0)
        assert len(arr) == 0
        assert arr.to_numpy().size == 0


class TestGatherScatter:
    def test_gather(self, dev):
        arr = DiskArray.from_numpy(dev, np.arange(10) * 10)
        got = arr.gather(np.array([3, 1, 7]))
        assert list(got) == [30, 10, 70]

    def test_scatter(self, dev):
        arr = DiskArray(dev, 10)
        arr.scatter(np.array([2, 5]), np.array([20, 50]))
        assert arr.get(2) == 20
        assert arr.get(5) == 50

    def test_scatter_length_mismatch(self, dev):
        arr = DiskArray(dev, 10)
        with pytest.raises(ArrayBoundsError):
            arr.scatter(np.array([1]), np.array([1, 2]))

    def test_gather_out_of_bounds(self, dev):
        arr = DiskArray(dev, 4)
        with pytest.raises(ArrayBoundsError):
            arr.gather(np.array([4]))

    def test_empty_gather_scatter(self, dev):
        arr = DiskArray(dev, 4)
        assert arr.gather(np.array([], dtype=np.int64)).size == 0
        arr.scatter(np.array([], dtype=np.int64), np.array([], dtype=np.int64))


class TestAccounting:
    def test_sequential_read_charges_per_block(self):
        dev = BlockDevice(block_size=64, cache_blocks=16)
        arr = DiskArray.from_numpy(dev, np.arange(64))  # 512 bytes = 8 blocks
        dev.drop_cache()
        dev.stats.reset()
        arr.to_numpy()
        assert dev.stats.read_ios == 8

    def test_peek_is_free(self):
        dev = BlockDevice(block_size=64, cache_blocks=16)
        arr = DiskArray.from_numpy(dev, np.arange(64))
        dev.drop_cache()
        dev.stats.reset()
        arr.peek()
        assert dev.stats.total_ios == 0

    def test_free_releases_extent(self):
        dev = BlockDevice(block_size=64, cache_blocks=16)
        arr = DiskArray.from_numpy(dev, np.arange(8))
        used_before = dev.used_bytes
        arr.free()
        assert dev.used_bytes < used_before
        assert len(arr) == 0


class TestAttach:
    @pytest.mark.parametrize("mutate", ["set", "write_slice", "fill", "scatter"])
    def test_attach_copies_on_first_write(self, dev, mutate):
        source = np.arange(64, dtype=np.int64)
        frozen = source.copy()
        frozen.setflags(write=False)
        for shared in (source.copy(), frozen):
            array = DiskArray.attach(dev, shared, name="cow")
            # reads are served from the caller's buffer, not a copy
            assert array.mapped and array.peek() is shared
            assert array.get(5) == 5
            np.testing.assert_array_equal(array.gather(np.array([1, 3])), [1, 3])
            if mutate == "set":
                array.set(3, 99)
            elif mutate == "write_slice":
                array.write_slice(0, np.array([99], dtype=np.int64))
            elif mutate == "fill":
                array.fill(99)
            else:
                array.scatter(np.array([3]), np.array([99]))
            assert not array.mapped
            assert 99 in array.peek()
            np.testing.assert_array_equal(shared, source)  # caller's array untouched

    def test_attach_rejects_2d_views(self, dev):
        with pytest.raises(ArrayBoundsError, match="1-d"):
            DiskArray.attach(dev, np.zeros((4, 2), dtype=np.int64))


@given(st.lists(st.integers(min_value=-(2**40), max_value=2**40), max_size=64))
def test_roundtrip_property(values):
    dev = BlockDevice(block_size=32, cache_blocks=4)
    arr = DiskArray.from_numpy(dev, np.array(values, dtype=np.int64))
    assert list(arr.to_numpy()) == values
