"""I/O-count-equivalence guard for the batched accounting fast path.

The simulator's only contract is block-I/O counts (docs/io_model.md), so
the vectorized batch entry points of :class:`BlockDevice` must charge
exactly what the scalar path charges — same ``IOStats``, same per-extent
breakdown, same buffer-pool end state — for *any* access sequence and
under every replacement policy. :class:`ReferenceBlockDevice` replays
batch calls as the literal per-access scalar loop; these tests drive
identical workloads through both and demand byte-for-byte agreement,
from random mixed device workloads up to full truss decompositions.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EngineConfig, ExecutionContext, max_truss
from repro.graph.disk_graph import DiskGraph
from repro.graph.generators import barabasi_albert, gnm_random
from repro.semiexternal.support import compute_supports, compute_supports_reference
from repro.storage import (
    BlockDevice,
    DiskArray,
    MemoryMeter,
    ReferenceBlockDevice,
)

POLICIES = ["lru", "fifo", "clock"]

EXTENT_BYTES = 1024  # 16 blocks of 64 bytes — small enough to churn the pool


def _devices(policy, cache_blocks=4):
    fast = BlockDevice(block_size=64, cache_blocks=cache_blocks, policy=policy)
    reference = ReferenceBlockDevice(
        block_size=64, cache_blocks=cache_blocks, policy=policy
    )
    return fast, reference


def _assert_equivalent(fast, reference):
    assert fast.stats.read_ios == reference.stats.read_ios
    assert fast.stats.write_ios == reference.stats.write_ios
    assert fast.io_by_extent() == reference.io_by_extent()


# --------------------------------------------------------------------- #
# random mixed workloads (the property test)
# --------------------------------------------------------------------- #

def _accesses(max_size):
    """A batch of (offset, length) pairs within a EXTENT_BYTES extent."""
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=EXTENT_BYTES - 1),
            st.integers(min_value=0, max_value=96),
        ),
        min_size=1,
        max_size=max_size,
    ).map(
        lambda pairs: [
            (offset, min(length, EXTENT_BYTES - offset))
            for offset, length in pairs
        ]
    )


workloads = st.lists(
    st.one_of(
        st.tuples(st.just("read_batch"), _accesses(24)),
        st.tuples(st.just("write_batch"), _accesses(24)),
        # uniform scalar length — the gather/scatter specialisation
        st.tuples(st.just("read_uniform"), _accesses(24)),
        st.tuples(st.just("write_uniform"), _accesses(24)),
        st.tuples(st.just("append"), _accesses(1)),
    ),
    min_size=1,
    max_size=12,
)


def _apply(device, extents, op, accesses):
    offsets = np.array([offset for offset, _ in accesses], dtype=np.int64)
    lengths = np.array([length for _, length in accesses], dtype=np.int64)
    extent = extents[int(offsets[0]) % len(extents)]
    if op == "read_batch":
        device.touch_read_batch(extent, offsets, lengths)
    elif op == "write_batch":
        device.touch_write_batch(extent, offsets, lengths)
    elif op == "read_uniform":
        device.touch_read_batch(extent, np.minimum(offsets, EXTENT_BYTES - 8), 8)
    elif op == "write_uniform":
        device.touch_write_batch(extent, np.minimum(offsets, EXTENT_BYTES - 8), 8)
    elif op == "append":
        device.append_write(extent, int(offsets[0]), int(lengths[0]))


@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=40, deadline=None)
@given(ops=workloads)
def test_random_workload_counts_match(policy, ops):
    """Batched vs scalar charging agrees on arbitrary mixed workloads."""
    fast, reference = _devices(policy)
    fast_extents = [fast.allocate(name, EXTENT_BYTES) for name in ("a", "b")]
    ref_extents = [reference.allocate(name, EXTENT_BYTES) for name in ("a", "b")]
    for op, accesses in ops:
        _apply(fast, fast_extents, op, accesses)
        _apply(reference, ref_extents, op, accesses)
        # equivalence must hold at every step, not just at the end — a
        # transient cache divergence would surface later as a count drift
        _assert_equivalent(fast, reference)
    fast.flush()
    reference.flush()
    _assert_equivalent(fast, reference)
    assert dict(fast._cache.items()) == dict(reference._cache.items())


@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=25, deadline=None)
@given(
    indices=st.lists(st.integers(min_value=0, max_value=127), min_size=1, max_size=40),
    data=st.data(),
)
def test_gather_scatter_match_elementwise(policy, indices, data):
    """DiskArray.gather/scatter charge exactly like get/set loops."""
    fast, reference = _devices(policy)
    batch_array = DiskArray(fast, 128, np.int64, name="x")
    scalar_array = DiskArray(reference, 128, np.int64, name="x")
    index_array = np.array(indices, dtype=np.int64)
    if data.draw(st.booleans(), label="scatter_first"):
        values = np.arange(len(index_array), dtype=np.int64)
        batch_array.scatter(index_array, values)
        for index, value in zip(indices, values.tolist()):
            scalar_array.set(index, value)
    batch_array.gather(index_array)
    for index in indices:
        scalar_array.get(index)
    _assert_equivalent(fast, reference)


@pytest.mark.parametrize("policy", POLICIES)
def test_read_slices_matches_slice_loop(policy):
    """Batched multi-range reads charge exactly like read_slice loops."""
    rng = np.random.default_rng(42)
    starts = rng.integers(0, 200, size=64)
    counts = rng.integers(0, 56, size=64)
    fast, reference = _devices(policy)
    batch_array = DiskArray(fast, 256, np.int64, name="x")
    scalar_array = DiskArray(reference, 256, np.int64, name="x")
    values, bounds = batch_array.read_slices(starts, counts)
    expected = []
    for start, count in zip(starts.tolist(), counts.tolist()):
        expected.append(scalar_array.read_slice(start, start + count))
    _assert_equivalent(fast, reference)
    np.testing.assert_array_equal(values, np.concatenate(expected))
    np.testing.assert_array_equal(np.diff(bounds), counts)


# --------------------------------------------------------------------- #
# support scan
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("policy", POLICIES)
def test_support_scan_equivalence(policy):
    """Batched and scalar support scans: identical answers *and* bills."""
    graph = gnm_random(60, 700, seed=5)
    fast = BlockDevice(block_size=64, cache_blocks=16, policy=policy)
    reference = ReferenceBlockDevice(block_size=64, cache_blocks=16, policy=policy)
    fast_scan = compute_supports(DiskGraph(graph, fast, MemoryMeter()))
    ref_scan = compute_supports_reference(DiskGraph(graph, reference, MemoryMeter()))
    _assert_equivalent(fast, reference)
    assert fast_scan.triangle_count == ref_scan.triangle_count
    assert fast_scan.zero_support_edges == ref_scan.zero_support_edges
    assert fast_scan.max_support == ref_scan.max_support
    np.testing.assert_array_equal(
        fast_scan.supports.peek(), ref_scan.supports.peek()
    )


# --------------------------------------------------------------------- #
# full algorithm runs (the end-to-end guard of ISSUE's acceptance)
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize(
    "method", ["semi-binary", "semi-greedy-core", "semi-lazy-update"]
)
def test_decomposition_equivalence(method, policy):
    """Fast vs reference device: identical I/O bill on full seeded runs."""
    graph = barabasi_albert(120, attach=5, seed=7)
    pool = dict(block_size=64, cache_blocks=32, cache_policy=policy)
    fast = ExecutionContext(EngineConfig(backend="simulated", **pool))
    reference = ExecutionContext(EngineConfig(backend="reference", **pool))
    fast_result = max_truss(graph, method=method, context=fast)
    ref_result = max_truss(graph, method=method, context=reference)
    assert isinstance(reference.device, ReferenceBlockDevice)
    assert fast_result.k_max == ref_result.k_max
    assert fast_result.io.read_ios == ref_result.io.read_ios
    assert fast_result.io.write_ios == ref_result.io.write_ios
    _assert_equivalent(fast.device, reference.device)
