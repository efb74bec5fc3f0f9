"""I/O-count-equivalence guard for the replay fast path.

The simulator's only contract is block-I/O counts (docs/io_model.md), so
:meth:`BlockDevice.replay` — and the batch entry points built on it — must
charge exactly what the scalar path charges — same ``IOStats``, same
per-extent breakdown, same touch tally, same buffer-pool end state — for
*any* access sequence and under every replacement policy.
:class:`ReferenceBlockDevice` replays as the literal per-access scalar
loop; these tests drive identical workloads through both and demand
byte-for-byte agreement, from hypothesis multi-extent traces up to full
truss decompositions.
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
from repro.errors import DeviceError
from repro.graph.generators import planted_kmax_truss
from repro.graph import memgraph
from repro.storage import (
    BlockDevice,
    ClockCache,
    DiskArray,
    MemoryMeter,
    ReferenceBlockDevice,
    count_block_touches,
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


# --------------------------------------------------------------------- #
# BlockDevice.replay: ordered multi-extent traces
# --------------------------------------------------------------------- #

#: Extent sizes of the replay traces: unequal, not block multiples.
TRACE_EXTENTS = (("a", 300), ("b", 1000), ("c", 77))


@st.composite
def traces(draw, max_size=60):
    """A replay trace ``(extents, offsets, lengths, writes)`` over
    :data:`TRACE_EXTENTS`: mixed reads and writes, zero lengths, accesses
    straddling blocks, and runs of repeats on one block."""
    accesses = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_size))):
        if accesses and draw(st.integers(min_value=0, max_value=3)) == 0:
            extent, offset, length, _write = accesses[-1]  # a repeat
        else:
            extent = draw(st.integers(min_value=0, max_value=len(TRACE_EXTENTS) - 1))
            size = TRACE_EXTENTS[extent][1]
            offset = draw(st.integers(min_value=0, max_value=size))
            length = draw(st.integers(min_value=0, max_value=min(120, size - offset)))
        accesses.append((extent, offset, length, draw(st.booleans())))
    columns = list(zip(*accesses)) or [(), (), (), ()]
    return (
        np.array(columns[0], dtype=np.int64),
        np.array(columns[1], dtype=np.int64),
        np.array(columns[2], dtype=np.int64),
        np.array(columns[3], dtype=bool),
    )


def _trace_device(cls, policy, block_size, cache_blocks):
    device = cls(block_size=block_size, cache_blocks=cache_blocks, policy=policy)
    for name, size in TRACE_EXTENTS:
        device.allocate(name, size)
    device.enable_touch_counting()
    return device


def _pool_state(device):
    """Everything the policy remembers: residency, dirty flags, order,
    and for CLOCK the frames, reference bits and hand."""
    cache = device._cache
    if isinstance(cache, ClockCache):
        return (
            list(cache._frames), dict(cache._dirty),
            dict(cache._referenced),
            cache._hand,
        )
    return list(cache._entries.items())


def _assert_same_state(fast, reference):
    assert fast.stats == reference.stats
    assert fast.io_by_extent() == reference.io_by_extent()
    assert fast.touch_counts_by_extent() == reference.touch_counts_by_extent()
    assert _pool_state(fast) == _pool_state(reference)


@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=60, deadline=None)
@given(
    trace=traces(),
    prefix=traces(max_size=20),
    block_size=st.sampled_from([8, 13, 64, 100]),
    cache_blocks=st.integers(min_value=1, max_value=6),
)
def test_replay_matches_reference(policy, trace, prefix, block_size, cache_blocks):
    """One replay charges, tallies and leaves the pool exactly as the
    scalar walk does — also from a warm, dirty pool."""
    fast = _trace_device(BlockDevice, policy, block_size, cache_blocks)
    reference = _trace_device(ReferenceBlockDevice, policy, block_size, cache_blocks)
    for device in (fast, reference):
        device.replay(*prefix)
        device.replay(*trace)
    _assert_same_state(fast, reference)
    expected = {}
    for extent, offset, length in zip(*(column.tolist() for column in trace[:3])):
        name = TRACE_EXTENTS[extent][0]
        expected[name] = expected.get(name, 0) + count_block_touches(
            [offset], [length], block_size
        )
    fresh = _trace_device(BlockDevice, policy, block_size, cache_blocks)
    fresh.replay(*trace)
    assert fresh.touch_counts_by_extent() == {
        name: count for name, count in expected.items() if count
    }
    fast.flush()
    reference.flush()
    _assert_same_state(fast, reference)


@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=40, deadline=None)
@given(trace=traces(), data=st.data())
def test_replay_of_halves_equals_replay_of_whole(policy, trace, data):
    """Posting a trace in pieces, in order, charges what posting it whole does."""
    cut = data.draw(st.integers(min_value=0, max_value=len(trace[0])), label="cut")
    whole = _trace_device(BlockDevice, policy, 64, 3)
    halves = _trace_device(BlockDevice, policy, 64, 3)
    whole.replay(*trace)
    halves.replay(*(column[:cut] for column in trace))
    halves.replay(*(column[cut:] for column in trace))
    _assert_same_state(whole, halves)


@pytest.mark.parametrize("device_class", [BlockDevice, ReferenceBlockDevice])
def test_replay_validates_before_charging(device_class):
    """A bad access anywhere in a trace raises and charges nothing."""
    good = (np.array([0, 1]), np.array([0, 10]), np.array([8, 8]), np.array([False, True]))
    bad_traces = [
        (np.array([0, 1, 2]), np.array([0, 10, 70]), np.array([8, 8, 8]), False),  # past the end
        (np.array([0, 1, 2]), np.array([0, 10, -1]), 4, False),  # negative offset
        (np.array([0, 1, 9]), np.array([0, 10, 0]), 8, False),  # unknown extent
        (np.array([0, -1]), np.array([0, 10]), 8, False),  # negative extent id
        (np.array([0, 1]), np.array([0, 10]), np.array([8, -8]), False),  # negative length
    ]
    for bad in bad_traces:
        device = _trace_device(device_class, "lru", 64, 4)
        with pytest.raises(DeviceError):
            device.replay(*bad)
        assert device.stats.total_ios == 0
        assert device.cached_block_count == 0
        assert device.touch_counts_by_extent() == {}
    readonly = _trace_device(device_class, "lru", 64, 4)
    readonly.readonly = True
    with pytest.raises(DeviceError, match="read-only"):
        readonly.replay(*good)
    assert readonly.stats.total_ios == 0 and readonly.cached_block_count == 0
    readonly.replay(good[0], good[1], good[2], False)  # reads stay legal
    assert readonly.stats.read_ios == 2


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
def test_support_scan_equivalence(policy, monkeypatch):
    """Replayed and scalar support scans: identical answers, bills, touch
    tallies, model memory and final pool state — on a graph the dense
    kernel takes and one the wedge kernel takes, at block sizes that do
    and do not divide the 8-byte cells."""
    dense_calls = []
    dense = memgraph._dense_supports
    monkeypatch.setattr(
        memgraph, "_dense_supports",
        lambda *args: dense_calls.append(args[0]) or dense(*args),
    )
    graphs = {
        "dense": gnm_random(60, 700, seed=5),
        "wedge": planted_kmax_truss(8, periphery_n=300, seed=3),
    }
    for kernel, graph in graphs.items():
        for block_size in (64, 8, 100):
            fast = BlockDevice(block_size=block_size, cache_blocks=16, policy=policy)
            reference = ReferenceBlockDevice(
                block_size=block_size, cache_blocks=16, policy=policy
            )
            fast.enable_touch_counting()
            reference.enable_touch_counting()
            fast_memory, ref_memory = MemoryMeter(), MemoryMeter()
            calls = len(dense_calls)
            fast_scan = compute_supports(DiskGraph(graph, fast, fast_memory))
            assert (len(dense_calls) > calls) == (kernel == "dense")
            ref_scan = compute_supports_reference(
                DiskGraph(graph, reference, ref_memory)
            )
            _assert_same_state(fast, reference)
            assert fast_memory.peak_bytes == ref_memory.peak_bytes
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
