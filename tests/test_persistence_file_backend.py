"""The ``file`` backend's contract: same charged bill, real bytes moved.

The tentpole guarantee of the persistence layer is *accounting
equivalence*: a :class:`FileBlockDevice` run charges exactly the
:class:`IOStats` (and per-extent breakdown) the simulator charges for the
same workload, while additionally issuing one real ``pread``/``pwrite``
per charged block I/O. These tests drive identical workloads — random
mixed device traffic, every algorithm, dynamic maintenance — through both
backends and demand byte-for-byte agreement on the charged side plus
nonzero physical counters on the file side, then verify the spill file's
lifecycle (private tmpdir removed on close, ``data_dir`` left empty).
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings

from repro.core.api import available_methods, max_truss
from repro.dynamic import DynamicMaxTruss
from repro.engine import EngineConfig, ExecutionContext, list_backends, make_device
from repro.errors import DeviceError
from repro.graph.generators import barabasi_albert, gnm_random
from repro.persistence import FSYNC_POLICIES, FileBlockDevice
from repro.storage import BlockDevice, semi_external_cache_blocks

from test_batch_equivalence import _apply, workloads

POLICIES = ["lru", "fifo", "clock"]
EXTENT_BYTES = 1024
ON_DISK_METHODS = [m for m in available_methods() if m != "in-memory"]


def _assert_charged_equal(file_device, sim_device):
    assert file_device.stats.read_ios == sim_device.stats.read_ios
    assert file_device.stats.write_ios == sim_device.stats.write_ios
    assert file_device.io_by_extent() == sim_device.io_by_extent()


# --------------------------------------------------------------------- #
# random mixed workloads (the property test)
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=30, deadline=None)
@given(ops=workloads)
def test_random_workload_counts_match_simulated(policy, ops):
    """File vs simulated charging agrees on arbitrary mixed workloads."""
    sim = BlockDevice(block_size=64, cache_blocks=4, policy=policy)
    # Private tmpdir (not the tmp_path fixture: hypothesis re-runs the
    # body many times per fixture instance); close() removes it.
    file_device = FileBlockDevice(
        block_size=64, cache_blocks=4, policy=policy, fsync_policy="never"
    )
    try:
        sim_extents = [sim.allocate(name, EXTENT_BYTES) for name in ("a", "b")]
        file_extents = [
            file_device.allocate(name, EXTENT_BYTES) for name in ("a", "b")
        ]
        for op, accesses in ops:
            _apply(sim, sim_extents, op, accesses)
            _apply(file_device, file_extents, op, accesses)
            _assert_charged_equal(file_device, sim)
        sim.flush()
        file_device.flush()
        _assert_charged_equal(file_device, sim)
    finally:
        file_device.close()


@pytest.mark.parametrize("policy", POLICIES)
def test_physical_bytes_are_block_multiples(policy, tmp_path):
    """Every physical transfer moves whole blocks (the I/O-model unit)."""
    device = FileBlockDevice(
        block_size=128, cache_blocks=4, policy=policy, data_dir=str(tmp_path)
    )
    try:
        extent = device.allocate("edges", 4096)
        for offset in range(0, 4096 - 96, 96):
            device.touch_read(extent, offset, 96)
            device.touch_write(extent, offset, 64)
        device.flush()
        physical = device.stats.physical
        assert physical.bytes_read == 128 * device.stats.read_ios
        assert physical.bytes_written == 128 * device.stats.write_ios
    finally:
        device.close()


# --------------------------------------------------------------------- #
# end-to-end: every method, every policy
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("method", ON_DISK_METHODS)
def test_all_methods_equivalent(method, policy):
    """ExecutionContext(backend='file') bills exactly like 'simulated'."""
    graph = gnm_random(60, 220, seed=7)
    sim_context = ExecutionContext(
        EngineConfig(backend="simulated", cache_policy=policy)
    )
    sim_result = max_truss(graph, method=method, context=sim_context)
    config = EngineConfig(backend="file", cache_policy=policy)
    with ExecutionContext(config) as file_context:
        file_result = max_truss(graph, method=method, context=file_context)
        assert file_result.k_max == sim_result.k_max
        assert file_context.stats == sim_context.stats
        _assert_charged_equal(file_context.device, sim_context.device)
        physical = file_context.stats.physical
        assert physical.bytes_read + physical.bytes_written > 0


def test_maintenance_equivalent():
    """Dynamic maintenance charges identically on both backends."""
    graph = barabasi_albert(50, attach=4, seed=11)
    present = {tuple(map(int, row)) for row in graph.edges}
    absent = [
        (u, v)
        for u in range(10)
        for v in range(u + 20, 50, 7)
        if (u, v) not in present
    ]
    first = tuple(map(int, graph.edges[0]))
    updates = [("insert", *absent[0]), ("insert", *absent[1]),
               ("delete", *first), ("insert", *absent[2]),
               ("insert", *absent[3])]
    small = dict(block_size=256, cache_blocks=8)
    sim_context = ExecutionContext(EngineConfig(backend="simulated", **small))
    sim_state = DynamicMaxTruss(
        barabasi_albert(50, attach=4, seed=11), context=sim_context
    )
    sim_state.apply_batch(updates)
    sim_context.device.flush()
    with ExecutionContext(EngineConfig(backend="file", **small)) as file_context:
        file_state = DynamicMaxTruss(graph, context=file_context)
        file_state.apply_batch(updates)
        file_context.device.flush()
        assert file_state.k_max == sim_state.k_max
        assert file_context.stats == sim_context.stats
        physical = file_context.stats.physical
        assert physical.bytes_read > 0 and physical.bytes_written > 0


# --------------------------------------------------------------------- #
# spill-file lifecycle
# --------------------------------------------------------------------- #


def test_data_dir_left_empty_after_close(tmp_path):
    graph = gnm_random(40, 150, seed=3)
    config = EngineConfig(backend="file", data_dir=str(tmp_path))
    with ExecutionContext(config) as context:
        max_truss(graph, context=context)
        assert len(list(tmp_path.iterdir())) == 1  # the live spill file
    assert list(tmp_path.iterdir()) == []


def test_private_tmpdir_removed_on_close():
    device = FileBlockDevice(block_size=64, cache_blocks=4)
    spill_dir = os.path.dirname(device.path)
    assert os.path.isdir(spill_dir)
    extent = device.allocate("x", 256)
    device.touch_write(extent, 0, 64)
    device.close()
    assert device.closed
    assert not os.path.exists(spill_dir)


def test_close_is_idempotent(tmp_path):
    device = FileBlockDevice(
        block_size=64, cache_blocks=4, data_dir=str(tmp_path)
    )
    device.close()
    device.close()
    assert device.closed


def test_close_releases_spill_file_when_flush_raises(monkeypatch):
    """A flush that dies mid-close (full disk, yanked mount) must still
    propagate — but never leak the spill file or its private tmpdir, and
    a follow-up close() must be a clean no-op."""
    device = FileBlockDevice(block_size=64, cache_blocks=4)
    spill_dir = os.path.dirname(device.path)
    extent = device.allocate("x", 256)
    device.touch_write(extent, 0, 64)
    monkeypatch.setattr(
        type(device), "flush",
        lambda self: (_ for _ in ()).throw(OSError(28, "No space left")),
    )
    with pytest.raises(OSError):
        device.close()
    monkeypatch.undo()
    assert device.closed
    assert not os.path.exists(spill_dir)
    device.close()  # still idempotent after the failed attempt
    assert device.closed


def test_close_releases_spill_file_when_fsync_raises(monkeypatch):
    device = FileBlockDevice(
        block_size=64, cache_blocks=4, fsync_policy="close"
    )
    spill_dir = os.path.dirname(device.path)
    extent = device.allocate("x", 256)
    device.touch_write(extent, 0, 64)
    monkeypatch.setattr(
        os, "fsync",
        lambda fd: (_ for _ in ()).throw(OSError(5, "Input/output error")),
    )
    with pytest.raises(OSError):
        device.close()
    monkeypatch.undo()
    assert device.closed
    assert not os.path.exists(spill_dir)
    device.close()
    assert device.closed


@pytest.mark.parametrize("policy", FSYNC_POLICIES)
def test_fsync_policies(policy, tmp_path):
    device = FileBlockDevice(
        block_size=64, cache_blocks=2, data_dir=str(tmp_path),
        fsync_policy=policy,
    )
    extent = device.allocate("x", 512)
    for offset in range(0, 512, 64):
        device.touch_write(extent, offset, 64)
    device.flush()
    flushed = device.stats.physical.fsyncs
    if policy == "always":
        assert flushed == device.stats.write_ios
    else:
        assert flushed == 0
    device.close()
    # "close" and "always" both issue a final barrier at close time.
    assert device.stats.physical.fsyncs == flushed + (policy != "never")


def test_bad_fsync_policy_rejected(tmp_path):
    with pytest.raises(DeviceError):
        FileBlockDevice(
            block_size=64, cache_blocks=4, data_dir=str(tmp_path),
            fsync_policy="sometimes",
        )
    with pytest.raises(DeviceError):
        EngineConfig(backend="file", fsync_policy="sometimes")


def test_grow_and_free_keep_regions_consistent(tmp_path):
    device = FileBlockDevice(
        block_size=64, cache_blocks=4, data_dir=str(tmp_path)
    )
    try:
        a = device.allocate("a", 256)
        b = device.allocate("b", 256)
        device.touch_write(a, 192, 64)
        device.grow(a, 1024)  # relocated past "b": still addressable
        device.touch_read(a, 960, 64)
        device.free(b)
        assert device.stats.physical.bytes_read % 64 == 0
        assert device.stats.physical.bytes_written % 64 == 0
    finally:
        device.close()


# --------------------------------------------------------------------- #
# registry surface
# --------------------------------------------------------------------- #


def test_file_backend_is_registered():
    assert "file" in list_backends()


def test_factory_dispatch_and_knob_forwarding(tmp_path):
    spill = make_device(
        EngineConfig(
            backend="file", block_size=128, cache_blocks=16,
            cache_policy="fifo", data_dir=str(tmp_path), fsync_policy="always",
        ),
        100,
    )
    try:
        assert isinstance(spill, FileBlockDevice)
        assert (spill.block_size, spill.cache_blocks) == (128, 16)
        assert spill.policy == "fifo"
        assert spill.fsync_policy == "always"
        assert os.path.dirname(spill.path) == str(tmp_path)
    finally:
        spill.close()
    auto = make_device(EngineConfig(backend="file", block_size=128), 10_000)
    try:
        # semi-external sizing: 32 bytes per vertex of pool
        assert auto.cache_blocks == semi_external_cache_blocks(10_000, 128)
        assert auto.cache_blocks == max(8, 32 * 10_000 // 128)
    finally:
        auto.close()


def test_unknown_backend_error_lists_names():
    with pytest.raises(DeviceError, match="file.*inmemory.*reference.*simulated"):
        EngineConfig(backend="floppy")
