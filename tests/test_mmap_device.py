"""The ``mmap`` backend's contract: same charged bill, tiered page model.

Four families of guarantees:

* **Charged bit-identity** — an :class:`MmapBlockDevice` charges exactly
  the :class:`IOStats` (and per-extent breakdown) the simulator charges
  for the same workload, on arbitrary hypothesis-generated mixed traffic.
  (The end-to-end method/policy/maintenance matrix lives in
  ``tests/test_engine.py::TestMmapBitIdentity``.)
* **Tier invariants** (the hypothesis property pack) — hot pages are
  never evicted under any access sequence; physical bytes are monotone
  non-increasing in the cold-cache size; a page faults at most once per
  eviction epoch; the batch path's and a multi-extent replay's physical
  model equal the scalar loop's exactly.
* **Zero-copy seam** — ``read_rgr_mapped`` round-trips, its views really
  are windows over the file mapping, and only read-only payloads are
  adopted as mappings (``DiskArray.attach``'s copy-on-write is pinned in
  ``tests/test_disk_array.py``).
* **Backend table / config surface** — ``make_device`` dispatch, knob
  forwarding, validation errors, defaults kept in sync with
  ``engine.config``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import max_truss
from repro.engine import EngineConfig, ExecutionContext, list_backends, make_device
from repro.engine.config import DEFAULT_COLD_CACHE_MB, DEFAULT_HOT_EXTENTS
from repro.errors import DeviceError
from repro.graph.disk_graph import DiskGraph
from repro.graph.generators import gnm_random, paper_example_graph
from repro.persistence import (
    FileBlockDevice,
    MmapBlockDevice,
    read_rgr,
    read_rgr_mapped,
    write_rgr,
)
from repro.persistence import mmap_device as mmap_module
from repro.storage import BlockDevice, DiskArray, MemoryMeter, semi_external_cache_blocks

from test_batch_equivalence import TRACE_EXTENTS, _apply, traces, workloads

POLICIES = ("lru", "fifo", "clock")
EXTENT_BYTES = 1024
PAGE = 64


def _device(cold_mb=1.0, hot=("truss",), **kwargs):
    kwargs.setdefault("block_size", PAGE)
    kwargs.setdefault("cache_blocks", 4)
    return MmapBlockDevice(hot_extents=hot, cold_cache_mb=cold_mb, **kwargs)


# --------------------------------------------------------------------- #
# charged bit-identity on random mixed workloads
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=30, deadline=None)
@given(ops=workloads)
def test_random_workload_counts_match_simulated(policy, ops):
    """mmap vs simulated charging agrees on arbitrary mixed workloads."""
    sim = BlockDevice(block_size=64, cache_blocks=4, policy=policy)
    mm = _device(policy=policy, cache_blocks=4)
    sim_extents = [sim.allocate(name, EXTENT_BYTES) for name in ("a", "b")]
    mm_extents = [mm.allocate(name, EXTENT_BYTES) for name in ("a", "b")]
    for op, accesses in ops:
        _apply(sim, sim_extents, op, accesses)
        _apply(mm, mm_extents, op, accesses)
        assert mm.stats.read_ios == sim.stats.read_ios
        assert mm.stats.write_ios == sim.stats.write_ios
        assert mm.io_by_extent() == sim.io_by_extent()
    sim.flush()
    mm.flush()
    assert mm.stats.read_ios == sim.stats.read_ios
    assert mm.stats.write_ios == sim.stats.write_ios


@settings(max_examples=30, deadline=None)
@given(ops=workloads)
def test_batch_physical_model_equals_scalar_loop(ops):
    """The batch fast path's page visits are exactly the scalar loop's:
    identical fault counts and touch tallies for any access sequence."""
    batched = _device()
    scalar = _device()
    b_ext = [batched.allocate(name, EXTENT_BYTES) for name in ("a", "b")]
    s_ext = [scalar.allocate(name, EXTENT_BYTES) for name in ("a", "b")]
    for op, accesses in ops:
        _apply(batched, b_ext, op, accesses)
        # Replay the same accesses element-at-a-time on the scalar device.
        offsets = [offset for offset, _ in accesses]
        extent = s_ext[offsets[0] % len(s_ext)]
        if op == "append":
            scalar.append_write(extent, offsets[0], accesses[0][1])
        else:
            for offset, length in accesses:
                if op in ("read_uniform", "write_uniform"):
                    offset, length = min(offset, EXTENT_BYTES - 8), 8
                if op.startswith("read"):
                    scalar.touch_read(extent, offset, length)
                else:
                    scalar.touch_write(extent, offset, length)
        # The charged ledgers differ (batch vs scalar share charged
        # equivalence only within one device's cache history — pinned by
        # test_batch_equivalence); the *physical* model must agree.
        assert (
            batched.physical_cache_stats() == scalar.physical_cache_stats()
        )
        assert (
            batched.physical.page_faults_est == scalar.physical.page_faults_est
        )


def _page_model(device):
    return (
        device.physical_cache_stats(),
        device.physical.page_faults_est,
        device.physical.bytes_read,
        list(device._cold),
        sorted(device._hot_resident),
        device.cold_evictions,
    )


@pytest.mark.parametrize("page_size", [None, 48])
@settings(max_examples=40, deadline=None)
@given(trace=traces())
def test_replay_physical_model_equals_scalar_loop(page_size, trace):
    """One multi-extent replay walks the tiers as the scalar loop does:
    same faults, tallies, cold-tier LRU order and hot residency. The cold
    tier is a few pages, shared by every extent, so order matters."""
    replayed = _device(hot=("c",), cold_mb=0.0004, page_size=page_size)
    scalar = _device(hot=("c",), cold_mb=0.0004, page_size=page_size)
    for device in (replayed, scalar):
        for name, size in TRACE_EXTENTS:
            device.allocate(name, size)
    replayed.replay(*trace)
    for extent, offset, length, write in zip(*(column.tolist() for column in trace)):
        if write:
            scalar.touch_write(extent, offset, length)
        else:
            scalar.touch_read(extent, offset, length)
    assert _page_model(replayed) == _page_model(scalar)
    assert replayed.stats == scalar.stats


# --------------------------------------------------------------------- #
# tier invariants: the property pack
# --------------------------------------------------------------------- #

#: (extent selector, page index) access sequences over a 16-page extent.
_SEQUENCES = st.lists(
    st.tuples(st.booleans(), st.integers(min_value=0, max_value=15)),
    min_size=1,
    max_size=120,
)


@settings(max_examples=60, deadline=None)
@given(seq=_SEQUENCES)
def test_hot_pages_never_evicted(seq):
    """Under ANY access sequence, a hot page faults at most once per
    epoch — cold traffic can never push it out."""
    device = _device(cold_mb=2 * PAGE / 2**20)  # cold tier: 2 pages
    hot = device.allocate("bu.truss", 16 * PAGE)
    cold = device.allocate("G.adj", 16 * PAGE)
    hot_pages_touched = set()
    for is_hot, page in seq:
        device.touch_read(hot if is_hot else cold, page * PAGE, 8)
        if is_hot:
            hot_pages_touched.add(page)
        tallies = device.physical_cache_stats()
        assert tallies.get("bu.truss", (0, 0))[1] == len(hot_pages_touched)
    # Re-touching every hot page seen so far faults nothing.
    before = device.physical.page_faults_est
    for page in hot_pages_touched:
        device.touch_read(hot, page * PAGE, 8)
    if hot_pages_touched:
        assert (
            device.physical_cache_stats()["bu.truss"][1]
            == len(hot_pages_touched)
        )
    assert device.physical.page_faults_est == before


@settings(max_examples=40, deadline=None)
@given(seq=_SEQUENCES)
def test_physical_bytes_monotone_in_cold_cache_size(seq):
    """Replaying one access sequence with a larger cold tier never reads
    more physical bytes: cache size only ever helps."""
    faulted = []
    for pages in (1, 2, 4, 16):
        device = _device(cold_mb=pages * PAGE / 2**20, hot=("nothing-hot",))
        extent_a = device.allocate("a", 16 * PAGE)
        extent_b = device.allocate("b", 16 * PAGE)
        for pick_a, page in seq:
            device.touch_read(extent_a if pick_a else extent_b, page * PAGE, 8)
        faulted.append(device.physical.bytes_read)
    assert faulted == sorted(faulted, reverse=True)


@pytest.mark.parametrize("tier", ["hot", "cold"])
def test_page_faults_once_per_eviction_epoch(tier):
    """With both tiers large enough, repeated full scans fault each page
    exactly once; drop_cache opens a new epoch and they fault once more."""
    device = _device(cold_mb=1.0, hot=("truss",))
    name = "bu.truss" if tier == "hot" else "G.adj"
    extent = device.allocate(name, 16 * PAGE)
    for epoch in (1, 2):
        for _scan in range(3):
            for page in range(16):
                device.touch_read(extent, page * PAGE, 8)
        assert device.physical_cache_stats()[name][1] == 16 * epoch
        assert device.epoch == epoch - 1
        device.drop_cache()
    assert device.epoch == 2


def test_cold_tier_evicts_lru_order():
    """The cold tier is a true LRU: re-touching a page protects it."""
    device = _device(cold_mb=2 * PAGE / 2**20, hot=("nothing",))  # 2 pages
    extent = device.allocate("adj", 16 * PAGE)
    device.touch_read(extent, 0 * PAGE, 8)   # resident: {0}
    device.touch_read(extent, 1 * PAGE, 8)   # resident: {0, 1}
    device.touch_read(extent, 0 * PAGE, 8)   # refresh 0 -> LRU victim is 1
    device.touch_read(extent, 2 * PAGE, 8)   # evicts 1; resident: {0, 2}
    faults_before = device.physical.page_faults_est
    device.touch_read(extent, 0 * PAGE, 8)   # still resident: hit
    assert device.physical.page_faults_est == faults_before
    device.touch_read(extent, 1 * PAGE, 8)   # was evicted: faults again
    assert device.physical.page_faults_est == faults_before + 1
    assert device.cold_evictions >= 1


def test_free_purges_resident_pages():
    device = _device(cold_mb=1.0, hot=("truss",))
    hot = device.allocate("truss", 4 * PAGE)
    cold = device.allocate("adj", 4 * PAGE)
    for page in range(4):
        device.touch_read(hot, page * PAGE, 8)
        device.touch_read(cold, page * PAGE, 8)
    assert device.hot_resident_pages == 4
    assert device.cold_resident_pages == 4
    device.free(hot)
    device.free(cold)
    assert device.hot_resident_pages == 0
    assert device.cold_resident_pages == 0


# --------------------------------------------------------------------- #
# hit-ratio attribution
# --------------------------------------------------------------------- #


def test_hit_ratio_tallies_and_bounds():
    device = _device(cold_mb=1.0, hot=("truss",))
    extent = device.allocate("bu.truss", 4 * PAGE)
    for _repeat in range(5):
        for page in range(4):
            device.touch_read(extent, page * PAGE, 8)
    touches, faults = device.physical_cache_stats()["bu.truss"]
    assert (touches, faults) == (20, 4)
    ratio = device.physical_hit_ratios()["bu.truss"]
    assert ratio == pytest.approx(16 / 20)
    assert 0.0 <= ratio <= 1.0


def test_hit_ratio_gauges_published_on_close():
    from repro.observability.metrics import (
        global_metrics, pop_metrics, push_metrics,
    )

    graph = gnm_random(60, 220, seed=7)
    push_metrics()
    try:
        with ExecutionContext(EngineConfig(backend="mmap")) as context:
            max_truss(graph, method="semi-binary", context=context)
        gauges = global_metrics().snapshot()["gauges"]
    finally:
        pop_metrics()
    physical = {
        name: value for name, value in gauges.items()
        if name.startswith("cache.hit_ratio") and "tier=physical" in name
    }
    assert physical, "physical hit-ratio gauges missing"
    assert all(0.0 <= value <= 1.0 for value in physical.values())


# --------------------------------------------------------------------- #
# zero-copy seam: read_rgr_mapped + DiskArray.attach
# --------------------------------------------------------------------- #


@pytest.fixture()
def rgr(tmp_path):
    path = tmp_path / "g.rgr"
    write_rgr(paper_example_graph(), path)
    return path


def test_read_rgr_mapped_round_trips(rgr):
    copied = read_rgr(rgr)
    mapped = read_rgr_mapped(rgr)
    assert mapped.n == copied.n and mapped.m == copied.m
    np.testing.assert_array_equal(mapped.offsets, copied.offsets)
    np.testing.assert_array_equal(mapped.adj, copied.adj)
    np.testing.assert_array_equal(mapped.adj_eids, copied.adj_eids)
    np.testing.assert_array_equal(mapped.edges, copied.edges)


def test_read_rgr_mapped_is_zero_copy(rgr):
    mapped = read_rgr_mapped(rgr)
    for view in (mapped.offsets, mapped.adj, mapped.adj_eids):
        assert not view.flags.writeable
        assert view.base.obj is mapped.rgr_mapping  # window over the file
    assert not mapped.edges.flags.writeable  # frozen derived data


def test_mapped_graph_runs_on_any_backend(rgr):
    mapped = read_rgr_mapped(rgr)
    truth = max_truss(paper_example_graph(), method="in-memory")
    for backend in ("simulated", "mmap"):
        with ExecutionContext(EngineConfig(backend=backend)) as context:
            result = max_truss(mapped, method="semi-binary", context=context)
        assert result.k_max == truth.k_max


def test_mapped_graph_adopted_by_mmap_device(rgr):
    mapped = read_rgr_mapped(rgr)
    with ExecutionContext(EngineConfig(backend="mmap")) as context:
        disk_graph = DiskGraph(mapped, context.device_for(mapped.n), MemoryMeter())
        assert disk_graph.adj.mapped
        assert disk_graph.adj_eids.mapped
        assert disk_graph.edge_endpoints.mapped
        assert context.device.mapped_extent_count == 3
        expected = (
            mapped.adj.nbytes + mapped.adj_eids.nbytes + mapped.edges.nbytes
        )
        assert context.stats.physical.bytes_mapped == expected


def test_in_memory_graph_adopted_by_nothing():
    with ExecutionContext(EngineConfig(backend="mmap")) as context:
        graph = paper_example_graph()
        DiskGraph(graph, context.device_for(graph.n), MemoryMeter())
        assert context.device.mapped_extent_count == 0
        assert context.stats.physical.bytes_mapped == 0


def test_mapped_payload_reads_share_memory():
    frozen = np.arange(64, dtype=np.int64)
    frozen.setflags(write=False)
    array = DiskArray.attach(_device(), frozen, name="ro")
    assert array.peek() is frozen
    assert array.get(5) == 5
    np.testing.assert_array_equal(array.gather(np.array([1, 3])), [1, 3])


# --------------------------------------------------------------------- #
# adopt_mapping / lifecycle
# --------------------------------------------------------------------- #


def test_adopt_mapping_accounts_bytes_and_rejects_unknown_extent():
    device = _device()
    view = np.zeros(32, dtype=np.int64)
    with pytest.raises(DeviceError, match="unknown extent"):
        device.adopt_mapping(99, view)
    extent = device.allocate("adj", view.nbytes)
    device.adopt_mapping(extent, view)
    assert device.physical.bytes_mapped == view.nbytes
    assert device.mapped_extent_count == 1
    device.free(extent)
    assert device.mapped_extent_count == 0


def test_close_releases_mapped_views():
    device = _device()
    extent = device.allocate("adj", 256)
    device.adopt_mapping(extent, np.zeros(32, dtype=np.int64))
    device.close()
    assert device.mapped_extent_count == 0


# --------------------------------------------------------------------- #
# backend table / config surface
# --------------------------------------------------------------------- #


def test_mmap_backend_is_registered():
    assert "mmap" in list_backends()


def test_defaults_in_sync_with_engine_config():
    assert mmap_module.DEFAULT_HOT_EXTENTS == DEFAULT_HOT_EXTENTS
    assert mmap_module.DEFAULT_COLD_CACHE_MB == DEFAULT_COLD_CACHE_MB


def test_factory_dispatch_and_knob_forwarding(tmp_path):
    explicit = make_device(
        EngineConfig(
            backend="mmap", block_size=128, cache_blocks=16,
            cache_policy="clock", hot_extents=("zeta",), cold_cache_mb=2.5,
        ),
        100,
    )
    assert isinstance(explicit, MmapBlockDevice)
    assert (explicit.block_size, explicit.cache_blocks) == (128, 16)
    assert explicit.policy == "clock"
    assert explicit.hot_extents == ("zeta",)
    assert explicit.cold_cache_mb == 2.5
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
    for backend in ("mmap", "file"):
        auto = make_device(EngineConfig(backend=backend, block_size=128), 10_000)
        # semi-external sizing: 32 bytes per vertex of pool
        assert auto.cache_blocks == semi_external_cache_blocks(10_000, 128)
        assert auto.cache_blocks == max(8, 32 * 10_000 // 128)
        auto.close()


def test_hot_classification_is_substring_match():
    device = _device(hot=("truss", "offsets"))
    device.allocate("bu.truss", 64)
    device.allocate("dyn.truss", 64)
    device.allocate("G.offsets", 64)
    device.allocate("G.adj", 64)
    assert device.hot_extent_names() == ("G.offsets", "bu.truss", "dyn.truss")


def test_config_validation_rejects_bad_tier_knobs():
    EngineConfig(hot_extents=())  # "pin nothing" is allowed
    for broken in (
        {"cold_cache_mb": 0},
        {"cold_cache_mb": -1.0},
        {"hot_extents": ("ok", "")},
        {"hot_extents": "truss"},  # a bare string, not a tuple
    ):
        with pytest.raises(DeviceError):
            EngineConfig(**broken)
    with pytest.raises(DeviceError):
        MmapBlockDevice(cold_cache_mb=0)


def test_config_summary_shows_tier_knobs():
    summary = EngineConfig(backend="mmap", cold_cache_mb=8.0).summary()
    assert "hot=" in summary and "cold_cache_mb=8" in summary
    assert "hot=" not in EngineConfig(backend="simulated").summary()
