"""LHDH's two planes against its scalar spec.

:class:`repro.structures.LHDH` keeps its linear heap's records in Python
lists and posts the link-field accesses they would take, with the peel
kernel's own graph reads, through ``BlockDevice.replay`` in bounded chunks.
``tests/lhdh_reference.py::ReferenceLHDH`` is the structure before that
split: every touch a scalar device call, peeled by the scalar kernel
(``delete_edge_kernel``). These tests drive ``peel_below`` on both, on
twin devices, and demand the same removal order, peel tallies, survivors,
``IOStats``, per-extent bill, touch tally, buffer-pool state and model
memory — after every peel of an upward run, after a work-budget stop and
after release.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lhdh_reference import ReferenceLHDH
from test_batch_equivalence import _pool_state

from repro._util import WorkBudget
from repro.core.peeling import peel_below
from repro.errors import ArrayBoundsError, HeapError, WorkLimitExceeded
from repro.graph.disk_graph import DiskGraph
from repro.graph.generators import chung_lu, gnm_random, planted_kmax_truss
from repro.semiexternal.support import compute_supports
from repro.storage import (
    DEFAULT_BLOCK_SIZE,
    DEFAULT_CACHE_BLOCKS,
    BlockDevice,
    MemoryMeter,
)
from repro.structures import LHDH
from repro.structures.lhdh import _CHUNK

POLICIES = ["lru", "fifo", "clock"]

#: ``(block_size, cache_blocks)``: the golden table's pool, pools of one
#: and two frames where every touch churns, and the library default.
POOLS = [(256, 8), (256, 1), (256, 2), (DEFAULT_BLOCK_SIZE, DEFAULT_CACHE_BLOCKS)]

GRAPHS = {
    "gnm": lambda seed: gnm_random(24, 110, seed=seed),
    "chung_lu": lambda seed: chung_lu(60, average_degree=6, seed=seed),
    "planted": lambda seed: planted_kmax_truss(7, periphery_n=30, seed=seed),
}


def _peel_run(heap_class, graph, policy, pool, capacity, writeback, limit, start):
    """Upward peels from threshold *start* until the heap empties (or the
    budget stops them), then release; everything either plane can show."""
    block_size, cache_blocks = pool
    device = BlockDevice(block_size=block_size, cache_blocks=cache_blocks, policy=policy)
    device.enable_touch_counting()
    memory = MemoryMeter()
    disk_graph = DiskGraph(graph, device, memory)
    keys = compute_supports(disk_graph).supports.to_numpy()
    heap = heap_class(
        device, range(graph.m), keys, capacity=capacity or graph.n,
        memory=memory, name="heap", writeback=writeback,
    )
    removed = []
    pop_edge = heap.pop_edge
    heap.pop_edge = lambda eid: removed.append(eid) or pop_edge(eid)
    budget = WorkBudget(limit) if limit else None

    def ledger():
        return (
            device.stats.snapshot(), device.io_by_extent(),
            device.touch_counts_by_extent(), _pool_state(device),
            memory.current_bytes, memory.peak_bytes,
        )

    observed = []
    threshold = start
    try:
        while True:
            stats = peel_below(heap, disk_graph, threshold, budget)
            observed.append((dataclasses.astuple(stats), ledger()))
            observed.append((sorted(heap.live_items()), len(heap), ledger()))
            if len(heap) == 0:
                break
            threshold += 1
    except WorkLimitExceeded:
        observed.append(("stopped", ledger()))
    heap.release()
    observed.append(("released", ledger()))
    return removed, observed


def _assert_planes_match(**run):
    removed, observed = _peel_run(LHDH, **run)
    ref_removed, ref_observed = _peel_run(ReferenceLHDH, **run)
    assert removed == ref_removed
    for step, (got, expected) in enumerate(zip(observed, ref_observed)):
        assert got == expected, f"step {step} differs"
    assert len(observed) == len(ref_observed)


@pytest.mark.parametrize("family", sorted(GRAPHS))
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    policy=st.sampled_from(POLICIES),
    pool=st.sampled_from(POOLS),
    capacity=st.sampled_from([1, 3, None]),
    writeback=st.booleans(),
    limit=st.one_of(st.none(), st.integers(1, 150)),
    start=st.integers(0, 3),
)
def test_peel_matches_scalar_spec(family, seed, policy, pool, capacity, writeback,
                                  limit, start):
    """Every observable of an upward LHDH peel equals the scalar spec's —
    capacity ``None`` is the paper's ``n``; a drawn budget stops some runs
    mid-wave."""
    _assert_planes_match(
        graph=GRAPHS[family](seed), policy=policy, pool=pool, capacity=capacity,
        writeback=writeback, limit=limit, start=start,
    )


@pytest.mark.parametrize("policy", POLICIES)
def test_trace_spanning_many_chunks(policy, monkeypatch):
    """A peel whose trace fills several chunks posts each full chunk as it
    fills, none over the bound, and still bills as the scalar spec does —
    also when the budget stops it part-way."""
    graph = gnm_random(60, 700, seed=5)
    posts = []
    replay = BlockDevice.replay

    def counting_replay(self, extents, offsets, lengths, writes):
        names = {self._extent_names[extent] for extent in np.atleast_1d(extents).tolist()}
        if any(name.startswith("heap.lheap.") for name in names):
            posts.append(len(offsets))
        return replay(self, extents, offsets, lengths, writes)

    monkeypatch.setattr(BlockDevice, "replay", counting_replay)
    for limit in (None, 333):
        run = dict(graph=graph, policy=policy, pool=(256, 8), capacity=3,
                   writeback=False, limit=limit, start=100)
        posts.clear()
        removed, observed = _peel_run(LHDH, **run)
        lhdh_posts = list(posts)
        assert len(lhdh_posts) > 4
        assert max(lhdh_posts) == _CHUNK
        assert removed and observed
        _assert_planes_match(**run)


def test_methods_outside_a_peel_leave_nothing_pending():
    """Each public method posts before it returns, as the scalar touches
    were charged at once: the ledgers agree after every call."""
    keys = [5, 3, 9, 3, 7, 1, 4, 4]
    devices, heaps = [], []
    for heap_class in (LHDH, ReferenceLHDH):
        device = BlockDevice(block_size=64, cache_blocks=2)
        heap = heap_class(device, range(len(keys)), keys, capacity=2,
                          memory=MemoryMeter(), writeback=True)
        devices.append(device)
        heaps.append(heap)
    calls = [
        ("key_if_alive", (2,)), ("decrement_edge", (2, 1)),
        ("decrement_edge", (0, 1)), ("decrement_edge", (4, 1)),
        ("after_kernel", ()), ("collect_min_class", ()), ("pop_min", ()),
        ("pop_edge", (7,)), ("key_if_alive", (7,)), ("live_items", ()),
    ]
    for name, args in calls:
        results = [getattr(heap, name)(*args) for heap in heaps]
        if name == "live_items":
            results = [sorted(result) for result in results]
        assert results[0] == results[1], name
        assert devices[0].stats == devices[1].stats, name
        assert devices[0].io_by_extent() == devices[1].io_by_extent(), name
        assert _pool_state(devices[0]) == _pool_state(devices[1]), name


@pytest.mark.parametrize("heap_class", [LHDH, ReferenceLHDH])
def test_bad_ids_raise_as_the_spec_does(heap_class):
    """A negative or past-the-end id raises where a ``DiskArray`` cell
    would have, and a dead edge raises ``HeapError`` — never a wrapped
    list index."""
    device = BlockDevice(block_size=64, cache_blocks=4)
    heap = heap_class(device, range(4), [2, 2, 3, 1], capacity=2)
    for bad in (-1, 4):
        with pytest.raises(ArrayBoundsError):
            heap.pop_edge(bad)
        with pytest.raises(ArrayBoundsError):
            heap.decrement_edge(bad, 0)
        with pytest.raises(ArrayBoundsError):
            heap.probe_keys([0, bad])
    heap.pop_edge(3)
    with pytest.raises(HeapError):
        heap.pop_edge(3)
    with pytest.raises(HeapError):
        heap.decrement_edge(3, 0)
    assert heap.key_if_alive(3) is None

