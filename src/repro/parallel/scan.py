"""Sharded support scan: workers compute values, the parent merges the bill.

The scan's access pattern is fully determined by the in-memory node file
and CSR image, so the parent can re-issue the *exact* serial touch
sequence — ``N(u)`` + edge ids, one batched forward-neighbour fetch, one
batched support scatter, vertex by vertex in canonical order — through
its own device without moving a byte. That replay is the ledger merge
(:mod:`repro.parallel.ledger`): per-shard ``IOStats`` deltas are the
per-worker charged ledgers, attributed to ``parallel.worker`` spans under
one ``parallel.round`` span, and their sum is bit-identical to the serial
bill for every backend, cache policy and worker count because the device
processes the same accesses in the same order either way.

Workers meanwhile fill one shared output array with the support values
(each edge is owned by exactly one shard — the one holding its lower
endpoint), which the parent adopts into the supports
:class:`~repro.storage.DiskArray` uncharged.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..graph.disk_graph import DiskGraph
from ..observability.tracer import trace_span
from ..storage import DiskArray, InMemoryBlockDevice
from .executor import ParallelExecutor
from .ledger import WorkerLedger, verify_merged_touches
from .shm import attach_array, share_output

_ITEMSIZE = 8

#: How far past the balanced cut to search for a block-aligned boundary.
_ALIGN_WINDOW = 64


def shard_vertices(
    offsets: np.ndarray, workers: int, block_size: int
) -> List[Tuple[int, int]]:
    """Split ``[0, n)`` into contiguous shards of ~equal adjacency volume.

    Cuts land on block boundaries of the adjacency extent when one exists
    within a small window past the balanced position, so shards are
    extent-aligned (two workers never share a block of the edge file)
    whenever the degree sequence allows it.
    """
    n = len(offsets) - 1
    if workers <= 1 or n <= 1:
        return [(0, n)]
    total = int(offsets[-1])
    cuts = [0]
    for k in range(1, workers):
        target = total * k // workers
        v = int(np.searchsorted(offsets, target, side="left"))
        v = max(v, cuts[-1] + 1)
        for candidate in range(v, min(v + _ALIGN_WINDOW, n)):
            if (int(offsets[candidate]) * _ITEMSIZE) % block_size == 0:
                v = candidate
                break
        if v >= n:
            break
        cuts.append(v)
    cuts.append(n)
    return [(cuts[i], cuts[i + 1]) for i in range(len(cuts) - 1)]


def _replay_shard_charges(
    disk_graph: DiskGraph,
    supports: DiskArray,
    lo: int,
    hi: int,
    forward_bounds: np.ndarray,
    forward_starts: np.ndarray,
    forward_lengths: np.ndarray,
    support_offsets: np.ndarray,
) -> None:
    """Charge one shard's canonical access sequence (no payload moves).

    Byte-for-byte the accesses ``_compute_supports_impl`` issues for
    vertices ``[lo, hi)``: two reads of ``N(u)``'s adjacency/edge-id
    slices, one batched read of all forward neighbourhoods, one batched
    8-byte scatter over the forward edge ids.
    """
    device = disk_graph.device
    offsets = disk_graph.offsets
    adj_extent = disk_graph.adj.extent
    eid_extent = disk_graph.adj_eids.extent
    sup_extent = supports.extent
    touch_read = device.touch_read
    read_batch = device.touch_read_batch
    write_batch = device.touch_write_batch
    offset_list = offsets[lo : hi + 1].tolist()
    bound_list = forward_bounds[lo : hi + 1].tolist()
    for index in range(hi - lo):
        start = offset_list[index]
        nbytes = (offset_list[index + 1] - start) * _ITEMSIZE
        if nbytes == 0:
            continue
        touch_read(adj_extent, start * _ITEMSIZE, nbytes)
        touch_read(eid_extent, start * _ITEMSIZE, nbytes)
        k0, k1 = bound_list[index], bound_list[index + 1]
        if k0 == k1:
            continue
        read_batch(adj_extent, forward_starts[k0:k1], forward_lengths[k0:k1])
        write_batch(sup_extent, support_offsets[k0:k1], _ITEMSIZE)


def parallel_compute_supports(
    disk_graph: DiskGraph, executor: ParallelExecutor, name: str = "sup"
):
    """Sharded :func:`~repro.semiexternal.support.compute_supports`.

    Identical result object, identical charged bill; wall-clock scales
    with the worker kernels instead of the serial marker loop.
    """
    from ..semiexternal.support import SupportScan

    n, m = disk_graph.n, disk_graph.m
    device = disk_graph.device
    graph = disk_graph.graph
    offsets = disk_graph.offsets
    shards = shard_vertices(offsets, executor.workers, device.block_size)

    with trace_span(
        "support_scan", kind="kernel", n=n, m=m, array=name,
        workers=executor.workers, shards=len(shards),
    ):
        out_segment, out_descriptor = share_output(m)
        try:
            with executor.published(graph) as image:
                tasks = [
                    (index, ("scan", image.key, out_descriptor, lo, hi, device.block_size))
                    for index, (lo, hi) in enumerate(shards)
                ]
                ledgers: List[WorkerLedger] = executor.pool.run_tasks(tasks)
            attached, out_view = attach_array(out_descriptor)
            values = np.array(out_view, dtype=np.int64, copy=True)
            del out_view
            attached.close()
        finally:
            out_segment.close()
            try:
                out_segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

        # ---- ledger merge: replay the canonical sequence, shard by shard.
        supports = DiskArray(device, m, np.int64, name=name)
        memory_tag = f"{name}.marker"
        # The model bill meters the canonical schedule's O(n) marker; the
        # workers' private scratch is outside the model (docs/io_model.md).
        disk_graph.memory.charge(memory_tag, 8 * n)
        try:
            rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
            forward_mask = graph.adj > rows
            forward_vs = graph.adj[forward_mask]
            forward_bounds = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(
                np.bincount(rows[forward_mask], minlength=n)[:n],
                out=forward_bounds[1:],
            )
            forward_starts = offsets[forward_vs] * _ITEMSIZE
            forward_lengths = (offsets[forward_vs + 1] - offsets[forward_vs]) * _ITEMSIZE
            support_offsets = graph.adj_eids[forward_mask] * _ITEMSIZE

            audit = device.touch_counting_enabled and not isinstance(
                device, InMemoryBlockDevice
            )
            touches_before = device.touch_counts_by_extent() if audit else {}
            with trace_span(
                "parallel.round", kind="parallel", kernel="support_scan",
                workers=executor.workers, shards=len(shards),
            ):
                for ledger, (lo, hi) in zip(ledgers, shards):
                    before = device.stats.snapshot()
                    with trace_span(
                        "parallel.worker", kind="parallel",
                        worker=ledger.worker_id, shard=[lo, hi],
                        claimed_touches=dict(ledger.touch_claims),
                    ):
                        _replay_shard_charges(
                            disk_graph, supports, lo, hi, forward_bounds,
                            forward_starts, forward_lengths, support_offsets,
                        )
                    ledger.charged = device.stats.since(before)
            if audit:
                verify_merged_touches(
                    ledgers, touches_before, device.touch_counts_by_extent(),
                    extent_names={
                        "adj": f"{disk_graph.name}.adj",
                        "adjeids": f"{disk_graph.name}.adjeids",
                        "sup": name,
                    },
                )
            supports.adopt(values)
        finally:
            disk_graph.memory.release(memory_tag)

        support_sum = int(values.sum())
        zero_edges = int(np.count_nonzero(values == 0))
        max_support = int(values.max()) if m else 0
        return SupportScan(supports, support_sum // 3, zero_edges, max_support)
