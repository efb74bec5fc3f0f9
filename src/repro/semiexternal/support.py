"""Semi-external per-edge support computation (Alg 1 line 1, Alg 2 line 4).

Follows the node-at-a-time scan of Menegola's external triangle-listing
method, as cited by the paper: for each vertex ``u`` in increasing id order,
load ``N(u)`` once, mark it in an ``O(n)`` in-memory marker array, then for
every neighbour ``v > u`` load ``N(v)`` and count marked vertices — that
count is exactly ``sup((u, v)) = |N(u) ∩ N(v)|``.

Because the edge table is sorted lexicographically, the edges ``(u, v)`` with
``v > u`` for a fixed ``u`` occupy a contiguous edge-id range, so support
values stream to disk almost sequentially. Total I/O is the paper's
``O(|E| · d_max / B)``.

The scan runs as two planes that never meet:

* **values** — :meth:`~repro.graph.memgraph.Graph.edge_supports`, one
  in-process numpy pass with no Python loop over vertices: the wedge
  kernel of Wang & Cheng's in-memory truss decomposition (vertices ranked
  by ``(degree, id)``, each edge oriented from the lower rank to the
  higher, forward-neighbour pairs closed by one ``searchsorted``), or a
  float32 adjacency-matrix product on small dense graphs. Its scratch
  memory is outside the model bill.
* **charges** — the exact access sequence of the node-at-a-time scan,
  built as arrays and posted in chunks through
  :meth:`~repro.storage.BlockDevice.replay`, which charges what the
  scalar touches would. The bill meters the scan's ``O(n)`` marker.

:func:`compute_supports_reference` performs the scan itself, one scalar
touch at a time, and is the executable spec of both planes.

The scan's by-products feed the Lemma 1 bounds: the global triangle count,
the number of zero-support edges, and the maximum support.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.disk_graph import DiskGraph
from ..observability.tracer import trace_span
from ..storage import DiskArray

_ITEMSIZE = 8  # graph and support arrays are int64

#: Accesses per replayed chunk of the scan's trace (bounds its scratch).
_CHUNK = 1 << 14


@dataclass
class SupportScan:
    """Result of a semi-external support scan.

    Attributes
    ----------
    supports:
        ``DiskArray`` of per-edge support, indexed by edge id.
    triangle_count:
        ``Δ_G`` — total distinct triangles.
    zero_support_edges:
        ``|E⁰_sup(G)|`` — edges in no triangle.
    max_support:
        Maximum support over all edges (0 for triangle-free graphs).
    """

    supports: DiskArray
    triangle_count: int
    zero_support_edges: int
    max_support: int


def compute_supports(disk_graph: DiskGraph, name: str = "sup") -> SupportScan:
    """Compute the support of every edge of *disk_graph* semi-externally.

    Model memory is ``O(n)`` (the scan's marker array). The values come
    from :meth:`~repro.graph.memgraph.Graph.edge_supports`; the bill is
    the node-at-a-time scan's
    access sequence — ``N(u)`` in the adjacency and edge-id extents, then
    ``N(v)`` for each forward neighbour ``v > u``, then each forward
    edge's 8-byte support cell — replayed through the graph's device, so
    ``IOStats``, ``io_by_extent`` and the pool state equal
    :func:`compute_supports_reference`'s exactly.
    """
    n, m = disk_graph.n, disk_graph.m
    with trace_span("support_scan", kind="kernel", n=n, m=m, array=name):
        supports = DiskArray(disk_graph.device, m, np.int64, name=name)
        memory_tag = f"{name}.marker"
        disk_graph.memory.charge(memory_tag, 8 * n)
        try:
            values = disk_graph.graph.edge_supports()
            _replay_scan(disk_graph, supports)
            supports.adopt(values)
        finally:
            disk_graph.memory.release(memory_tag)
    support_sum = int(values.sum())
    zero_edges = int(np.count_nonzero(values == 0))
    max_support = int(values.max()) if m else 0
    # Each triangle contributes 1 to the support of each of its 3 edges.
    return SupportScan(supports, support_sum // 3, zero_edges, max_support)


def _replay_scan(disk_graph: DiskGraph, supports: DiskArray) -> None:
    """Charge the node-at-a-time scan's accesses, a chunk of vertices at a time.

    For each vertex ``u`` with ``d(u) > 0``, in id order: read ``N(u)`` in
    the adjacency extent, read it in the edge-id extent, read ``N(v)`` in
    the adjacency extent for each forward neighbour ``v > u``, then write
    the support cell of each forward edge. Chunks hold about
    ``_CHUNK`` accesses; replaying a trace in pieces, in order, charges
    what replaying it whole does.
    """
    graph = disk_graph.graph
    offsets, degrees = graph.offsets, graph.degrees
    adj, adj_eids = graph.adj, graph.adj_eids
    adj_extent = disk_graph.adj.extent
    eid_extent = disk_graph.adj_eids.extent
    sup_extent = supports.extent
    n = disk_graph.n
    # At most 2 + 2 d(u) accesses per vertex: cut chunks on that bound.
    bound = 2 * (np.arange(n + 1, dtype=np.int64) + offsets)
    lo = 0
    while lo < n:
        hi = int(np.searchsorted(bound, bound[lo] + _CHUNK, side="right")) - 1
        hi = min(max(hi, lo + 1), n)
        deg = degrees[lo:hi]
        rows = np.repeat(np.arange(lo, hi, dtype=np.int64), deg)
        nbrs = adj[offsets[lo]:offsets[hi]]
        forward = nbrs > rows
        fwd_v = nbrs[forward]
        fwd_u = rows[forward] - lo
        fwd_count = np.bincount(fwd_u, minlength=hi - lo)
        per_vertex = np.where(deg > 0, 2 + 2 * fwd_count, 0)
        starts = np.cumsum(per_vertex) - per_vertex
        total = int(per_vertex.sum())
        extents = np.empty(total, dtype=np.int64)
        positions = np.empty(total, dtype=np.int64)
        lengths = np.empty(total, dtype=np.int64)
        writes = np.zeros(total, dtype=bool)
        active = np.flatnonzero(deg > 0)
        head = starts[active]
        own_position = offsets[lo + active] * _ITEMSIZE
        own_length = deg[active] * _ITEMSIZE
        for slot, extent in ((head, adj_extent), (head + 1, eid_extent)):
            extents[slot] = extent
            positions[slot] = own_position
            lengths[slot] = own_length
        rank = np.arange(fwd_v.size, dtype=np.int64) - (np.cumsum(fwd_count) - fwd_count)[fwd_u]
        reads = starts[fwd_u] + 2 + rank
        extents[reads] = adj_extent
        positions[reads] = offsets[fwd_v] * _ITEMSIZE
        lengths[reads] = degrees[fwd_v] * _ITEMSIZE
        cells = reads + fwd_count[fwd_u]
        extents[cells] = sup_extent
        positions[cells] = adj_eids[offsets[lo]:offsets[hi]][forward] * _ITEMSIZE
        lengths[cells] = _ITEMSIZE
        writes[cells] = True
        disk_graph.device.replay(extents, positions, lengths, writes)
        lo = hi


def compute_supports_reference(disk_graph: DiskGraph, name: str = "sup") -> SupportScan:
    """Scalar reference implementation of :func:`compute_supports`.

    Walks the identical access sequence — ``N(u)``, then ``N(v)`` per
    forward neighbour, then one support write per forward edge — but one
    access at a time through the device's scalar touch path, exactly as the
    support scan did before the batched fast path existed. It backs the
    I/O-count-equivalence guard (both functions must produce identical
    ``IOStats`` and per-extent counters on equally configured devices) and
    the perf-regression benchmark's baseline timing. Algorithm code should
    always call :func:`compute_supports`.
    """
    n, m = disk_graph.n, disk_graph.m
    supports = DiskArray(disk_graph.device, m, np.int64, name=name)
    memory_tag = f"{name}.marker"
    disk_graph.memory.charge(memory_tag, 8 * n)
    marker = np.full(n, -1, dtype=np.int64)
    support_sum = 0
    zero_edges = 0
    max_support = 0
    try:
        for u in range(n):
            if disk_graph.degree(u) == 0:
                continue
            nbrs, eids = disk_graph.load_neighbors_with_eids(u)
            marker[nbrs] = u
            forward = nbrs > u
            if not forward.any():
                continue
            forward_nbrs = nbrs[forward]
            forward_eids = eids[forward]
            values = np.empty(len(forward_nbrs), dtype=np.int64)
            for index, v in enumerate(forward_nbrs.tolist()):
                v_nbrs = disk_graph.load_neighbors(v)
                values[index] = np.count_nonzero(marker[v_nbrs] == u)
            for eid, value in zip(forward_eids.tolist(), values.tolist()):
                supports.set(eid, value)
            support_sum += int(values.sum())
            zero_edges += int(np.count_nonzero(values == 0))
            if len(values):
                max_support = max(max_support, int(values.max()))
    finally:
        disk_graph.memory.release(memory_tag)
    triangle_count = support_sum // 3
    return SupportScan(supports, triangle_count, zero_edges, max_support)


def support_histogram(scan: SupportScan, upper: int) -> np.ndarray:
    """Histogram ``cnt[i] = |E^i_sup|`` for ``0 <= i <= upper`` (sequential
    read of the support file) — the ``ComputePrefix`` helper of Alg 1."""
    counts = np.zeros(upper + 1, dtype=np.int64)
    # Chunk on block boundaries so no block straddles two chunks: a
    # straddled block would be touched twice and, under a tiny buffer pool,
    # charged twice — keeping chunks block-aligned keeps the histogram's
    # I/O exactly ceil(m * itemsize / B) for any block size.
    supports = scan.supports
    per_block = max(1, supports.device.block_size // supports.itemsize)
    batch = max(per_block, (8192 // per_block) * per_block)
    for start in range(0, len(scan.supports), batch):
        stop = min(start + batch, len(scan.supports))
        chunk = scan.supports.read_slice(start, stop)
        clipped = np.minimum(chunk, upper)
        np.add.at(counts, clipped, 1)
    return counts


def prefix_positions(counts: np.ndarray) -> np.ndarray:
    """``pre(i)`` — starting position of support-``i`` edges in the sorted
    edge file ``T_edge`` (Alg 1 lines 28–31)."""
    prefix = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=prefix[1:])
    return prefix
