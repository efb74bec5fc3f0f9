"""Shared edge-peeling kernels.

All three static algorithms — and the maintenance fallbacks — reduce to the
same primitive: *repeatedly delete the minimum-support edge while its support
is below a threshold, decrementing the support of the two edges that close a
triangle with it* (Alg 1 lines 11–18, Alg 2 lines 15–22, Alg 4).

The kernel here is written once against a duck-typed **peel-heap protocol**:

``__len__``, ``min_key()``, ``collect_min_class()``, ``pop_edge(eid)``,
``probe_keys(eids)``, ``decrement_edges(eids, keys, level)``,
``after_kernel()``, ``live_items()``, ``release()``

:func:`peel_below` drains the heap in *waves*: one wave is the entire
minimum support class, processed in ascending edge-id order. Because a
decrement never moves a key at-or-below the wave's level, wave membership
is fixed at collection time — which makes the peel order fully
deterministic (independent of heap insertion history).

Two implementations exist:

* :class:`PlainDiskHeap` — a :class:`~repro.structures.LinearHeap`
  (the ``A_disk`` of SemiBinary / SemiGreedyCore): every support decrement
  is a disk-resident remove+insert, every aliveness probe a disk read.
* :class:`~repro.structures.LHDH` — the lazy composite used by
  SemiLazyUpdate: hot edges migrate into the in-memory dynamic heap, so
  repeated decrements are free.

A *heap kind* is passed around as its class: ``PlainDiskHeap``, or
``functools.partial(LHDH, capacity=c)``. Either is called as
``kind(device, eids, keys, memory=..., name=...)``.

Triangle bookkeeping: when edge ``e`` is popped at support ``s``, exactly
``s`` still-alive triangles through it are destroyed. The kernel tallies
these so the caller can apply Lemma 1's dynamic lower bound without a
rescan. A triangle ``(e, f, g)`` is processed only if *both* ``f`` and ``g``
are still alive (a dead edge already accounted for that triangle when it was
popped — adjacency lists are never physically rewritten).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .._util import WorkBudget
from ..errors import HeapEmptyError
from ..graph.disk_graph import DiskGraph
from ..observability.metrics import global_metrics
from ..observability.tracer import trace_span
from ..structures import LinearHeap

#: Peel-round widths are edge counts, not latencies — power-of-4 buckets.
_PEEL_WIDTH_BUCKETS = (0, 4, 16, 64, 256, 1024, 4096, 16384, 65536)


class PlainDiskHeap(LinearHeap):
    """``A_disk``: the bin-sorted disk array with fully eager updates.

    A :class:`~repro.structures.LinearHeap` that also speaks the peel-heap
    protocol, with every operation hitting the simulated disk — this is
    what makes SemiBinary/SemiGreedyCore pay the "reorder (u,w) and
    (v,w)" I/O that LHDH amortises away.
    """

    def collect_min_class(self) -> Tuple[int, List[int]]:
        """The minimum key and its full support class in ascending edge-id
        order (one peel *wave*; charged bucket walk)."""
        key = self.min_key()
        if key is None:
            raise HeapEmptyError("collect_min_class() on empty heap")
        return key, sorted(self.iter_bucket(key))

    def pop_edge(self, eid: int) -> int:
        """Remove a specific (alive) edge; returns its key."""
        return self.remove(eid)

    def decrement_edges(self, eids: np.ndarray, keys: np.ndarray, level: int) -> None:
        """Batched decrement reusing the keys from :meth:`probe_keys`,
        skipping the per-edge re-read of ``key_of``."""
        for eid, key in zip(
            np.asarray(eids, dtype=np.int64).tolist(),
            np.asarray(keys, dtype=np.int64).tolist(),
        ):
            if key > level:
                self.update_key(eid, key - 1)

    def after_kernel(self) -> None:
        """No lazy component — nothing to maintain."""


@dataclass
class PeelStats:
    """Tally of one peeling run."""

    removed_edges: int = 0
    destroyed_triangles: int = 0
    kernel_calls: int = 0

    def merge(self, other: "PeelStats") -> None:
        """Accumulate *other* into this tally."""
        self.removed_edges += other.removed_edges
        self.destroyed_triangles += other.destroyed_triangles
        self.kernel_calls += other.kernel_calls


def delete_edge_kernel(heap, subgraph: DiskGraph, eid: int, level: int) -> int:
    """Process the triangles of a just-popped edge (Algorithm 4 core).

    Returns the number of still-alive triangles destroyed. ``level`` is the
    popped edge's support: neighbouring edges with key above it are
    decremented; edges at or below it are pending deletion themselves.

    All triangle partners of the popped edge are distinct
    (``f_i = (u, w_i)``, ``g_i = (v, w_i)`` with ``w_i != u, v``), so
    probing them in one batch — and decrementing with the probed keys — is
    exactly equivalent to probing and decrementing them one triangle at a
    time.
    """
    u, v = subgraph.load_endpoints(eid)
    nbrs_u, eids_u = subgraph.load_neighbors_with_eids(u)
    nbrs_v, eids_v = subgraph.load_neighbors_with_eids(v)
    common, index_u, index_v = np.intersect1d(
        nbrs_u, nbrs_v, assume_unique=True, return_indices=True
    )
    if len(common) == 0:
        return 0
    f_ids = eids_u[index_u]
    g_ids = eids_v[index_v]
    f_keys = heap.probe_keys(f_ids)
    g_keys = heap.probe_keys(g_ids)
    alive = (f_keys >= 0) & (g_keys >= 0)
    destroyed = int(np.count_nonzero(alive))
    if destroyed:
        positions = np.flatnonzero(alive)
        pair_eids = np.stack([f_ids[positions], g_ids[positions]], axis=1)
        pair_keys = np.stack([f_keys[positions], g_keys[positions]], axis=1)
        above = pair_keys > level
        if above.any():
            # Row-major flattening keeps the scalar order: f then g,
            # triangle by triangle.
            heap.decrement_edges(pair_eids[above], pair_keys[above], level)
    return destroyed


def peel_below(
    heap,
    subgraph: DiskGraph,
    support_threshold: int,
    budget: Optional[WorkBudget] = None,
) -> PeelStats:
    """Delete every edge whose support falls below *support_threshold*.

    After the run, all surviving edges have (in-subgraph) support
    ``>= support_threshold`` — i.e. the survivors form the maximal
    ``(support_threshold + 2)``-truss edge set of *subgraph*.

    The peel proceeds in deterministic *waves*: the whole minimum support
    class is collected (ascending edge ids) and popped member by member.
    A decrement never moves a key to or below the wave's level, so no
    member's key changes mid-wave and edges demoted into the class simply
    form the next wave — the peel order depends only on (key, edge id),
    never on heap insertion history.
    """
    stats = PeelStats()
    with trace_span("peel", kind="kernel", threshold=support_threshold):
        while len(heap):
            current_min = heap.min_key()
            if current_min is None or current_min >= support_threshold:
                break
            level, wave = heap.collect_min_class()
            for eid in wave:
                if budget is not None:
                    budget.spend()
                heap.pop_edge(eid)
                destroyed = delete_edge_kernel(heap, subgraph, eid, level)
                stats.destroyed_triangles += destroyed
                heap.after_kernel()
                stats.removed_edges += 1
                stats.kernel_calls += 1
    # Round width (edges removed per threshold round) is the knob the
    # paper's lazy variants optimise; always cheap, always recorded.
    global_metrics().histogram(
        "peel.round_width", buckets=_PEEL_WIDTH_BUCKETS
    ).observe(stats.removed_edges)
    return stats


def surviving_edge_ids(heap) -> List[int]:
    """Edge ids still in the heap (charged traversal of the linear heap)."""
    return sorted(eid for eid, _key in heap.live_items())


def extract_truss_pairs(
    subgraph: DiskGraph,
    survivors: List[int],
    node_map: np.ndarray,
    edge_map: np.ndarray,
) -> List[Tuple[int, int]]:
    """Map surviving subgraph edge ids back to original ``(u, v)`` pairs."""
    pairs = []
    for eid in survivors:
        u, v = subgraph.edge_pair(int(eid))
        original_u, original_v = int(node_map[u]), int(node_map[v])
        pairs.append((min(original_u, original_v), max(original_u, original_v)))
    del edge_map  # edge ids are reported as endpoint pairs, not parent ids
    return sorted(pairs)
