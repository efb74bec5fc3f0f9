"""SemiBinary — Algorithm 1: binary search for the ``k_max``-truss.

Flow (paper §III-A): compute all supports semi-externally, sort the edge
file by support (``T_edge(G)``), seed ``[lb, ub]`` from Lemma 1 / Lemma 2,
then binary search: for each probe ``mid``, materialise the subgraph ``H``
of edges with support ``>= mid − 2``, recompute supports inside ``H``,
bin-sort them into ``A_disk`` (a :class:`PlainDiskHeap`), and peel. A
successful probe keeps peeling the *same* heap at progressively higher
thresholds (lines 19–24's ``goto``), re-tightening ``lb`` with Lemma 1's
dynamic form; a failed probe lowers ``ub`` and rebuilds.

Correctness safety nets (see :mod:`repro.core.bounds` on Lemma 1's
soundness): a downward restart when nothing is found in ``[lb, ub]``, and a
final upward verification sweep bounded by the smallest probe that ever
failed. Both are no-ops / one extra probe when the paper's bound holds.

The same search engine drives the *local* phase of SemiGreedyCore and
SemiLazyUpdate (on ``G_cmax``), parameterised by the heap kind
(``PlainDiskHeap`` or ``partial(LHDH, capacity=c)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from .._util import WorkBudget
from ..engine.context import ContextLike
from ..graph.disk_graph import DiskGraph
from ..graph.memgraph import Graph
from ..observability.tracer import trace_span
from ..semiexternal.support import (
    SupportScan,
    compute_supports,
    prefix_positions,
    support_histogram,
)
from ..storage import DiskArray, MemoryMeter
from ..storage.external_sort import external_argsort_by_key
from . import bounds
from .peeling import (
    PeelStats,
    PlainDiskHeap,
    extract_truss_pairs,
    peel_below,
    surviving_edge_ids,
)
from .result import MaxTrussResult
from .run import ChargedRun

#: A heap kind: called as ``kind(device, eids, keys, memory=, name=)``.
HeapFactory = Callable[..., object]


@dataclass
class SearchOutcome:
    """What the binary-search engine learned.

    ``probes`` counts emptiness tests (the inner progressive loop's
    threshold bumps included); ``scans`` counts *full support scans* —
    subgraph materialisations with a fresh ``compute_supports`` pass, the
    search's expensive I/O unit.
    """

    k_max: Optional[int]
    failed_min: Optional[int]
    probes: int
    scans: int = 0
    peel: PeelStats = field(default_factory=PeelStats)


@dataclass
class SortedEdgeFile:
    """``T_edge``: edge ids sorted by support, plus the ``pre`` positions."""

    t_edge: DiskArray
    prefix: np.ndarray  # prefix[s] = first position with support >= s
    max_support: int

    def select_at_least(self, min_support: int) -> np.ndarray:
        """Edge ids with support ``>= min_support`` (sequential tail read)."""
        if min_support <= 0:
            start = 0
        elif min_support > self.max_support:
            return np.empty(0, dtype=np.int64)
        else:
            start = int(self.prefix[min_support])
        return self.t_edge.read_slice(start, len(self.t_edge))

    def release(self) -> None:
        """Free the on-disk sorted file."""
        self.t_edge.free()


def build_sorted_edge_file(
    scan: SupportScan, memory_elems: int = 1 << 16
) -> SortedEdgeFile:
    """External-sort the support file into ``T_edge`` (Alg 1 lines 3–5)."""
    with trace_span("sort_edge_file", kind="kernel"):
        t_edge = external_argsort_by_key(
            scan.supports, memory_elems, name="Tedge"
        )
        histogram = support_histogram(scan, scan.max_support)
        prefix = prefix_positions(histogram)
        return SortedEdgeFile(t_edge, prefix, scan.max_support)


def _probe_subgraph(
    parent: DiskGraph,
    edge_file: SortedEdgeFile,
    min_support: int,
    heap_factory: HeapFactory,
    memory: MemoryMeter,
    tag: str,
):
    """Materialise H = edges with parent-support >= min_support, with its
    freshly computed internal supports loaded into a peel heap.

    Returns ``(H, node_map, edge_map, heap, h_scan)`` or ``None`` when the
    selection is empty.
    """
    with trace_span("probe", kind="kernel", tag=tag, min_support=min_support):
        eids = edge_file.select_at_least(min_support)
        if len(eids) == 0:
            return None
        subgraph, node_map, edge_map = parent.edge_subgraph(
            eids, name=f"H.{tag}"
        )
        h_scan = compute_supports(subgraph, name=f"hsup.{tag}")
        # sequential read feeding the bin sort
        keys = h_scan.supports.to_numpy()
        heap = heap_factory(
            parent.device, range(subgraph.m), keys, memory=memory,
            name=f"heap.{tag}",
        )
        return subgraph, node_map, edge_map, heap, h_scan


def _release_probe(probe) -> None:
    subgraph, _node_map, _edge_map, heap, h_scan = probe
    heap.release()
    h_scan.supports.free()
    subgraph.release()


def binary_search_kmax(
    parent: DiskGraph,
    edge_file: SortedEdgeFile,
    lb: int,
    ub: int,
    heap_factory: HeapFactory,
    memory: MemoryMeter,
    budget: Optional[WorkBudget] = None,
) -> SearchOutcome:
    """The shared binary-search engine (Alg 1 lines 6–26 / Alg 3 lines 2–17).

    Probes ``mid = (lb + ub) // 2``; on success keeps draining the same heap
    at progressively higher thresholds, on failure rebuilds with a lower
    ``ub``. Returns the largest ``k`` whose truss was certified non-empty
    (or ``None``) plus the smallest ``k`` that ever failed.
    """
    outcome = SearchOutcome(k_max=None, failed_min=None, probes=0)
    lb, ub = bounds.clamp_bounds(lb, ub)
    while lb <= ub:
        mid = (lb + ub) // 2
        outcome.probes += 1
        probe = _probe_subgraph(
            parent, edge_file, mid - 2, heap_factory, memory,
            tag=f"p{outcome.probes}",
        )
        if probe is None:
            outcome.failed_min = min(outcome.failed_min or mid, mid)
            ub = mid - 1
            continue
        outcome.scans += 1
        subgraph, _node_map, _edge_map, heap, h_scan = probe
        remaining_triangles = h_scan.triangle_count
        try:
            # Inner progressive loop: lines 11-24 with the success `goto`.
            while True:
                stats = peel_below(heap, subgraph, mid - 2, budget)
                outcome.peel.merge(stats)
                remaining_triangles -= stats.destroyed_triangles
                if len(heap) == 0:
                    outcome.failed_min = min(outcome.failed_min or mid, mid)
                    ub = mid - 1
                    break  # rebuild from T_edge with a lower ub
                outcome.k_max = mid
                dynamic_lb = bounds.lemma1_dynamic_lower_bound(
                    remaining_triangles, len(heap)
                )
                lb = max(mid + 1, dynamic_lb)
                if lb > ub:
                    break
                mid = (lb + ub) // 2
                outcome.probes += 1
        finally:
            _release_probe(probe)
    return outcome


def probe_truss_exists(
    parent: DiskGraph,
    edge_file: SortedEdgeFile,
    k: int,
    heap_factory: HeapFactory,
    memory: MemoryMeter,
    budget: Optional[WorkBudget] = None,
    tag: str = "verify",
) -> bool:
    """One emptiness test: does a k-truss exist? (rebuild + peel)."""
    probe = _probe_subgraph(parent, edge_file, k - 2, heap_factory, memory, tag=tag)
    if probe is None:
        return False
    subgraph, _node_map, _edge_map, heap, _h_scan = probe
    try:
        peel_below(heap, subgraph, k - 2, budget)
        return len(heap) > 0
    finally:
        _release_probe(probe)


def materialise_truss(
    parent: DiskGraph,
    edge_file: SortedEdgeFile,
    k: int,
    heap_factory: HeapFactory,
    memory: MemoryMeter,
    budget: Optional[WorkBudget] = None,
) -> List[Tuple[int, int]]:
    """Rebuild at level *k*, peel, and return the truss edge pairs in the
    parent graph's vertex labelling (Alg 1 line 27's output step)."""
    probe = _probe_subgraph(parent, edge_file, k - 2, heap_factory, memory, tag="out")
    if probe is None:
        return []
    subgraph, node_map, edge_map, heap, _h_scan = probe
    try:
        peel_below(heap, subgraph, k - 2, budget)
        survivors = surviving_edge_ids(heap)
        return extract_truss_pairs(subgraph, survivors, node_map, edge_map)
    finally:
        _release_probe(probe)


def verified_kmax(
    parent: DiskGraph,
    edge_file: SortedEdgeFile,
    outcome: SearchOutcome,
    initial_lb: int,
    ub: int,
    heap_factory: HeapFactory,
    memory: MemoryMeter,
    budget: Optional[WorkBudget] = None,
) -> Tuple[int, SearchOutcome]:
    """Apply both safety nets around a search outcome; returns exact k_max.

    Net 1: nothing found although triangles exist -> the Lemma 1 seed
    overshot; restart from the sound floor of 3 below the failed region.
    Net 2: sweep upward past the found value until a failure is certain.
    """
    if outcome.k_max is None and initial_lb > 3:
        retry_ub = min(ub, initial_lb - 1)
        retry = binary_search_kmax(
            parent, edge_file, 3, retry_ub, heap_factory, memory, budget
        )
        retry.probes += outcome.probes
        retry.scans += outcome.scans
        retry.peel.merge(outcome.peel)
        retry.failed_min = min(
            filter(None, (retry.failed_min, outcome.failed_min)), default=None
        )
        outcome = retry
    if outcome.k_max is None:
        # Triangles exist, so a 3-truss must: certify it directly.
        outcome.scans += 1
        outcome.k_max = 3 if probe_truss_exists(
            parent, edge_file, 3, heap_factory, memory, budget
        ) else 2
    k = outcome.k_max + 1
    while outcome.failed_min is None or k < outcome.failed_min:
        outcome.probes += 1
        outcome.scans += 1
        if probe_truss_exists(
            parent, edge_file, k, heap_factory, memory, budget, tag=f"up{k}"
        ):
            outcome.k_max = k
            k += 1
        else:
            outcome.failed_min = min(outcome.failed_min or k, k)
            break
    return outcome.k_max, outcome


def semi_binary(
    graph: Graph,
    budget: Optional[WorkBudget] = None,
    context: Optional[ContextLike] = None,
) -> MaxTrussResult:
    """Compute the ``k_max``-truss of *graph* with SemiBinary (Algorithm 1).

    Parameters
    ----------
    graph:
        The input graph (materialised onto the context's device before
        timing-relevant work, mirroring the paper's excluded preprocessing).
    budget:
        Optional work cap (the "INF" emulation for benchmarks); defaults
        to the context's ``work_limit``.
    context:
        :class:`~repro.engine.ExecutionContext` (or bare
        :class:`~repro.engine.EngineConfig`) selecting the storage backend
        and aggregating I/O and memory across phases.
    """
    run = ChargedRun("SemiBinary", graph, context, budget)
    disk_graph, memory, budget = run.disk_graph, run.memory, run.budget
    if graph.m == 0:
        return run.result(0, [])

    scan = compute_supports(disk_graph)
    if scan.triangle_count == 0:
        # No triangles: every edge has trussness 2.
        scan.supports.free()
        return run.result(2, graph.edge_pairs(), triangles=0)

    lb = bounds.lemma1_lower_bound(
        scan.triangle_count, graph.m, scan.zero_support_edges
    )
    ub = bounds.support_upper_bound(scan.max_support)
    lb, ub = bounds.clamp_bounds(lb, ub)
    edge_file = build_sorted_edge_file(scan)

    outcome = binary_search_kmax(
        disk_graph, edge_file, lb, ub, PlainDiskHeap, memory, budget
    )
    k_max, outcome = verified_kmax(
        disk_graph, edge_file, outcome, lb, ub, PlainDiskHeap, memory, budget
    )
    if k_max <= 2:
        truss_pairs = graph.edge_pairs()
        k_max = 2
    else:
        truss_pairs = materialise_truss(
            disk_graph, edge_file, k_max, PlainDiskHeap, memory, budget
        )
    edge_file.release()
    scan.supports.free()
    return run.result(
        k_max,
        truss_pairs,
        triangles=scan.triangle_count,
        initial_lb=lb,
        initial_ub=ub,
        search_probes=outcome.probes,
        # +1 for the opening global scan, +1 for materialising the
        # output truss.
        support_scans=1 + outcome.scans + (1 if k_max > 2 else 0),
        peeled_edges=outcome.peel.removed_edges,
    )
