"""SemiGreedyCore — Algorithm 2: core pruning + greedy local truss.

Flow (paper §III-B):

1. semi-external core decomposition gives every vertex its coreness;
2. the maximum-coreness vertices induce ``G_cmax``; a binary search *inside
   it* (same engine as SemiBinary, seeded by Lemma 1 and the Lemma 3 upper
   bound ``c_max + 1``) yields the local ``k'_max`` — typically within a few
   units of the global answer (Table II);
3. Lemma 4/5: ``lb = k'_max`` and the ``k_max``-truss lives in ``H'``, the
   subgraph induced by vertices with coreness ``>= lb − 1``;
4. peel ``H'`` upward level by level until the truss vanishes; the last
   non-empty level is the ``k_max``-truss.

SemiLazyUpdate (Algorithm 3) is this exact flow with the peel heap swapped
for LHDH — both are produced by :func:`greedy_core_flow`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .._util import WorkBudget
from ..engine.context import ContextLike
from ..graph.disk_graph import DiskGraph
from ..graph.memgraph import Graph
from ..semiexternal.core_decomp import semi_external_core_decomposition
from ..semiexternal.support import compute_supports
from ..storage import MemoryMeter
from . import bounds
from .peeling import (
    PlainDiskHeap,
    extract_truss_pairs,
    peel_below,
    surviving_edge_ids,
)
from .result import MaxTrussResult
from .run import ChargedRun
from .semi_binary import (
    HeapFactory,
    binary_search_kmax,
    build_sorted_edge_file,
    verified_kmax,
)


def _local_kmax_search(
    g_cmax: DiskGraph,
    c_max: int,
    heap_factory: HeapFactory,
    memory: MemoryMeter,
    budget: Optional[WorkBudget],
):
    """Binary search inside ``G_cmax`` (Alg 2 lines 4–9 / Alg 3 lines 1–17).

    Returns ``(k_prime, probes, triangles_in_cmax)``.
    """
    if g_cmax.m == 0:
        return 2, 0, 0
    scan = compute_supports(g_cmax, name="csup")
    if scan.triangle_count == 0:
        scan.supports.free()
        return 2, 0, 0
    lb = bounds.lemma1_lower_bound(
        scan.triangle_count, g_cmax.m, scan.zero_support_edges
    )
    ub = min(bounds.support_upper_bound(scan.max_support), c_max + 1)
    lb, ub = bounds.clamp_bounds(lb, ub)
    edge_file = build_sorted_edge_file(scan)
    try:
        outcome = binary_search_kmax(
            g_cmax, edge_file, lb, ub, heap_factory, memory, budget
        )
        k_prime, outcome = verified_kmax(
            g_cmax, edge_file, outcome, lb, ub, heap_factory, memory, budget
        )
    finally:
        edge_file.release()
        scan.supports.free()
    return k_prime, outcome.probes, scan.triangle_count


def greedy_core_flow(
    graph: Graph,
    algorithm: str,
    heap_factory: HeapFactory,
    budget: Optional[WorkBudget] = None,
    context: Optional[ContextLike] = None,
) -> MaxTrussResult:
    """The shared Algorithm 2 / Algorithm 3 pipeline.

    ``heap_factory`` is the peel heap's kind: eager ``A_disk``
    (:class:`~repro.core.peeling.PlainDiskHeap`, Algorithm 2) or lazy
    LHDH (``partial(LHDH, capacity=c)``, Algorithm 3). Storage comes from
    *context*.
    """
    run = ChargedRun(algorithm, graph, context, budget)
    disk_graph, memory, budget = run.disk_graph, run.memory, run.budget
    if graph.m == 0:
        return run.result(0, [])

    # Step 1: semi-external core decomposition (Alg 2 line 1).
    core_result = semi_external_core_decomposition(disk_graph)
    coreness = core_result.coreness
    c_max = core_result.c_max
    memory.charge("greedy.coreness", coreness.nbytes)

    # Step 2: greedy local search on G_cmax (Alg 2 lines 2-10).
    v_cmax = np.nonzero(coreness == c_max)[0]
    g_cmax, _cmax_nodes, cmax_edge_map = disk_graph.induced_subgraph(
        v_cmax, name="Gcmax"
    )
    k_prime, local_probes, cmax_triangles = _local_kmax_search(
        g_cmax, c_max, heap_factory, memory, budget
    )
    cmax_edge_count = g_cmax.m
    g_cmax.release()

    lb = max(bounds.greedy_lower_bound(k_prime), 3)

    # Step 3: candidate subgraph H' by Lemma 4 (Alg 2 lines 10-14).
    v_new = np.nonzero(coreness >= lb - 1)[0]
    candidate, node_map, edge_map = disk_graph.induced_subgraph(v_new, name="Hprime")

    if candidate.m == 0:
        # No vertex reaches the bound: only trivial trussness remains.
        memory.release("greedy.coreness")
        return run.result(
            2, graph.edge_pairs(), local_kmax=k_prime, cmax_edges=cmax_edge_count
        )

    scan = compute_supports(candidate, name="hsup")
    keys = scan.supports.to_numpy()
    heap = heap_factory(
        run.device, range(candidate.m), keys, memory=memory, name="heap.final"
    )

    # Step 4: upward peel (Alg 2 lines 15-26 / Alg 3 lines 19-25).
    k_max = 2
    snapshot = []
    current_k = lb
    peeled_edges = 0
    while True:
        stats = peel_below(heap, candidate, current_k - 2, budget)
        peeled_edges += stats.removed_edges
        if len(heap) == 0:
            break
        k_max = current_k
        snapshot = surviving_edge_ids(heap)
        current_k += 1

    if k_max <= 2:
        # No truss above the trivial level (triangle-free graph): every
        # edge has trussness 2.
        truss_pairs = graph.edge_pairs()
        k_max = 2
    else:
        truss_pairs = extract_truss_pairs(candidate, snapshot, node_map, edge_map)

    heap.release()
    scan.supports.free()
    candidate.release()
    memory.release("greedy.coreness")
    return run.result(
        k_max,
        truss_pairs,
        local_kmax=k_prime,
        local_probes=local_probes,
        cmax_edges=cmax_edge_count,
        cmax_edge_fraction=cmax_edge_count / graph.m,
        c_max=c_max,
        core_rounds=core_result.rounds,
        candidate_edges=candidate.m,
        peeled_edges=peeled_edges,
        used_lb=lb,
    )


def semi_greedy_core(
    graph: Graph,
    budget: Optional[WorkBudget] = None,
    context: Optional[ContextLike] = None,
) -> MaxTrussResult:
    """Compute the ``k_max``-truss with SemiGreedyCore (Algorithm 2)."""
    return greedy_core_flow(
        graph, "SemiGreedyCore", PlainDiskHeap, budget=budget, context=context
    )
