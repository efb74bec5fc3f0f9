"""Top-Down — the state-of-the-art comparison target (Wang & Cheng).

The algorithm the paper sets out to beat, with the three weaknesses the
paper's introduction documents deliberately reproduced:

1. **expensive edge upper bounds** — per-edge trussness upper bounds are
   refined by h-index iterations, each a full triangle enumeration over the
   disk-resident graph (heavy read I/O, the "highly time-consuming"
   technique);
2. **loose bounds → many partitions** — the descending-threshold loop
   re-scans the whole edge file and re-materialises a candidate subgraph
   every round until the candidate's internal ``k_max`` certifies the
   answer;
3. **in-memory partitions** — each candidate subgraph is decomposed *in
   memory* (charged to the memory meter edge-indexed), which is why
   Top-Down's memory footprint dwarfs the semi-external algorithms' in
   Fig 5 (e-f).

A :class:`~repro._util.WorkBudget` caps the total peel work so benchmarks
can report "INF" like the paper's 48-hour timeout.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .._util import WorkBudget
from ..core.result import MaxTrussResult
from ..core.run import ChargedRun
from ..engine.context import ContextLike
from ..graph.disk_graph import DiskGraph
from ..graph.memgraph import Graph
from ..semiexternal.support import compute_supports
from ..semiexternal.truss_decomp import h_index_round
from ..storage import DiskArray
from .inmemory import truss_decomposition


#: H-index rounds refining the edge upper bounds (Wang & Cheng stop early).
_REFINE_ROUNDS = 2


def _refine_upper_bounds(
    disk_graph: DiskGraph,
    supports: DiskArray,
    budget: Optional[WorkBudget],
) -> DiskArray:
    """H-index refinement of per-edge trussness upper bounds.

    ``ub(e) − 2`` starts at ``sup(e)`` and is lowered by up to
    :data:`_REFINE_ROUNDS` rounds of the h-index decomposition
    (:func:`~repro.semiexternal.truss_decomp.h_index_round`). Every round
    enumerates all triangles from disk — the costly step the paper
    criticises. The result stays a sound upper bound on ``τ(e) − 2``.
    """
    upper = DiskArray(
        disk_graph.device, disk_graph.m, np.int64, name="td.ub", fill=0
    )
    # Initialise from supports (sequential copy through memory blocks).
    block = 8192
    for start in range(0, disk_graph.m, block):
        stop = min(start + block, disk_graph.m)
        upper.write_slice(start, supports.read_slice(start, stop))
    for _round in range(_REFINE_ROUNDS):
        if not h_index_round(disk_graph, upper, budget):
            break
    return upper


def top_down(
    graph: Graph,
    budget: Optional[WorkBudget] = None,
    context: Optional[ContextLike] = None,
) -> MaxTrussResult:
    """Compute the ``k_max``-truss with the Top-Down baseline."""
    run = ChargedRun("TopDown", graph, context, budget)
    disk_graph, memory, budget = run.disk_graph, run.memory, run.budget
    if graph.m == 0:
        return run.result(0, [])

    scan = compute_supports(disk_graph)
    if scan.triangle_count == 0:
        scan.supports.free()
        return run.result(2, graph.edge_pairs())

    upper = _refine_upper_bounds(disk_graph, scan.supports, budget)

    # Descending-threshold partitions.
    all_upper = upper.to_numpy()  # full scan to find the level frontier
    theta = int(all_upper.max()) + 2
    partitions = 0
    k_max = 2
    truss_pairs = graph.edge_pairs()
    while theta >= 3:
        partitions += 1
        # Full edge-file scan to select the candidate partition.
        candidate_ids = []
        block = 8192
        for start in range(0, disk_graph.m, block):
            stop = min(start + block, disk_graph.m)
            chunk = upper.read_slice(start, stop)
            hits = np.nonzero(chunk + 2 >= theta)[0] + start
            candidate_ids.extend(int(x) for x in hits)
        if not candidate_ids:
            theta -= 1
            continue
        if budget is not None:
            budget.spend(len(candidate_ids))
        endpoints = disk_graph.load_endpoints_many(np.asarray(candidate_ids))
        # The partition is decomposed *in memory* (Top-Down's footprint).
        partition = Graph.from_edges(endpoints, n=graph.n)
        memory.charge("td.partition", 8 * (3 * partition.m + 2 * partition.n))
        trussness = truss_decomposition(partition)
        memory.release("td.partition")
        internal_kmax = int(trussness.max()) if partition.m else 2
        if internal_kmax >= theta:
            # Certified: all edges that could reach theta were included.
            k_max = internal_kmax
            top_ids = np.nonzero(trussness == internal_kmax)[0]
            truss_pairs = sorted(
                (int(partition.edges[eid, 0]), int(partition.edges[eid, 1]))
                for eid in top_ids
            )
            break
        # Lower the threshold (the candidate certifies k_max < theta) and
        # re-partition from scratch next round — Top-Down's re-scan cost.
        theta -= 1
    upper.free()
    scan.supports.free()
    return run.result(
        k_max, truss_pairs, partitions=partitions, refine_rounds=_REFINE_ROUNDS
    )
