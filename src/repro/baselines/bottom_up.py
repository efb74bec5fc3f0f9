"""Bottom-Up — Wang & Cheng's external truss decomposition baseline.

Peels the *entire* graph level by level on disk: every edge's trussness is
computed even though only the top class is wanted. The peel heap is the
eager ``A_disk`` (:class:`~repro.core.peeling.PlainDiskHeap`), so every
support decrement is a charged disk reorder, and the per-edge trussness
values are streamed to a disk array as edges die. This is the
"complete truss decomposition to obtain the k_max-truss" approach the paper
improves upon.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .._util import WorkBudget
from ..core.peeling import PlainDiskHeap, delete_edge_kernel
from ..core.result import MaxTrussResult
from ..core.run import ChargedRun
from ..engine.context import ContextLike
from ..graph.memgraph import Graph
from ..semiexternal.support import compute_supports
from ..storage import DiskArray


def truss_decomposition_semi_external(
    graph: Graph,
    budget: Optional[WorkBudget] = None,
    context: Optional[ContextLike] = None,
) -> np.ndarray:
    """Full per-edge trussness computed under the semi-external model.

    Thin public wrapper over :func:`bottom_up`: the peel streams every
    edge's trussness to a disk array; this returns it as a numpy array
    indexed by the graph's edge ids.
    """
    return bottom_up(graph, budget=budget, context=context).extras.get(
        "trussness", np.zeros(graph.m, dtype=np.int64)
    )


def bottom_up(
    graph: Graph,
    budget: Optional[WorkBudget] = None,
    context: Optional[ContextLike] = None,
) -> MaxTrussResult:
    """Full external truss decomposition; returns the top class.

    The complete trussness array is produced on disk as a by-product
    (``extras["trussness"]`` exposes it for tests).
    """
    run = ChargedRun("BottomUp", graph, context, budget)
    disk_graph, device, budget = run.disk_graph, run.device, run.budget
    if graph.m == 0:
        return run.result(0, [])

    scan = compute_supports(disk_graph)
    keys = scan.supports.to_numpy()
    heap = PlainDiskHeap(
        device, range(graph.m), keys, memory=run.memory, name="bu.adisk"
    )
    trussness_file = DiskArray(device, graph.m, np.int64, name="bu.truss", fill=0)

    level = 0
    while len(heap):
        if budget is not None:
            budget.spend()
        eid, key = heap.pop_min()
        level = max(level, key)
        trussness_file.set(eid, level + 2)
        delete_edge_kernel(heap, disk_graph, eid, level)

    trussness = trussness_file.to_numpy()
    k_max = int(trussness.max())
    edge_ids = np.nonzero(trussness == k_max)[0]
    pairs = sorted(
        (int(graph.edges[eid, 0]), int(graph.edges[eid, 1])) for eid in edge_ids
    )
    heap.release()
    trussness_file.free()
    scan.supports.free()
    return run.result(
        k_max, pairs, trussness=trussness, triangles=scan.triangle_count
    )
