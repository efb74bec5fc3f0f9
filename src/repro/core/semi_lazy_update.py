"""SemiLazyUpdate — Algorithm 3: SemiGreedyCore driven through LHDH.

Identical control flow to :func:`repro.core.semi_greedy_core.semi_greedy_core`
(core pruning, greedy local ``k'_max``, Lemma-4 candidate subgraph, upward
peel), but every peel runs on the composite LHDH structure of Algorithm 4:
frequently-updated edges live in the in-memory dynamic heap, so the support
decrements that dominate the eager algorithms' I/O bill become free memory
operations. The dynamic heap's ``capacity`` defaults to the vertex count,
matching the paper's experimental setting ("we set capacity to the number of
vertices in G").
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from .._util import WorkBudget
from ..engine.context import ContextLike
from ..errors import CapacityError
from ..graph.memgraph import Graph
from ..structures import LHDH
from .result import MaxTrussResult
from .semi_greedy_core import greedy_core_flow


def semi_lazy_update(
    graph: Graph,
    budget: Optional[WorkBudget] = None,
    capacity: Optional[int] = None,
    context: Optional[ContextLike] = None,
) -> MaxTrussResult:
    """Compute the ``k_max``-truss with SemiLazyUpdate (Algorithm 3).

    Parameters
    ----------
    capacity:
        Dynamic-heap size limit; defaults to ``max(n, 1)`` as in the paper.
        Smaller values trade memory for extra spill I/O (see the LHDH
        capacity ablation benchmark). A value below 1 raises
        :class:`~repro.errors.CapacityError` before any I/O.
    """
    if capacity is None:
        capacity = max(graph.n, 1)
    if capacity < 1:
        raise CapacityError(f"LHDH capacity must be at least 1, got {capacity}")
    result = greedy_core_flow(
        graph,
        "SemiLazyUpdate",
        partial(LHDH, capacity=capacity),
        budget=budget,
        context=context,
    )
    result.extras["dheap_capacity"] = capacity
    return result
