"""Semi-external k-truss queries for arbitrary ``k``.

The paper targets the top class, but the same machinery answers the
general query "give me the maximal k-truss" for any ``k`` — the primitive
community-search systems issue constantly. One support scan + one probe of
the binary-search engine:

>>> from repro.core.k_truss import k_truss_semi_external
>>> from repro.graph.generators import paper_example_graph
>>> k_truss_semi_external(paper_example_graph(), 4).edge_count
15
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import List, Optional, Tuple

from .._util import WorkBudget
from ..engine.context import ContextLike
from ..graph.memgraph import Graph
from ..semiexternal.support import compute_supports
from ..storage import IOStats
from ..structures import LHDH
from .run import ChargedRun
from .semi_binary import build_sorted_edge_file, materialise_truss

EdgePair = Tuple[int, int]


@dataclass
class KTrussResult:
    """Outcome of a k-truss query."""

    k: int
    edges: List[EdgePair]
    io: IOStats = field(default_factory=IOStats)
    elapsed_seconds: float = 0.0

    @property
    def edge_count(self) -> int:
        """Edges in the maximal k-truss (0 when none exists)."""
        return len(self.edges)

    @property
    def exists(self) -> bool:
        """Whether a (non-trivial) k-truss exists."""
        return bool(self.edges)

    def vertices(self) -> List[int]:
        """Sorted vertex ids spanned by the k-truss."""
        return sorted({x for edge in self.edges for x in edge})


def k_truss_semi_external(
    graph: Graph,
    k: int,
    budget: Optional[WorkBudget] = None,
    context: Optional[ContextLike] = None,
) -> KTrussResult:
    """Compute the maximal k-truss edge set under the semi-external model.

    Parameters
    ----------
    graph:
        Input graph.
    k:
        The truss level (``k >= 2``; ``k = 2`` returns every edge).

    The peel runs through LHDH. The result is the union of all connected
    k-trusses (Definition 2's components are recoverable via
    :func:`repro.analysis.components.split_max_truss`).
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if graph.m == 0:
        return KTrussResult(k, [])
    if k == 2:
        return KTrussResult(k, graph.edge_pairs())
    run = ChargedRun("KTruss", graph, context, budget)
    disk_graph = run.disk_graph
    scan = compute_supports(disk_graph)
    if scan.triangle_count == 0 or scan.max_support < k - 2:
        scan.supports.free()
        disk_graph.release()
        return KTrussResult(k, [], run.bill(), run.watch.elapsed())
    edge_file = build_sorted_edge_file(scan)
    try:
        pairs = materialise_truss(
            disk_graph, edge_file, k, partial(LHDH, capacity=max(1, graph.n)),
            run.memory, run.budget,
        )
    finally:
        edge_file.release()
        scan.supports.free()
        disk_graph.release()
    return KTrussResult(k, pairs, run.bill(), run.watch.elapsed())
