"""The bill window of one charged computation.

The paper's bill starts once the input graph is on disk. Every charged
computation — the paper's three methods, Bottom-Up, Top-Down,
Partitioned, the k-truss query and the h-index decomposition — opens the
same window through :class:`ChargedRun`: resolve the context, build the
device, meter and budget, materialise ``G`` and snapshot the ledger.
:meth:`ChargedRun.bill` closes it, writing back every dirty block before
reading the ledger, so no return path can leave part of its bill in the
buffer pool.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .._util import Stopwatch, WorkBudget
from ..engine.context import ContextLike, resolve_context
from ..graph.disk_graph import DiskGraph
from ..graph.memgraph import Graph
from ..storage import IOStats
from .result import MaxTrussResult


class ChargedRun:
    """One computation over *graph*, charged from the moment ``G`` is on disk.

    Attributes: ``context``, ``device``, ``memory``, ``budget`` (the
    caller's, else one minted from ``config.work_limit``) and
    ``disk_graph`` (``G`` on the context's device).
    """

    def __init__(
        self,
        algorithm: str,
        graph: Graph,
        context: Optional[ContextLike] = None,
        budget: Optional[WorkBudget] = None,
    ) -> None:
        self.watch = Stopwatch()
        self.algorithm = algorithm
        self.context = resolve_context(context)
        self.device = self.context.device_for(graph.n)
        self.memory = self.context.memory
        self.budget = self.context.new_budget(budget)
        self.disk_graph = DiskGraph(graph, self.device, self.memory, name="G")
        self._start = self.device.stats.snapshot()

    def bill(self) -> IOStats:
        """Flush the buffer pool, then the block I/O charged since ``G``."""
        self.device.flush()
        return self.device.stats.since(self._start)

    def result(
        self, k_max: int, pairs: List[Tuple[int, int]], **extras
    ) -> MaxTrussResult:
        """The run's :class:`MaxTrussResult`, its bill closed."""
        return MaxTrussResult(
            self.algorithm, k_max, pairs, self.bill(), self.memory.peak_bytes,
            self.watch.elapsed(), extras=extras,
        )
