"""Semi-external connected components (label propagation).

Definition 2 makes every k-truss *connected*, so splitting a class into its
components is part of answering queries. In memory that's a union-find
(:mod:`repro.analysis.components`); under the semi-external model it is the
classic label-propagation scan: keep one ``O(n)`` label array in memory,
sweep the edge file, lower each endpoint's label to the minimum of the two,
repeat until a fixpoint. Rounds are bounded by the graph diameter; each
round is one sequential pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..engine.context import ContextLike, resolve_context
from ..graph.disk_graph import DiskGraph
from ..graph.memgraph import Graph
from ..storage import MemoryMeter

EdgePair = Tuple[int, int]


@dataclass
class ComponentResult:
    """Output of a semi-external components run."""

    labels: np.ndarray  # per-vertex component label (min vertex id inside)
    rounds: int

    @property
    def component_count(self) -> int:
        """Number of components among non-isolated... all vertices."""
        return len(np.unique(self.labels)) if len(self.labels) else 0

    def component_of(self, v: int) -> int:
        """Label of vertex *v*."""
        return int(self.labels[v])

    def members(self) -> Dict[int, List[int]]:
        """``label -> sorted member vertices``."""
        groups: Dict[int, List[int]] = {}
        for v, label in enumerate(self.labels):
            groups.setdefault(int(label), []).append(v)
        return groups


def semi_external_components(
    graph: Graph,
    memory: Optional[MemoryMeter] = None,
    context: Optional[ContextLike] = None,
) -> ComponentResult:
    """Connected components with ``O(n)`` memory and sequential edge scans.

    Isolated vertices keep their own label. Charged against the context's
    device.
    """
    ctx = resolve_context(context)
    device = ctx.device_for(graph.n)
    if memory is None:
        memory = ctx.memory
    disk_graph = DiskGraph(graph, device, memory, name="wcc.G")
    labels = np.arange(graph.n, dtype=np.int64)
    memory.charge("wcc.labels", labels.nbytes)
    rounds = 0
    try:
        changed = graph.m > 0
        while changed:
            changed = False
            rounds += 1
            for _start, block in disk_graph.scan_edges():
                for u, v in block:
                    # Labels only ever decrease (towards the component's
                    # minimum vertex id), which guarantees termination.
                    label = min(labels[u], labels[v])
                    if labels[u] > label:
                        labels[u] = label
                        changed = True
                    if labels[v] > label:
                        labels[v] = label
                        changed = True
    finally:
        memory.release("wcc.labels")
        disk_graph.release()
    return ComponentResult(labels, rounds)


def split_edges_semi_external(
    graph: Graph,
    context: Optional[ContextLike] = None,
) -> List[List[EdgePair]]:
    """Partition the edge set by component (largest first), charged I/O.

    The semi-external analogue of
    :func:`repro.analysis.components.vertex_connected_components` —
    cross-checked against it in tests.
    """
    result = semi_external_components(graph, context=context)
    buckets: Dict[int, List[EdgePair]] = {}
    for u, v in graph.edge_pairs():
        buckets.setdefault(result.component_of(u), []).append((u, v))
    return sorted(
        (sorted(edges) for edges in buckets.values()),
        key=lambda component: (-len(component), component),
    )
