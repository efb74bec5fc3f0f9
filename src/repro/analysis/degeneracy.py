"""Degeneracy (``c_max``) utilities — paper Exp-6.

The degeneracy of a graph equals its maximum coreness; the paper compares
``k_max`` against it across 168 graphs to argue that ``k_max`` gives tighter
FPT complexity bounds (``k_max <= c_max + 1`` always, and usually far below).
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..graph.memgraph import Graph
from ..semiexternal.core_decomp import core_decomposition_inmemory


def degeneracy(graph: Graph) -> int:
    """``c_max`` — the maximum coreness (0 for edgeless graphs)."""
    if graph.n == 0 or graph.m == 0:
        return 0
    return int(core_decomposition_inmemory(graph).max())


def degeneracy_ordering(graph: Graph) -> List[int]:
    """A vertex order repeatedly removing a minimum-degree vertex.

    Every vertex has at most ``c_max`` neighbours later in the order — the
    property the branch-and-bound clique search exploits.
    """
    n = graph.n
    degrees = graph.degrees.copy()
    removed = np.zeros(n, dtype=bool)
    order: List[int] = []
    # Bucket queue over current degree.
    max_degree = int(degrees.max()) if n else 0
    buckets: List[List[int]] = [[] for _ in range(max_degree + 1)]
    for v in range(n):
        buckets[degrees[v]].append(v)
    cursor = 0
    for _ in range(n):
        # Buckets hold stale entries (vertices whose degree moved on);
        # drain until a live vertex at the cursor degree appears.
        while True:
            while cursor <= max_degree and not buckets[cursor]:
                cursor += 1
            v = buckets[cursor].pop()
            if not removed[v] and degrees[v] == cursor:
                break
        removed[v] = True
        order.append(v)
        for w in graph.neighbors(v):
            w = int(w)
            if not removed[w]:
                degrees[w] -= 1
                buckets[degrees[w]].append(w)
                if degrees[w] < cursor:
                    cursor = degrees[w]
    return order


def kmax_vs_degeneracy_gap(k_max: int, c_max: int) -> float:
    """The paper's Fig 8 (b) statistic ``(c_max − k_max) / c_max``.

    Returns 0.0 when ``c_max`` is 0.
    """
    if c_max <= 0:
        return 0.0
    return (c_max - k_max) / c_max
