"""Triangle counting and enumeration utilities.

These are the in-memory reference implementations used to validate the
semi-external support scan and to drive small-graph analyses (the Fig 9 case
study, the Lemma 1 bound computations in tests).
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from ..graph.memgraph import Graph


def triangle_count(graph: Graph) -> int:
    """Number of distinct triangles in *graph* (via edge supports)."""
    return graph.triangle_count()


def enumerate_triangles(graph: Graph) -> Iterator[Tuple[int, int, int]]:
    """Yield every triangle once as ``(u, v, w)`` with ``u < v < w``.

    Forward-neighbour merge: for each edge ``(u, v)`` with ``u < v``, report
    common neighbours ``w > v``.
    """
    for u in range(graph.n):
        nbrs_u = graph.neighbors(u)
        forward_u = nbrs_u[nbrs_u > u]
        if len(forward_u) == 0:
            continue
        u_set = set(int(x) for x in forward_u)
        for v in forward_u:
            nbrs_v = graph.neighbors(int(v))
            for w in nbrs_v[nbrs_v > v]:
                if int(w) in u_set:
                    yield (u, int(v), int(w))


def edge_triangle_supports_naive(graph: Graph) -> np.ndarray:
    """Per-edge supports by brute-force triangle enumeration.

    Quadratic-ish; for cross-checking :meth:`Graph.edge_supports` in tests.
    """
    supports = np.zeros(graph.m, dtype=np.int64)
    for u, v, w in enumerate_triangles(graph):
        supports[graph.edge_id(u, v)] += 1
        supports[graph.edge_id(u, w)] += 1
        supports[graph.edge_id(v, w)] += 1
    return supports
