"""Truss-based community search — the paper's first motivating application.

"In the field of community search, the goal revolves [around] identifying
maximal communities with maximum trussness that contain a set of query
nodes" (paper §I, citing Huang et al. SIGMOD'14). Given query vertices
``Q``, :func:`truss_community` returns the connected k-truss containing all
of ``Q`` with the largest possible ``k``.

Algorithm: compute the trussness of every edge in memory (a caller that
wants it charged passes
``trussness=truss_decomposition_semi_external(graph, context=ctx)``), then
sweep edges in decreasing trussness into a union-find until the query
vertices become connected; the minimum trussness on that merge path is
the community's ``k``, and the community is the maximal connected
subgraph of trussness-``>= k`` edges around the queries. Triangle
connectivity (the stricter community model) is available via
``connectivity="triangle"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

from ..analysis.components import (
    DisjointSet,
    component_holding,
    vertex_connected_components,
)
from ..baselines.inmemory import truss_decomposition
from ..graph.memgraph import Graph
from ..observability.tracer import trace_span

EdgePair = Tuple[int, int]


@dataclass
class CommunityResult:
    """A truss community answer.

    Attributes
    ----------
    k:
        The community's trussness guarantee (every edge has ``τ >= k``).
    edges / vertices:
        The community subgraph (sorted).
    query:
        The query vertices the community contains.
    """

    k: int
    edges: List[EdgePair]
    vertices: List[int]
    query: List[int]

    @property
    def size(self) -> int:
        """Number of community vertices."""
        return len(self.vertices)


def truss_community(
    graph: Graph,
    query: Iterable[int],
    connectivity: str = "vertex",
    trussness: Optional[np.ndarray] = None,
) -> Optional[CommunityResult]:
    """Find the maximum-trussness connected community containing *query*.

    Parameters
    ----------
    graph:
        The graph to search.
    query:
        One or more query vertex ids.
    connectivity:
        ``"vertex"`` (Definition-2 connectivity, default) or ``"triangle"``
        (the stricter truss-community model).
    trussness:
        Optional precomputed per-edge trussness (else computed here, in
        memory and uncharged).

    Returns ``None`` when no common community exists (e.g. queries in
    different components, or a query vertex is isolated). The search runs
    inside a ``community`` span on the ambient tracer.
    """
    query = sorted(set(int(q) for q in query))
    if not query:
        raise ValueError("query must contain at least one vertex")
    if any(q < 0 or q >= graph.n for q in query):
        raise ValueError("query vertex out of range")
    if graph.m == 0:
        return None
    if any(graph.degree(q) == 0 for q in query):
        return None
    if connectivity not in ("vertex", "triangle"):
        raise ValueError(f"unknown connectivity model {connectivity!r}")
    with trace_span("community", kind="phase", connectivity=connectivity):
        values = (
            trussness if trussness is not None else truss_decomposition(graph)
        )
        if connectivity == "vertex":
            return _vertex_community(graph, query, values)
        return _triangle_community(graph, query, values)


def _vertex_community(graph, query, values) -> Optional[CommunityResult]:
    # Sweep edges in decreasing trussness; component structure of the
    # "trussness >= k" subgraph only coarsens as k drops, so the first
    # moment every query vertex is touched and mutually connected yields
    # the maximum feasible k.
    order = np.argsort(values, kind="stable")[::-1]
    dsu = DisjointSet()
    touched = set()
    k = None
    stop_position = 0
    for position, eid in enumerate(order):
        u, v = int(graph.edges[eid, 0]), int(graph.edges[eid, 1])
        dsu.union(u, v)
        touched.add(u)
        touched.add(v)
        if all(q in touched for q in query):
            root = dsu.find(query[0])
            if all(dsu.find(q) == root for q in query):
                k = int(values[eid])
                stop_position = position
                break
    if k is None or k < 2:
        return None
    # Absorb the remaining edges of the same trussness level so the
    # extracted community is the *maximal* connected k-truss.
    for later in order[stop_position + 1:]:
        if values[later] < k:
            break
        dsu.union(int(graph.edges[later, 0]), int(graph.edges[later, 1]))
    root = dsu.find(query[0])
    edges = [
        (int(graph.edges[eid, 0]), int(graph.edges[eid, 1]))
        for eid in range(graph.m)
        if values[eid] >= k and dsu.find(int(graph.edges[eid, 0])) == root
    ]
    vertices = sorted({x for edge in edges for x in edge})
    return CommunityResult(k, sorted(edges), vertices, list(query))


def _triangle_community(graph, query, values) -> Optional[CommunityResult]:
    # Try decreasing levels; at each level use triangle-connected classes.
    levels = sorted({int(v) for v in values}, reverse=True)
    for k in levels:
        if k < 2:
            break
        edge_ids = np.nonzero(values >= k)[0]
        pairs = [
            (int(graph.edges[eid, 0]), int(graph.edges[eid, 1]))
            for eid in edge_ids
        ]
        found = component_holding(pairs, query, connectivity="triangle")
        if found is not None:
            component, vertices = found
            return CommunityResult(k, component, vertices, list(query))
    return None


def max_truss_communities(graph: Graph) -> List[CommunityResult]:
    """All maximal connected communities of the ``k_max``-class.

    The paper's Definition 5 set, split per Definition 2's connectivity —
    one :class:`CommunityResult` per connected ``k_max``-truss.
    """
    if graph.m == 0:
        return []
    values = truss_decomposition(graph)
    k_max = int(values.max())
    pairs = [
        (int(graph.edges[eid, 0]), int(graph.edges[eid, 1]))
        for eid in np.nonzero(values == k_max)[0]
    ]
    results = []
    for component in vertex_connected_components(pairs):
        vertices = sorted({x for edge in component for x in edge})
        results.append(CommunityResult(k_max, component, vertices, []))
    return results
