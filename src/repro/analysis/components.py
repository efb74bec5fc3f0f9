"""Connectivity semantics for truss results.

Definition 2 in the paper makes a k-truss a maximal *connected* subgraph;
the ``k_max``-truss (Definition 5: the top k-class) may therefore consist of
several connected k-trusses. This module splits an edge set into:

* **vertex-connected components** — ordinary connectivity of the subgraph;
* **triangle-connected components** — the stronger equivalence used by
  truss-community work (Huang et al., cited by the paper): two edges are
  related when they share a triangle inside the set; communities are the
  transitive closure. Triangle connectivity is what k-truss community
  search returns, so :mod:`repro.applications.community` builds on it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

EdgePair = Tuple[int, int]


class DisjointSet:
    """Union-find with path compression and union by size."""

    def __init__(self) -> None:
        self._parent: Dict[int, int] = {}
        self._size: Dict[int, int] = {}

    def find(self, item: int) -> int:
        """Representative of *item*'s set (auto-registers singletons)."""
        if item not in self._parent:
            self._parent[item] = item
            self._size[item] = 1
            return item
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: int, b: int) -> int:
        """Merge the sets of *a* and *b*; returns the new root."""
        root_a, root_b = self.find(a), self.find(b)
        if root_a == root_b:
            return root_a
        if self._size[root_a] < self._size[root_b]:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        self._size[root_a] += self._size[root_b]
        return root_a

    def groups(self) -> List[List[int]]:
        """All sets, each as a sorted list."""
        buckets: Dict[int, List[int]] = {}
        for item in self._parent:
            buckets.setdefault(self.find(item), []).append(item)
        return sorted(sorted(members) for members in buckets.values())


def _adjacency(edges: Sequence[EdgePair]) -> Dict[int, Dict[int, int]]:
    adjacency: Dict[int, Dict[int, int]] = {}
    for eid, (u, v) in enumerate(edges):
        adjacency.setdefault(u, {})[v] = eid
        adjacency.setdefault(v, {})[u] = eid
    return adjacency


def vertex_connected_components(edges: Sequence[EdgePair]) -> List[List[EdgePair]]:
    """Split an edge set by ordinary (vertex) connectivity.

    Returns components as sorted edge lists, largest-first then lexicographic.
    """
    edges = sorted(set((min(u, v), max(u, v)) for u, v in edges))
    dsu = DisjointSet()
    for u, v in edges:
        dsu.union(u, v)
    buckets: Dict[int, List[EdgePair]] = {}
    for u, v in edges:
        buckets.setdefault(dsu.find(u), []).append((u, v))
    return sorted(buckets.values(), key=lambda c: (-len(c), c))

def triangle_connected_components(edges: Sequence[EdgePair]) -> List[List[EdgePair]]:
    """Split an edge set into triangle-connected classes.

    Two edges belong together when a chain of triangles (each inside the
    edge set) links them. Edges in no triangle form singleton classes.
    """
    edges = sorted(set((min(u, v), max(u, v)) for u, v in edges))
    adjacency = _adjacency(edges)
    dsu = DisjointSet()
    for eid in range(len(edges)):
        dsu.find(eid)  # register even triangle-free edges
    for eid, (u, v) in enumerate(edges):
        nbrs_u, nbrs_v = adjacency[u], adjacency[v]
        small, large = (nbrs_u, nbrs_v) if len(nbrs_u) <= len(nbrs_v) else (nbrs_v, nbrs_u)
        for w in small:
            if w in large:
                dsu.union(eid, small[w])
                dsu.union(eid, large[w])
    buckets: Dict[int, List[EdgePair]] = {}
    for eid in range(len(edges)):
        buckets.setdefault(dsu.find(eid), []).append(edges[eid])
    return sorted(buckets.values(), key=lambda c: (-len(c), c))


def component_holding(
    edges: Sequence[EdgePair], query: Iterable[int], connectivity: str = "vertex"
) -> Optional[Tuple[List[EdgePair], List[int]]]:
    """The first component of *edges* whose vertices include every query
    vertex, as ``(sorted edges, sorted vertices)``; ``None`` when none does.

    *connectivity* picks the split: ``"vertex"``
    (:func:`vertex_connected_components`) or ``"triangle"``
    (:func:`triangle_connected_components`). Components are tried in the
    split's order, largest first.
    """
    split = (
        vertex_connected_components
        if connectivity == "vertex"
        else triangle_connected_components
    )
    wanted = set(query)
    for component in split(edges):
        vertices = {x for edge in component for x in edge}
        if wanted <= vertices:
            return component, sorted(vertices)
    return None


def split_max_truss(edges: Iterable[EdgePair]) -> List[List[EdgePair]]:
    """The paper's Definition-2 view of a ``k_max``-class: its maximal
    connected k-trusses (vertex connectivity)."""
    return vertex_connected_components(list(edges))
