"""In-memory graph representations.

Two classes:

* :class:`Graph` — an immutable CSR graph with canonical ``u < v`` edge ids.
  All static algorithms consume this form (or its on-disk mirror,
  :class:`repro.graph.disk_graph.DiskGraph`).
* :class:`MutableGraph` — a dict-of-dicts adjacency with stable edge ids,
  used by the dynamic-maintenance algorithms where edges come and go.

Edge identity: edge ``i`` is the pair ``(edges[i, 0], edges[i, 1])`` with
``edges[i, 0] < edges[i, 1]``; for :class:`Graph`, ids follow lexicographic
order of the pairs, so ``edge_id`` is a binary search.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import GraphFormatError

EdgePair = Tuple[int, int]

#: Wedges per pass of :meth:`Graph.edge_supports`' wedge kernel (bounds
#: its scratch memory).
_WEDGE_CHUNK = 1 << 12

#: Largest float32 adjacency matrix (``4 n²`` bytes) the dense kernel builds.
_DENSE_MAX_BYTES = 4 << 20

#: Dense-kernel cost per wedge-kernel wedge, in ``n³`` multiply-adds: the
#: product wins when ``n³`` stays under this many times the wedge count.
_DENSE_WORK_PER_WEDGE = 4096

#: Row-panel height of the dense product (a panel is ``4 · 256 · n`` bytes).
_DENSE_ROWS = 256


def canonical_edge_array(edges: Iterable[EdgePair]) -> np.ndarray:
    """Normalise an edge iterable: int64 ``(m, 2)``, ``u < v``, deduplicated,
    self-loops dropped, lexicographically sorted."""
    array = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
    if array.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if array.ndim != 2 or array.shape[1] != 2:
        raise GraphFormatError(f"edge array must have shape (m, 2), got {array.shape}")
    array = array.astype(np.int64, copy=True)
    if array.min() < 0:
        raise GraphFormatError("vertex ids must be non-negative")
    low = np.minimum(array[:, 0], array[:, 1])
    high = np.maximum(array[:, 0], array[:, 1])
    keep = low != high
    low, high = low[keep], high[keep]
    stacked = np.stack([low, high], axis=1)
    if len(stacked) == 0:
        return stacked
    order = np.lexsort((stacked[:, 1], stacked[:, 0]))
    stacked = stacked[order]
    distinct = np.ones(len(stacked), dtype=bool)
    distinct[1:] = np.any(stacked[1:] != stacked[:-1], axis=1)
    return stacked[distinct]


def distinct_ids(ids, bound: int, error: Exception) -> np.ndarray:
    """The distinct values of *ids* in ascending order (int64); raises
    *error* when one lies outside ``[0, bound)``.

    A boolean mask over ``[0, bound)``, O(len + bound), in place of
    ``np.unique``, whose flag-free form imports ``numpy.ma`` (about
    1.3 MiB of resident memory) in numpy 2.x.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (int(ids.min()) < 0 or int(ids.max()) >= bound):
        raise error
    seen = np.zeros(bound, dtype=bool)
    seen[ids] = True
    return np.flatnonzero(seen)


def _dense_supports(n: int, edges: np.ndarray) -> np.ndarray:
    """Supports from ``P = A · A`` on the float32 adjacency matrix, a panel
    of rows at a time: ``P[u, v] = |N(u) ∩ N(v)|``, exact in float32 for
    ``n <= 2**24``."""
    dense = np.zeros((n, n), dtype=np.float32)
    dense[edges[:, 0], edges[:, 1]] = 1.0
    dense[edges[:, 1], edges[:, 0]] = 1.0
    support = np.zeros(len(edges), dtype=np.int64)
    tails = edges[:, 0]
    for row in range(0, n, _DENSE_ROWS):
        lo, hi = np.searchsorted(tails, (row, row + _DENSE_ROWS))
        if lo == hi:
            continue
        panel = dense[row:row + _DENSE_ROWS] @ dense
        support[lo:hi] = panel[tails[lo:hi] - row, edges[lo:hi, 1]]
    return support


class Graph:
    """Immutable undirected graph in CSR form with edge ids.

    Attributes
    ----------
    n:
        Number of vertices (ids ``0..n-1``; isolated vertices allowed).
    m:
        Number of edges.
    edges:
        ``(m, 2)`` int64 array, each row ``(u, v)`` with ``u < v``, sorted.
    offsets / adj / adj_eids:
        CSR adjacency: neighbours of ``v`` are
        ``adj[offsets[v]:offsets[v+1]]`` (sorted ascending) and the edge id at
        each position is ``adj_eids[...]``.
    """

    __slots__ = ("n", "m", "edges", "offsets", "adj", "adj_eids", "degrees")

    def __init__(self, n: int, edges: np.ndarray) -> None:
        edges = canonical_edge_array(edges)
        if len(edges) and edges.max() >= n:
            raise GraphFormatError(
                f"edge endpoint {int(edges.max())} >= vertex count {n}"
            )
        n = int(n)
        # One sort over the doubled edge array: each edge contributes
        # (u, v) and (v, u); ordering by (vertex, neighbour) lays out every
        # adjacency list sorted, and pairs are unique so the order is total.
        m = len(edges)
        owners = np.concatenate([edges[:, 0], edges[:, 1]])
        targets = np.concatenate([edges[:, 1], edges[:, 0]])
        order = np.lexsort((targets, owners))
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(owners, minlength=n), out=offsets[1:])
        eids = np.arange(m, dtype=np.int64)
        self._set_csr(
            n, edges, offsets, targets[order], np.concatenate([eids, eids])[order]
        )

    def _set_csr(self, n, edges, offsets, adj, adj_eids) -> None:
        self.n = int(n)
        self.m = len(edges)
        self.edges = edges
        self.offsets = offsets
        self.adj = adj
        self.adj_eids = adj_eids
        self.degrees = np.diff(offsets)
        self.degrees.setflags(write=False)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_csr(
        cls,
        n: int,
        edges: np.ndarray,
        offsets: np.ndarray,
        adj: np.ndarray,
        adj_eids: np.ndarray,
    ) -> "Graph":
        """Wrap prebuilt CSR arrays without copying or re-sorting them.

        The caller vouches for the layout (the ``.rgr`` loaders validate
        it first): *edges* canonical, adjacency lists sorted, ``adj_eids``
        aligned with ``adj``.
        """
        graph = cls.__new__(cls)
        graph._set_csr(n, edges, offsets, adj, adj_eids)
        return graph

    @classmethod
    def from_edges(cls, edges: Iterable[EdgePair], n: Optional[int] = None) -> "Graph":
        """Build a graph from an edge iterable; ``n`` defaults to
        ``max vertex id + 1``."""
        array = canonical_edge_array(edges)
        if n is None:
            n = int(array.max()) + 1 if len(array) else 0
        return cls(n, array)

    @classmethod
    def empty(cls, n: int = 0) -> "Graph":
        """An edgeless graph on *n* vertices."""
        return cls(n, np.empty((0, 2), dtype=np.int64))

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def degree(self, v: int) -> int:
        """Degree of vertex *v*."""
        return int(self.degrees[v])

    @property
    def max_degree(self) -> int:
        """``d_max(G)``; 0 for an edgeless graph."""
        return int(self.degrees.max()) if self.n else 0

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbour ids of *v* (a view — do not mutate)."""
        return self.adj[self.offsets[v] : self.offsets[v + 1]]

    def neighbor_eids(self, v: int) -> np.ndarray:
        """Edge ids aligned with :meth:`neighbors` (a view)."""
        return self.adj_eids[self.offsets[v] : self.offsets[v + 1]]

    def edge_id(self, u: int, v: int) -> int:
        """Edge id of ``(u, v)`` or ``-1`` if absent (binary search)."""
        if u > v:
            u, v = v, u
        nbrs = self.neighbors(u)
        pos = np.searchsorted(nbrs, v)
        if pos < len(nbrs) and nbrs[pos] == v:
            return int(self.neighbor_eids(u)[pos])
        return -1

    def has_edge(self, u: int, v: int) -> bool:
        """Whether edge ``(u, v)`` exists."""
        return self.edge_id(u, v) >= 0

    def triangle_count(self) -> int:
        """Total number of distinct triangles (each counted once)."""
        return int(self.edge_supports().sum()) // 3

    def edge_supports(self) -> np.ndarray:
        """Per-edge support (triangles through each edge), in edge-id order.

        One numpy pass with no Python loop over vertices — the values plane
        of the semi-external support scan (:mod:`repro.semiexternal.support`)
        and the in-memory oracle's starting point. The input picks the
        kernel, never an option: a float32 adjacency-matrix product when
        the matrix fits in ``_DENSE_MAX_BYTES`` and its ``n³``
        multiply-adds undercut the wedge kernel's work, otherwise Wang &
        Cheng's wedge kernel: rank vertices by ``(degree, id)``, orient
        each edge from the lower rank to the higher, pair each vertex's
        out-neighbours with ``np.repeat``, close the pairs with one
        ``searchsorted`` over the edge table's sorted ``u * n + v`` keys,
        and add each closed triangle to its three edges (each triangle
        closes once, at its lowest-ranked vertex). Vertices are processed
        about ``_WEDGE_CHUNK`` wedges at a time, so the scratch stays
        bounded.
        """
        n, m = self.n, self.m
        support = np.zeros(m, dtype=np.int64)
        if m == 0:
            return support
        rank = np.empty(n, dtype=np.int64)
        rank[np.argsort(self.degrees, kind="stable")] = np.arange(n, dtype=np.int64)
        tails, heads = self.edges[:, 0], self.edges[:, 1]
        # Each edge leaves its lower-ranked endpoint.
        out_degree = np.bincount(
            np.where(rank[tails] < rank[heads], tails, heads), minlength=n
        )
        wedges = out_degree * (out_degree - 1) // 2
        total_wedges = int(wedges.sum())
        if total_wedges == 0:
            return support
        if 4 * n * n <= _DENSE_MAX_BYTES and n ** 3 <= _DENSE_WORK_PER_WEDGE * total_wedges:
            return _dense_supports(n, self.edges)
        # The edge table is sorted, so u * n + v ascends with the edge id.
        keys = tails * n
        keys += heads
        # A pass takes whole vertices: about _WEDGE_CHUNK wedges plus slots.
        cost = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(wedges + self.degrees, out=cost[1:])
        lo = 0
        while lo < n:
            hi = max(int(np.searchsorted(cost, cost[lo] + _WEDGE_CHUNK, side="right")) - 1,
                     lo + 1)
            start, stop = int(self.offsets[lo]), int(self.offsets[hi])
            rows = np.repeat(np.arange(lo, hi, dtype=np.int64), self.degrees[lo:hi])
            forward = rank[self.adj[start:stop]] > rank[rows]
            # Out-neighbours grouped by tail, ascending by id within a
            # group, so a pair (earlier, later) is already in the edge
            # table's u < v order.
            out = self.adj[start:stop][forward]
            out_eids = self.adj_eids[start:stop][forward]
            counts = out_degree[lo:hi]
            # Out-edge i pairs with every later out-edge of its tail.
            partners = (
                np.repeat(np.cumsum(counts), counts) - np.arange(len(out), dtype=np.int64) - 1
            )
            total = int(partners.sum())
            if total:
                first = np.repeat(np.arange(len(out), dtype=np.int64), partners)
                second = (
                    first + 1 + np.arange(total, dtype=np.int64)
                    - np.repeat(np.cumsum(partners) - partners, partners)
                )
                closing = out[first] * n + out[second]
                where = np.minimum(np.searchsorted(keys, closing), m - 1)
                closed = keys[where] == closing
                if closed.any():
                    triangle = np.concatenate(
                        (out_eids[first[closed]], out_eids[second[closed]], where[closed])
                    )
                    np.add.at(support, triangle, 1)
            lo = hi
        return support

    # ------------------------------------------------------------------ #
    # subgraphs
    # ------------------------------------------------------------------ #

    def subgraph_by_nodes(self, nodes: Sequence[int]) -> Tuple["Graph", np.ndarray, np.ndarray]:
        """Induced subgraph on *nodes* with **relabelled** vertices.

        Returns ``(subgraph, node_map, edge_map)`` where ``node_map[i]`` is
        the original id of subgraph vertex ``i`` and ``edge_map[j]`` is the
        original edge id of subgraph edge ``j``.
        """
        node_map = distinct_ids(
            nodes, self.n, GraphFormatError("subgraph nodes out of range")
        )
        inverse = np.full(self.n, -1, dtype=np.int64)
        inverse[node_map] = np.arange(len(node_map))
        if self.m:
            keep = (inverse[self.edges[:, 0]] >= 0) & (inverse[self.edges[:, 1]] >= 0)
            edge_map = np.nonzero(keep)[0].astype(np.int64)
            sub_edges = inverse[self.edges[keep]]
        else:
            edge_map = np.empty(0, dtype=np.int64)
            sub_edges = np.empty((0, 2), dtype=np.int64)
        return Graph(len(node_map), sub_edges), node_map, edge_map

    def subgraph_by_edges(self, edge_ids: Sequence[int]) -> Tuple["Graph", np.ndarray, np.ndarray]:
        """Subgraph containing exactly the given edges (vertices relabelled).

        Returns ``(subgraph, node_map, edge_map)`` as in
        :meth:`subgraph_by_nodes`; ``edge_map`` is the sorted unique input.
        """
        edge_ids = distinct_ids(
            edge_ids, self.m, GraphFormatError("subgraph edge ids out of range")
        )
        pairs = self.edges[edge_ids]
        node_map = distinct_ids(pairs, self.n, GraphFormatError("edge endpoints out of range"))
        inverse = np.full(self.n, -1, dtype=np.int64)
        inverse[node_map] = np.arange(len(node_map))
        return Graph(len(node_map), inverse[pairs]), node_map, edge_ids

    def edge_induced_support(self, edge_ids: Sequence[int]) -> Dict[int, int]:
        """Support of each edge restricted to the subgraph formed by
        *edge_ids* (keyed by original edge id)."""
        sub, _, edge_map = self.subgraph_by_edges(edge_ids)
        sups = sub.edge_supports()
        return {int(edge_map[i]): int(sups[i]) for i in range(len(edge_map))}

    # ------------------------------------------------------------------ #
    # conversions
    # ------------------------------------------------------------------ #

    def to_mutable(self) -> "MutableGraph":
        """Copy into a :class:`MutableGraph` preserving edge ids."""
        mutable = MutableGraph(self.n)
        for eid in range(self.m):
            u, v = self.edges[eid]
            mutable._insert_with_eid(int(u), int(v), eid)
        return mutable

    def edge_pairs(self) -> List[EdgePair]:
        """Edges as a list of ``(u, v)`` tuples (small graphs / tests)."""
        return [(int(u), int(v)) for u, v in self.edges]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(n={self.n}, m={self.m})"


class MutableGraph:
    """Undirected graph with O(1) insert/delete and stable edge ids.

    Edge ids are assigned on insertion and never reused; deleted ids become
    tombstones. The dynamic-maintenance algorithms operate on this class.
    """

    def __init__(self, n: int = 0) -> None:
        self.n = int(n)
        self._adj: Dict[int, Dict[int, int]] = {}
        self._edge_endpoints: Dict[int, EdgePair] = {}
        self._next_eid = 0

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #

    def _insert_with_eid(self, u: int, v: int, eid: int) -> None:
        self._adj.setdefault(u, {})[v] = eid
        self._adj.setdefault(v, {})[u] = eid
        self._edge_endpoints[eid] = (min(u, v), max(u, v))
        self._next_eid = max(self._next_eid, eid + 1)

    def insert_edge(self, u: int, v: int) -> int:
        """Insert edge ``(u, v)``; returns its edge id. Re-inserting an
        existing edge returns the existing id. Self-loops and negative ids
        are rejected before ``n`` grows to cover both endpoints."""
        if u == v:
            raise GraphFormatError("self-loops are not allowed")
        if u < 0 or v < 0:
            raise GraphFormatError("vertex ids must be non-negative")
        if u >= self.n or v >= self.n:
            self.n = max(u, v) + 1
        existing = self._adj.get(u, {}).get(v)
        if existing is not None:
            return existing
        eid = self._next_eid
        self._insert_with_eid(u, v, eid)
        return eid

    def delete_edge(self, u: int, v: int) -> int:
        """Delete edge ``(u, v)``; returns its (now dead) edge id."""
        eid = self._adj.get(u, {}).get(v)
        if eid is None:
            raise GraphFormatError(f"edge ({u}, {v}) not present")
        del self._adj[u][v]
        del self._adj[v][u]
        del self._edge_endpoints[eid]
        return eid

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    @property
    def m(self) -> int:
        """Number of live edges."""
        return len(self._edge_endpoints)

    def degree(self, v: int) -> int:
        """Degree of *v* (0 for unknown vertices)."""
        return len(self._adj.get(v, {}))

    def neighbors(self, v: int) -> Dict[int, int]:
        """Mapping ``neighbor -> edge id`` for *v* (live view)."""
        return self._adj.get(v, {})

    def has_edge(self, u: int, v: int) -> bool:
        """Whether edge ``(u, v)`` is live."""
        return v in self._adj.get(u, {})

    def edge_id(self, u: int, v: int) -> int:
        """Edge id of a live edge, or ``-1``."""
        return self._adj.get(u, {}).get(v, -1)

    def endpoints(self, eid: int) -> EdgePair:
        """Endpoints ``(u, v)`` with ``u < v`` of a live edge id."""
        return self._edge_endpoints[eid]

    def live_edge_ids(self) -> List[int]:
        """All live edge ids (unspecified order)."""
        return list(self._edge_endpoints)

    def common_neighbors(self, u: int, v: int) -> List[int]:
        """Vertices adjacent to both *u* and *v* (iterates the smaller list)."""
        first, second = self._adj.get(u, {}), self._adj.get(v, {})
        if len(first) > len(second):
            first, second = second, first
        return [w for w in first if w in second]

    # ------------------------------------------------------------------ #
    # conversions
    # ------------------------------------------------------------------ #

    def to_graph(self) -> Tuple[Graph, Dict[int, int]]:
        """Freeze into a :class:`Graph`.

        Returns ``(graph, eid_map)`` where ``eid_map`` maps this graph's
        stable edge ids to the frozen graph's dense edge ids.
        """
        pairs = sorted((pair, eid) for eid, pair in self._edge_endpoints.items())
        edges = np.array([pair for pair, _ in pairs], dtype=np.int64).reshape(-1, 2)
        frozen = Graph(self.n, edges)
        eid_map = {eid: dense for dense, (_, eid) in enumerate(pairs)}
        return frozen, eid_map

    def copy(self) -> "MutableGraph":
        """Deep copy preserving edge ids."""
        clone = MutableGraph(self.n)
        for eid, (u, v) in self._edge_endpoints.items():
            clone._insert_with_eid(u, v, eid)
        clone._next_eid = self._next_eid
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MutableGraph(n={self.n}, m={self.m})"
