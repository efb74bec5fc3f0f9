"""Semi-external graph storage (paper §II, "Graph storage").

The paper stores a graph as two files: a *node file* (offset + degree per
vertex, small enough to stay in memory under the semi-external model) and a
sequential *edge file* of adjacency lists. :class:`DiskGraph` mirrors that:

* ``offsets`` / ``degrees`` — in-memory numpy arrays, charged to the
  algorithm's :class:`~repro.storage.MemoryMeter` as node-indexed state;
* ``adj`` / ``adj_eids`` — :class:`~repro.storage.DiskArray`s on a
  :class:`~repro.storage.BlockDevice`: loading ``N(v)`` costs
  ``ceil(d(v) * itemsize / B)`` read I/Os (amortised by the page cache);
* ``edge_endpoints`` — the edge table ``eid -> (u, v)`` on disk, used when an
  algorithm holds an edge id and needs its endpoints.

Topology is immutable; per-edge *state* (support, alive flags) belongs to
the algorithms, which allocate their own ``DiskArray``s on the same device.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..errors import ArrayBoundsError
from ..storage import BlockDevice, DiskArray, MemoryMeter
from .memgraph import Graph, distinct_ids


class DiskGraph:
    """An immutable graph whose adjacency lives on a simulated disk.

    ``DiskGraph(graph, device, memory, name)`` materialises *graph*: its
    edge file is charged as sequential writes and its node file to
    *memory*. :meth:`attach` registers an image that is already on disk
    (a pinned snapshot, a graph being sampled) and charges nothing. Either
    way the payloads are the graph's own arrays, never copies, and every
    read through the access paths below is charged. The in-memory
    footprint is the node table only — ``O(n)`` — as the semi-external
    model allows.
    """

    def __init__(
        self,
        graph: Graph,
        device: Optional[BlockDevice] = None,
        memory: Optional[MemoryMeter] = None,
        name: str = "G",
    ) -> None:
        self._bind(graph, device if device is not None else BlockDevice(), name)
        # Node file: resident in memory (the semi-external allowance).
        self.memory = memory if memory is not None else MemoryMeter()
        self.memory.charge(f"{name}.nodefile", self.offsets.nbytes + self.degrees.nbytes)
        # Edge file: writing it out is part of the paper's bill.
        for array in (self.adj, self.adj_eids, self.edge_endpoints):
            if array.length:
                self.device.append_write(array.extent, 0, array.length * array.itemsize)

    @classmethod
    def attach(cls, graph: Graph, device: BlockDevice, name: str = "G") -> "DiskGraph":
        """Register *graph*'s image on *device* without charging or copying.

        Constant work: three extents over the graph's own arrays, no
        memory meter. Reads bill exactly as on a materialised
        ``DiskGraph``, so an attached view suits read-only devices.
        """
        view = cls.__new__(cls)
        view._bind(graph, device, name)
        view.memory = None
        return view

    def _bind(self, graph: Graph, device: BlockDevice, name: str) -> None:
        self.device = device
        self.name = name
        self.n = graph.n
        self.m = graph.m
        self.offsets = graph.offsets
        self.degrees = graph.degrees
        # Edge file: adjacency + aligned edge ids, then the edge table
        # (endpoints by edge id, 2 ints per edge).
        self.adj = DiskArray.attach(device, graph.adj, f"{name}.adj")
        self.adj_eids = DiskArray.attach(device, graph.adj_eids, f"{name}.adjeids")
        self.edge_endpoints = DiskArray.attach(
            device, graph.edges.reshape(-1), f"{name}.edges"
        )
        self._graph = graph  # retained for result extraction & subgraphing

    # ------------------------------------------------------------------ #
    # charged access paths (algorithm-facing)
    # ------------------------------------------------------------------ #

    def load_neighbors(self, v: int) -> np.ndarray:
        """Load ``N(v)`` from the edge file (charged read)."""
        start, stop = int(self.offsets[v]), int(self.offsets[v + 1])
        return self.adj.read_slice(start, stop)

    def adj_base(self, v: int) -> int:
        """Start offset of ``N(v)`` in the adjacency file (free lookup)."""
        return int(self.offsets[v])

    def read_adj_cell(self, offset: int) -> int:
        """One adjacency cell by flat offset (a single charged touch).

        The approximate tier's membership probes binary-search an
        adjacency list cell by cell — ``O(log deg)`` single touches
        instead of the full ``O(deg / B)`` slice."""
        return self.adj.get(offset)

    def load_neighbors_with_eids(self, v: int) -> Tuple[np.ndarray, np.ndarray]:
        """Load ``N(v)`` together with the aligned edge ids (charged)."""
        start, stop = int(self.offsets[v]), int(self.offsets[v + 1])
        return self.adj.read_slice(start, stop), self.adj_eids.read_slice(start, stop)

    def load_neighbors_batch(self, vs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Load ``N(v)`` for every vertex in *vs* with one batched access.

        Returns ``(values, bounds)``: *values* concatenates the adjacency
        lists in the order given, ``values[bounds[i]:bounds[i + 1]]`` is
        ``N(vs[i])``. The edge-file touches are identical — offset for
        offset — to the per-vertex :meth:`load_neighbors` loop, so I/O
        counts are unchanged; only the per-call Python overhead is batched
        away (the fast path of the support scan and the peel kernels).
        """
        vs = np.asarray(vs, dtype=np.int64)
        starts = self.offsets[vs]
        counts = self.offsets[vs + 1] - starts
        return self.adj.read_slices(starts, counts)

    def load_endpoints(self, eid: int) -> Tuple[int, int]:
        """Load endpoints ``(u, v)`` of edge *eid* from the edge table."""
        pair = self.edge_endpoints.read_slice(2 * eid, 2 * eid + 2)
        return int(pair[0]), int(pair[1])

    def load_endpoints_many(self, eids: np.ndarray) -> np.ndarray:
        """Load endpoints for many edge ids; returns ``(len(eids), 2)``."""
        eids = np.asarray(eids, dtype=np.int64)
        flat = np.empty(2 * len(eids), dtype=np.int64)
        flat[0::2] = 2 * eids
        flat[1::2] = 2 * eids + 1
        return self.edge_endpoints.gather(flat).reshape(-1, 2)

    def scan_edges(self, batch: int = 4096):
        """Yield ``(eid_start, endpoint_block)`` batches in a sequential scan
        of the edge table (charged as sequential reads)."""
        for start in range(0, self.m, batch):
            stop = min(start + batch, self.m)
            block = self.edge_endpoints.read_slice(2 * start, 2 * stop).reshape(-1, 2)
            yield start, block

    def degree(self, v: int) -> int:
        """Degree of *v* — node-file lookup, free (in memory)."""
        return int(self.degrees[v])

    @property
    def max_degree(self) -> int:
        """``d_max(G)`` from the in-memory node file."""
        return int(self.degrees.max()) if self.n else 0

    # ------------------------------------------------------------------ #
    # uncharged access (result extraction / tests only)
    # ------------------------------------------------------------------ #

    @property
    def graph(self) -> Graph:
        """The in-memory topology (tests and result extraction only)."""
        return self._graph

    def edge_pair(self, eid: int) -> Tuple[int, int]:
        """Endpoints without I/O charging — tests/result extraction only."""
        u, v = self._graph.edges[eid]
        return int(u), int(v)

    # ------------------------------------------------------------------ #
    # derived graphs
    # ------------------------------------------------------------------ #

    def induced_subgraph(
        self, nodes: Sequence[int], name: str = "H"
    ) -> Tuple["DiskGraph", np.ndarray, np.ndarray]:
        """Materialise the node-induced subgraph as a new :class:`DiskGraph`
        on the same device (its construction charges sequential writes).

        Returns ``(disk_subgraph, node_map, edge_map)`` per
        :meth:`Graph.subgraph_by_nodes`. The scan of the parent's edge table
        needed to select the surviving edges is charged as sequential reads.
        """
        node_mask = np.zeros(self.n, dtype=bool)
        node_mask[np.asarray(list(nodes), dtype=np.int64)] = True
        # Charged sequential scan over the parent edge table.
        for _start, block in self.scan_edges():
            _ = node_mask[block[:, 0]] & node_mask[block[:, 1]]
        sub, node_map, edge_map = self._graph.subgraph_by_nodes(np.nonzero(node_mask)[0])
        disk_sub = DiskGraph(sub, self.device, self.memory, name=name)
        return disk_sub, node_map, edge_map

    def edge_subgraph(
        self, edge_ids: Sequence[int], name: str = "H"
    ) -> Tuple["DiskGraph", np.ndarray, np.ndarray]:
        """Materialise the edge-induced subgraph as a new :class:`DiskGraph`.

        The read of the selected edges is charged via
        :meth:`load_endpoints_many`; the new graph's construction charges
        sequential writes.
        """
        edge_ids = distinct_ids(
            list(edge_ids), self.m, ArrayBoundsError(
                f"gather indices out of bounds for {self.edge_endpoints.name!r}"
            ),
        )
        if len(edge_ids):
            self.load_endpoints_many(edge_ids)
        sub, node_map, edge_map = self._graph.subgraph_by_edges(edge_ids)
        disk_sub = DiskGraph(sub, self.device, self.memory, name=name)
        return disk_sub, node_map, edge_map

    def release(self) -> None:
        """Free the on-disk extents and the node-file memory charge."""
        self.adj.free()
        self.adj_eids.free()
        self.edge_endpoints.free()
        if self.memory is not None:
            self.memory.release(f"{self.name}.nodefile")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DiskGraph({self.name!r}, n={self.n}, m={self.m})"
