"""Dynamic ``k_max``-truss maintenance state (paper §IV).

:class:`DynamicMaxTruss` owns everything the maintenance algorithms touch:

* the evolving graph (a :class:`~repro.graph.memgraph.MutableGraph`) with a
  charged :class:`~repro.dynamic.adjacency_file.AdjacencyFile` modelling its
  on-disk adjacency;
* the current ``k_max`` and the ``k_max``-truss — edge set, *in-truss*
  supports, truss-only adjacency — with its own charged truss file (the
  paper: "we only have information about the edges in the k_max-truss");
* a cached coreness array with a sound staleness rule: one edge insertion
  raises any coreness by at most one, and deletions only lower it, so
  ``cached + insertions_since_refresh`` is always an upper bound — enough
  for the Lemma 3/9 gates, with an exact refresh only when a gate fires.

The update algorithms live in :mod:`repro.dynamic.insertion` and
:mod:`repro.dynamic.deletion`; both fall back to :meth:`global_phase` —
the paper's "global-second" tier: core-pruned recomputation via the
Algorithm 3 machinery (LHDH upward peel) on the refined vertex set.
:mod:`repro.dynamic.batch` applies a mixed batch with at most one global
phase.

Every result carries its bill. :func:`edge_update` is the one window of
an edge update, for this class and for
:class:`~repro.dynamic.ylj.YLJMaintenance`, and
:meth:`DynamicMaxTruss.apply_batch` is the window of a batch.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from .._util import Stopwatch
from ..core.peeling import peel_below
from ..core.result import MaintenanceResult
from ..engine.context import ContextLike, resolve_context
from ..graph.disk_graph import DiskGraph
from ..graph.memgraph import Graph, MutableGraph
from ..observability.tracer import trace_span
from ..semiexternal.core_decomp import core_decomposition_inmemory
from ..semiexternal.support import compute_supports
from ..structures import LHDH
from .adjacency_file import AdjacencyFile
from .batch import BatchOp, BatchResult, apply_batch
from .deletion import delete_edge
from .insertion import insert_edge

EdgePair = Tuple[int, int]


def edge_update(
    maintainer, operation: str, apply: Callable[..., str], u: int, v: int
) -> MaintenanceResult:
    """Time and bill one edge update of *maintainer*.

    *maintainer* is anything with ``context``, ``device`` and ``k_max``
    (:class:`DynamicMaxTruss`, :class:`~repro.dynamic.ylj.YLJMaintenance`);
    ``apply(maintainer, u, v)`` performs the update and returns its
    resolution mode. The window starts the stopwatch, snapshots the
    ledger and ``k_max``, and runs *apply* under the
    ``maintain.<operation>`` span.
    """
    watch = Stopwatch()
    io_start = maintainer.device.stats.snapshot()
    k_before = maintainer.k_max
    with trace_span("maintain." + operation, kind="phase", u=u, v=v):
        mode = apply(maintainer, u, v)
    return MaintenanceResult(
        operation, (u, v), k_before, maintainer.k_max, mode,
        maintainer.device.stats.since(io_start), watch.elapsed(),
    )


class DynamicMaxTruss:
    """Maintains the ``k_max``-truss of a graph under edge updates.

    Parameters
    ----------
    graph:
        Initial graph. The initial decomposition is not charged to any
        update (the paper likewise excludes preprocessing).
    context:
        :class:`~repro.engine.ExecutionContext` (or bare
        :class:`~repro.engine.EngineConfig`) providing the storage backend
        shared by the graph file, truss file and any global-phase scratch.
    local_budget:
        Optional cap on local-cascade work; beyond it the update transitions
        to the global tier (the paper's two-tiered strategy). ``None``
        inherits the context's ``work_limit`` (and when that is also
        ``None``, the local tier always runs to completion).

    Example
    -------
    >>> from repro.graph.generators import paper_example_graph
    >>> state = DynamicMaxTruss(paper_example_graph())
    >>> state.k_max
    4
    >>> state.insert(0, 4).k_max_after      # completes K5 on {0..4}
    5
    """

    def __init__(
        self,
        graph: Graph,
        local_budget: Optional[int] = None,
        context: Optional[ContextLike] = None,
    ) -> None:
        self.context = resolve_context(context)
        self.device = self.context.device_for(graph.n)
        self.memory = self.context.memory
        if local_budget is None:
            local_budget = self.context.config.work_limit
        self.local_budget = local_budget
        with trace_span("maintain.init", kind="phase", n=graph.n, m=graph.m):
            self._initialise(graph)

    def _initialise(self, graph: Graph) -> None:
        self.graph: MutableGraph = graph.to_mutable()
        self.adj_file = AdjacencyFile(
            self.device, graph.degrees.tolist(), name="dyn.G"
        )
        # --- initial truss state (uncharged preprocessing) ---
        from ..baselines.inmemory import truss_decomposition  # local import: cycle

        self.k_max = 0
        self._truss_adj: Dict[int, Dict[int, int]] = {}
        self._truss_sup: Dict[int, int] = {}
        if graph.m:
            trussness = truss_decomposition(graph)
            self.k_max = int(trussness.max())
            class_eids = np.nonzero(trussness == self.k_max)[0]
            sups = graph.edge_induced_support(class_eids)
            for frozen_eid in class_eids:
                u, v = graph.edges[frozen_eid]
                # to_mutable() preserves dense edge ids as stable ids.
                self._link_truss_edge(int(u), int(v), int(frozen_eid),
                                      sups[int(frozen_eid)])
        self.truss_file = AdjacencyFile(
            self.device, self._truss_degrees(graph.n), name="dyn.truss"
        )
        # --- coreness cache (sound upper bound under staleness) ---
        self._coreness = (
            core_decomposition_inmemory(graph)
            if graph.n
            else np.zeros(0, dtype=np.int64)
        )
        self._insertions_since_refresh = 0
        self.memory.charge("dyn.coreness", self._coreness.nbytes)
        self._recharge_truss_memory()

    # ------------------------------------------------------------------ #
    # truss bookkeeping
    # ------------------------------------------------------------------ #

    def _truss_degrees(self, n: int) -> List[int]:
        degrees = [0] * n
        for v, nbrs in self._truss_adj.items():
            if v < n:
                degrees[v] = len(nbrs)
        return degrees

    def _link_truss_edge(self, u: int, v: int, eid: int, sup: int) -> None:
        self._truss_adj.setdefault(u, {})[v] = eid
        self._truss_adj.setdefault(v, {})[u] = eid
        self._truss_sup[eid] = sup

    def _recharge_truss_memory(self) -> None:
        # dict-of-dict adjacency + support map, 3 words per directed entry.
        entries = sum(len(nbrs) for nbrs in self._truss_adj.values())
        self.memory.charge("dyn.truss_state", 24 * (entries + len(self._truss_sup)))

    def truss_contains_edge(self, u: int, v: int) -> bool:
        """Whether ``(u, v)`` is in the current ``k_max``-class."""
        return v in self._truss_adj.get(u, {})

    def truss_contains_vertex(self, v: int) -> bool:
        """Whether *v* is an endpoint of some ``k_max``-class edge."""
        return bool(self._truss_adj.get(v))

    def truss_edge_id(self, u: int, v: int) -> int:
        """Stable edge id of a class edge, or ``-1``."""
        return self._truss_adj.get(u, {}).get(v, -1)

    def load_truss_neighbors(self, v: int) -> Dict[int, int]:
        """``N_v(k_max-truss)`` with edge ids (charged truss-file read)."""
        self.truss_file.charge_load(v)
        return self._truss_adj.get(v, {})

    def load_graph_neighbors(self, v: int) -> Dict[int, int]:
        """``N_v(G)`` with edge ids (charged graph-file read)."""
        self.adj_file.charge_load(v)
        return self.graph.neighbors(v)

    def remove_truss_edge(self, u: int, v: int) -> None:
        """Unlink a class edge (charged truss-file writes)."""
        eid = self._truss_adj[u].pop(v)
        self._truss_adj[v].pop(u)
        self._truss_sup.pop(eid, None)
        self.truss_file.charge_remove(u)
        self.truss_file.charge_remove(v)

    def add_truss_edge(self, u: int, v: int, eid: int, sup: int) -> None:
        """Link a new class edge (charged truss-file writes)."""
        self._link_truss_edge(u, v, eid, sup)
        self.truss_file.charge_append(u)
        self.truss_file.charge_append(v)

    def truss_edge_count(self) -> int:
        """Number of edges in the current class."""
        return len(self._truss_sup)

    def truss_pairs(self) -> List[EdgePair]:
        """The current ``k_max``-truss as sorted ``(u, v)`` pairs."""
        pairs = set()
        for u, nbrs in self._truss_adj.items():
            for v in nbrs:
                pairs.add((min(u, v), max(u, v)))
        return sorted(pairs)

    def set_class(
        self, edges: Iterable[Tuple[int, int, int, int]], k_max: int
    ) -> None:
        """Wholesale replacement of the class: ``(u, v, eid, sup)`` rows.

        Charged as a sequential rebuild of the truss file.
        """
        self._truss_adj = {}
        self._truss_sup = {}
        for u, v, eid, sup in edges:
            self._link_truss_edge(u, v, eid, sup)
        self.k_max = k_max
        self.truss_file.charge_rebuild(self._truss_degrees(self.graph.n))
        self._recharge_truss_memory()

    def set_trivial_class(self) -> None:
        """Make every edge the class at trussness 2 (no triangle-carrying
        truss; ``k_max`` 0 when the graph is edgeless)."""
        rows = []
        for eid in self.graph.live_edge_ids():
            u, v = self.graph.endpoints(eid)
            rows.append((u, v, eid, 0))
        self.set_class(rows, 2 if rows else 0)

    # ------------------------------------------------------------------ #
    # graph mutation passthroughs (charged)
    # ------------------------------------------------------------------ #

    def graph_insert(self, u: int, v: int) -> int:
        """Insert ``(u, v)`` into the graph + adjacency file."""
        eid = self.graph.insert_edge(u, v)
        self.adj_file.charge_append(u)
        self.adj_file.charge_append(v)
        self._insertions_since_refresh += 1
        return eid

    def graph_delete(self, u: int, v: int) -> int:
        """Delete ``(u, v)`` from the graph + adjacency file."""
        eid = self.graph.delete_edge(u, v)
        self.adj_file.charge_remove(u)
        self.adj_file.charge_remove(v)
        return eid

    # ------------------------------------------------------------------ #
    # coreness cache
    # ------------------------------------------------------------------ #

    def core_upper(self, v: int) -> int:
        """A sound upper bound on ``core(v)`` under cache staleness."""
        cached = int(self._coreness[v]) if v < len(self._coreness) else 0
        bound = cached + self._insertions_since_refresh
        return min(bound, self.graph.degree(v))

    def refresh_coreness(self) -> np.ndarray:
        """Exact coreness recompute (charged as a full graph-file scan)."""
        frozen, _ = self.graph.to_graph()
        return self._refresh_coreness_from(frozen)

    def _refresh_coreness_from(self, frozen: Graph) -> np.ndarray:
        """:meth:`refresh_coreness` on *frozen*, the current graph frozen."""
        with trace_span("coreness_refresh", kind="kernel", n=self.graph.n):
            for v in range(frozen.n):
                if frozen.degree(v):
                    self.adj_file.charge_load(v)
            self._coreness = core_decomposition_inmemory(frozen)
            self._insertions_since_refresh = 0
            self.memory.charge("dyn.coreness", self._coreness.nbytes)
            return self._coreness

    # ------------------------------------------------------------------ #
    # the global-second tier
    # ------------------------------------------------------------------ #

    def global_phase(self, lower_bound: int) -> None:
        """Core-pruned recomputation of the class (Alg 5 lines 20–26 /
        Alg 6 lines 30–33): refresh coreness, keep vertices with
        ``core >= lb − 1``, and run the Algorithm 3 upward peel there.

        *lower_bound* must be a sound lower bound on the new ``k_max``
        (callers pass ``k_max`` for insertions, ``k_max − 1`` for deletions).
        """
        with trace_span("global_phase", kind="kernel",
                        lower_bound=lower_bound):
            self._global_phase_impl(lower_bound)

    def _global_phase_impl(self, lower_bound: int) -> None:
        # One frozen graph serves the coreness refresh and the candidates.
        frozen, eid_map = self.graph.to_graph()
        coreness = self._refresh_coreness_from(frozen)
        dense_to_stable = {dense: stable for stable, dense in eid_map.items()}
        if frozen.m == 0:
            self.set_class([], 0)
            return
        lb = max(lower_bound, 3)
        survivors: List[Tuple[int, int]] = []
        k_max = 2
        subgraph = node_map = edge_map = None
        while lb >= 3:
            keep = np.nonzero(coreness >= lb - 1)[0]
            subgraph, node_map, edge_map = frozen.subgraph_by_nodes(keep)
            if subgraph.m == 0:
                lb -= 1
                continue
            disk_sub = DiskGraph(subgraph, self.device, self.memory, name="dyn.H")
            scan = compute_supports(disk_sub, name="dyn.hsup")
            keys = scan.supports.to_numpy()
            heap = LHDH(
                self.device, range(subgraph.m), keys,
                capacity=max(1, self.graph.n), memory=self.memory,
                name="dyn.heap",
            )
            current_k = lb
            snapshot: List[Tuple[int, int]] = []
            while True:
                peel_below(heap, disk_sub, current_k - 2)
                if len(heap) == 0:
                    break
                k_max = current_k
                snapshot = sorted(heap.live_items())
                current_k += 1
            survivors = snapshot
            heap.release()
            scan.supports.free()
            disk_sub.release()
            if k_max >= lb:
                break
            # The caller's bound was not met here (clamped-lb edge cases):
            # widen the candidate set and retry one level lower.
            lb -= 1
        if k_max <= 2:
            self.set_trivial_class()
            return
        rows = []
        for sub_eid, sup in survivors:
            frozen_eid = int(edge_map[sub_eid])
            stable_eid = dense_to_stable[frozen_eid]
            sub_u, sub_v = subgraph.edges[sub_eid]
            u, v = int(node_map[sub_u]), int(node_map[sub_v])
            rows.append((u, v, stable_eid, int(sup)))
        self.set_class(rows, k_max)

    # ------------------------------------------------------------------ #
    # public update API (delegates to the algorithm modules)
    # ------------------------------------------------------------------ #

    def insert(self, u: int, v: int) -> MaintenanceResult:
        """Insert edge ``(u, v)`` and maintain the class (Algorithm 6)."""
        return edge_update(self, "insert", insert_edge, u, v)

    def delete(self, u: int, v: int) -> MaintenanceResult:
        """Delete edge ``(u, v)`` and maintain the class (Algorithm 5)."""
        return edge_update(self, "delete", delete_edge, u, v)

    def apply_batch(self, operations: Iterable[BatchOp]) -> BatchResult:
        """Apply a mixed update batch with at most one global recompute
        (see :func:`repro.dynamic.batch.apply_batch`), timed and billed
        under the ``maintain.batch`` span.

        A malformed operation, or one that conflicts with the graph state
        it would see, raises :class:`~repro.errors.GraphFormatError`
        before any mutation (:func:`~repro.dynamic.batch.check_batch`).
        """
        watch = Stopwatch()
        io_start = self.device.stats.snapshot()
        k_before = self.k_max
        operations = list(operations)
        with trace_span("maintain.batch", kind="phase", ops=len(operations)):
            insertions, deletions, mode, cancelled, probes = apply_batch(
                self, operations
            )
        return BatchResult(
            len(operations), insertions, deletions, k_before, self.k_max, mode,
            self.device.stats.since(io_start), watch.elapsed(),
            cancelled_ops=cancelled, gate_probes=probes,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DynamicMaxTruss(n={self.graph.n}, m={self.graph.m}, "
            f"k_max={self.k_max}, class_edges={self.truss_edge_count()})"
        )
