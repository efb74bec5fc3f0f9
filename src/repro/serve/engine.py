"""Per-request query execution against a pinned snapshot.

Every request runs against exactly one pinned :class:`Snapshot` through a
fresh **read-only** :class:`~repro.engine.context.ExecutionContext`: the
context's device attaches the snapshot's arrays as extents
(``serve.adj`` / ``serve.adjeids`` / ``serve.edges`` / ``serve.tau``)
and every byte the query logically reads is charged to that request's
ledger — so an answer's ``io`` field is its honest Aggarwal–Vitter bill,
and a write-side touch (a bug mutating served state) raises
:class:`~repro.errors.DeviceError` instead of corrupting the snapshot.

The point queries are the cheap ones the truss index exists for:
``membership``/``trussness`` read one adjacency slice (the smaller
endpoint's neighbour list, ``O(deg/B)`` blocks) plus one trussness cell —
*o(edges)*, asserted in the ``serve`` benchmark section. ``community``
and ``hierarchy`` are the linear-work queries: one sequential pass over
the trussness extent (plus the edge table when endpoints are needed).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..analysis.components import component_holding, vertex_connected_components
from ..applications.community import truss_community
from ..approx.engine import ApproxEngine
from ..approx.estimate import Estimate
from ..engine.config import EngineConfig
from ..engine.context import ExecutionContext
from ..errors import ServeError
from ..graph.disk_graph import DiskGraph
from ..observability.metrics import global_metrics
from ..observability.tracer import trace_span
from ..storage import DiskArray
from .cache import ResultCache
from .protocol import ok_envelope, request_id_of, validate_request
from .snapshot import Snapshot, SnapshotManager

#: Latency-flavoured buckets for the ``serve.query_seconds`` histogram.
LATENCY_BUCKETS = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0,
)

#: Block-count buckets for the ``serve.request_io`` histogram.
IO_BUCKETS = (0, 1, 2, 4, 8, 16, 64, 256, 1024, 4096, 16384)

#: Ops the server may run on its event loop when exact: the point lookups
#: read ``O(deg/B)`` blocks, ``stats`` none, ``metrics`` copies the registry.
_LOOP_OPS = frozenset({"membership", "trussness", "stats", "metrics"})


def metrics_envelope(request_id: Any) -> Dict[str, Any]:
    """The ``metrics`` op's answer: the live registry snapshot. It reads
    no snapshot and touches no device, so its bill is zero and it is never
    memoised."""
    return ok_envelope(
        request_id, "metrics", global_metrics().snapshot(), {},
        {"read_ios": 0, "write_ios": 0, "bytes_read": 0}, 0.0,
    )


def _observe(op: str, seconds: float, read_ios: int) -> None:
    """Per-op request instruments. A cache hit observes 0 read I/Os: it
    touches no device, though its envelope keeps the original bill."""
    metrics = global_metrics()
    metrics.counter("serve.requests", op=op).inc()
    metrics.counter("serve.charged_read_ios", op=op).inc(read_ios)
    metrics.histogram(
        "serve.query_seconds", buckets=LATENCY_BUCKETS, op=op
    ).observe(seconds)
    metrics.histogram("serve.request_io", buckets=IO_BUCKETS, op=op).observe(
        read_ios
    )


@dataclass(frozen=True)
class QueryAnswer:
    """A decoded answer envelope (convenience for python callers)."""

    op: str
    result: Dict[str, Any]
    snapshot_id: int
    wal_seq: int
    read_ios: int
    write_ios: int
    elapsed_ms: float

    @classmethod
    def from_envelope(cls, envelope: Dict[str, Any]) -> "QueryAnswer":
        if not envelope.get("ok"):
            error = envelope.get("error", {})
            raise ServeError(
                f"{error.get('type', 'error')}: {error.get('message', '')}"
            )
        snapshot = envelope.get("snapshot", {})
        io = envelope.get("io", {})
        return cls(
            op=envelope["op"],
            result=envelope["result"],
            snapshot_id=int(snapshot.get("id", 0)),
            wal_seq=int(snapshot.get("wal_seq", 0)),
            read_ios=int(io.get("read_ios", 0)),
            write_ios=int(io.get("write_ios", 0)),
            elapsed_ms=float(envelope.get("elapsed_ms", 0.0)),
        )


class _SnapshotReader:
    """Charged access paths over one pinned snapshot.

    Attaches the snapshot's graph (a :class:`~repro.graph.DiskGraph`
    view, ``serve.*``) and its trussness array (``serve.tau``) to the
    request's device. Payloads are the snapshot's own arrays, so readers
    share memory while each request pays its own block bill.
    """

    def __init__(self, snapshot: Snapshot, context: ExecutionContext) -> None:
        self.snapshot = snapshot
        self.graph = snapshot.graph
        device = context.device_for(self.graph.n)
        self.view = DiskGraph.attach(self.graph, device, name="serve")
        self._tau = DiskArray.attach(device, snapshot.trussness, "serve.tau")

    def check_vertex(self, v: int, name: str) -> int:
        if not 0 <= v < self.graph.n:
            raise ServeError(
                f"vertex {name}={v} out of range [0, {self.graph.n})"
            )
        return v

    def edge_lookup(self, u: int, v: int) -> int:
        """Edge id of ``(u, v)`` or ``-1``, charging the neighbour probe.

        Reads the smaller-degree endpoint's adjacency slice (the classic
        adjacency-probe bound: ``O(min_deg / B)`` blocks), then one edge-id
        cell when the edge exists.
        """
        view = self.view
        if view.degree(v) < view.degree(u):
            u, v = v, u
        nbrs = view.load_neighbors(u)
        pos = int(np.searchsorted(nbrs, v))
        if pos >= len(nbrs) or int(nbrs[pos]) != v:
            return -1
        return view.adj_eids.get(view.adj_base(u) + pos)

    def tau_of(self, eid: int) -> int:
        """One trussness cell (a single indexed block touch)."""
        return self._tau.get(eid)

    def scan_tau(self) -> np.ndarray:
        """The whole trussness array: one sequential extent pass."""
        return self._tau.to_numpy()

    def scan_edges(self, eids: Optional[np.ndarray] = None) -> np.ndarray:
        """Edge endpoint rows (all, or the selected ids), charged."""
        table = self.view.edge_endpoints
        if eids is None:
            return table.to_numpy().reshape(-1, 2)
        eids = np.asarray(eids, dtype=np.int64)
        # One 16-byte row touch per selected edge: the request's bill
        # counts rows, not endpoint cells.
        table.device.touch_read_batch(table.extent, 16 * eids, 16)
        return self.graph.edges[eids]


class QueryEngine:
    """Executes protocol requests against a :class:`SnapshotManager`.

    Thread-safe: each :meth:`execute` pins its own snapshot and builds its
    own read-only context/device, so the server can run queries on its
    event loop and on worker threads at once while the promoter publishes.
    """

    def __init__(
        self,
        manager: SnapshotManager,
        config: Optional[EngineConfig] = None,
    ) -> None:
        self.manager = manager
        self.config = config if config is not None else EngineConfig()
        self.cache: Optional[ResultCache] = (
            ResultCache(self.config.serve_cache_entries)
            if self.config.serve_cache_entries > 0
            else None
        )
        self._approx_lock = threading.Lock()
        self._approx: Dict[int, ApproxEngine] = {}
        manager.add_retire_listener(self._on_snapshot_retired)

    def _on_snapshot_retired(self, snapshot_id: int) -> None:
        """Drop per-snapshot derived state the moment a version retires."""
        if self.cache is not None:
            self.cache.evict_snapshot(snapshot_id)
        with self._approx_lock:
            engine = self._approx.pop(snapshot_id, None)
        if engine is not None:
            engine.close()

    # ------------------------------------------------------------------ #
    # protocol entry point
    # ------------------------------------------------------------------ #

    def answers_on_loop(self, request: Dict[str, Any]) -> bool:
        """Whether :meth:`execute` may run *request* on the server's event
        loop: exact ``membership`` / ``trussness`` / ``stats`` (cache hits
        included) and ``metrics``. Everything else — linear-work queries and
        approx requests, whose first one builds the estimator — goes to the
        executor under the query timeout.
        """
        op = request.get("op")
        return (
            isinstance(op, str)
            and op in _LOOP_OPS
            and request.get("precision", "exact") == "exact"
        )

    def execute(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Answer one request dict with a response envelope.

        Raises :class:`ServeError` for malformed requests (the server
        wraps those in ``bad_request`` envelopes); unexpected exceptions
        propagate (wrapped as ``internal`` by the server).
        """
        request_id = request_id_of(request)
        op, params = validate_request(request)
        if op == "shutdown":
            raise ServeError("shutdown is a server operation, not a query")
        if op == "metrics":
            return metrics_envelope(request_id)
        start = time.perf_counter()
        cache_key = None
        with self.manager.pinned() as snapshot:
            if self.cache is not None:
                cache_key = ResultCache.key(snapshot.snapshot_id, op, params)
                hit = self.cache.get(cache_key)
                if hit is not None:
                    # Replay the memoised answer: the io field stays the
                    # original bill (the honest cost of computing it); the
                    # hit itself touches no device.
                    hit["id"] = request_id
                    hit["cached"] = True
                    _observe(op, time.perf_counter() - start, 0)
                    return hit
            context = ExecutionContext(self.config, readonly=True)
            try:
                reader = _SnapshotReader(snapshot, context)
                with trace_span("serve.query", kind="query", op=op):
                    result = self._dispatch(op, params, reader)
                bill = context.stats.snapshot()
            finally:
                context.close()
            elapsed = time.perf_counter() - start
            envelope = ok_envelope(
                request_id,
                op,
                result,
                {"id": snapshot.snapshot_id, "wal_seq": snapshot.wal_seq},
                {
                    "read_ios": bill.read_ios,
                    "write_ios": bill.write_ios,
                    "bytes_read": bill.bytes_read,
                },
                elapsed * 1000.0,
            )
            if cache_key is not None:
                # Inside the pin: the retire listener cannot run for this
                # snapshot until we unpin, so the entry can never outlive
                # its eviction.
                stored = dict(envelope)
                stored.pop("id", None)
                self.cache.put(cache_key, stored)
        _observe(op, elapsed, bill.read_ios)
        return envelope

    def _dispatch(
        self,
        op: str,
        params: Dict[str, Any],
        reader: _SnapshotReader,
    ) -> Dict[str, Any]:
        approx = params.get("precision") == "approx"
        if op == "membership":
            if approx:
                return self._membership_approx(
                    reader, params["u"], params["v"], params["k"]
                )
            return self._membership(reader, params["u"], params["v"], params["k"])
        if op == "trussness":
            if approx:
                return self._trussness_approx(reader, params["u"], params["v"])
            return self._trussness(reader, params["u"], params["v"])
        if op == "community":
            return self._community(
                reader, params["q"], params["k"], params["connectivity"],
                params["include_edges"],
            )
        if op == "hierarchy":
            return self._hierarchy(reader, params["k"])
        if op == "export":
            return self._export(reader, params["k"])
        if op == "stats":
            if approx:
                return self._stats_approx(reader)
            return self._stats(reader)
        raise ServeError(f"unhandled op {op!r}")  # pragma: no cover

    # ------------------------------------------------------------------ #
    # point queries (o(edges) charged I/O)
    # ------------------------------------------------------------------ #

    def _trussness(self, reader, u: int, v: int) -> Dict[str, Any]:
        reader.check_vertex(u, "u")
        reader.check_vertex(v, "v")
        if u == v:
            raise ServeError("u and v must differ")
        eid = reader.edge_lookup(u, v)
        if eid < 0:
            return {"present": False, "trussness": None}
        return {"present": True, "trussness": reader.tau_of(eid)}

    def _membership(self, reader, u: int, v: int, k: int) -> Dict[str, Any]:
        answer = self._trussness(reader, u, v)
        tau = answer["trussness"]
        answer["k"] = k
        answer["member"] = tau is not None and tau >= k
        return answer

    # ------------------------------------------------------------------ #
    # approximate tier (precision="approx": sampled state + small probes)
    # ------------------------------------------------------------------ #

    def _approx_for(self, reader: "_SnapshotReader") -> ApproxEngine:
        """The snapshot's cached :class:`ApproxEngine`, built on demand.

        The sampled state is built once per snapshot — the first approx
        request pays the sampling bill on its own envelope; every later
        request reuses the state and pays only its per-edge probe. The
        engine is dropped (with the result cache) when the snapshot
        retires.
        """
        snapshot = reader.snapshot
        with self._approx_lock:
            engine = self._approx.get(snapshot.snapshot_id)
            if engine is None:
                engine = ApproxEngine(snapshot.graph, config=self.config)
                self._approx[snapshot.snapshot_id] = engine
            engine.build(reader.view)
        return engine

    def _trussness_approx(self, reader, u: int, v: int) -> Dict[str, Any]:
        reader.check_vertex(u, "u")
        reader.check_vertex(v, "v")
        if u == v:
            raise ServeError("u and v must differ")
        engine = self._approx_for(reader)
        estimate = engine.trussness(u, v, probe=reader.view)
        if estimate is None:
            return {"present": False, "trussness": None, "precision": "approx"}
        return {"present": True, "precision": "approx", **estimate.to_dict()}

    def _membership_approx(
        self, reader, u: int, v: int, k: int
    ) -> Dict[str, Any]:
        reader.check_vertex(u, "u")
        reader.check_vertex(v, "v")
        if u == v:
            raise ServeError("u and v must differ")
        engine = self._approx_for(reader)
        support = engine.edge_support(u, v, probe=reader.view)
        if support is None:
            absent = Estimate.exact(0.0)
            return {
                "present": False, "k": k, "member": False,
                "likelihood": 0.0, "precision": "approx",
                **absent.to_dict(),
            }
        likelihood = engine.membership_likelihood(
            u, v, k, support_estimate=support
        )
        return {
            "present": True, "k": k,
            "member": bool(likelihood.value >= 0.5),
            "likelihood": likelihood.value, "precision": "approx",
            **likelihood.to_dict(),
        }

    def _stats_approx(self, reader) -> Dict[str, Any]:
        snapshot = reader.snapshot
        engine = self._approx_for(reader)
        return {
            "n": snapshot.graph.n,
            "m": snapshot.graph.m,
            "snapshot_id": snapshot.snapshot_id,
            "wal_seq": snapshot.wal_seq,
            "precision": "approx",
            "k_max": engine.kmax().to_dict(),
            "triangles": engine.triangles().to_dict(),
            "max_support": engine.max_support().to_dict(),
            "build_io": engine.build_charged_io,
        }

    # ------------------------------------------------------------------ #
    # linear-work queries
    # ------------------------------------------------------------------ #

    def _community(
        self,
        reader,
        q: int,
        k: Optional[int],
        connectivity: str,
        include_edges: bool,
    ) -> Dict[str, Any]:
        reader.check_vertex(q, "q")
        graph = reader.graph
        values = reader.scan_tau()
        if k is None:
            # Maximum-trussness community: the decreasing-trussness sweep
            # reads every edge's endpoints alongside its trussness.
            reader.scan_edges()
            found = truss_community(
                graph, [q], connectivity=connectivity, trussness=values
            )
            if found is None:
                return {"found": False}
            return self._community_result(
                found.k, found.edges, found.vertices, include_edges
            )
        # Fixed-k membership community: the connected component of the
        # trussness >= k subgraph containing q.
        eids = np.nonzero(values >= k)[0]
        rows = reader.scan_edges(eids)
        pairs = [(int(a), int(b)) for a, b in rows]
        found = component_holding(pairs, [q], connectivity)
        if found is None:
            return {"found": False}
        return self._community_result(k, *found, include_edges)

    @staticmethod
    def _community_result(
        k: int,
        edges: List[Tuple[int, int]],
        vertices: List[int],
        include_edges: bool,
    ) -> Dict[str, Any]:
        result = {
            "found": True,
            "k": int(k),
            "size": len(vertices),
            "edge_count": len(edges),
            "vertices": [int(v) for v in vertices],
        }
        if include_edges:
            result["edges"] = [[int(a), int(b)] for a, b in sorted(edges)]
        return result

    def _hierarchy(self, reader, k: Optional[int]) -> Dict[str, Any]:
        values = reader.scan_tau()
        if k is None:
            if len(values) == 0:
                return {"k_max": 0, "levels": {}}
            counts = np.bincount(values)
            levels = {
                str(level): int(count)
                for level, count in enumerate(counts)
                if count and level >= 2
            }
            return {"k_max": int(values.max()), "levels": levels}
        eids = np.nonzero(values >= k)[0]
        rows = reader.scan_edges(eids)
        pairs = [(int(a), int(b)) for a, b in rows]
        components = vertex_connected_components(pairs)
        return {
            "k": int(k),
            "edges": len(pairs),
            "communities": len(components),
        }

    def _export(self, reader, k: Optional[int]) -> Dict[str, Any]:
        """Charged dump of (edges, trussness) rows: the whole snapshot, or
        the edges of trussness at least *k*."""
        values = reader.scan_tau()
        if k is None:
            rows = reader.scan_edges()
            taus = values
        else:
            eids = np.nonzero(values >= k)[0]
            rows = reader.scan_edges(eids)
            taus = values[eids]
        return {
            "edges": [[int(a), int(b)] for a, b in rows],
            "trussness": [int(t) for t in taus],
        }

    def _stats(self, reader) -> Dict[str, Any]:
        snapshot = reader.snapshot
        return {
            "n": snapshot.graph.n,
            "m": snapshot.graph.m,
            "k_max": snapshot.k_max,
            "snapshot_id": snapshot.snapshot_id,
            "wal_seq": snapshot.wal_seq,
        }
