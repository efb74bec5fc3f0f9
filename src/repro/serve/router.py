"""Scatter/gather routing over a partitioned graph.

:class:`ShardedRouter` serves the same protocol as
:class:`~repro.serve.engine.QueryEngine` — the server front end accepts
either — but executes against the per-shard images of a
:class:`~repro.serve.partition.PartitionManifest`:

* **point queries** (``membership``/``trussness``) route to the single
  shard owning the edge (the shard of the minimum endpoint, found by
  bisection over the manifest boundaries) — one shard consulted, one
  shard billed;
* **aggregates** (``stats``, level-profile ``hierarchy``) scatter to all
  shards concurrently and merge commutatively (sums / maxima are exact
  because edge ownership is a partition);
* **structure queries** (``community``, fixed-``k`` ``hierarchy``,
  ``export``) gather the relevant per-shard edge/trussness rows via each
  shard's charged ``export`` op, merge them into the global edge set, and
  finish with the same component logic the single-image engine uses —
  the union of shard exports *is* the full answer set, so answers are
  bit-identical to an unsharded engine over the same graph.

``metrics`` answers the process's registry snapshot, as the single-image
engine does. The router has no ``answers_on_loop`` method, so the server
runs every routed request on its executor.

Sharded envelopes replace the single ``snapshot`` stamp with
``{"sharded": true, "parts": [...]}`` listing every consulted shard's
snapshot, and ``io`` is the **sum** of the consulted shards' bills.

**Partial failure.** A scatter/gather op tolerates individual shard
failures: the merge runs over the surviving shards and the envelope is
stamped ``"partial": true`` with ``"failed_shards": [ids...]`` so the
client knows the answer may be an under-approximation (a gather union
missing one shard's rows). Point ops still hard-fail — a single-shard
answer is either exact or an error, never partial. All shards failing
is an error.

``precision: "approx"`` is rejected here: the estimators sample
shard-local adjacency, which cannot see triangles whose edges cross
shard boundaries, so shard-local estimates do not compose into a sound
global interval. Approximate answers are a single-image feature.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..analysis.components import component_holding, vertex_connected_components
from ..applications.community import truss_community
from ..engine.config import EngineConfig
from ..errors import ServeError
from ..graph.memgraph import Graph
from ..observability.metrics import global_metrics
from ..observability.tracer import trace_span
from .engine import QueryEngine, metrics_envelope
from .partition import PartitionManifest, load_manifest
from .protocol import ok_envelope, request_id_of, validate_request
from .snapshot import SnapshotManager


class ShardedRouter:
    """Fan queries out to per-shard engines and merge the answers.

    Single-process multi-shard: every shard image is loaded into its own
    :class:`SnapshotManager` + :class:`QueryEngine`, and scatters run on
    a small thread pool. The execute() contract (request dict in,
    envelope out, :class:`ServeError` on bad requests) matches
    :class:`QueryEngine`, so :class:`~repro.serve.server.TrussServer`
    can front either.
    """

    def __init__(
        self,
        manifest: Union[PartitionManifest, str],
        config: Optional[EngineConfig] = None,
        max_workers: Optional[int] = None,
    ) -> None:
        if not isinstance(manifest, PartitionManifest):
            manifest = load_manifest(manifest)
        self.manifest = manifest
        self.config = config if config is not None else EngineConfig()
        self.engines: List[QueryEngine] = []
        for shard in manifest.shards:
            graph, tau = manifest.load_shard(shard)
            manager = SnapshotManager.initial(graph, trussness=tau, wal_seq=0)
            self.engines.append(QueryEngine(manager, self.config))
        if max_workers is None:
            max_workers = min(len(self.engines), 8) or 1
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-shard"
        )

    def close(self) -> None:
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "ShardedRouter":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # protocol entry point
    # ------------------------------------------------------------------ #

    def execute(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Answer one request dict with a (sharded) response envelope."""
        request_id = request_id_of(request)
        op, params = validate_request(request)
        if op == "shutdown":
            raise ServeError("shutdown is a server operation, not a query")
        if op == "metrics":
            return metrics_envelope(request_id)
        if params.get("precision") == "approx":
            raise ServeError(
                "precision=approx is not available on a sharded deployment: "
                "shard-local samples cannot see cross-shard triangles"
            )
        start = time.perf_counter()
        failed: List[int] = []
        with trace_span("serve.route", kind="query", op=op):
            if op in ("membership", "trussness"):
                result, consulted = self._route_point(op, params)
            elif op == "stats":
                result, consulted, failed = self._merge_stats()
            elif op == "hierarchy":
                result, consulted, failed = self._merge_hierarchy(params["k"])
            elif op == "export":
                result, consulted, failed = self._merge_export(params["k"])
            elif op == "community":
                result, consulted, failed = self._merge_community(params)
            else:  # pragma: no cover
                raise ServeError(f"unhandled op {op!r}")
        elapsed = time.perf_counter() - start
        metrics = global_metrics()
        metrics.counter("serve.route_requests", op=op).inc()
        metrics.counter("serve.shards_consulted", op=op).inc(len(consulted))
        if failed:
            metrics.counter("serve.shards_failed", op=op).inc(len(failed))
        parts, io = self._merge_bills(consulted)
        envelope = ok_envelope(
            request_id,
            op,
            result,
            {"sharded": True, "parts": parts},
            io,
            elapsed * 1000.0,
        )
        if failed:
            envelope["partial"] = True
            envelope["failed_shards"] = failed
        return envelope

    # ------------------------------------------------------------------ #
    # routing primitives
    # ------------------------------------------------------------------ #

    def _check_vertex(self, v: int, name: str) -> int:
        if not 0 <= v < self.manifest.n:
            raise ServeError(
                f"vertex {name}={v} out of range [0, {self.manifest.n})"
            )
        return v

    def _ask(self, shard_id: int, request: Dict[str, Any]) -> Tuple[int, Dict]:
        """One shard's sub-envelope, tagged with its shard id."""
        return shard_id, self.engines[shard_id].execute(request)

    def _scatter(
        self, request: Dict[str, Any], shard_ids: Optional[Sequence[int]] = None
    ) -> Tuple[List[Tuple[int, Dict]], List[int]]:
        """Run *request* on the given shards concurrently.

        Returns ``(consulted, failed)`` in deterministic shard order:
        *consulted* holds the surviving ``(shard_id, envelope)`` pairs,
        *failed* the ids whose engines raised. Every shard failing is an
        error (there is nothing to merge), raised with the first failure
        chained for diagnosis.
        """
        if shard_ids is None:
            shard_ids = range(len(self.engines))
        shard_ids = list(shard_ids)
        futures = [
            self._pool.submit(self._ask, shard_id, request)
            for shard_id in shard_ids
        ]
        consulted: List[Tuple[int, Dict]] = []
        failed: List[int] = []
        first_error: Optional[BaseException] = None
        for shard_id, future in zip(shard_ids, futures):
            try:
                consulted.append(future.result())
            except Exception as exc:
                failed.append(shard_id)
                if first_error is None:
                    first_error = exc
        if failed and not consulted:
            raise ServeError(
                f"all shards failed (shards {failed}): {first_error!r}"
            ) from first_error
        return consulted, failed

    @staticmethod
    def _merge_bills(
        consulted: List[Tuple[int, Dict]]
    ) -> Tuple[List[Dict[str, Any]], Dict[str, int]]:
        parts = [
            {
                "shard": shard_id,
                "id": sub["snapshot"]["id"],
                "wal_seq": sub["snapshot"]["wal_seq"],
            }
            for shard_id, sub in consulted
        ]
        io = {"read_ios": 0, "write_ios": 0, "bytes_read": 0}
        for _, sub in consulted:
            for key in io:
                io[key] += int(sub["io"].get(key, 0))
        return parts, io

    # ------------------------------------------------------------------ #
    # per-op merges
    # ------------------------------------------------------------------ #

    def _route_point(
        self, op: str, params: Dict[str, Any]
    ) -> Tuple[Dict[str, Any], List[Tuple[int, Dict]]]:
        u = self._check_vertex(params["u"], "u")
        v = self._check_vertex(params["v"], "v")
        if u == v:
            raise ServeError("u and v must differ")
        owner = self.manifest.shard_of(min(u, v))
        request: Dict[str, Any] = {"op": op, "u": u, "v": v}
        if op == "membership":
            request["k"] = params["k"]
        consulted = [self._ask(owner, request)]
        return consulted[0][1]["result"], consulted

    def _merge_stats(
        self,
    ) -> Tuple[Dict[str, Any], List[Tuple[int, Dict]], List[int]]:
        consulted, failed = self._scatter({"op": "stats"})
        result = {
            "n": self.manifest.n,
            "m": sum(sub["result"]["m"] for _, sub in consulted),
            "k_max": max(sub["result"]["k_max"] for _, sub in consulted),
            "shards": len(consulted),
        }
        return result, consulted, failed

    def _merge_hierarchy(
        self, k: Optional[int]
    ) -> Tuple[Dict[str, Any], List[Tuple[int, Dict]], List[int]]:
        if k is None:
            consulted, failed = self._scatter({"op": "hierarchy"})
            levels: Dict[str, int] = {}
            for _, sub in consulted:
                for level, count in sub["result"]["levels"].items():
                    levels[level] = levels.get(level, 0) + int(count)
            k_max = max(sub["result"]["k_max"] for _, sub in consulted)
            return {"k_max": k_max, "levels": dict(sorted(
                levels.items(), key=lambda item: int(item[0])
            ))}, consulted, failed
        # One fixed level: components need the global edge set — gather.
        pairs, _, consulted, failed = self._gather_rows(k)
        components = vertex_connected_components(pairs)
        return {
            "k": int(k),
            "edges": len(pairs),
            "communities": len(components),
        }, consulted, failed

    def _gather_rows(
        self, k: Optional[int]
    ) -> Tuple[
        List[Tuple[int, int]], np.ndarray, List[Tuple[int, Dict]], List[int]
    ]:
        """Gather (edges, trussness) from every shard, merged into global
        lexicographic edge order (= the unsharded engine's edge-id order)."""
        request: Dict[str, Any] = {"op": "export"}
        if k is not None:
            request["k"] = k
        consulted, failed = self._scatter(request)
        rows: List[List[int]] = []
        taus: List[int] = []
        for _, sub in consulted:
            rows.extend(sub["result"]["edges"])
            taus.extend(sub["result"]["trussness"])
        if not rows:
            return [], np.zeros(0, dtype=np.int64), consulted, failed
        array = np.asarray(rows, dtype=np.int64)
        tau = np.asarray(taus, dtype=np.int64)
        order = np.lexsort((array[:, 1], array[:, 0]))
        array, tau = array[order], tau[order]
        pairs = [(int(a), int(b)) for a, b in array]
        return pairs, tau, consulted, failed

    def _merge_export(
        self, k: Optional[int]
    ) -> Tuple[Dict[str, Any], List[Tuple[int, Dict]], List[int]]:
        pairs, tau, consulted, failed = self._gather_rows(k)
        return {
            "edges": [[a, b] for a, b in pairs],
            "trussness": [int(t) for t in tau],
        }, consulted, failed

    def _merge_community(
        self, params: Dict[str, Any]
    ) -> Tuple[Dict[str, Any], List[Tuple[int, Dict]], List[int]]:
        q = self._check_vertex(params["q"], "q")
        k = params["k"]
        connectivity = params["connectivity"]
        include_edges = params["include_edges"]
        if k is None:
            # Maximum-trussness community: rebuild the full graph from the
            # shard exports (ownership partitions the edge set, so the
            # union is exact) and run the same sweep the engine runs.
            pairs, tau, consulted, failed = self._gather_rows(None)
            graph = Graph(self.manifest.n, np.asarray(pairs, dtype=np.int64)
                          if pairs else np.zeros((0, 2), dtype=np.int64))
            found = truss_community(
                graph, [q], connectivity=connectivity, trussness=tau
            )
            if found is None:
                return {"found": False}, consulted, failed
            return QueryEngine._community_result(
                found.k, found.edges, found.vertices, include_edges
            ), consulted, failed
        pairs, _, consulted, failed = self._gather_rows(k)
        found = component_holding(pairs, [q], connectivity)
        if found is None:
            return {"found": False}, consulted, failed
        return QueryEngine._community_result(
            k, *found, include_edges
        ), consulted, failed
