"""Tests for the truss query service (snapshot MVCC, engine, server).

Covers the serving stack layer by layer: snapshot pin/promote/retire
lifecycle, promoter replay from a durable directory, per-request charged
I/O and read-only enforcement, protocol validation, and the asyncio TCP
server end to end (including timeout envelopes and graceful drain).
"""

from __future__ import annotations

import json
import logging
import threading
import time
from queue import Queue

import networkx as nx
import numpy as np
import pytest

from repro.baselines.inmemory import truss_decomposition
from repro.dynamic import DynamicMaxTruss
from repro.engine import EngineConfig, ExecutionContext
from repro.errors import DeviceError, ServeError
from repro.graph.generators import gnm_random, paper_example_graph
from repro.graph.memgraph import Graph
from repro.observability.metrics import pop_metrics, push_metrics
from repro.persistence.recovery import DurableMaintenance, durable_from_graph
from repro.serve import Promoter, QueryEngine, SnapshotManager, TrussClient
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    decode_line,
    request_id_of,
    validate_request,
)
from repro.serve.server import run_server
from repro.storage.device import count_block_touches
from repro.serve.snapshot import bootstrap_manager


def triangle_graph() -> Graph:
    return Graph(4, np.array([[0, 1], [0, 2], [1, 2]]))


# --------------------------------------------------------------------- #
# snapshot manager lifecycle
# --------------------------------------------------------------------- #


class TestSnapshotManager:
    def test_initial_snapshot(self):
        manager = SnapshotManager.initial(paper_example_graph())
        snapshot = manager.current()
        assert snapshot.snapshot_id == 1
        assert snapshot.wal_seq == 0
        assert snapshot.k_max == 4
        oracle = truss_decomposition(snapshot.graph)
        assert (snapshot.trussness == oracle).all()

    def test_pin_refcount_and_retire_on_unpin(self):
        manager = SnapshotManager.initial(triangle_graph())
        old = manager.pin()
        assert manager.pin_count(old.snapshot_id) == 1
        newer = manager.publish(paper_example_graph(), wal_seq=1)
        # Superseded but pinned: both versions stay live.
        assert manager.live_snapshots() == [old.snapshot_id, newer.snapshot_id]
        assert manager.current().snapshot_id == newer.snapshot_id
        manager.unpin(old)
        assert manager.live_snapshots() == [newer.snapshot_id]
        assert manager.retired == 1

    def test_publish_retires_unpinned_predecessor(self):
        manager = SnapshotManager.initial(triangle_graph())
        manager.publish(triangle_graph(), wal_seq=1)
        assert manager.live_snapshots() == [2]
        assert manager.retired == 1

    def test_snapshot_ids_strictly_increase(self):
        manager = SnapshotManager.initial(triangle_graph())
        ids = [
            manager.publish(triangle_graph(), wal_seq=i).snapshot_id
            for i in range(1, 5)
        ]
        assert ids == [2, 3, 4, 5]

    def test_wal_seq_must_not_go_backwards(self):
        manager = SnapshotManager.initial(triangle_graph())
        manager.publish(triangle_graph(), wal_seq=7)
        with pytest.raises(ServeError, match="backwards"):
            manager.publish(triangle_graph(), wal_seq=3)

    def test_unpin_without_pin_raises(self):
        manager = SnapshotManager.initial(triangle_graph())
        snapshot = manager.current()
        with pytest.raises(ServeError, match="not pinned"):
            manager.unpin(snapshot)

    def test_pinned_reader_keeps_consistent_view(self):
        manager = SnapshotManager.initial(triangle_graph())
        with manager.pinned() as snapshot:
            manager.publish(paper_example_graph(), wal_seq=1)
            # The pinned view is untouched by the publish.
            assert snapshot.graph.m == 3
            assert manager.current().graph.m != 3

    def test_pin_before_any_publish_raises(self):
        with pytest.raises(ServeError, match="no snapshot"):
            SnapshotManager().pin()


# --------------------------------------------------------------------- #
# promoter: durable frontier -> snapshots
# --------------------------------------------------------------------- #


class TestPromoter:
    def test_bootstrap_from_durable_directory(self, tmp_path):
        durable = durable_from_graph(triangle_graph(), tmp_path)
        durable.insert(1, 3)
        durable.close()
        manager = bootstrap_manager(tmp_path)
        snapshot = manager.current()
        assert snapshot.graph.m == 4
        assert snapshot.wal_seq == 1

    def test_bootstrap_empty_directory(self, tmp_path):
        with pytest.raises(ServeError, match="no readable checkpoint"):
            bootstrap_manager(tmp_path)
        manager = bootstrap_manager(tmp_path, on_missing=triangle_graph)
        assert manager.current().graph.m == 3

    def test_promote_once_replays_wal_tail(self, tmp_path):
        durable = durable_from_graph(triangle_graph(), tmp_path)
        manager = bootstrap_manager(tmp_path)
        promoter = Promoter(manager, tmp_path)
        durable.insert(2, 3)
        durable.insert(1, 3)
        snapshot = promoter.promote_once()
        assert snapshot is not None and snapshot.wal_seq == 2
        assert snapshot.graph.m == 5
        oracle = truss_decomposition(snapshot.graph)
        assert (snapshot.trussness == oracle).all()
        durable.close()

    def test_promote_reports_snapshot_lag(self, tmp_path):
        durable = durable_from_graph(triangle_graph(), tmp_path)
        manager = bootstrap_manager(tmp_path)
        promoter = Promoter(manager, tmp_path)
        durable.insert(2, 3)
        durable.insert(1, 3)
        registry = push_metrics()
        try:
            promoter.promote_once()
            lagged = registry.gauge("serve.snapshot_lag_records").value
            promoter.promote_once()
            caught_up = registry.gauge("serve.snapshot_lag_records").value
        finally:
            pop_metrics()
        assert (lagged, caught_up) == (2, 0)
        durable.close()

    def test_promote_skips_stale_frontier(self, tmp_path):
        durable_from_graph(triangle_graph(), tmp_path).close()
        manager = bootstrap_manager(tmp_path)
        promoter = Promoter(manager, tmp_path)
        assert promoter.promote_once() is None
        assert promoter.stats.skipped == 1

    def test_promote_survives_checkpoint_wal_reset(self, tmp_path):
        # checkpoint_every=2 makes the writer reset the WAL mid-stream;
        # the replayed frontier must stay contiguous regardless.
        state = DynamicMaxTruss(triangle_graph())
        durable = DurableMaintenance(state, tmp_path, checkpoint_every=2)
        manager = bootstrap_manager(tmp_path)
        promoter = Promoter(manager, tmp_path)
        for u, v in [(1, 3), (2, 3), (0, 3), (3, 4)]:
            durable.insert(u, v)
        snapshot = promoter.promote_once()
        assert snapshot.wal_seq == 4
        assert snapshot.graph.m == 7
        durable.close()

    def test_promote_handles_deletions(self, tmp_path):
        durable = durable_from_graph(paper_example_graph(), tmp_path)
        manager = bootstrap_manager(tmp_path)
        m0 = manager.current().graph.m
        u, v = (int(x) for x in manager.current().graph.edges[0])
        durable.delete(u, v)
        snapshot = Promoter(manager, tmp_path).promote_once()
        assert snapshot.graph.m == m0 - 1
        durable.close()

    def test_background_thread_with_notify(self, tmp_path):
        durable = durable_from_graph(triangle_graph(), tmp_path)
        manager = bootstrap_manager(tmp_path)
        with Promoter(manager, tmp_path, interval=30.0) as promoter:
            durable.insert(1, 3)
            promoter.notify()
            deadline = time.time() + 5.0
            while time.time() < deadline:
                if manager.current().wal_seq >= 1:
                    break
                time.sleep(0.01)
        assert manager.current().wal_seq == 1
        assert manager.current().graph.m == 4
        durable.close()

    def test_invalid_interval(self, tmp_path):
        manager = SnapshotManager.initial(triangle_graph())
        with pytest.raises(ServeError, match="interval"):
            Promoter(manager, tmp_path, interval=0)


# --------------------------------------------------------------------- #
# read-only enforcement
# --------------------------------------------------------------------- #


class TestReadonlyContext:
    def test_touch_write_raises(self):
        context = ExecutionContext(readonly=True)
        device = context.device_for(16)
        extent = device.allocate("x", 4096)
        with pytest.raises(DeviceError, match="read-only"):
            device.touch_write(extent, 0, 8)
        context.close()

    def test_batch_write_and_append_raise(self):
        context = ExecutionContext(readonly=True)
        device = context.device_for(16)
        extent = device.allocate("x", 4096)
        with pytest.raises(DeviceError, match="read-only"):
            device.touch_write_batch(extent, np.array([0, 8]), 8)
        with pytest.raises(DeviceError, match="read-only"):
            device.append_write(extent, 0, 8)
        context.close()

    def test_reads_still_allowed(self):
        context = ExecutionContext(readonly=True)
        device = context.device_for(16)
        extent = device.allocate("x", 4096)
        device.touch_read(extent, 0, 8)
        assert context.stats.snapshot().read_ios >= 1
        assert context.stats.snapshot().write_ios == 0
        context.close()


# --------------------------------------------------------------------- #
# protocol
# --------------------------------------------------------------------- #


class TestProtocol:
    def test_decode_rejects_bad_json(self):
        with pytest.raises(ServeError, match="JSON"):
            decode_line(b"{nope\n")

    def test_decode_rejects_non_object(self):
        with pytest.raises(ServeError, match="object"):
            decode_line(b"[1, 2]\n")

    def test_decode_rejects_oversize_line(self):
        with pytest.raises(ServeError, match="exceeds"):
            decode_line(b" " * (2 << 20))

    @pytest.mark.parametrize("request_", [
        {"op": "nope"},
        {"op": 5},
        {},
        {"op": "membership", "u": 0, "v": 1},            # missing k
        {"op": "membership", "u": 0, "v": 1, "k": 1},    # k < 2
        {"op": "membership", "u": 0.5, "v": 1, "k": 3},  # non-int
        {"op": "membership", "u": True, "v": 1, "k": 3}, # bool is not int
        {"op": "community", "q": 0, "connectivity": "psychic"},
        {"op": "community", "q": 0, "k": 0},
        {"op": "community", "q": 0, "include_edges": "yes"},
        {"op": "hierarchy", "k": 1},
        {"op": "export", "k": 1},
    ])
    def test_validate_rejects(self, request_):
        with pytest.raises(ServeError):
            validate_request(request_)

    def test_defaults_applied(self):
        op, params = validate_request({"op": "community", "q": 3})
        assert op == "community"
        assert params == {
            "q": 3, "k": None, "connectivity": "vertex",
            "include_edges": False,
        }

    def test_request_id_echo_rules(self):
        assert request_id_of({"id": "abc"}) == "abc"
        assert request_id_of({"id": 7}) == 7
        assert request_id_of({"id": {"nested": 1}}) is None
        assert request_id_of(None) is None


# --------------------------------------------------------------------- #
# query engine vs oracle
# --------------------------------------------------------------------- #


def _served(graph: Graph):
    manager = SnapshotManager.initial(graph)
    return graph, truss_decomposition(graph), QueryEngine(manager)


@pytest.fixture(scope="module")
def served():
    return _served(paper_example_graph())


@pytest.fixture(scope="module")
def served_random():
    """900 random draws over 120 vertices (duplicates and loops dropped):
    k_max 4, with every level holding edges."""
    rng = np.random.default_rng(3)
    pairs = np.unique(np.sort(rng.integers(0, 120, size=(900, 2)), axis=1), axis=0)
    return _served(Graph(120, pairs[pairs[:, 0] != pairs[:, 1]]))


def level_components(graph: Graph, oracle: np.ndarray, k: int):
    """networkx's connected components of the trussness >= k subgraph."""
    level = nx.Graph(graph.edges[oracle >= k].tolist())
    return list(nx.connected_components(level)), level


class TestQueryEngine:
    def test_membership_matches_oracle_on_every_edge(self, served):
        graph, oracle, engine = served
        for eid in range(graph.m):
            u, v = (int(x) for x in graph.edges[eid])
            for k in (2, 3, int(oracle[eid]), int(oracle[eid]) + 1):
                if k < 2:
                    continue
                envelope = engine.execute(
                    {"op": "membership", "u": u, "v": v, "k": k}
                )
                result = envelope["result"]
                assert result["present"] is True
                assert result["trussness"] == int(oracle[eid])
                assert result["member"] == (oracle[eid] >= k)

    def test_absent_edge(self, served):
        graph, _oracle, engine = served
        present = {tuple(edge) for edge in graph.edges.tolist()}
        u, v = next(
            (u, v)
            for u in range(graph.n) for v in range(u + 1, graph.n)
            if (u, v) not in present
        )
        result = engine.execute({"op": "trussness", "u": u, "v": v})["result"]
        assert result == {"present": False, "trussness": None}

    def test_hierarchy_profile_matches_bincount(self, served):
        _graph, oracle, engine = served
        result = engine.execute({"op": "hierarchy"})["result"]
        assert result["k_max"] == int(oracle.max())
        counts = np.bincount(oracle)
        expected = {
            str(level): int(count)
            for level, count in enumerate(counts) if count and level >= 2
        }
        assert result["levels"] == expected

    def test_hierarchy_level_counts_components(self, served, served_random):
        for graph, oracle, engine in (served, served_random):
            for k in range(2, int(oracle.max()) + 2):
                result = engine.execute({"op": "hierarchy", "k": k})["result"]
                components, _level = level_components(graph, oracle, k)
                assert result == {
                    "k": k,
                    "edges": int((oracle >= k).sum()),
                    "communities": len(components),
                }, k

    def test_community_matches_direct_search(self, served, served_random):
        from repro.applications import truss_community

        graph, oracle, engine = served
        q = int(graph.edges[np.argmax(oracle)][0])
        result = engine.execute(
            {"op": "community", "q": q, "include_edges": True}
        )["result"]
        direct = truss_community(graph, [q], trussness=oracle)
        assert result["found"] is True
        assert result["k"] == direct.k
        assert result["vertices"] == direct.vertices
        assert result["edges"] == [
            [int(a), int(b)] for a, b in sorted(direct.edges)
        ]
        # Fixed k: the component holding q of the trussness >= k subgraph.
        graph, oracle, engine = served_random
        for k in range(2, int(oracle.max()) + 2):
            components, level = level_components(graph, oracle, k)
            for q in range(0, graph.n, 11):
                result = engine.execute(
                    {"op": "community", "q": q, "k": k, "include_edges": True}
                )["result"]
                holding = [c for c in components if q in c]
                if not holding:
                    assert result == {"found": False}, (q, k)
                    continue
                edges = sorted(
                    sorted(edge) for edge in level.subgraph(holding[0]).edges
                )
                assert result == {
                    "found": True,
                    "k": k,
                    "size": len(holding[0]),
                    "edge_count": len(edges),
                    "vertices": sorted(holding[0]),
                    "edges": edges,
                }, (q, k)

    def test_export_roundtrips_snapshot(self, served):
        graph, oracle, engine = served
        result = engine.execute({"op": "export"})["result"]
        assert result["edges"] == graph.edges.tolist()
        assert result["trussness"] == oracle.tolist()
        level = engine.execute({"op": "export", "k": 4})["result"]
        assert level["trussness"] == oracle[oracle >= 4].tolist()

    def test_stats(self, served):
        graph, oracle, engine = served
        result = engine.execute({"op": "stats"})["result"]
        assert result["n"] == graph.n
        assert result["m"] == graph.m
        assert result["k_max"] == int(oracle.max())
        assert result["snapshot_id"] == 1

    def test_envelope_carries_snapshot_and_bill(self, served):
        graph, _oracle, engine = served
        u, v = (int(x) for x in graph.edges[0])
        envelope = engine.execute({"op": "membership", "u": u, "v": v, "k": 3})
        assert envelope["ok"] is True
        assert envelope["snapshot"] == {"id": 1, "wal_seq": 0}
        assert envelope["io"]["read_ios"] >= 1
        # Read-only serving: a query can never charge a write.
        assert envelope["io"]["write_ios"] == 0
        assert envelope["elapsed_ms"] >= 0

    def test_point_query_is_sublinear_in_edges(self):
        # o(edges): on a large graph with small blocks, a membership probe
        # touches a vanishing fraction of what one full edge scan costs.
        rng = np.random.default_rng(11)
        n = 3000
        edges = np.unique(
            np.sort(rng.integers(0, n, size=(20000, 2)), axis=1), axis=0
        )
        edges = edges[edges[:, 0] != edges[:, 1]]
        graph = Graph(n, edges)
        engine = QueryEngine(
            SnapshotManager.initial(graph),
            EngineConfig(block_size=256),
        )
        u, v = (int(x) for x in graph.edges[0])
        probe = engine.execute({"op": "membership", "u": u, "v": v, "k": 3})
        scan = engine.execute({"op": "export"})
        assert probe["io"]["read_ios"] * 20 < scan["io"]["read_ios"]
        assert probe["io"]["bytes_read"] * 20 < scan["io"]["bytes_read"]

    def test_engine_validation_errors(self, served):
        graph, _oracle, engine = served
        with pytest.raises(ServeError, match="out of range"):
            engine.execute({"op": "trussness", "u": 0, "v": graph.n})
        with pytest.raises(ServeError, match="differ"):
            engine.execute({"op": "trussness", "u": 1, "v": 1})
        with pytest.raises(ServeError, match="shutdown"):
            engine.execute({"op": "shutdown"})

    def test_concurrent_queries_share_one_manager(self, served):
        graph, oracle, engine = served
        errors = []

        def worker(seed: int) -> None:
            rng = np.random.default_rng(seed)
            try:
                for _ in range(20):
                    eid = int(rng.integers(graph.m))
                    u, v = (int(x) for x in graph.edges[eid])
                    result = engine.execute(
                        {"op": "trussness", "u": u, "v": v}
                    )["result"]
                    if result["trussness"] != int(oracle[eid]):
                        errors.append((u, v, result))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(seed,)) for seed in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []

    @pytest.mark.parametrize("backend", ["simulated", "file"])
    def test_bills_match_the_closed_form(self, backend):
        # A point request reads the smaller-degree endpoint's adjacency
        # slice, plus one edge-id cell and one trussness cell when the edge
        # exists; an unparameterised hierarchy reads the trussness extent.
        block = 64
        graph = gnm_random(60, 300, seed=5)
        engine = QueryEngine(
            SnapshotManager.initial(graph),
            EngineConfig(backend=backend, block_size=block, serve_cache_entries=0),
        )
        rng = np.random.default_rng(0)
        for index in range(80):
            if index % 2:
                u, v = (int(x) for x in rng.permutation(graph.edges[rng.integers(graph.m)]))
            else:
                u, v = (int(x) for x in rng.choice(graph.n, size=2, replace=False))
            a = u if graph.degree(u) <= graph.degree(v) else v
            expected = count_block_touches(
                8 * graph.offsets[a], 8 * graph.degree(a), block
            ) + 2 * graph.has_edge(u, v)
            request = {"op": "trussness", "u": u, "v": v}
            if index % 4 < 2:
                request = {"op": "membership", "u": u, "v": v, "k": 3}
            assert engine.execute(request)["io"]["read_ios"] == expected
        hierarchy = engine.execute({"op": "hierarchy"})
        assert hierarchy["io"]["read_ios"] == -(-8 * graph.m // block)


# --------------------------------------------------------------------- #
# TCP server end to end
# --------------------------------------------------------------------- #


def _serve_in_thread(engine, query_timeout=30.0):
    """Start run_server on a daemon thread; returns (thread, host, port)."""
    started: Queue = Queue()
    thread = threading.Thread(
        target=run_server,
        kwargs=dict(
            engine=engine, host="127.0.0.1", port=0,
            query_timeout=query_timeout, on_started=started.put,
        ),
        daemon=True,
    )
    thread.start()
    host, port = started.get(timeout=10)
    return thread, host, port


class ThreadRecording(QueryEngine):
    """A real engine that notes which thread ran each request (by id)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.threads = {}

    def execute(self, request):
        self.threads[request.get("id")] = threading.get_ident()
        return super().execute(request)


def _pipeline(host, port, requests):
    """Send every request on one connection in one write; read the answers."""
    with TrussClient(host, port) as client:
        client._sock.sendall(b"".join(
            json.dumps(request).encode() + b"\n" for request in requests
        ))
        return [json.loads(client._recv.readline()) for _ in requests]


class TestServer:
    def test_end_to_end_queries_and_shutdown(self):
        graph = paper_example_graph()
        oracle = truss_decomposition(graph)
        engine = QueryEngine(SnapshotManager.initial(graph))
        thread, host, port = _serve_in_thread(engine)
        with TrussClient(host, port) as client:
            stats = client.stats()
            assert stats.result["m"] == graph.m
            u, v = (int(x) for x in graph.edges[0])
            answer = client.membership(u, v, k=2)
            assert answer.result["member"] is True
            assert answer.result["trussness"] == int(oracle[0])
            assert answer.snapshot_id == 1
            assert answer.write_ios == 0
            hierarchy = client.hierarchy()
            assert hierarchy.result["k_max"] == int(oracle.max())
            # Error envelopes keep the connection usable.
            bad = client.request({"op": "membership", "u": 0}, check=False)
            assert bad.result["error"]["type"] == "bad_request"
            ok_again = client.trussness(u, v)
            assert ok_again.result["present"] is True
            ack = client.shutdown()
            assert ack["result"] == {"draining": True}
        thread.join(timeout=10)
        assert not thread.is_alive()

    def test_request_ids_echo_through(self):
        engine = QueryEngine(SnapshotManager.initial(paper_example_graph()))
        thread, host, port = _serve_in_thread(engine)
        with TrussClient(host, port) as client:
            envelope = client.request_raw({"op": "stats", "id": "req-17"})
            assert envelope["id"] == "req-17"
            assert envelope["ok"] is True
            client.shutdown()
        thread.join(timeout=10)

    def test_internal_errors_are_wrapped(self):
        class Exploding:
            def execute(self, request):
                raise RuntimeError("boom")

        thread, host, port = _serve_in_thread(Exploding())
        with TrussClient(host, port) as client:
            envelope = client.request_raw({"op": "stats"})
            assert envelope["ok"] is False
            assert envelope["error"]["type"] == "internal"
            assert "boom" in envelope["error"]["message"]
            client.shutdown()
        thread.join(timeout=10)

    def test_query_timeout_envelope(self):
        class Sleepy:
            def execute(self, request):
                time.sleep(2.0)
                return {"ok": True}

        thread, host, port = _serve_in_thread(Sleepy(), query_timeout=0.05)
        with TrussClient(host, port) as client:
            envelope = client.request_raw({"op": "stats"})
            assert envelope["ok"] is False
            assert envelope["error"]["type"] == "timeout"
            client.shutdown()
        thread.join(timeout=10)

    def test_graceful_drain_answers_inflight_request(self):
        release = threading.Event()
        inner = QueryEngine(SnapshotManager.initial(paper_example_graph()))

        class Gated:
            def execute(self, request):
                release.wait(timeout=10)
                return inner.execute(request)

        thread, host, port = _serve_in_thread(Gated())
        slow = TrussClient(host, port)
        slow._sock.sendall(b'{"op": "stats", "id": "inflight"}\n')
        time.sleep(0.1)
        with TrussClient(host, port) as other:
            other.shutdown()
        release.set()
        # The in-flight request drains to a real answer before exit.
        envelope = __import__("json").loads(slow._recv.readline())
        assert envelope["ok"] is True
        assert envelope["id"] == "inflight"
        slow.close()
        thread.join(timeout=10)
        assert not thread.is_alive()

    def test_server_with_promoter_sees_fresh_snapshots(self, tmp_path):
        durable = durable_from_graph(triangle_graph(), tmp_path)
        manager = bootstrap_manager(tmp_path)
        engine = QueryEngine(manager)
        with Promoter(manager, tmp_path, interval=30.0) as promoter:
            thread, host, port = _serve_in_thread(engine)
            with TrussClient(host, port) as client:
                before = client.stats()
                assert before.result["m"] == 3
                durable.insert(1, 3)
                promoter.notify()
                deadline = time.time() + 5.0
                while time.time() < deadline:
                    after = client.stats()
                    if after.result["m"] == 4:
                        break
                    time.sleep(0.01)
                assert after.result["m"] == 4
                assert after.snapshot_id > before.snapshot_id
                assert after.wal_seq == 1
                client.shutdown()
            thread.join(timeout=10)
        durable.close()

    # Dispatch: exact point ops (and their cache hits) and ``metrics`` run
    # on the event loop, everything else on the executor under the timeout.
    LOOP = [
        {"id": "m", "op": "membership", "u": 0, "v": 1, "k": 3},
        {"id": "m-hit", "op": "membership", "u": 0, "v": 1, "k": 3},
        {"id": "t", "op": "trussness", "u": 0, "v": 1},
        {"id": "t-hit", "op": "trussness", "u": 0, "v": 1},
        {"id": "s", "op": "stats"},
        {"id": "s-hit", "op": "stats", "precision": "exact"},
        {"id": "metrics", "op": "metrics"},
    ]
    EXECUTOR = [
        {"id": "c", "op": "community", "q": 0},
        {"id": "h", "op": "hierarchy"},
        {"id": "e", "op": "export", "k": 3},
        {"id": "am", "op": "membership", "u": 0, "v": 1, "k": 3,
         "precision": "approx"},
        {"id": "at", "op": "trussness", "u": 0, "v": 1, "precision": "approx"},
        {"id": "as", "op": "stats", "precision": "approx"},
    ]

    def test_exact_point_ops_and_hits_run_on_the_loop_thread(self):
        engine = ThreadRecording(SnapshotManager.initial(paper_example_graph()))
        thread, host, port = _serve_in_thread(engine)
        envelopes = _pipeline(host, port, self.LOOP + self.EXECUTOR)
        assert all(envelope["ok"] for envelope in envelopes), envelopes
        cached = {e["id"] for e in envelopes if e.get("cached")}
        assert {"m-hit", "t-hit", "s-hit"} <= cached
        for request in self.LOOP:
            assert engine.threads[request["id"]] == thread.ident, request
        for request in self.EXECUTOR:
            assert engine.threads[request["id"]] != thread.ident, request
        with TrussClient(host, port) as client:
            client.shutdown()
        thread.join(timeout=10)

    def test_executor_ops_still_time_out_and_the_connection_goes_on(self):
        release = threading.Event()

        class SlowOffLoop(QueryEngine):
            def execute(self, request):
                if not self.answers_on_loop(request):
                    release.wait(timeout=10)
                return super().execute(request)

        engine = SlowOffLoop(SnapshotManager.initial(paper_example_graph()))
        thread, host, port = _serve_in_thread(engine, query_timeout=0.05)
        try:
            envelopes = _pipeline(host, port, self.EXECUTOR + [self.LOOP[0]])
        finally:
            release.set()
        for envelope, request in zip(envelopes, self.EXECUTOR):
            assert envelope["id"] == request["id"]
            assert envelope["ok"] is False
            assert envelope["error"]["type"] == "timeout"
        assert envelopes[-1]["id"] == "m" and envelopes[-1]["ok"] is True
        with TrussClient(host, port) as client:
            client.shutdown()
        thread.join(timeout=10)

    def test_pipelined_mixed_requests_answer_in_order(self):
        graph = paper_example_graph()
        oracle = truss_decomposition(graph)
        engine = QueryEngine(SnapshotManager.initial(graph))
        thread, host, port = _serve_in_thread(engine)
        requests = []
        for eid in range(graph.m):
            u, v = (int(x) for x in graph.edges[eid])
            requests.append({"id": eid, "op": "trussness", "u": u, "v": v})
            requests.append({"id": f"h{eid}", "op": "hierarchy"})
        requests.append({"id": "bad", "op": "membership", "u": 0})
        requests.append({"id": "last", "op": "stats"})
        envelopes = _pipeline(host, port, requests)
        assert [e["id"] for e in envelopes] == [r["id"] for r in requests]
        for eid in range(graph.m):
            assert envelopes[2 * eid]["result"]["trussness"] == int(oracle[eid])
            assert envelopes[2 * eid + 1]["result"]["k_max"] == int(oracle.max())
        assert envelopes[-2]["error"]["type"] == "bad_request"
        assert envelopes[-1]["result"]["m"] == graph.m
        with TrussClient(host, port) as client:
            client.shutdown()
        thread.join(timeout=10)

    def test_inline_errors_are_wrapped_and_the_connection_stays_usable(self):
        class Faulty(ThreadRecording):
            def _stats(self, reader):
                raise RuntimeError("inline boom")

        graph = paper_example_graph()
        engine = Faulty(SnapshotManager.initial(graph))
        thread, host, port = _serve_in_thread(engine)
        u, v = (int(x) for x in graph.edges[0])
        envelopes = _pipeline(host, port, [
            {"id": "range", "op": "trussness", "u": 0, "v": graph.n},
            {"id": "boom", "op": "stats"},
            {"id": "ok", "op": "trussness", "u": u, "v": v},
        ])
        assert envelopes[0]["error"]["type"] == "bad_request"
        assert "out of range" in envelopes[0]["error"]["message"]
        assert envelopes[1]["error"]["type"] == "internal"
        assert "inline boom" in envelopes[1]["error"]["message"]
        assert envelopes[2]["ok"] is True
        assert {engine.threads[rid] for rid in ("range", "boom", "ok")} == {
            thread.ident
        }
        with TrussClient(host, port) as client:
            client.shutdown()
        thread.join(timeout=10)

    def test_metrics_op_counts_both_paths(self):
        push_metrics()
        try:
            graph = paper_example_graph()
            engine = QueryEngine(SnapshotManager.initial(graph))
            thread, host, port = _serve_in_thread(engine)
            u, v = (int(x) for x in graph.edges[0])
            with TrussClient(host, port) as client:
                for _ in range(3):
                    client.membership(u, v, k=3)
                client.hierarchy()
                answer = client.metrics()
                assert answer.op == "metrics"
                assert answer.read_ios == 0
                counters = answer.result["counters"]
                histograms = answer.result["histograms"]
                # counted once answered: the metrics request is not yet
                assert counters["serve.dispatch{path=loop}"] == 3
                assert counters["serve.dispatch{path=executor}"] == 1
                assert counters["serve.requests{op=membership}"] == 3
                # the two cache hits are timed too, and read no block
                timed = histograms["serve.query_seconds{op=membership}"]
                assert timed["count"] == 3
                io = histograms["serve.request_io{op=membership}"]
                assert io["count"] == 3
                assert io["buckets"]["0.0"] == 2
                assert io["sum"] == counters["serve.charged_read_ios{op=membership}"]
                assert histograms["serve.request_io{op=hierarchy}"]["count"] == 1
                client.shutdown()
            thread.join(timeout=10)
        finally:
            pop_metrics()


class TestLineCap:
    """The protocol's 1 MiB line cap is the listener's stream limit."""

    def test_a_70kb_line_is_parsed(self):
        engine = QueryEngine(SnapshotManager.initial(paper_example_graph()))
        thread, host, port = _serve_in_thread(engine)
        padded = {"id": "big", "op": "stats", "pad": "x" * 70_000}
        with TrussClient(host, port) as client:
            envelope = client.request_raw(padded)
            assert envelope["ok"] is True and envelope["id"] == "big"
            client.shutdown()
        thread.join(timeout=10)

    @pytest.mark.parametrize("split", [False, True])
    def test_oversized_line_answers_bad_request_then_goes_on(self, caplog, split):
        # split: the line's newline arrives after the server has already
        # overrun its limit, so the tail must be skipped, not parsed.
        engine = QueryEngine(SnapshotManager.initial(paper_example_graph()))
        thread, host, port = _serve_in_thread(engine)
        head = b'{"op": "stats", "pad": "' + b"x" * (MAX_LINE_BYTES + 4096)
        tail = b'"}\n{"op": "stats", "id": "after"}\n'
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with TrussClient(host, port) as client:
                if split:
                    client._sock.sendall(head)
                    time.sleep(0.2)
                    client._sock.sendall(tail)
                else:
                    client._sock.sendall(head + tail)
                rejected = json.loads(client._recv.readline())
                assert rejected["ok"] is False
                assert rejected["id"] is None
                assert rejected["error"]["type"] == "bad_request"
                assert str(MAX_LINE_BYTES) in rejected["error"]["message"]
                answer = json.loads(client._recv.readline())
                assert answer["id"] == "after" and answer["ok"] is True
                client.shutdown()
            thread.join(timeout=10)
        assert not [r for r in caplog.records if "Unhandled" in r.getMessage()]
