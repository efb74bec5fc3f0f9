"""Tests for vertex-range partitioning and the scatter/gather router.

The load-bearing property: a :class:`ShardedRouter` over a >=3-shard
partition answers every operation bit-identically to a single-image
:class:`QueryEngine` over the same graph — edge ownership partitions the
edge set, so point queries route to exactly one shard and gathered
aggregates merge exactly.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.baselines.inmemory import truss_decomposition
from repro.cli import main
from repro.errors import PartitionError, ServeError
from repro.graph.generators import paper_example_graph
from repro.graph.memgraph import Graph
from repro.serve import (
    QueryEngine,
    ShardedRouter,
    SnapshotManager,
    load_manifest,
    write_partition,
)
from repro.serve.partition import (
    partition_boundaries,
    read_tau_sidecar,
    write_tau_sidecar,
)


def random_graph(seed: int = 3, n: int = 120, edges: int = 900) -> Graph:
    rng = np.random.default_rng(seed)
    pairs = np.unique(
        np.sort(rng.integers(0, n, size=(edges, 2)), axis=1), axis=0
    )
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    return Graph(n, pairs)


# --------------------------------------------------------------------- #
# partition writing and loading
# --------------------------------------------------------------------- #


class TestPartition:
    def test_boundaries_cover_and_balance(self):
        graph = random_graph()
        boundaries = partition_boundaries(graph, 4)
        assert boundaries[0] == 0 and boundaries[-1] == graph.n
        assert all(a < b for a, b in zip(boundaries, boundaries[1:]))
        owned = np.bincount(graph.edges[:, 0], minlength=graph.n)
        loads = [
            int(owned[lo:hi].sum())
            for lo, hi in zip(boundaries, boundaries[1:])
        ]
        assert sum(loads) == graph.m
        # Degree-balanced: no shard wildly above an even split.
        assert max(loads) <= 2 * graph.m / 4 + int(owned.max())

    def test_boundaries_validation(self):
        graph = random_graph(n=4, edges=6)
        with pytest.raises(PartitionError):
            partition_boundaries(graph, 0)
        with pytest.raises(PartitionError):
            partition_boundaries(graph, graph.n + 1)

    def test_write_and_load_roundtrip(self, tmp_path):
        graph = random_graph()
        tau = truss_decomposition(graph)
        written = write_partition(graph, tmp_path, shards=3)
        loaded = load_manifest(tmp_path)
        assert loaded.boundaries == written.boundaries
        assert loaded.n == graph.n and loaded.m == graph.m
        assert loaded.k_max == int(tau.max())
        assert sum(shard.edges for shard in loaded.shards) == graph.m
        # Every owned edge lands in its owner's image with its trussness.
        gathered = []
        for shard in loaded.shards:
            shard_graph, shard_tau = loaded.load_shard(shard)
            assert shard_graph.n == graph.n
            for eid in range(shard_graph.m):
                u, v = (int(x) for x in shard_graph.edges[eid])
                assert loaded.shard_of(u) == shard.shard_id
                gathered.append((u, v, int(shard_tau[eid])))
        expected = [
            (int(u), int(v), int(t))
            for (u, v), t in zip(graph.edges, tau)
        ]
        assert sorted(gathered) == sorted(expected)

    def test_cut_table_matches_cross_shard_edges(self, tmp_path):
        """The manifest's cut-edge counts are the graph's cross-shard edges."""
        graph = random_graph()
        manifest = write_partition(graph, tmp_path, shards=3)
        per_shard = [0] * len(manifest.shards)
        for u, v in graph.edges:
            owner = manifest.shard_of(int(u))
            if manifest.shard_of(int(v)) != owner:
                per_shard[owner] += 1
        assert [s.cut_edges for s in manifest.shards] == per_shard
        assert manifest.cut_edges == sum(per_shard) > 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "manifest.json",
            *(f"shard-{i:04d}.{ext}" for i in range(3) for ext in ("rgr", "tau")),
        ]
        # Older manifests also name a cut-edge table file: ignored.
        manifest_path = tmp_path / "manifest.json"
        payload = json.loads(manifest_path.read_text())
        payload["cut_table"] = "cuts.bin"
        manifest_path.write_text(json.dumps(payload))
        assert load_manifest(tmp_path).cut_edges == manifest.cut_edges

    def test_sidecar_roundtrip_and_corruption(self, tmp_path):
        path = tmp_path / "x.tau"
        values = np.array([2, 3, 5, 8], dtype=np.int64)
        write_tau_sidecar(path, values)
        assert (read_tau_sidecar(path) == values).all()
        payload = bytearray(path.read_bytes())
        payload[10] ^= 0xFF
        path.write_bytes(bytes(payload))
        with pytest.raises(PartitionError, match="checksum"):
            read_tau_sidecar(path)

    def test_manifest_validation(self, tmp_path):
        graph = random_graph(n=30, edges=100)
        write_partition(graph, tmp_path, shards=2)
        manifest_path = tmp_path / "manifest.json"
        payload = json.loads(manifest_path.read_text())
        payload["m"] = payload["m"] + 1
        manifest_path.write_text(json.dumps(payload))
        with pytest.raises(PartitionError, match="sum"):
            load_manifest(tmp_path)
        manifest_path.write_text("{not json")
        with pytest.raises(PartitionError, match="JSON"):
            load_manifest(tmp_path)
        with pytest.raises(PartitionError):
            load_manifest(tmp_path / "missing-dir")

    def test_shard_of_bounds(self, tmp_path):
        manifest = write_partition(random_graph(), tmp_path, shards=3)
        with pytest.raises(PartitionError):
            manifest.shard_of(-1)
        with pytest.raises(PartitionError):
            manifest.shard_of(manifest.n)

    def test_single_shard_degenerate(self, tmp_path):
        graph = paper_example_graph()
        manifest = write_partition(graph, tmp_path, shards=1)
        assert manifest.cut_edges == 0
        assert manifest.shards[0].edges == graph.m


# --------------------------------------------------------------------- #
# scatter/gather parity: sharded == single image
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def sharded(tmp_path_factory):
    graph = random_graph()
    directory = tmp_path_factory.mktemp("parts")
    write_partition(graph, directory, shards=3)
    single = QueryEngine(SnapshotManager.initial(graph))
    router = ShardedRouter(load_manifest(directory))
    yield graph, single, router
    router.close()


class TestRouterParity:
    def test_point_queries_route_to_one_shard(self, sharded):
        graph, single, router = sharded
        rng = np.random.default_rng(5)
        for _ in range(120):
            u, v = (int(x) for x in rng.integers(0, graph.n, 2))
            if u == v:
                continue
            direct = single.execute({"op": "trussness", "u": u, "v": v})
            routed = router.execute({"op": "trussness", "u": u, "v": v})
            assert routed["result"] == direct["result"]
            assert routed["snapshot"]["sharded"] is True
            assert len(routed["snapshot"]["parts"]) == 1
            owner = router.manifest.shard_of(min(u, v))
            assert routed["snapshot"]["parts"][0]["shard"] == owner

    def test_membership_parity(self, sharded):
        graph, single, router = sharded
        for eid in range(0, graph.m, 17):
            u, v = (int(x) for x in graph.edges[eid])
            for k in (2, 3, 4):
                request = {"op": "membership", "u": u, "v": v, "k": k}
                assert (
                    router.execute(request)["result"]
                    == single.execute(request)["result"]
                )

    def test_stats_merge(self, sharded):
        graph, single, router = sharded
        direct = single.execute({"op": "stats"})["result"]
        merged = router.execute({"op": "stats"})["result"]
        assert merged["n"] == direct["n"]
        assert merged["m"] == direct["m"]
        assert merged["k_max"] == direct["k_max"]
        assert merged["shards"] == 3

    def test_hierarchy_parity(self, sharded):
        _graph, single, router = sharded
        assert (
            router.execute({"op": "hierarchy"})["result"]
            == single.execute({"op": "hierarchy"})["result"]
        )
        for k in (2, 3, 4):
            request = {"op": "hierarchy", "k": k}
            assert (
                router.execute(request)["result"]
                == single.execute(request)["result"]
            )

    def test_export_parity(self, sharded):
        _graph, single, router = sharded
        for request in ({"op": "export"}, {"op": "export", "k": 3}):
            assert (
                router.execute(request)["result"]
                == single.execute(request)["result"]
            )

    def test_community_parity(self, sharded):
        graph, single, router = sharded
        for q in range(0, graph.n, 11):
            for k in (None, 3):
                request = {"op": "community", "q": q, "include_edges": True}
                if k is not None:
                    request["k"] = k
                assert (
                    router.execute(request)["result"]
                    == single.execute(request)["result"]
                ), (q, k)

    def test_bills_sum_over_consulted_shards(self, sharded):
        _graph, _single, router = sharded
        envelope = router.execute({"op": "export"})
        assert len(envelope["snapshot"]["parts"]) == 3
        assert envelope["io"]["read_ios"] > 0
        assert envelope["io"]["write_ios"] == 0

    def test_router_validation(self, sharded):
        graph, _single, router = sharded
        with pytest.raises(ServeError, match="out of range"):
            router.execute({"op": "trussness", "u": 0, "v": graph.n})
        with pytest.raises(ServeError, match="differ"):
            router.execute({"op": "trussness", "u": 2, "v": 2})
        with pytest.raises(ServeError, match="shutdown"):
            router.execute({"op": "shutdown"})


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #


class TestPartitionCli:
    def test_partition_command(self, tmp_path, capsys):
        out_dir = tmp_path / "parts"
        assert main([
            "partition", "cagrqc-s", str(out_dir), "--shards", "3"
        ]) == 0
        out = capsys.readouterr().out
        assert "into 3 shards" in out
        assert "cut edges:" in out
        manifest = load_manifest(out_dir)
        assert len(manifest.shards) == 3

    def test_partition_rejects_bad_shard_count(self, tmp_path, capsys):
        assert main([
            "partition", "cagrqc-s", str(tmp_path / "p"), "--shards", "0"
        ]) == 1
        assert "error" in capsys.readouterr().err
