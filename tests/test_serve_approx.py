"""Serve-tier approximate answers and the result cache.

Covers the two serve integrations this subsystem adds:

* ``precision: "approx"`` on point/stats queries — envelopes carry the
  full estimate payload (``{estimate, ci, confidence, samples}``) plus
  the usual snapshot stamp and per-request I/O bill;
* the per-snapshot result cache — hit/miss accounting, replayed
  envelopes flagged ``cached``, eviction the moment a snapshot retires,
  and the ``cache.hit_ratio{extent=serve}`` gauge.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import EngineConfig
from repro.errors import ServeError
from repro.graph.generators import gnm_random, paper_example_graph
from repro.graph.memgraph import Graph
from repro.observability.metrics import global_metrics
from repro.serve import QueryEngine, SnapshotManager
from repro.serve.cache import ResultCache, canonical_params
from repro.serve.protocol import validate_request


def engine_for(graph: Graph, **config_kwargs) -> QueryEngine:
    config = EngineConfig(**config_kwargs) if config_kwargs else None
    return QueryEngine(SnapshotManager.initial(graph), config)


ESTIMATE_KEYS = {"estimate", "ci", "confidence", "samples"}


# --------------------------------------------------------------------- #
# precision=approx envelopes
# --------------------------------------------------------------------- #


class TestApproxPrecision:
    def test_protocol_rejects_bad_precision(self):
        with pytest.raises(ServeError, match="precision"):
            validate_request(
                {"op": "trussness", "u": 0, "v": 1, "precision": "fuzzy"}
            )

    def test_trussness_envelope_payload(self):
        engine = engine_for(paper_example_graph())
        envelope = engine.execute(
            {"op": "trussness", "u": 0, "v": 1, "precision": "approx"}
        )
        assert envelope["ok"]
        result = envelope["result"]
        assert result["present"] is True
        assert result["precision"] == "approx"
        assert ESTIMATE_KEYS <= set(result)
        low, high = result["ci"]
        assert low <= result["estimate"] <= high
        # The estimator interval must cover the exact trussness.
        exact = engine.execute({"op": "trussness", "u": 0, "v": 1})
        assert low <= exact["result"]["trussness"] <= high
        # Envelope plumbing: snapshot stamp + per-request bill intact.
        assert set(envelope["snapshot"]) == {"id", "wal_seq"}
        assert envelope["io"]["read_ios"] > 0
        assert envelope["io"]["write_ios"] == 0

    def test_trussness_absent_edge(self):
        engine = engine_for(paper_example_graph())
        result = engine.execute(
            {"op": "trussness", "u": 0, "v": 7, "precision": "approx"}
        )["result"]
        assert result == {
            "present": False, "trussness": None, "precision": "approx",
        }

    def test_membership_carries_likelihood(self):
        engine = engine_for(paper_example_graph())
        result = engine.execute(
            {"op": "membership", "u": 0, "v": 1, "k": 3,
             "precision": "approx"}
        )["result"]
        assert result["present"] is True
        assert result["precision"] == "approx"
        assert result["k"] == 3
        assert isinstance(result["member"], bool)
        assert ESTIMATE_KEYS <= set(result)
        assert 0.0 <= result["estimate"] <= 1.0

    def test_stats_reports_estimates_and_build_bill(self):
        engine = engine_for(paper_example_graph())
        result = engine.execute(
            {"op": "stats", "precision": "approx"}
        )["result"]
        assert result["precision"] == "approx"
        assert result["m"] == paper_example_graph().m
        for field in ("k_max", "triangles", "max_support"):
            assert ESTIMATE_KEYS <= set(result[field])
        assert result["build_io"] >= 0
        assert result["k_max"]["ci"][0] <= 4 <= result["k_max"]["ci"][1]

    def test_default_precision_is_exact(self):
        engine = engine_for(paper_example_graph())
        result = engine.execute({"op": "trussness", "u": 0, "v": 1})["result"]
        assert "precision" not in result
        assert result["trussness"] == 4

    def test_estimator_state_shared_across_requests(self):
        # The first approx request pays the build; later ones only pay
        # their per-edge probes.
        engine = engine_for(gnm_random(120, 700, seed=0))
        first = engine.execute(
            {"op": "trussness", "u": 0, "v": 1, "precision": "approx"}
        )
        second = engine.execute(
            {"op": "trussness", "u": 2, "v": 3, "precision": "approx"}
        )
        if second["ok"] and second["result"]["present"]:
            assert (second["io"]["read_ios"] < first["io"]["read_ios"])


# --------------------------------------------------------------------- #
# result cache
# --------------------------------------------------------------------- #


class TestResultCache:
    def test_canonical_params_order_insensitive(self):
        assert canonical_params({"u": 1, "v": 2}) == canonical_params(
            {"v": 2, "u": 1}
        )

    def test_lru_eviction(self):
        cache = ResultCache(capacity=2)
        keys = [cache.key(1, "stats", {"i": i}) for i in range(3)]
        for key in keys:
            cache.put(key, {"ok": True})
        assert cache.get(keys[0]) is None  # evicted, oldest
        assert cache.get(keys[2]) is not None

    def test_hit_replays_envelope_with_cached_flag(self):
        engine = engine_for(paper_example_graph())
        request = {"op": "trussness", "u": 0, "v": 1}
        first = engine.execute(dict(request, id=1))
        second = engine.execute(dict(request, id=2))
        assert "cached" not in first
        assert second["cached"] is True
        assert second["id"] == 2  # the hit keeps its own request id
        assert second["result"] == first["result"]
        # The replayed bill is the original (honest one-time) cost.
        assert second["io"] == first["io"]

    def test_approx_hits_are_exact_memoisation(self):
        # Per-edge RNG is derived from (seed, u, v): the cached approx
        # answer equals what a recomputation would produce.
        engine = engine_for(paper_example_graph())
        request = {"op": "trussness", "u": 0, "v": 1, "precision": "approx"}
        first = engine.execute(request)
        cold = engine_for(paper_example_graph()).execute(request)
        assert engine.execute(request)["result"] == first["result"]
        assert cold["result"] == first["result"]

    def test_hit_ratio_metric_published(self):
        registry = global_metrics()
        registry.reset()
        engine = engine_for(paper_example_graph())
        request = {"op": "stats"}
        engine.execute(request)   # miss
        engine.execute(request)   # hit
        gauge = registry.gauge("cache.hit_ratio", extent="serve")
        assert gauge.value == 0.5
        assert engine.cache.hit_ratio == 0.5

    def test_retire_evicts_snapshot_entries(self):
        manager = SnapshotManager.initial(paper_example_graph())
        engine = QueryEngine(manager)
        engine.execute({"op": "stats"})
        assert len(engine.cache) == 1
        manager.publish(gnm_random(20, 40, seed=0), wal_seq=1)
        assert len(engine.cache) == 0  # old snapshot retired -> evicted
        # New snapshot answers repopulate under the new id.
        envelope = engine.execute({"op": "stats"})
        assert "cached" not in envelope
        assert len(engine.cache) == 1

    def test_retire_drops_cached_approx_state(self):
        manager = SnapshotManager.initial(paper_example_graph())
        engine = QueryEngine(manager)
        engine.execute({"op": "stats", "precision": "approx"})
        assert len(engine._approx) == 1
        manager.publish(gnm_random(20, 40, seed=0), wal_seq=1)
        assert len(engine._approx) == 0

    def test_cache_disabled_by_config(self):
        engine = engine_for(paper_example_graph(), serve_cache_entries=0)
        assert engine.cache is None
        request = {"op": "stats"}
        assert "cached" not in engine.execute(request)
        assert "cached" not in engine.execute(request)
