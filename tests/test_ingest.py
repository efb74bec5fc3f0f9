"""Batch ingestion: exactness sweep, window rules, triggers, lifecycle.

The acceptance bar for the ingestion front end is the same as for every
other layer of the dynamic stack: whatever batching happens between
``submit`` and the sink, the final decomposition must be bit-identical
to per-op maintenance of exactly the submitted events — which an
in-memory oracle recomputes from scratch. The hypothesis sweep drives
random edge streams across window sizes and batch sizes; targeted tests
pin down the window rules, the size and age flush triggers, and error
propagation.
"""

from __future__ import annotations

import sys
import threading
from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import max_truss_edges
from repro.dynamic import DynamicMaxTruss, IngestPipeline
from repro.dynamic.workload import mixed_churn
from repro.errors import GraphFormatError, IngestError
from repro.graph.generators import gnm_random, paper_example_graph
from repro.graph.memgraph import Graph
from repro.observability.metrics import global_metrics, pop_metrics, push_metrics


def _random_edges(seed, count=60, n=12):
    rng = np.random.default_rng(seed)
    edges = []
    while len(edges) < count:
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u != v:
            edges.append((u, v))
    return edges


def _per_op_window(arrivals, window):
    """Per-op reference: one ``insert`` per arrival of an edge that is not
    live, one ``delete`` per expiration past the window."""
    state = DynamicMaxTruss(Graph.empty(0))
    live = deque()
    for u, v in arrivals:
        pair = (min(u, v), max(u, v))
        if pair in live:
            continue
        state.insert(*pair)
        live.append(pair)
        if len(live) > window:
            state.delete(*live.popleft())
    return state


def _window_oracle(arrivals, window):
    """From-scratch k_max/truss of the last *window* distinct live edges."""
    live = []
    live_set = set()
    for u, v in arrivals:
        pair = (min(u, v), max(u, v))
        if pair in live_set:
            continue
        live.append(pair)
        live_set.add(pair)
        if len(live) > window:
            live_set.discard(live.pop(0))
    if not live:
        return 0, []
    return max_truss_edges(Graph.from_edges(live))


class TestWindowExactness:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        window=st.sampled_from([4, 8, 20]),
        batch_size=st.sampled_from([1, 3, 7, 16]),
    )
    @settings(max_examples=20, deadline=None)
    def test_pipeline_matches_per_op_and_oracle(self, seed, window, batch_size):
        """stream x window x batch_size: pipeline == per-op maintenance
        == in-memory oracle, bit-identically."""
        edges = _random_edges(seed)
        state = DynamicMaxTruss(Graph.empty(0))
        with IngestPipeline(state, window=window, batch_size=batch_size) as pipe:
            pipe.submit_many(edges)
        reference = _per_op_window(edges, window)
        assert state.k_max == reference.k_max
        assert state.truss_pairs() == reference.truss_pairs()
        oracle_k, oracle_edges = _window_oracle(edges, window)
        assert state.k_max == oracle_k
        assert state.truss_pairs() == oracle_edges


class TestWindowSemantics:
    def test_window_below_capacity(self):
        state = DynamicMaxTruss(Graph.empty(0))
        pipe = IngestPipeline(state, window=10)
        pipe.submit_many([(0, 1), (1, 2), (0, 2)])
        assert pipe.k_max == 3  # flushes
        assert pipe.stats.arrivals == 3
        assert pipe.stats.expirations == 0
        pipe.close()

    def test_expiration(self):
        state = DynamicMaxTruss(Graph.empty(0))
        pipe = IngestPipeline(state, window=3)
        pipe.submit(0, 1)
        pipe.submit(1, 2)
        pipe.submit(0, 2)    # triangle alive
        assert pipe.k_max == 3
        pipe.submit(5, 6)    # evicts (0, 1): triangle broken
        assert pipe.k_max == 2
        assert pipe.stats.arrivals - pipe.stats.expirations == 3
        assert pipe.truss_pairs() == [(0, 2), (1, 2), (5, 6)]
        pipe.close()

    def test_duplicates_skipped(self):
        state = DynamicMaxTruss(Graph.empty(0))
        with IngestPipeline(state, window=5) as pipe:
            pipe.submit(0, 1)
            pipe.submit(1, 0)
        assert pipe.stats.duplicates_skipped == 1
        assert pipe.stats.arrivals == 1
        assert state.truss_pairs() == [(0, 1)]

    def test_self_loop_rejected(self):
        with IngestPipeline(DynamicMaxTruss(Graph.empty(0)), window=5) as pipe:
            with pytest.raises(IngestError, match="self-loop"):
                pipe.submit(3, 3)
        assert pipe.stats.arrivals == 0

    def test_invalid_parameters(self):
        state = DynamicMaxTruss(Graph.empty(0))
        with pytest.raises(IngestError):
            IngestPipeline(state, window=0)
        with pytest.raises(IngestError):
            IngestPipeline(state, window=5, batch_size=0)

    def test_window_stats_after_flush(self):
        state = DynamicMaxTruss(Graph.empty(0))
        pipe = IngestPipeline(state, window=4)
        pipe.submit_many([(0, 1), (1, 2), (0, 2)])
        assert pipe.k_max == 3  # flushes
        assert pipe.stats.arrivals == 3
        assert pipe.stats.applied_ops == 3
        assert pipe.stats.flushes["manual"] == 1
        assert pipe.stats.batches == 1
        pipe.close()


@pytest.mark.parametrize("batch_size", [1, 4])
@pytest.mark.parametrize("window", [5, 12])
def test_matches_reference_on_random_stream(batch_size, window):
    """The window's answer equals the oracle mid-stream, not only at close."""
    rng = np.random.default_rng(8)
    edges = []
    state = DynamicMaxTruss(Graph.empty(0))
    with IngestPipeline(state, window=window, batch_size=batch_size) as pipe:
        for step in range(40):
            u, v = int(rng.integers(0, 10)), int(rng.integers(0, 10))
            if u == v:
                continue
            edges.append((u, v))
            pipe.submit(u, v)
            if step % 7 == 0:
                expected_k, expected_edges = _window_oracle(edges, window)
                assert pipe.k_max == expected_k
                assert pipe.truss_pairs() == expected_edges
    expected_k, expected_edges = _window_oracle(edges, window)
    assert state.k_max == expected_k
    assert state.truss_pairs() == expected_edges


def test_batched_equals_per_event():
    rng = np.random.default_rng(3)
    pairs = []
    for _ in range(30):
        u, v = int(rng.integers(0, 9)), int(rng.integers(0, 9))
        if u != v:
            pairs.append((u, v))
    per_event = DynamicMaxTruss(Graph.empty(0))
    batched = DynamicMaxTruss(Graph.empty(0))
    with IngestPipeline(per_event, window=8, batch_size=1) as pipe:
        pipe.submit_many(pairs)
    with IngestPipeline(batched, window=8, batch_size=5) as pipe:
        pipe.submit_many(pairs)
    assert per_event.k_max == batched.k_max
    assert per_event.truss_pairs() == batched.truss_pairs()


class TestRawOps:
    @pytest.mark.parametrize("batch_size", [1, 4, 32])
    def test_matches_per_op_maintenance(self, batch_size):
        graph = gnm_random(30, 90, seed=5)
        ops = mixed_churn(graph, 50, insert_fraction=0.5, seed=9)
        piped = DynamicMaxTruss(gnm_random(30, 90, seed=5))
        with IngestPipeline(piped, batch_size=batch_size) as pipe:
            for op, u, v in ops:
                pipe.submit_op(op, u, v)
        sequential = DynamicMaxTruss(gnm_random(30, 90, seed=5))
        for op, u, v in ops:
            if op == "insert":
                sequential.insert(u, v)
            else:
                sequential.delete(u, v)
        assert piped.k_max == sequential.k_max
        assert piped.truss_pairs() == sequential.truss_pairs()

    def test_durable_sink_group_commits(self, tmp_path):
        """Over DurableMaintenance each micro-batch is one WAL group."""
        from repro.persistence import recover
        from repro.persistence.recovery import durable_from_graph

        graph = paper_example_graph()
        ops = mixed_churn(graph, 24, insert_fraction=0.6, seed=2)
        durable = durable_from_graph(paper_example_graph(), tmp_path)
        with IngestPipeline(durable, batch_size=8) as pipe:
            for op, u, v in ops:
                pipe.submit_op(op, u, v)
        durable.close()
        recovered = recover(tmp_path)
        expected = DynamicMaxTruss(paper_example_graph())
        expected.apply_batch(ops)
        assert recovered.state.k_max == expected.k_max
        assert recovered.state.truss_pairs() == expected.truss_pairs()
        recovered.close()

    def test_batch_metrics(self):
        push_metrics()
        try:
            state = DynamicMaxTruss(Graph.empty(0))
            with IngestPipeline(state, batch_size=2) as pipe:
                for u, v in ((0, 1), (1, 2), (0, 2)):
                    pipe.submit(u, v)
            histograms = global_metrics().snapshot()["histograms"]
        finally:
            pop_metrics()
        assert histograms["ingest.batch_size"]["sum"] == 3
        timed = histograms["ingest.batch_seconds"]
        assert timed["count"] == histograms["ingest.batch_size"]["count"] == 2
        assert timed["sum"] == pytest.approx(pipe.stats.apply_seconds)

    def test_submit_defaults_to_insert(self):
        state = DynamicMaxTruss(Graph.empty(0))
        with IngestPipeline(state, batch_size=1) as pipe:
            pipe.submit(0, 1)
            pipe.submit(1, 2)
            pipe.submit(0, 2)
        assert state.k_max == 3


class TestTriggersAndModes:
    def test_size_trigger(self):
        state = DynamicMaxTruss(Graph.empty(0))
        pipe = IngestPipeline(state, window=50, batch_size=3)
        pipe.submit(0, 1)
        pipe.submit(1, 2)
        assert pipe.queue_depth() == 2  # below threshold: nothing applied
        pipe.submit(0, 2)
        assert pipe.queue_depth() == 0
        assert pipe.stats.flushes["size"] == 1
        pipe.close()

    def test_age_trigger_with_fake_clock(self):
        now = [0.0]
        state = DynamicMaxTruss(Graph.empty(0))
        pipe = IngestPipeline(
            state, window=50, batch_size=100, max_delay=1.0,
            clock=lambda: now[0],
        )
        pipe.submit(0, 1)
        assert pipe.queue_depth() == 1
        now[0] = 0.5
        pipe.submit(1, 2)
        assert pipe.queue_depth() == 2  # oldest only 0.5s old
        now[0] = 1.2
        pipe.submit(0, 2)
        assert pipe.queue_depth() == 0
        assert pipe.stats.flushes["age"] == 1
        pipe.close()

    def test_age_trigger_waits_for_next_submit(self):
        """Draining is inline: an aged batch is applied by the next
        submit or by flush/close, never by a timer."""
        now = [0.0]
        state = DynamicMaxTruss(Graph.empty(0))
        pipe = IngestPipeline(
            state, batch_size=100, max_delay=1.0, clock=lambda: now[0],
        )
        pipe.submit(0, 1)
        now[0] = 5.0
        assert pipe.queue_depth() == 1
        assert not state.graph.has_edge(0, 1)
        pipe.close()
        assert state.graph.has_edge(0, 1)
        assert pipe.stats.flushes == {"size": 0, "age": 0, "manual": 1}

    def test_concurrent_producers_stay_exact(self):
        """Producers on more threads than cores share one pipeline; every
        submitted edge is applied exactly once (a lost update would
        break the counts or the graph)."""
        edges = sorted({
            (min(u, v), max(u, v))
            for u, v in _random_edges(29, count=800, n=200)
        })
        shares = [edges[index::8] for index in range(8)]
        state = DynamicMaxTruss(Graph.empty(0))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with IngestPipeline(state, batch_size=2) as pipe:
                producers = [
                    threading.Thread(target=pipe.submit_many, args=(share,))
                    for share in shares
                ]
                for producer in producers:
                    producer.start()
                for producer in producers:
                    producer.join(timeout=60)
                    assert not producer.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert pipe.stats.submitted == pipe.stats.applied_ops == len(edges)
        assert state.graph.m == len(edges)
        expected_k, expected_edges = max_truss_edges(Graph.from_edges(edges))
        assert state.k_max == expected_k
        assert state.truss_pairs() == expected_edges


class TestLifecycleAndErrors:
    def test_raising_block_still_closes(self):
        """A ``with`` block that raises re-raises its own error, applies
        what it left queued and closes the pipeline."""
        state = DynamicMaxTruss(Graph.empty(0))
        pipe = IngestPipeline(state, batch_size=64)
        with pytest.raises(RuntimeError, match="producer failed"):
            with pipe:
                pipe.submit(0, 1)
                raise RuntimeError("producer failed")
        assert pipe.queue_depth() == 0
        assert state.graph.has_edge(0, 1)
        assert pipe.stats.applied_ops == 1
        with pytest.raises(IngestError, match="closed"):
            pipe.submit(1, 2)

    def test_submit_after_close_raises(self):
        pipe = IngestPipeline(DynamicMaxTruss(Graph.empty(0)))
        pipe.close()
        pipe.close()  # idempotent
        with pytest.raises(IngestError, match="closed"):
            pipe.submit(0, 1)

    def test_self_loop_rejected(self):
        with IngestPipeline(DynamicMaxTruss(Graph.empty(0))) as pipe:
            with pytest.raises(IngestError, match="self-loop"):
                pipe.submit(3, 3)

    def test_explicit_ops_invalid_in_window_mode(self):
        with IngestPipeline(DynamicMaxTruss(Graph.empty(0)), window=5) as pipe:
            with pytest.raises(IngestError, match="window mode"):
                pipe.submit_op("delete", 0, 1)

    def test_unknown_op_rejected(self):
        with IngestPipeline(DynamicMaxTruss(Graph.empty(0))) as pipe:
            with pytest.raises(IngestError, match="unknown"):
                pipe.submit_op("upsert", 0, 1)

    def test_invalid_parameters(self):
        state = DynamicMaxTruss(Graph.empty(0))
        with pytest.raises(IngestError):
            IngestPipeline(state, batch_size=0)
        with pytest.raises(IngestError):
            IngestPipeline(state, window=0)
        with pytest.raises(IngestError, match="apply_batch"):
            IngestPipeline(object())

    def test_pipeline_rejects_bad_knobs(self):
        state = DynamicMaxTruss(Graph.empty(0))
        for bad in (
            {"batch_size": 0},
            {"max_delay": 0.0},
            {"max_delay": -1.0},
        ):
            with pytest.raises(IngestError):
                IngestPipeline(state, **bad)
        # The queue bound and its backpressure policies are gone: the
        # queue drains inline, so neither knob is accepted any more.
        for gone in ({"queue_capacity": 4}, {"backpressure": "block"}):
            with pytest.raises(TypeError):
                IngestPipeline(state, **gone)

    def test_sink_error_propagates_in_sync_mode(self):
        graph = paper_example_graph()
        u, v = map(int, graph.edges[0])
        pipe = IngestPipeline(DynamicMaxTruss(graph), batch_size=1)
        with pytest.raises(Exception, match="existing edge"):
            pipe.submit_op("insert", u, v)  # edge already present

    @pytest.mark.parametrize(
        "window, landed, first, after",
        [
            (3, [], (0, 9), [(2, 9), (3, 9), (4, 9), (5, 9)]),
            (2, [(0, 9), (2, 9)], (3, 9), [(4, 9), (5, 9)]),
        ],
        ids=["inserts-only", "expiring-live-pairs"],
    )
    def test_rejected_window_batch_leaves_window_and_stats(
        self, window, landed, first, after
    ):
        """A batch the sink rejects moves neither the window nor a stat,
        names the events it dropped, and later arrivals and their
        expirations apply cleanly."""
        base = paper_example_graph()
        state = DynamicMaxTruss(base)
        pipe = IngestPipeline(state, window=window, batch_size=2)
        pipe.submit_many(landed)
        pipe.submit(*first)
        live = list(pipe._live)
        before = replace(pipe.stats, flushes=dict(pipe.stats.flushes))
        with pytest.raises(IngestError, match=r"existing edge \(0, 1\)") as caught:
            pipe.submit(0, 1)  # an edge of the base graph
        assert isinstance(caught.value.__cause__, GraphFormatError)
        assert caught.value.dropped == [("arrival", *first), ("arrival", 0, 1)]
        assert list(pipe._live) == live and pipe._live_set == set(live)
        assert pipe.stats == replace(before, submitted=before.submitted + 1)
        assert not state.graph.has_edge(*first)
        pipe.submit_many(after)
        pipe.close()
        arrivals = landed + after
        assert list(pipe._live) == arrivals[-window:]
        assert pipe.stats.arrivals == len(arrivals)
        assert pipe.stats.expirations == len(arrivals) - window
        expected = base.edge_pairs() + arrivals[-window:]
        frozen, _ = state.graph.to_graph()
        assert sorted(frozen.edge_pairs()) == sorted(expected)
        oracle_k, oracle_edges = max_truss_edges(Graph.from_edges(expected))
        assert pipe.k_max == oracle_k
        assert pipe.truss_pairs() == oracle_edges

    def test_stats_throughput(self):
        now = [100.0]
        state = DynamicMaxTruss(Graph.empty(0))
        pipe = IngestPipeline(
            state, window=50, batch_size=2, clock=lambda: now[0]
        )
        pipe.submit(0, 1)
        now[0] = 102.0
        pipe.submit(1, 2)
        pipe.close()
        assert pipe.stats.elapsed_seconds == pytest.approx(2.0)
        assert pipe.stats.edges_per_sec == pytest.approx(1.0)
