"""Tests for the update-workload generators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamic import DynamicMaxTruss
from repro.dynamic.workload import (
    bursty_stream,
    class_targeted_deletions,
    mixed_churn,
    random_deletions,
    random_insertions,
    validate_stream,
)
from repro.graph.generators import gnp_random, planted_kmax_truss


@pytest.fixture
def graph():
    return gnp_random(20, 0.25, seed=0)


class TestGenerators:
    def test_insertions_applicable(self, graph):
        ops = random_insertions(graph, 25, seed=1)
        assert len(ops) == 25
        assert all(op == "insert" for op, _u, _v in ops)
        assert validate_stream(graph, ops)

    def test_deletions_applicable(self, graph):
        ops = random_deletions(graph, 10, seed=1)
        assert len(ops) == 10
        assert validate_stream(graph, ops)

    def test_deletions_capped_at_m(self, graph):
        ops = random_deletions(graph, 10_000, seed=0)
        assert len(ops) == graph.m

    def test_mixed_churn_applicable(self, graph):
        ops = mixed_churn(graph, 40, insert_fraction=0.6, seed=2)
        assert len(ops) == 40
        assert validate_stream(graph, ops)
        assert {op for op, _u, _v in ops} == {"insert", "delete"}

    def test_mixed_churn_fraction_validation(self, graph):
        with pytest.raises(ValueError):
            mixed_churn(graph, 5, insert_fraction=1.5)

    def test_class_targeted(self):
        g = planted_kmax_truss(6, periphery_n=30, seed=0)
        ops = class_targeted_deletions(g, 5, seed=1)
        assert len(ops) == 5
        # All targets are clique edges.
        assert all(u < 6 and v < 6 for _op, u, v in ops)

    def test_class_targeted_empty_graph(self):
        from repro.graph.memgraph import Graph

        assert class_targeted_deletions(Graph.empty(3), 5) == []

    def test_bursty_stream_batches_applicable(self, graph):
        batches = bursty_stream(graph, bursts=3, burst_size=6, seed=4)
        assert len(batches) == 3
        flat = [op for batch in batches for op in batch]
        assert validate_stream(graph, flat)

    def test_deterministic_per_seed(self, graph):
        assert random_insertions(graph, 10, seed=7) == random_insertions(
            graph, 10, seed=7
        )

    def test_validate_rejects_bad_streams(self, graph):
        u, v = int(graph.edges[0, 0]), int(graph.edges[0, 1])
        assert not validate_stream(graph, [("insert", u, v)])  # duplicate
        assert not validate_stream(graph, [("delete", 0, 0)])  # absent
        assert not validate_stream(graph, [("upsert", 0, 1)])  # unknown op


@given(st.integers(min_value=0, max_value=400), st.integers(min_value=1, max_value=30))
@settings(max_examples=15)
def test_streams_drive_maintenance_exactly(seed, count):
    """Any generated stream keeps maintenance == recomputation."""
    from repro.baselines import max_truss_edges

    graph = gnp_random(12, 0.3, seed=seed % 13)
    ops = mixed_churn(graph, count, seed=seed)
    state = DynamicMaxTruss(graph)
    state.apply_batch(ops)
    mutable = graph.to_mutable()
    for op, u, v in ops:
        if op == "insert":
            mutable.insert_edge(u, v)
        else:
            mutable.delete_edge(u, v)
    frozen, _ = mutable.to_graph()
    expected_k, expected_edges = max_truss_edges(frozen)
    assert state.k_max == expected_k
    assert state.truss_pairs() == expected_edges
