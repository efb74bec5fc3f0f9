"""Tests for batch maintenance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import max_truss_edges
from repro.dynamic import DynamicMaxTruss
from repro.errors import GraphFormatError
from repro.graph.generators import complete_graph, paper_example_graph, planted_kmax_truss
from repro.graph.memgraph import Graph


class TestBasics:
    def test_empty_batch(self):
        state = DynamicMaxTruss(paper_example_graph())
        result = state.apply_batch([])
        assert result.operations == 0
        assert result.mode == "untouched"
        assert state.k_max == 4

    def test_promoting_batch(self):
        state = DynamicMaxTruss(paper_example_graph())
        result = state.apply_batch([("insert", 0, 4)])
        assert result.mode == "global"
        assert state.k_max == 5

    def test_untouched_batch_is_cheap(self):
        g = planted_kmax_truss(7, periphery_n=80, seed=0)
        state = DynamicMaxTruss(g)
        ops = []
        for v in range(g.n - 12, g.n - 2):
            if not g.has_edge(v, g.n - 1) and len(ops) < 2:
                ops.append(("insert", v, g.n - 1))
        result = state.apply_batch(ops)
        assert result.mode == "untouched"
        assert state.k_max == 7

    def test_one_global_for_many_class_deletions(self):
        g = complete_graph(6)
        state = DynamicMaxTruss(g)
        result = state.apply_batch(
            [("delete", 0, 1), ("delete", 2, 3), ("delete", 4, 5)]
        )
        assert result.mode == "global"
        assert result.deletions == 3
        mutable = g.to_mutable()
        for pair in [(0, 1), (2, 3), (4, 5)]:
            mutable.delete_edge(*pair)
        frozen, _ = mutable.to_graph()
        expected_k, expected_edges = max_truss_edges(frozen)
        assert state.k_max == expected_k
        assert state.truss_pairs() == expected_edges

    def test_conflicting_insert_raises(self):
        state = DynamicMaxTruss(complete_graph(3))
        with pytest.raises(GraphFormatError):
            state.apply_batch([("insert", 0, 1)])

    def test_absent_delete_raises(self):
        state = DynamicMaxTruss(complete_graph(3))
        with pytest.raises(GraphFormatError):
            state.apply_batch([("delete", 0, 9)])

    def test_unknown_operation(self):
        state = DynamicMaxTruss(complete_graph(3))
        with pytest.raises(GraphFormatError):
            state.apply_batch([("upsert", 0, 1)])

    def test_trivial_class_tracks_batch(self):
        state = DynamicMaxTruss(Graph.from_edges([(0, 1)]))
        state.apply_batch([("insert", 1, 2), ("insert", 2, 3)])
        assert state.k_max == 2
        assert state.truss_edge_count() == 3


class TestCoalescing:
    def test_insert_delete_cancels(self):
        state = DynamicMaxTruss(paper_example_graph())
        result = state.apply_batch([("insert", 0, 4), ("delete", 0, 4)])
        assert result.operations == 2
        assert result.cancelled_ops == 2
        assert result.insertions == 0 and result.deletions == 0
        assert result.mode == "untouched"
        assert state.k_max == 4
        assert not state.graph.has_edge(0, 4)

    def test_delete_insert_round_trip_cancels(self):
        graph = paper_example_graph()
        u, v = map(int, graph.edges[0])
        state = DynamicMaxTruss(graph)
        before = state.truss_pairs()
        result = state.apply_batch([("delete", u, v), ("insert", v, u)])
        assert result.cancelled_ops == 2
        assert result.mode == "untouched"
        assert state.truss_pairs() == before

    def test_churn_reduces_to_net_insert(self):
        state = DynamicMaxTruss(paper_example_graph())
        result = state.apply_batch(
            [("insert", 0, 4), ("delete", 0, 4), ("insert", 0, 4)],
        )
        assert result.cancelled_ops == 2
        assert result.insertions == 1 and result.deletions == 0
        assert state.k_max == 5  # identical to a plain insert of (0, 4)

    def test_fully_cancelled_batch_is_free(self):
        state = DynamicMaxTruss(paper_example_graph())
        result = state.apply_batch(
            [("insert", 9, 11), ("insert", 9, 12),
             ("delete", 9, 11), ("delete", 9, 12)],
        )
        assert result.cancelled_ops == 4
        assert result.gate_probes == 0
        assert result.io.total_ios == 0

    def test_atomic_validation_leaves_graph_untouched(self):
        state = DynamicMaxTruss(paper_example_graph())
        m_before, k_before = state.graph.m, state.k_max
        with pytest.raises(GraphFormatError, match="existing edge"):
            # The second insert of (0, 4) conflicts with the first: the
            # whole batch must be rejected before any mutation.
            state.apply_batch(
                [("insert", 0, 4), ("insert", 4, 0)]
            )
        assert state.graph.m == m_before
        assert not state.graph.has_edge(0, 4)
        assert state.k_max == k_before

    @pytest.mark.parametrize(
        "bad, message",
        [
            (("insert", 3, 3), "self-loops"),
            (("insert", -1, 2), "non-negative"),
            (("insert", 2, -1), "non-negative"),
            (("delete", 3, 3), "self-loops"),
        ],
        ids=["self-loop", "negative-u", "negative-v", "delete-self-loop"],
    )
    def test_malformed_op_rejected_before_any_mutation(self, bad, message):
        """A self-loop or a negative id later in the batch is caught by the
        up-front check, not mid-apply after earlier inserts landed."""
        state = DynamicMaxTruss(paper_example_graph())
        n_before, m_before = state.graph.n, state.graph.m
        k_before, class_before = state.k_max, state.truss_pairs()
        io_before = state.device.stats.snapshot()
        with pytest.raises(GraphFormatError, match=message):
            state.apply_batch([("insert", 0, 9), bad])
        assert (state.graph.n, state.graph.m) == (n_before, m_before)
        assert not state.graph.has_edge(0, 9)
        assert state.k_max == k_before
        assert state.truss_pairs() == class_before
        assert state.device.stats.since(io_before).total_ios == 0

    def test_double_delete_within_batch_raises(self):
        graph = paper_example_graph()
        u, v = map(int, graph.edges[0])
        state = DynamicMaxTruss(graph)
        with pytest.raises(GraphFormatError, match="absent edge"):
            state.apply_batch([("delete", u, v), ("delete", u, v)])
        assert state.graph.has_edge(u, v)

    def test_reinsert_after_delete_is_valid(self):
        """delete, insert, delete leaves the edge net-deleted."""
        graph = complete_graph(5)
        state = DynamicMaxTruss(graph)
        result = state.apply_batch(
            [("delete", 0, 1), ("insert", 0, 1), ("delete", 0, 1)],
        )
        assert result.cancelled_ops == 2
        assert result.deletions == 1
        assert not state.graph.has_edge(0, 1)
        expected_k, expected_edges = max_truss_edges(
            Graph.from_edges(
                [(u, v) for u in range(5) for v in range(u + 1, 5)
                 if (u, v) != (0, 1)]
            )
        )
        assert state.k_max == expected_k
        assert state.truss_pairs() == expected_edges

    def test_gate_stops_at_first_passing_insertion(self):
        state = DynamicMaxTruss(Graph.from_edges([(0, 1), (1, 2)]))
        result = state.apply_batch(
            [("insert", 0, 2), ("insert", 5, 6), ("insert", 6, 7)]
        )
        # (0, 2) closes a triangle and passes its gate immediately; the
        # remaining insertions are never probed.
        assert result.gate_probes == 1
        assert result.mode == "global"
        assert state.k_max == 3


@st.composite
def batch_scenarios(draw):
    n = draw(st.integers(min_value=5, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=5000))
    rng = np.random.default_rng(seed)
    p = draw(st.floats(min_value=0.2, max_value=0.5))
    rows, cols = np.triu_indices(n, k=1)
    keep = rng.random(len(rows)) < p
    graph = Graph(n, np.stack([rows[keep], cols[keep]], axis=1))
    size = draw(st.integers(min_value=1, max_value=10))
    mutable = graph.to_mutable()
    ops = []
    for _ in range(size):
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u == v:
            continue
        if mutable.has_edge(u, v):
            mutable.delete_edge(u, v)
            ops.append(("delete", u, v))
        else:
            mutable.insert_edge(u, v)
            ops.append(("insert", u, v))
    return graph, ops


@given(batch_scenarios())
@settings(max_examples=25)
def test_batch_matches_scratch(scenario):
    graph, ops = scenario
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


@given(batch_scenarios())
@settings(max_examples=15)
def test_batch_matches_sequential(scenario):
    graph, ops = scenario
    batch_state = DynamicMaxTruss(graph)
    batch_state.apply_batch(ops)
    sequential_state = DynamicMaxTruss(graph)
    for op, u, v in ops:
        if op == "insert":
            sequential_state.insert(u, v)
        else:
            sequential_state.delete(u, v)
    assert batch_state.k_max == sequential_state.k_max
    assert batch_state.truss_pairs() == sequential_state.truss_pairs()
