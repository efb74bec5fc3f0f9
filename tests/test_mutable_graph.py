"""Tests for MutableGraph."""

import pytest

from repro.errors import GraphFormatError
from repro.graph.memgraph import Graph, MutableGraph
from repro.graph.generators import paper_example_graph


class TestMutation:
    def test_insert_assigns_ids(self):
        g = MutableGraph()
        first = g.insert_edge(0, 1)
        second = g.insert_edge(1, 2)
        assert first != second
        assert g.m == 2

    def test_insert_grows_vertex_count(self):
        g = MutableGraph()
        g.insert_edge(0, 9)
        assert g.n == 10

    def test_reinsert_returns_existing_id(self):
        g = MutableGraph()
        eid = g.insert_edge(0, 1)
        assert g.insert_edge(1, 0) == eid
        assert g.m == 1

    def test_self_loop_rejected(self):
        g = MutableGraph()
        with pytest.raises(GraphFormatError):
            g.insert_edge(2, 2)

    @pytest.mark.parametrize("u, v", [(30, -2), (-2, 30)])
    def test_negative_id_rejected_before_growing(self, u, v):
        g = MutableGraph(4)
        with pytest.raises(GraphFormatError, match="non-negative"):
            g.insert_edge(u, v)
        assert g.n == 4
        assert g.m == 0

    def test_delete(self):
        g = MutableGraph()
        eid = g.insert_edge(0, 1)
        assert g.delete_edge(0, 1) == eid
        assert g.m == 0
        assert not g.has_edge(0, 1)

    def test_delete_absent_raises(self):
        g = MutableGraph()
        with pytest.raises(GraphFormatError):
            g.delete_edge(0, 1)

    def test_ids_not_reused(self):
        g = MutableGraph()
        first = g.insert_edge(0, 1)
        g.delete_edge(0, 1)
        second = g.insert_edge(0, 1)
        assert second > first


class TestQueries:
    def test_degree_and_neighbors(self):
        g = MutableGraph()
        g.insert_edge(0, 1)
        g.insert_edge(0, 2)
        assert g.degree(0) == 2
        assert set(g.neighbors(0)) == {1, 2}
        assert g.degree(99) == 0

    def test_endpoints(self):
        g = MutableGraph()
        eid = g.insert_edge(5, 2)
        assert g.endpoints(eid) == (2, 5)

    def test_common_neighbors(self):
        g = paper_example_graph().to_mutable()
        assert sorted(g.common_neighbors(0, 1)) == [2, 3]
        assert sorted(g.common_neighbors(1, 4)) == [2, 3]

    def test_live_edge_ids(self):
        g = MutableGraph()
        a = g.insert_edge(0, 1)
        b = g.insert_edge(1, 2)
        g.delete_edge(0, 1)
        assert g.live_edge_ids() == [b] or set(g.live_edge_ids()) == {b}
        assert a not in g.live_edge_ids()


class TestConversions:
    def test_to_graph_eid_map(self):
        g = MutableGraph()
        stable = [g.insert_edge(3, 1), g.insert_edge(0, 2), g.insert_edge(1, 2)]
        frozen, eid_map = g.to_graph()
        assert frozen.m == 3
        for stable_eid in stable:
            dense = eid_map[stable_eid]
            assert frozen.edge_pairs()[dense] == g.endpoints(stable_eid)

    def test_copy_independent(self):
        g = MutableGraph()
        g.insert_edge(0, 1)
        clone = g.copy()
        clone.insert_edge(1, 2)
        assert g.m == 1
        assert clone.m == 2

    def test_roundtrip_preserves_dense_ids(self):
        original = paper_example_graph()
        mutable = original.to_mutable()
        # to_mutable preserves the frozen dense ids as stable ids.
        for eid in range(original.m):
            u, v = original.edges[eid]
            assert mutable.edge_id(int(u), int(v)) == eid
