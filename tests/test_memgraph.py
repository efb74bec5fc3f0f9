"""Tests for the immutable Graph class."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given

from repro.errors import GraphFormatError
from repro.graph import memgraph
from repro.graph.memgraph import Graph, canonical_edge_array
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    gnm_random,
    paper_example_graph,
)

from conftest import small_graphs, triangle_rich_graphs


def reference_csr(n, edges):
    """The per-edge fill plus per-vertex argsort that the one-sort CSR
    build replaced — kept as the executable spec of its layout."""
    degrees = np.zeros(n, dtype=np.int64)
    np.add.at(degrees, edges[:, 0], 1)
    np.add.at(degrees, edges[:, 1], 1)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    adj = np.zeros(2 * len(edges), dtype=np.int64)
    adj_eids = np.zeros(2 * len(edges), dtype=np.int64)
    cursor = offsets[:-1].copy()
    for eid, (u, v) in enumerate(edges):
        adj[cursor[u]], adj_eids[cursor[u]] = v, eid
        cursor[u] += 1
        adj[cursor[v]], adj_eids[cursor[v]] = u, eid
        cursor[v] += 1
    for v in range(n):
        start, stop = offsets[v], offsets[v + 1]
        order = np.argsort(adj[start:stop], kind="mergesort")
        adj[start:stop] = adj[start:stop][order]
        adj_eids[start:stop] = adj_eids[start:stop][order]
    return offsets, adj, adj_eids


def reference_edge_supports(g):
    """The per-edge marker loop that the numpy values kernel replaced —
    kept as the executable spec of ``Graph.edge_supports``."""
    support = np.zeros(g.m, dtype=np.int64)
    marker = np.full(g.n, -1, dtype=np.int64)
    marker_eid = np.zeros(g.n, dtype=np.int64)
    for u in range(g.n):
        nbrs, eids = g.neighbors(u), g.neighbor_eids(u)
        marker[nbrs] = u
        marker_eid[nbrs] = eids
        for v, uv_eid in zip(nbrs.tolist(), eids.tolist()):
            if v <= u:
                continue
            for w, vw_eid in zip(g.neighbors(v).tolist(), g.neighbor_eids(v).tolist()):
                if w > v and marker[w] == u:  # each triangle once, at u < v < w
                    support[uv_eid] += 1
                    support[vw_eid] += 1
                    support[marker_eid[w]] += 1
    return support


def assert_csr_matches_reference(g):
    offsets, adj, adj_eids = reference_csr(g.n, g.edges)
    np.testing.assert_array_equal(g.offsets, offsets)
    np.testing.assert_array_equal(g.adj, adj)
    np.testing.assert_array_equal(g.adj_eids, adj_eids)
    np.testing.assert_array_equal(g.degrees, np.diff(offsets))


class TestCanonicalEdgeArray:
    def test_orients_and_sorts(self):
        edges = canonical_edge_array([(2, 1), (0, 3), (1, 2)])
        assert edges.tolist() == [[0, 3], [1, 2]]

    def test_drops_self_loops(self):
        edges = canonical_edge_array([(1, 1), (0, 1)])
        assert edges.tolist() == [[0, 1]]

    def test_deduplicates_both_orientations(self):
        edges = canonical_edge_array([(0, 1), (1, 0), (0, 1)])
        assert edges.tolist() == [[0, 1]]

    def test_empty(self):
        assert canonical_edge_array([]).shape == (0, 2)

    def test_rejects_negative_ids(self):
        with pytest.raises(GraphFormatError):
            canonical_edge_array([(-1, 2)])

    def test_rejects_bad_shape(self):
        with pytest.raises(GraphFormatError):
            canonical_edge_array(np.array([[1, 2, 3]]))


class TestGraphBasics:
    def test_counts(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2)])
        assert (g.n, g.m) == (3, 3)

    def test_vertex_count_override(self):
        g = Graph.from_edges([(0, 1)], n=10)
        assert g.n == 10
        assert g.degree(9) == 0

    def test_endpoint_beyond_n_rejected(self):
        with pytest.raises(GraphFormatError):
            Graph(2, np.array([[0, 5]]))

    def test_degrees(self):
        g = paper_example_graph()
        assert g.degree(4) == 6  # hub of the bridge
        assert g.max_degree == 6
        assert g.degrees is g.degrees  # computed once
        with pytest.raises(ValueError):
            g.degrees[4] = 0  # and read-only

    @pytest.mark.parametrize("make", [
        lambda: Graph.empty(0),
        lambda: Graph.empty(5),
        lambda: Graph.from_edges([(0, 1)], n=4),  # isolated vertices 2, 3
        paper_example_graph,
        lambda: gnm_random(35, 270, seed=0),
        lambda: gnm_random(80, 100, seed=1),  # sparse: many isolated
    ])
    def test_csr_matches_reference_build(self, make):
        assert_csr_matches_reference(make())

    @given(small_graphs())
    def test_csr_matches_reference_build_random(self, g):
        assert_csr_matches_reference(g)

    def test_neighbors_sorted(self):
        g = paper_example_graph()
        nbrs = g.neighbors(4)
        assert list(nbrs) == sorted(nbrs)

    def test_neighbor_eids_align(self):
        g = complete_graph(5)
        for v in range(5):
            for w, eid in zip(g.neighbors(v), g.neighbor_eids(v)):
                u_, v_ = g.edges[eid]
                assert {int(u_), int(v_)} == {v, int(w)}

    def test_edge_id_lookup(self):
        g = complete_graph(4)
        for eid in range(g.m):
            u, v = g.edges[eid]
            assert g.edge_id(int(u), int(v)) == eid
            assert g.edge_id(int(v), int(u)) == eid

    def test_edge_id_missing(self):
        g = cycle_graph(5)
        assert g.edge_id(0, 2) == -1
        assert not g.has_edge(0, 2)

    def test_empty_graph(self):
        g = Graph.empty(3)
        assert (g.n, g.m) == (3, 0)
        assert g.max_degree == 0


class TestSupports:
    def test_complete_graph_supports(self):
        g = complete_graph(5)
        assert list(g.edge_supports()) == [3] * 10

    def test_cycle_has_no_triangles(self):
        g = cycle_graph(6)
        assert g.triangle_count() == 0
        assert list(g.edge_supports()) == [0] * 6

    def test_triangle(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2)])
        assert g.triangle_count() == 1
        assert list(g.edge_supports()) == [1, 1, 1]

    def test_support_sum_is_three_times_triangles(self):
        g = paper_example_graph()
        assert int(g.edge_supports().sum()) == 3 * g.triangle_count()

    @pytest.mark.parametrize("graph", [
        Graph.empty(0),
        Graph.empty(5),
        Graph(7, [(1, 4), (4, 6), (1, 6), (2, 3)]),  # isolated 0 and 5
        complete_graph(9),
        paper_example_graph(),
        gnm_random(120, 2000, seed=4),  # dense side of the kernel choice
        gnm_random(900, 2500, seed=4),  # wedge side
    ], ids=["n0", "m0", "isolated", "k9", "paper", "gnm-dense", "gnm-sparse"])
    def test_matches_reference_loop(self, graph):
        np.testing.assert_array_equal(
            graph.edge_supports(), reference_edge_supports(graph)
        )

    @given(small_graphs())
    def test_matches_reference_loop_random(self, g):
        np.testing.assert_array_equal(g.edge_supports(), reference_edge_supports(g))

    @given(triangle_rich_graphs(max_n=40))
    def test_both_kernels_match_reference_loop(self, g):
        """Small graphs pick the dense kernel; force each kernel in turn."""
        expected = reference_edge_supports(g)
        for cap, ratio in ((0, 0), (1 << 40, 1 << 40)):  # wedge, then dense
            with mock.patch.object(memgraph, "_DENSE_MAX_BYTES", cap), \
                    mock.patch.object(memgraph, "_DENSE_WORK_PER_WEDGE", ratio):
                np.testing.assert_array_equal(g.edge_supports(), expected)

    @given(small_graphs())
    def test_support_invariant_random(self, g):
        supports = g.edge_supports()
        assert int(supports.sum()) == 3 * g.triangle_count()
        assert (supports >= 0).all()
        if g.m:
            degrees = g.degrees
            for eid in range(g.m):
                u, v = g.edges[eid]
                assert supports[eid] <= min(degrees[u], degrees[v]) - 1 or supports[eid] == 0


class TestSubgraphs:
    def test_subgraph_by_nodes(self):
        g = paper_example_graph()
        sub, node_map, edge_map = g.subgraph_by_nodes([0, 1, 2, 3])
        assert sub.n == 4
        assert sub.m == 6  # the K4
        assert list(node_map) == [0, 1, 2, 3]
        for sub_eid, parent_eid in enumerate(edge_map):
            su, sv = sub.edges[sub_eid]
            pu, pv = g.edges[parent_eid]
            assert (node_map[su], node_map[sv]) == (pu, pv)

    def test_subgraph_by_nodes_relabels(self):
        g = paper_example_graph()
        sub, node_map, _ = g.subgraph_by_nodes([4, 5, 6, 7])
        assert sub.n == 4
        assert sub.m == 6
        assert list(node_map) == [4, 5, 6, 7]

    def test_subgraph_by_edges(self):
        g = complete_graph(4)
        sub, node_map, edge_map = g.subgraph_by_edges([0, 1])
        assert sub.m == 2
        assert len(node_map) == 3

    def test_subgraph_out_of_range(self):
        g = complete_graph(3)
        with pytest.raises(GraphFormatError):
            g.subgraph_by_nodes([5])
        with pytest.raises(GraphFormatError):
            g.subgraph_by_edges([10])
        # a negative id must not wrap around to the last vertex or edge
        with pytest.raises(GraphFormatError):
            g.subgraph_by_nodes([0, -1])
        with pytest.raises(GraphFormatError):
            g.subgraph_by_edges([0, -1])

    def test_edge_induced_support(self):
        g = complete_graph(4)
        sups = g.edge_induced_support(range(g.m))
        assert all(v == 2 for v in sups.values())

    @given(small_graphs(max_n=14))
    def test_node_subgraph_edges_subset(self, g):
        nodes = list(range(0, g.n, 2))
        sub, node_map, edge_map = g.subgraph_by_nodes(nodes)
        # Every subgraph edge maps to a parent edge between selected nodes.
        selected = set(int(node_map[i]) for i in range(len(node_map)))
        for parent_eid in edge_map:
            u, v = g.edges[parent_eid]
            assert int(u) in selected and int(v) in selected


class TestConversions:
    def test_edge_pairs(self):
        g = Graph.from_edges([(1, 0), (2, 1)])
        assert g.edge_pairs() == [(0, 1), (1, 2)]

    def test_to_mutable_roundtrip(self):
        g = paper_example_graph()
        mutable = g.to_mutable()
        frozen, eid_map = mutable.to_graph()
        assert frozen.edge_pairs() == g.edge_pairs()
        assert sorted(eid_map) == list(range(g.m))
