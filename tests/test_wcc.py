"""Tests for semi-external connected components."""

from hypothesis import given, settings

from repro import EngineConfig, ExecutionContext
from repro.analysis.components import vertex_connected_components
from repro.graph.generators import complete_graph, cycle_graph
from repro.graph.memgraph import Graph
from repro.semiexternal.wcc import semi_external_components, split_edges_semi_external

from conftest import small_graphs


class TestComponents:
    def test_single_component(self):
        result = semi_external_components(cycle_graph(8))
        assert result.component_count == 1
        assert set(result.labels) == {0}

    def test_two_components_and_isolated(self):
        edges = [(0, 1), (1, 2), (4, 5)]
        result = semi_external_components(Graph.from_edges(edges, n=7))
        assert result.component_of(0) == result.component_of(2) == 0
        assert result.component_of(4) == result.component_of(5) == 4
        assert result.component_of(3) == 3  # isolated keeps its label
        assert result.component_of(6) == 6
        assert result.component_count == 4

    def test_empty_graph(self):
        result = semi_external_components(Graph.empty(3))
        assert result.rounds == 0
        assert result.component_count == 3

    def test_members(self):
        edges = [(0, 1), (3, 4)]
        groups = semi_external_components(Graph.from_edges(edges, n=5)).members()
        assert groups[0] == [0, 1]
        assert groups[3] == [3, 4]

    def test_charges_io(self):
        context = ExecutionContext(EngineConfig(block_size=256, cache_blocks=4))
        semi_external_components(complete_graph(20), context=context)
        assert context.device.stats.read_ios > 0

    @given(small_graphs(max_n=18))
    @settings(max_examples=20)
    def test_matches_union_find(self, g):
        result = semi_external_components(g)
        # Two vertices share a label iff they share a union-find component.
        components = vertex_connected_components(g.edge_pairs())
        for component in components:
            vertices = sorted({x for edge in component for x in edge})
            labels = {result.component_of(v) for v in vertices}
            assert len(labels) == 1


class TestEdgeSplit:
    def test_matches_inmemory_split(self):
        edges = complete_graph(4).edge_pairs()
        edges += [(u + 10, v + 10) for u, v in complete_graph(3).edge_pairs()]
        g = Graph.from_edges(edges)
        assert split_edges_semi_external(g) == vertex_connected_components(edges)

    @given(small_graphs(max_n=14))
    @settings(max_examples=15)
    def test_split_property(self, g):
        assert split_edges_semi_external(g) == vertex_connected_components(
            g.edge_pairs()
        )
