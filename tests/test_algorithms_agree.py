"""Cross-algorithm agreement and truss-definition invariants (hypothesis).

These are the suite's strongest guarantees: on arbitrary random graphs,
every algorithm (the paper's three semi-external methods and both external
baselines) must return exactly the ground-truth ``k_max`` *and* the
ground-truth edge set, and the returned set must satisfy the k-truss
definition intrinsically.
"""

import pytest
from hypothesis import given, settings

from repro import EngineConfig, ExecutionContext, semi_binary, semi_greedy_core, semi_lazy_update
from repro.baselines import bottom_up, max_truss_edges, top_down
from repro.core.api import max_truss
from repro.graph.disk_graph import DiskGraph
from repro.graph.generators import cycle_graph, paper_example_graph
from repro.graph.memgraph import Graph

from conftest import small_graphs, triangle_rich_graphs

ALGORITHMS = [semi_binary, semi_greedy_core, semi_lazy_update, bottom_up, top_down]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
class TestAgainstGroundTruth:
    @given(g=small_graphs(max_n=18))
    @settings(max_examples=20)
    def test_matches_reference(self, algorithm, g):
        expected_k, expected_edges = max_truss_edges(g)
        result = algorithm(g)
        assert result.k_max == expected_k
        assert sorted(result.truss_edges) == expected_edges

    @given(g=triangle_rich_graphs(max_n=14))
    @settings(max_examples=15)
    def test_matches_reference_dense(self, algorithm, g):
        expected_k, expected_edges = max_truss_edges(g)
        result = algorithm(g)
        assert result.k_max == expected_k
        assert sorted(result.truss_edges) == expected_edges


@given(g=triangle_rich_graphs(max_n=14))
@settings(max_examples=15)
def test_truss_definition_holds_intrinsically(g):
    """The returned edge set is a (k_max)-truss by definition: every edge
    has >= k_max - 2 triangles inside the set, and no (k_max+1)-truss
    exists anywhere in the graph."""
    result = semi_lazy_update(g)
    if result.k_max < 3:
        return
    truss = Graph.from_edges(result.truss_edges)
    supports = truss.edge_supports()
    assert (supports >= result.k_max - 2).all()
    bigger = semi_lazy_update(g)
    assert bigger.k_max == result.k_max  # deterministic
    from repro.baselines import truss_decomposition

    trussness = truss_decomposition(g)
    assert int(trussness.max()) == result.k_max


@given(g=small_graphs(max_n=16))
@settings(max_examples=15)
def test_bounds_bracket_kmax(g):
    """Sound bounds bracket the result on every graph (Lemma 2/3/5 side)."""
    from repro.core import bounds
    from repro.semiexternal.core_decomp import core_decomposition_inmemory

    expected_k, _ = max_truss_edges(g)
    if g.m == 0:
        return
    coreness = core_decomposition_inmemory(g)
    assert expected_k <= bounds.core_upper_bound(coreness, g.edges)
    assert expected_k <= bounds.support_upper_bound(int(g.edge_supports().max()))
    assert expected_k >= bounds.nash_williams_lower_bound(g.triangle_count(), g.m)


def test_dispatch_facade_runs_every_method():
    g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
    for method in ("semi-binary", "semi-greedy-core", "semi-lazy-update",
                   "bottom-up", "top-down", "in-memory"):
        result = max_truss(g, method=method)
        assert result.k_max == 3


def test_dispatch_unknown_method():
    from repro.errors import UnknownMethodError

    with pytest.raises(UnknownMethodError):
        max_truss(Graph.empty(1), method="nope")


CHARGED_METHODS = [
    "semi-binary", "semi-greedy-core", "semi-lazy-update", "bottom-up", "top-down",
]


@pytest.mark.parametrize("method", CHARGED_METHODS)
@pytest.mark.parametrize(
    "graph", [paper_example_graph(), cycle_graph(40)], ids=["paper", "cycle"]
)
def test_charged_run_frees_its_scratch(method, graph):
    """A charged computation leaves only ``G`` on the caller's device, on
    the triangle-free early return (the cycle) as on the full path."""
    config = EngineConfig(block_size=256, cache_blocks=8)
    with ExecutionContext(config) as context:
        max_truss(graph, method=method, context=context)
        left = context.device.used_bytes
    with ExecutionContext(config) as context:
        only_g = DiskGraph(graph, context.device_for(graph.n), name="G")
        assert left == only_g.device.used_bytes
