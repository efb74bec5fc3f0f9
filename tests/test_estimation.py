"""Tests for sampling estimators."""

import pytest

from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    gnp_random,
    star_graph,
)
from repro.semiexternal.estimation import (
    TriangleEstimate,
    estimate_max_support,
    estimate_triangles,
)


class TestTriangleEstimation:
    def test_clique_is_exact(self):
        # Every wedge in a clique closes: zero-variance estimator.
        g = complete_graph(10)
        estimate = estimate_triangles(g, samples=200, seed=0)
        assert estimate.closure_rate == 1.0
        assert estimate.triangles == pytest.approx(g.triangle_count())

    def test_triangle_free_is_exact(self):
        estimate = estimate_triangles(cycle_graph(10), samples=100, seed=0)
        assert estimate.triangles == 0.0
        assert estimate.closure_rate == 0.0

    def test_no_wedges(self):
        from repro.graph.memgraph import Graph

        estimate = estimate_triangles(Graph.from_edges([(0, 1)]), samples=10)
        assert estimate.wedges == 0
        assert estimate.triangles == 0.0

    def test_random_graph_within_tolerance(self):
        g = gnp_random(120, 0.15, seed=3)
        exact = g.triangle_count()
        estimate = estimate_triangles(g, samples=4000, seed=7)
        assert estimate.triangles == pytest.approx(exact, rel=0.25)

    def test_deterministic_per_seed(self):
        g = gnp_random(60, 0.2, seed=1)
        a = estimate_triangles(g, samples=500, seed=42)
        b = estimate_triangles(g, samples=500, seed=42)
        assert a.triangles == b.triangles

    def test_invalid_samples(self):
        with pytest.raises(ValueError):
            estimate_triangles(complete_graph(4), samples=0)

    def test_charges_io(self):
        from repro import EngineConfig, ExecutionContext

        context = ExecutionContext(EngineConfig(block_size=256, cache_blocks=4))
        estimate_triangles(complete_graph(20), samples=50, seed=0, context=context)
        assert context.device.stats.read_ios > 0

    def test_lemma1_seed(self):
        estimate = TriangleEstimate(triangles=100.0, closure_rate=0.5,
                                    wedges=600, samples=100)
        assert estimate.lemma1_seed(100) == 5
        assert estimate.lemma1_seed(0) == 2
        zero = TriangleEstimate(0.0, 0.0, 0, 10)
        assert zero.lemma1_seed(50) == 2


class TestMaxSupportEstimation:
    def test_lower_bound_property(self):
        g = gnp_random(80, 0.2, seed=5)
        exact_max = int(g.edge_supports().max())
        sampled = estimate_max_support(g, samples=200, seed=1)
        assert 0 <= sampled <= exact_max

    def test_clique_finds_exact(self):
        g = complete_graph(12)
        assert estimate_max_support(g, samples=66, seed=0) == 10

    def test_star(self):
        assert estimate_max_support(star_graph(6), samples=6, seed=0) == 0

    def test_empty(self):
        from repro.graph.memgraph import Graph

        assert estimate_max_support(Graph.empty(3), samples=10) == 0

    def test_invalid_samples(self):
        with pytest.raises(ValueError):
            estimate_max_support(complete_graph(4), samples=-1)
