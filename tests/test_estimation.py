"""Tests for the sampling estimators on a charged view of a frozen graph."""

import numpy as np
import pytest

from repro.approx import (
    Estimate,
    estimate_triangle_count,
    max_support_from_sample,
    sample_edge_supports,
)
from repro.core.bounds import lemma1_lower_bound
from repro.engine import EngineConfig, ExecutionContext
from repro.graph import DiskGraph
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    gnp_random,
    star_graph,
)
from repro.graph.memgraph import Graph


@pytest.fixture
def context():
    with ExecutionContext(EngineConfig()) as ctx:
        yield ctx


def view(graph, context):
    return DiskGraph.attach(graph, context.device_for(graph.n))


def triangles(graph, context, samples, seed=0):
    return estimate_triangle_count(
        view(graph, context), samples, 0.95, np.random.default_rng(seed))


def max_support(graph, context, samples, seed=0):
    sample = sample_edge_supports(
        view(graph, context), samples, np.random.default_rng(seed))
    return max_support_from_sample(sample, graph.max_degree)


class TestTriangleEstimation:
    def test_clique_is_exact(self, context):
        # Every wedge in a clique closes: zero-variance estimator.
        g = complete_graph(10)
        estimate = triangles(g, context, samples=200)
        assert estimate.value == pytest.approx(g.triangle_count())
        assert estimate.covers(g.triangle_count())

    def test_triangle_free_is_exact(self, context):
        estimate = triangles(cycle_graph(10), context, samples=100)
        assert estimate.value == 0.0
        assert estimate.ci_low == 0.0

    def test_no_wedges(self, context):
        estimate = triangles(Graph.from_edges([(0, 1)]), context, samples=10)
        assert estimate.is_exact
        assert estimate.samples == 0
        assert estimate.value == 0.0

    def test_random_graph_within_tolerance(self, context):
        g = gnp_random(120, 0.15, seed=3)
        exact = g.triangle_count()
        estimate = triangles(g, context, samples=4000, seed=7)
        assert estimate.value == pytest.approx(exact, rel=0.25)

    def test_deterministic_per_seed(self, context):
        g = gnp_random(60, 0.2, seed=1)
        a = triangles(g, context, samples=500, seed=42)
        b = triangles(g, context, samples=500, seed=42)
        assert a.with_io(0) == b.with_io(0)

    def test_invalid_samples(self, context):
        with pytest.raises(ValueError):
            triangles(complete_graph(4), context, samples=0)

    def test_charges_io(self):
        context = ExecutionContext(EngineConfig(block_size=256, cache_blocks=4))
        with context:
            estimate = triangles(complete_graph(20), context, samples=50)
            assert context.device.stats.read_ios == estimate.charged_io > 0

    def test_lemma1_seed(self):
        # A triangle estimate seeds the search through the Lemma 1 bound
        # ``ceil(3 * triangles / m) + 2``, falling back to 2.
        estimate = Estimate(100.0, 80.0, 120.0, 0.95, samples=100)
        assert lemma1_lower_bound(int(estimate.value), 100, 0) == 5
        assert lemma1_lower_bound(int(estimate.value), 0, 0) == 2
        zero = Estimate.exact(0.0, samples=10)
        assert lemma1_lower_bound(int(zero.value), 50, 0) == 2


class TestMaxSupportEstimation:
    def test_lower_bound_property(self, context):
        g = gnp_random(80, 0.2, seed=5)
        exact_max = int(g.edge_supports().max())
        sampled = max_support(g, context, samples=200, seed=1)
        assert 0 <= sampled.value <= exact_max
        assert sampled.covers(exact_max)

    def test_clique_finds_exact(self, context):
        g = complete_graph(12)
        estimate = max_support(g, context, samples=66)
        assert estimate.is_exact and estimate.value == 10

    def test_star(self, context):
        assert max_support(star_graph(6), context, samples=6).value == 0

    def test_empty(self, context):
        assert max_support(Graph.empty(3), context, samples=10).value == 0
