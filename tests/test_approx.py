"""Approximate tier: interval helpers, the charged estimators, and the
ApproxEngine whose cached sampled state answers every approximate query.
"""

import numpy as np
import pytest

from repro.approx import (
    ApproxEngine,
    Estimate,
    build_approx_engine,
    estimate_edge_support,
    estimate_triangle_count,
    hoeffding_samples,
    kmax_from_sample,
    max_support_from_sample,
    normal_quantile,
    sample_budget,
    sample_edge_supports,
    wilson_interval,
)
from repro.engine import EngineConfig, ExecutionContext
from repro.errors import ReproError
from repro.graph import DiskGraph
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    gnm_random,
    planted_kmax_truss,
)
from repro.graph.memgraph import Graph


def make_probe(graph, context):
    return DiskGraph.attach(graph, context.device_for(graph.n))


@pytest.fixture
def context():
    # The default (simulated) backend charges reads; inmemory does not.
    with ExecutionContext(EngineConfig()) as ctx:
        yield ctx


class TestIntervalHelpers:
    def test_normal_quantile_known_values(self):
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-5)
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-9)
        assert normal_quantile(0.995) == pytest.approx(2.575829, abs=1e-5)

    def test_normal_quantile_symmetry(self):
        for p in (0.01, 0.1, 0.25, 0.4):
            assert normal_quantile(p) == pytest.approx(-normal_quantile(1 - p))

    def test_normal_quantile_rejects_boundary(self):
        for p in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                normal_quantile(p)

    def test_wilson_contains_point(self):
        for successes, trials in [(0, 50), (1, 50), (25, 50), (50, 50)]:
            low, high = wilson_interval(successes, trials, 0.95)
            assert 0.0 <= low <= successes / trials <= high <= 1.0

    def test_wilson_narrows_with_trials(self):
        w_small = wilson_interval(10, 20, 0.95)
        w_large = wilson_interval(1000, 2000, 0.95)
        assert (w_large[1] - w_large[0]) < (w_small[1] - w_small[0])

    def test_wilson_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 3, 0.95)
        with pytest.raises(ValueError):
            wilson_interval(1, 3, 1.0)

    def test_hoeffding_monotone(self):
        assert hoeffding_samples(0.05, 0.95) > hoeffding_samples(0.1, 0.95)
        assert hoeffding_samples(0.1, 0.99) > hoeffding_samples(0.1, 0.95)

    def test_estimate_validates_interval(self):
        with pytest.raises(ValueError):
            Estimate(5.0, 6.0, 7.0, 0.95, 10)

    def test_estimate_envelope_payload(self):
        est = Estimate(4.0, 3.0, 6.0, 0.9, 12, charged_io=7)
        payload = est.to_dict()
        assert payload == {
            "estimate": 4.0, "ci": [3.0, 6.0], "confidence": 0.9, "samples": 12,
        }
        assert est.with_io(99).charged_io == 99

    def test_sample_budget_census_cap(self):
        assert sample_budget(40, 0.1, 0.95) == 40
        assert sample_budget(0, 0.1, 0.95) == 0
        assert sample_budget(10**9, 0.1, 0.95) == 185


class TestEstimators:
    def test_triangle_census_exactness(self, context):
        # K6 closes every wedge: the estimate is exact regardless of rng.
        probe = make_probe(complete_graph(6), context)
        est = estimate_triangle_count(probe, 150, 0.95, np.random.default_rng(1))
        assert est.value == 20.0
        assert est.covers(20.0)
        assert est.charged_io > 0

    def test_triangle_free_graph_is_exact_zero(self, context):
        probe = make_probe(cycle_graph(12), context)
        est = estimate_triangle_count(probe, 100, 0.95, np.random.default_rng(0))
        assert est.value == 0.0
        assert est.ci_low == 0.0

    def test_edge_support_rejects_nonpositive_samples(self, context):
        probe = make_probe(complete_graph(4), context)
        with pytest.raises(ValueError):
            estimate_edge_support(probe, 0, 1, -1, 0.95, np.random.default_rng(0))

    def test_support_census_degenerates_to_exact(self, context):
        probe = make_probe(complete_graph(5), context)
        sample = sample_edge_supports(probe, 10**6, np.random.default_rng(0))
        assert sample.census
        assert sample.size == 10
        assert set(sample.supports.tolist()) == {3}
        est = max_support_from_sample(sample, 4)
        assert est.is_exact and est.value == 3.0

    def test_kmax_from_census_clique(self, context):
        probe = make_probe(complete_graph(7), context)
        rng = np.random.default_rng(0)
        tri = estimate_triangle_count(probe, 200, 0.95, rng)
        sample = sample_edge_supports(probe, 10**6, rng)
        est = kmax_from_sample(sample, tri, 0.95)
        assert est.covers(7)

    def test_engine_kmax_covers_planted(self):
        graph = planted_kmax_truss(8, periphery_n=40, seed=1)
        with ApproxEngine(graph, config=EngineConfig(approx_seed=3)) as engine:
            est = engine.kmax()
        assert est.covers(8)
        assert est.charged_io > 0

    def test_edge_support_absent_edge(self, context):
        probe = make_probe(cycle_graph(6), context)
        rng = np.random.default_rng(0)
        assert estimate_edge_support(probe, 0, 3, 32, 0.95, rng) is None
        assert estimate_edge_support(probe, 2, 2, 32, 0.95, rng) is None

    def test_edge_support_census_exact(self, context):
        probe = make_probe(complete_graph(6), context)
        est = estimate_edge_support(
            probe, 0, 1, 128, 0.95, np.random.default_rng(0))
        assert est.is_exact and est.value == 4.0

    def test_build_io_is_charged_to_probe_device(self, context):
        graph = gnm_random(60, 240, seed=0)
        device = context.device_for(graph.n)
        before = device.stats.read_ios
        probe = DiskGraph.attach(graph, device)
        ApproxEngine(graph, config=EngineConfig(approx_seed=0)).build(probe)
        assert device.stats.read_ios > before


class TestApproxEngine:
    def test_cached_answers_cost_no_further_io(self):
        with ApproxEngine(complete_graph(8), config=EngineConfig()) as engine:
            engine.build()
            bill = engine.build_charged_io
            assert bill > 0
            for _ in range(3):
                assert engine.kmax().covers(8)
                assert engine.triangles().value == 56.0
                assert engine.max_support().value == 6.0
            assert engine.build_charged_io == bill  # unchanged by queries

    def test_per_edge_determinism(self):
        engine = ApproxEngine(
            gnm_random(50, 200, seed=2),
            config=EngineConfig(backend="inmemory", approx_seed=11))
        first = engine.trussness(0, 1)
        second = engine.trussness(1, 0)  # orientation-independent
        assert first == second
        engine.close()

    def test_trussness_absent_edge(self):
        engine = ApproxEngine(
            cycle_graph(5), config=EngineConfig(backend="inmemory"))
        assert engine.trussness(0, 2) is None
        engine.close()

    def test_membership_likelihood_extremes(self):
        engine = ApproxEngine(
            complete_graph(6), config=EngineConfig(backend="inmemory"))
        absent = engine.membership_likelihood(0, 0, 4)
        assert absent.value == 0.0 and absent.is_exact
        trivially = engine.membership_likelihood(0, 1, 2)
        assert trivially.value == 1.0
        beyond = engine.membership_likelihood(0, 1, 50)
        assert beyond.value == 0.0
        engine.close()

    def test_unprobed_queries_do_not_leak_extents(self):
        graph = gnm_random(60, 240, seed=4)
        with ApproxEngine(graph, config=EngineConfig()) as engine:
            engine.build()
            device = engine._require_own_device()
            built = device.used_bytes
            for u, v in graph.edges[:50]:
                engine.trussness(int(u), int(v))
            assert device.used_bytes == built

    def test_build_approx_engine_rejects_empty(self, context):
        with pytest.raises(ReproError):
            build_approx_engine(Graph.empty(0), context=context)

    def test_config_knobs_flow_through(self):
        config = EngineConfig(
            backend="inmemory", approx_epsilon=0.2,
            approx_confidence=0.9, approx_seed=42)
        engine = ApproxEngine(complete_graph(5), config=config)
        assert engine.epsilon == 0.2
        assert engine.confidence == 0.9
        assert engine.seed == 42
        engine.close()
