"""Property pack for the approximate tier.

Three statistical/metamorphic guarantees, all against seeded randomness:

* **coverage** — over many independent estimator runs the confidence
  interval contains the true value at least as often as the configured
  confidence promises (the intervals are conservative by construction,
  so the empirical rate sits above the nominal one);
* **sublinearity** — an ApproxEngine build plus a per-edge answer charge
  at least 10x fewer read I/Os than one exact max-truss run on the same
  graph (the ISSUE's hard separation floor, measured through the same
  block-device ledger);
* **metamorphic relabeling** — permuting vertex labels changes nothing
  the tier is allowed to depend on: estimator intervals still cover the
  (invariant) true ``k_max``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.approx import ApproxEngine
from repro.approx.estimators import estimate_triangle_count
from repro.core.semi_binary import semi_binary
from repro.engine import EngineConfig, ExecutionContext
from repro.graph import DiskGraph
from repro.graph.generators import gnm_random
from repro.graph.memgraph import Graph


def relabel(graph: Graph, rng: np.random.Generator) -> Graph:
    """The same graph under a random vertex permutation."""
    perm = rng.permutation(graph.n)
    edges = [
        (int(perm[int(u)]), int(perm[int(v)]))
        for u, v in graph.edges[:, :2]
    ]
    return Graph.from_edges(edges, n=graph.n)


class TestCoverage:
    """Empirical CI coverage >= nominal confidence over seeded trials."""

    def test_triangle_interval_coverage(self):
        graph = gnm_random(1500, 15000, seed=0)
        truth = semi_binary(graph).extras["triangles"]
        confidence = 0.95
        with ExecutionContext(EngineConfig()) as ctx:
            probe = DiskGraph.attach(graph, ctx.device_for(graph.n))
            trials = 60
            covered = sum(
                estimate_triangle_count(
                    probe, 185, confidence, np.random.default_rng(seed)
                ).covers(truth)
                for seed in range(trials)
            )
        assert covered / trials >= confidence

    def test_kmax_interval_coverage(self):
        graph = gnm_random(1500, 15000, seed=0)
        truth = semi_binary(graph).k_max
        confidence = 0.95
        trials = 30
        covered = 0
        for seed in range(trials):
            config = EngineConfig(
                approx_confidence=confidence, approx_seed=seed
            )
            with ApproxEngine(graph, config=config) as engine:
                covered += engine.kmax().covers(truth)
        assert covered / trials >= confidence


class TestSublinearity:
    def test_approx_io_at_least_10x_below_exact(self):
        graph = gnm_random(1500, 15000, seed=0)
        exact_reads = semi_binary(graph).io.read_ios
        engine = ApproxEngine(
            gnm_random(1500, 15000, seed=0), config=EngineConfig())
        u, v = (int(x) for x in graph.edges[0][:2])
        trussness = engine.trussness(u, v)
        approx_reads = engine.build_charged_io + trussness.charged_io
        engine.close()
        assert approx_reads > 0  # the bill is real, not skipped accounting
        assert exact_reads >= 10 * approx_reads

    def test_per_query_io_excludes_build(self):
        engine = ApproxEngine(
            gnm_random(400, 3000, seed=1), config=EngineConfig())
        engine.build()
        est = engine.trussness(0, 1)
        if est is not None:
            # A point query touches O(deg) cells, nowhere near the build.
            assert est.charged_io < engine.build_charged_io
        assert engine.kmax().charged_io == engine.build_charged_io
        engine.close()


class TestMetamorphicRelabeling:
    @given(perm_seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_estimator_still_covers_after_relabeling(self, perm_seed):
        base = gnm_random(80, 400, seed=0)
        truth = semi_binary(base).k_max
        shuffled = relabel(base, np.random.default_rng(perm_seed))
        config = EngineConfig(approx_seed=0)
        with ApproxEngine(shuffled, config=config) as engine:
            assert engine.kmax().covers(truth)
