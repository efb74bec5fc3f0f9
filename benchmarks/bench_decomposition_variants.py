"""Extension bench: full decomposition — peeling vs h-index iteration.

Bottom-Up peels the whole graph in global support order; the h-index
variant converges per-edge estimates with sequential rounds. Both produce
exact trussness for every edge; their I/O profiles differ with structure
(rounds × scans vs random-access heap traffic). Also reports the
wedge-sampling estimator's accuracy as the cheap planning front-end.

Table: benchmarks/results/decomposition_variants.txt.
"""

import numpy as np
import pytest

from repro import EngineConfig, ExecutionContext
from repro.approx import estimate_triangle_count
from repro.baselines import bottom_up
from repro.graph import DiskGraph
from repro.semiexternal.truss_decomp import h_index_truss_decomposition

from conftest import BenchReport

REPORT = BenchReport(
    "decomposition_variants",
    ["dataset", "variant", "k_max", "io_total", "detail"],
)

DATASETS = ["youtube-s", "wikipedia-s", "hollywood-s"]


@pytest.mark.parametrize("dataset", DATASETS)
def test_peeling_decomposition(benchmark, graphs, dataset):
    graph = graphs(dataset)
    outcome = {}

    def run():
        outcome["result"] = bottom_up(graph, context=EngineConfig())

    benchmark.pedantic(run, rounds=1, iterations=1)
    result = outcome["result"]
    REPORT.add(dataset, "peeling (Bottom-Up)", result.k_max,
               result.io.total_ios, "-")
    REPORT.write()


@pytest.mark.parametrize("dataset", DATASETS)
def test_hindex_decomposition(benchmark, graphs, dataset):
    graph = graphs(dataset)
    outcome = {}

    def run():
        context = ExecutionContext(EngineConfig())
        outcome["result"] = h_index_truss_decomposition(graph, context=context)
        outcome["io"] = context.device.stats.total_ios

    benchmark.pedantic(run, rounds=1, iterations=1)
    result = outcome["result"]
    REPORT.add(dataset, "h-index iteration", result.k_max, outcome["io"],
               f"rounds={result.rounds}")
    REPORT.write()
    # Exactness cross-check against the peeling decomposition.
    reference = bottom_up(graphs(dataset))
    assert np.array_equal(result.trussness, reference.extras["trussness"])


@pytest.mark.parametrize("dataset", ["youtube-s", "hollywood-s"])
def test_partitioned_decomposition(benchmark, graphs, dataset):
    """The Wang–Cheng partition scheme, with its imbalance measured."""
    from repro.baselines.partitioned import partitioned_truss_decomposition

    graph = graphs(dataset)
    outcome = {}

    def run():
        outcome["result"] = partitioned_truss_decomposition(graph, partitions=4)

    benchmark.pedantic(run, rounds=1, iterations=1)
    result = outcome["result"]
    REPORT.add(dataset, "partitioned (4 parts)", result.k_max,
               result.io.total_ios,
               f"imbalance={result.extras['load_imbalance']:.1f}x")
    REPORT.write()
    # The paper's criticism: uniform vertex ranges load unevenly.
    assert result.extras["load_imbalance"] > 1.0


def test_triangle_estimator_accuracy(benchmark, graphs):
    graph = graphs("wikipedia-s")
    outcome = {}

    def run():
        with ExecutionContext(EngineConfig()) as context:
            view = DiskGraph.attach(graph, context.device_for(graph.n))
            estimate = estimate_triangle_count(
                view, 3000, 0.95, np.random.default_rng(0))
            outcome["estimate"] = estimate
            outcome["io"] = context.device.stats.total_ios

    benchmark.pedantic(run, rounds=1, iterations=1)
    exact = graph.triangle_count()
    estimate = outcome["estimate"]
    error = abs(estimate.value - exact) / max(exact, 1)
    REPORT.add("wikipedia-s", "wedge-sampling estimate", "-", outcome["io"],
               f"est={estimate.value:.0f} exact={exact} err={error:.1%}")
    REPORT.write()
    assert error < 0.30
