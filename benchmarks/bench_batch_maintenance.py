"""Extension bench: batch vs per-operation maintenance.

The paper's two-tier strategy generalises to bursts: one global recompute
per batch instead of one per update. This bench streams bursts of class-
touching deletions (the expensive path) through both modes and compares
total time and I/O — same exact answers, amortised global work.

Table: benchmarks/results/batch_maintenance.txt.
"""

import time

import pytest

from repro import EngineConfig, ExecutionContext
from repro.dynamic import DynamicMaxTruss

from conftest import BenchReport

REPORT = BenchReport(
    "batch_maintenance",
    ["dataset", "mode", "ops", "total_ms", "total_io", "k_max_after"],
)

BURST = 12


def _class_deletions(graph, count, seed=5):
    """Sample deletions from the initial k_max-class (the expensive path)."""
    from repro.dynamic.workload import class_targeted_deletions

    return [(u, v) for _op, u, v in
            class_targeted_deletions(graph, count, seed=seed)]


@pytest.mark.parametrize("dataset", ["hollywood-s", "gsh-s"])
@pytest.mark.parametrize("mode", ["sequential", "batch"])
def test_batch_vs_sequential(benchmark, graphs, dataset, mode):
    graph = graphs(dataset)
    deletions = _class_deletions(graph, BURST)
    outcome = {}

    def run():
        state = DynamicMaxTruss(graph, context=ExecutionContext(EngineConfig()))
        device = state.context.device
        io_start = device.stats.snapshot()
        start = time.perf_counter()
        if mode == "sequential":
            for u, v in deletions:
                state.delete(u, v)
        else:
            state.apply_batch([("delete", u, v) for u, v in deletions])
        outcome["elapsed"] = time.perf_counter() - start
        outcome["io"] = device.stats.since(io_start).total_ios
        outcome["k_max"] = state.k_max
        outcome["pairs"] = state.truss_pairs()

    benchmark.pedantic(run, rounds=1, iterations=1)
    REPORT.add(dataset, mode, len(deletions),
               f"{outcome['elapsed'] * 1e3:.1f}", outcome["io"],
               outcome["k_max"])
    REPORT.write()


def test_modes_agree(benchmark, graphs):
    """Batch and sequential produce identical final states."""
    graph = graphs("hollywood-s")
    deletions = _class_deletions(graph, BURST)
    outcome = {}

    def run():
        sequential = DynamicMaxTruss(graph, context=EngineConfig())
        for u, v in deletions:
            sequential.delete(u, v)
        batched = DynamicMaxTruss(graph, context=EngineConfig())
        batched.apply_batch([("delete", u, v) for u, v in deletions])
        outcome["match"] = (
            sequential.k_max == batched.k_max
            and sequential.truss_pairs() == batched.truss_pairs()
        )

    benchmark.pedantic(run, rounds=1, iterations=1)
    assert outcome["match"]
