"""Exp-4 / Fig 7: k_max-truss maintenance vs the YLJ baselines.

The paper applies 1 000 random insertions (deletions) per dataset and
reports average per-operation time and I/O for Insertion/Deletion versus
YLJ-Insertion/YLJ-Deletion, on three medium and two large graphs.

At reproduction scale the same protocol runs with scaled-down operation
counts (YLJ re-decomposes per update by design, so it gets a shorter
stream; averages are still per-operation). Expected shape: Insertion and
Deletion beat their YLJ counterparts by >= one order of magnitude in both
time and I/O.

Table: benchmarks/results/fig7_maintenance.txt.
"""

import time

import pytest

from repro import EngineConfig
from repro.dynamic import DynamicMaxTruss, YLJMaintenance

from conftest import BenchReport

REPORT = BenchReport(
    "fig7_maintenance",
    ["dataset", "operation", "algorithm", "ops", "avg_ms", "avg_io"],
)

#: Three medium + two large, as in the paper's Fig 7.
DATASETS = ["youtube-s", "hollywood-s", "wikipedia-s", "twitter-s", "gsh-s"]

OUR_OPS = 60
YLJ_OPS = 8


def _random_updates(graph, count, op, seed=11):
    """The paper's Exp-4 workload, via the shared generators."""
    from repro.dynamic.workload import random_deletions, random_insertions

    generate = random_deletions if op == "delete" else random_insertions
    return [(u, v) for _op, u, v in generate(graph, count, seed=seed)]


def _drive(state, updates, op):
    """Apply updates, returning (avg_seconds, avg_io)."""
    total_io = 0
    start = time.perf_counter()
    for u, v in updates:
        result = state.insert(u, v) if op == "insert" else state.delete(u, v)
        total_io += result.io.total_ios
    elapsed = time.perf_counter() - start
    return elapsed / len(updates), total_io / len(updates)


_CASES = [
    (dataset, op, algo)
    for dataset in DATASETS
    for op in ("insert", "delete")
    for algo in ("ours", "ylj")
]


@pytest.mark.parametrize("dataset,op,algo", _CASES,
                         ids=[f"{d}-{o}-{a}" for d, o, a in _CASES])
def test_fig7(benchmark, graphs, dataset, op, algo):
    graph = graphs(dataset)
    count = OUR_OPS if algo == "ours" else YLJ_OPS
    updates = _random_updates(graph, count, op)
    outcome = {}

    def run():
        state = (
            DynamicMaxTruss(graph, context=EngineConfig())
            if algo == "ours"
            else YLJMaintenance(graph, context=EngineConfig())
        )
        outcome["value"] = _drive(state, updates, op)

    benchmark.pedantic(run, rounds=1, iterations=1)
    avg_seconds, avg_io = outcome["value"]
    name = {
        ("insert", "ours"): "Insertion",
        ("delete", "ours"): "Deletion",
        ("insert", "ylj"): "YLJ-Insertion",
        ("delete", "ylj"): "YLJ-Deletion",
    }[(op, algo)]
    REPORT.add(dataset, op, name, len(updates),
               f"{avg_seconds * 1e3:.3f}", f"{avg_io:.1f}")
    REPORT.write()


def test_fig7_shape(benchmark, graphs):
    """Ours beats YLJ on per-op time by a wide margin (Fig 7 a-b)."""
    graph = graphs("hollywood-s")
    inserts = _random_updates(graph, 10, "insert")
    outcome = {}

    def run():
        ours = DynamicMaxTruss(graph, context=EngineConfig())
        theirs = YLJMaintenance(graph, context=EngineConfig())
        ours_avg = _drive(ours, inserts, "insert")
        # fresh edge set for the baseline: rebuild from scratch
        theirs_avg = _drive(theirs, inserts[:4], "insert")
        outcome["value"] = (ours_avg, theirs_avg)

    benchmark.pedantic(run, rounds=1, iterations=1)
    (ours_seconds, _), (theirs_seconds, _) = outcome["value"]
    assert ours_seconds * 5 < theirs_seconds
