"""Ablation: the LHDH structure (dynamic-heap capacity and write-back).

Not a paper figure — DESIGN.md §4 calls out two design choices worth
isolating:

* **capacity** — the dynamic heap bounds resident memory; smaller values
  force spills (Alg 4 lines 14-17). Sweep: I/O vs peak memory.
* **write-back** — the paper's literal lines 18-20 write dynamic-heap
  minima back to disk before deletion; our default pops them from memory.
  The ablation quantifies what the literal rule costs.
* **plain vs LHDH** — the headline A_disk comparison on a peel-heavy
  workload.

Table: benchmarks/results/ablation_lhdh.txt.
"""

from functools import partial

import pytest

from repro import EngineConfig, semi_lazy_update
from repro.core.peeling import PlainDiskHeap, peel_below
from repro.graph.disk_graph import DiskGraph
from repro.graph.generators import gnp_random
from repro.semiexternal.support import compute_supports
from repro.storage import BlockDevice, MemoryMeter
from repro.structures import LHDH

from conftest import BenchReport

REPORT = BenchReport(
    "ablation_lhdh",
    ["variant", "io_total", "peak_mem_B", "k_max"],
)

CAPACITIES = [1, 8, 128, 2048, None]  # None -> n (the paper's setting)


@pytest.mark.parametrize("capacity", CAPACITIES,
                         ids=[str(c) for c in CAPACITIES])
def test_capacity_sweep(benchmark, graphs, capacity):
    graph = graphs("gsh-s")
    outcome = {}

    def run():
        outcome["result"] = semi_lazy_update(graph, context=EngineConfig(),
                                             capacity=capacity)

    benchmark.pedantic(run, rounds=1, iterations=1)
    result = outcome["result"]
    label = f"capacity={capacity if capacity is not None else graph.n}"
    REPORT.add(label, result.io.total_ios, result.peak_memory_bytes,
               result.k_max)
    REPORT.write()


def _peel_variant(graph, factory):
    device = BlockDevice(block_size=4096, cache_blocks=16)
    disk_graph = DiskGraph(graph, device, MemoryMeter())
    scan = compute_supports(disk_graph)
    heap = factory(device, range(graph.m), scan.supports.to_numpy())
    device.stats.reset()
    peel_below(heap, disk_graph, 10_000)
    return device.stats.total_ios


def test_writeback_cost(benchmark):
    """Paper-literal write-back vs lazy pops on a full peel."""
    graph = gnp_random(300, 0.25, seed=1)
    outcome = {}

    # A capacity of m never spills: the comparison isolates the write-back.
    lazy = partial(LHDH, capacity=graph.m)

    def run():
        outcome["plain"] = _peel_variant(graph, PlainDiskHeap)
        outcome["lazy"] = _peel_variant(graph, lazy)
        outcome["writeback"] = _peel_variant(graph, partial(lazy, writeback=True))

    benchmark.pedantic(run, rounds=1, iterations=1)
    REPORT.add("peel plain A_disk", outcome["plain"], "-", "-")
    REPORT.add("peel LHDH (lazy pops)", outcome["lazy"], "-", "-")
    REPORT.add("peel LHDH (paper write-back)", outcome["writeback"], "-", "-")
    REPORT.write()
    assert outcome["lazy"] < outcome["plain"]
    assert outcome["lazy"] <= outcome["writeback"]
