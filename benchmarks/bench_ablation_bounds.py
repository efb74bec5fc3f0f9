"""Ablation: how much the Lemma 1 bound and the greedy lower bound buy.

DESIGN.md §4: two of the paper's claims are about *bounds*, not structures —
(1) the tighter Lemma 1 lower bound shrinks the binary-search interval
versus the prior Nash–Williams-style bound; (2) the greedy local ``k'_max``
(Lemma 5) starts the final phase almost at the answer. This bench isolates
both on one dense-core stand-in by driving the search engine directly.

Table: benchmarks/results/ablation_bounds.txt.
"""

import pytest

from repro.core import bounds
from repro.core.peeling import PlainDiskHeap
from repro.core.semi_binary import (
    binary_search_kmax,
    build_sorted_edge_file,
    verified_kmax,
)
from repro.graph.disk_graph import DiskGraph
from repro.semiexternal.support import compute_supports
from repro.storage import DEFAULT_BLOCK_SIZE, BlockDevice, MemoryMeter, semi_external_cache_blocks

from conftest import BenchReport

REPORT = BenchReport(
    "ablation_bounds",
    ["variant", "lb", "ub", "probes", "io_total", "k_max"],
)


def _search_with_bounds(graph, lower_bound_name):
    device = BlockDevice(
        cache_blocks=semi_external_cache_blocks(graph.n, DEFAULT_BLOCK_SIZE)
    )
    memory = MemoryMeter()
    disk_graph = DiskGraph(graph, device, memory, name="G")
    scan = compute_supports(disk_graph)
    if lower_bound_name == "nash-williams":
        lb = bounds.nash_williams_lower_bound(scan.triangle_count, graph.m)
    elif lower_bound_name == "lemma1":
        lb = bounds.lemma1_lower_bound(
            scan.triangle_count, graph.m, scan.zero_support_edges
        )
    else:
        lb = 3  # no lower bound at all
    ub = bounds.support_upper_bound(scan.max_support)
    lb, ub = bounds.clamp_bounds(lb, ub)
    edge_file = build_sorted_edge_file(scan)
    device.stats.reset()
    outcome = binary_search_kmax(
        disk_graph, edge_file, lb, ub, PlainDiskHeap, memory
    )
    k_max, outcome = verified_kmax(
        disk_graph, edge_file, outcome, lb, ub, PlainDiskHeap, memory
    )
    return lb, ub, outcome.probes, device.stats.total_ios, k_max


VARIANTS = ["none", "nash-williams", "lemma1"]


@pytest.mark.parametrize("variant", VARIANTS)
def test_lower_bound_ablation(benchmark, graphs, variant):
    graph = graphs("arabic-s")
    outcome = {}

    def run():
        outcome["value"] = _search_with_bounds(graph, variant)

    benchmark.pedantic(run, rounds=1, iterations=1)
    lb, ub, probes, io_total, k_max = outcome["value"]
    REPORT.add(f"semi-binary lb={variant}", lb, ub, probes, io_total, k_max)
    REPORT.write()


def test_lemma1_tightens_interval(benchmark, graphs):
    """Lemma 1 starts strictly above the Nash-Williams seed here, and the
    greedy k'_max (Lemma 5) lands within a few units of the answer."""
    graph = graphs("arabic-s")
    outcome = {}

    def run():
        outcome["nw"] = _search_with_bounds(graph, "nash-williams")
        outcome["l1"] = _search_with_bounds(graph, "lemma1")
        from conftest import run_method

        outcome["greedy"] = run_method(graph, "semi-greedy-core")

    benchmark.pedantic(run, rounds=1, iterations=1)
    nw_lb = outcome["nw"][0]
    l1_lb = outcome["l1"][0]
    assert l1_lb >= nw_lb
    assert outcome["nw"][4] == outcome["l1"][4]  # same answer either way
    greedy_result = outcome["greedy"][0]
    gap = greedy_result.k_max - greedy_result.extras["local_kmax"]
    REPORT.add("greedy k'_max gap (Lemma 5)",
               greedy_result.extras["local_kmax"], "-", "-", "-",
               greedy_result.k_max)
    REPORT.write()
    assert gap <= 4  # the paper's Table II observation
