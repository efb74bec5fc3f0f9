"""Unit tests for the binary-search engine internals (core/semi_binary.py)."""

import numpy as np
import pytest

from repro.core.peeling import PlainDiskHeap
from repro.core.result import MaintenanceResult, MaxTrussResult
from repro.core.semi_binary import (
    SearchOutcome,
    binary_search_kmax,
    build_sorted_edge_file,
    materialise_truss,
    probe_truss_exists,
    verified_kmax,
)
from repro.graph.disk_graph import DiskGraph
from repro.graph.generators import planted_kmax_truss
from repro.semiexternal.support import compute_supports
from repro.storage import BlockDevice, IOStats, MemoryMeter


@pytest.fixture
def machinery():
    graph = planted_kmax_truss(6, periphery_n=30, seed=0)
    device = BlockDevice(block_size=512, cache_blocks=32)
    memory = MemoryMeter()
    disk_graph = DiskGraph(graph, device, memory)
    scan = compute_supports(disk_graph)
    edge_file = build_sorted_edge_file(scan)
    return graph, disk_graph, edge_file, memory


class TestSortedEdgeFile:
    def test_selection_is_support_filtered(self, machinery):
        graph, _dg, edge_file, _mem = machinery
        supports = graph.edge_supports()
        for threshold in (0, 1, 2, 4):
            selected = edge_file.select_at_least(threshold)
            expected = set(np.nonzero(supports >= threshold)[0])
            assert set(int(x) for x in selected) == expected

    def test_selection_above_max_is_empty(self, machinery):
        _g, _dg, edge_file, _mem = machinery
        assert len(edge_file.select_at_least(edge_file.max_support + 1)) == 0

    def test_selection_order_is_nondecreasing_support(self, machinery):
        graph, _dg, edge_file, _mem = machinery
        supports = graph.edge_supports()
        selected = edge_file.select_at_least(0)
        values = [supports[int(e)] for e in selected]
        assert values == sorted(values)


class TestProbes:
    def test_probe_exists_matches_truth(self, machinery):
        _g, disk_graph, edge_file, memory = machinery
        for k, expected in ((3, True), (6, True), (7, False)):
            assert probe_truss_exists(
                disk_graph, edge_file, k, PlainDiskHeap, memory
            ) is expected

    def test_materialise_truss_levels(self, machinery):
        _g, disk_graph, edge_file, memory = machinery
        top = materialise_truss(disk_graph, edge_file, 6, PlainDiskHeap, memory)
        assert len(top) == 15  # the planted K6
        nothing = materialise_truss(disk_graph, edge_file, 7, PlainDiskHeap, memory)
        assert nothing == []


class TestBinarySearch:
    def test_exact_interval(self, machinery):
        _g, disk_graph, edge_file, memory = machinery
        outcome = binary_search_kmax(
            disk_graph, edge_file, 3, edge_file.max_support + 2,
            PlainDiskHeap, memory,
        )
        assert outcome.k_max == 6
        assert outcome.probes >= 1

    def test_interval_entirely_above_answer(self, machinery):
        """All probes fail: k_max stays None, failed_min recorded."""
        _g, disk_graph, edge_file, memory = machinery
        outcome = binary_search_kmax(
            disk_graph, edge_file, 8, 12, PlainDiskHeap, memory
        )
        assert outcome.k_max is None
        assert outcome.failed_min is not None and outcome.failed_min <= 12

    def test_interval_entirely_below_answer(self, machinery):
        """Search capped below the truth certifies a value in range.

        (The dynamic Lemma-1 re-tightening may push lb past the capped ub
        after the first success, so the engine guarantees a *certified*
        value, not necessarily the range maximum — the upward sweep of
        verified_kmax is what closes that gap in the full pipeline.)
        """
        _g, disk_graph, edge_file, memory = machinery
        outcome = binary_search_kmax(
            disk_graph, edge_file, 3, 4, PlainDiskHeap, memory
        )
        assert outcome.k_max in (3, 4)


class TestVerifiedKmax:
    def test_net1_downward_restart(self, machinery):
        """A lb overshoot is recovered by the downward restart."""
        _g, disk_graph, edge_file, memory = machinery
        overshoot_lb = 8  # true k_max is 6
        outcome = binary_search_kmax(
            disk_graph, edge_file, overshoot_lb, 12, PlainDiskHeap, memory
        )
        assert outcome.k_max is None
        k_max, outcome = verified_kmax(
            disk_graph, edge_file, outcome, overshoot_lb, 12,
            PlainDiskHeap, memory,
        )
        assert k_max == 6

    def test_net2_upward_sweep(self, machinery):
        """An under-reporting outcome is corrected by the upward sweep."""
        _g, disk_graph, edge_file, memory = machinery
        fake = SearchOutcome(k_max=4, failed_min=None, probes=0)
        k_max, _ = verified_kmax(
            disk_graph, edge_file, fake, 3, 12, PlainDiskHeap, memory
        )
        assert k_max == 6

    def test_sweep_respects_known_failures(self, machinery):
        """No extra probes when the next level is already known to fail."""
        _g, disk_graph, edge_file, memory = machinery
        outcome = SearchOutcome(k_max=6, failed_min=7, probes=3)
        k_max, verified = verified_kmax(
            disk_graph, edge_file, outcome, 3, 12, PlainDiskHeap, memory
        )
        assert k_max == 6
        assert verified.probes == 3  # nothing re-probed


class TestResultObjects:
    def test_max_truss_result_helpers(self):
        result = MaxTrussResult("X", 3, [(0, 1), (1, 2), (0, 2)], IOStats(), 10, 0.1)
        assert result.truss_edge_count == 3
        assert result.truss_vertices() == [0, 1, 2]
        assert "X" in result.summary()

    def test_maintenance_result_changed(self):
        same = MaintenanceResult("insert", (0, 1), 4, 4, "local")
        diff = MaintenanceResult("delete", (0, 1), 4, 3, "global")
        assert not same.changed
        assert diff.changed
