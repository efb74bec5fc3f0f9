"""Tests for the YLJ maintenance baselines."""

import pytest

from repro import EngineConfig, ExecutionContext
from repro.baselines import max_truss_edges
from repro.dynamic import DynamicMaxTruss, YLJMaintenance
from repro.graph.generators import (
    complete_graph,
    paper_example_graph,
    planted_kmax_truss,
)
from repro.observability import Tracer


class TestCorrectness:
    def test_initial_state(self):
        baseline = YLJMaintenance(paper_example_graph())
        assert baseline.k_max == 4
        assert baseline.truss_pairs() == paper_example_graph().edge_pairs()

    def test_insert_example(self):
        baseline = YLJMaintenance(paper_example_graph())
        result = baseline.insert(0, 4)
        assert result.k_max_after == 5
        assert baseline.k_max == 5

    def test_delete_example(self):
        baseline = YLJMaintenance(paper_example_graph())
        baseline.delete(1, 4)
        g = paper_example_graph().to_mutable()
        g.delete_edge(1, 4)
        frozen, _ = g.to_graph()
        expected_k, expected_edges = max_truss_edges(frozen)
        assert baseline.k_max == expected_k
        assert baseline.truss_pairs() == expected_edges

    def test_errors(self):
        from repro.errors import GraphFormatError

        baseline = YLJMaintenance(complete_graph(3))
        with pytest.raises(GraphFormatError):
            baseline.insert(0, 1)
        with pytest.raises(GraphFormatError):
            baseline.delete(0, 9)


class TestCostShape:
    def test_ylj_costs_more_io_than_ours(self):
        """The Fig 7 gap: YLJ's class-wide BFS + re-decomposition versus
        our local cascade, on the same untouched-gate update."""
        g = planted_kmax_truss(8, periphery_n=80, seed=0)
        ours = DynamicMaxTruss(g)
        theirs = YLJMaintenance(g)
        u, v = g.n - 1, g.n - 5
        if g.has_edge(u, v):
            v = g.n - 6
        # Cold caches so the per-op footprint is visible at test scale.
        ours.device.drop_cache()
        theirs.device.drop_cache()
        ours_result = ours.insert(u, v)
        theirs_result = theirs.insert(u, v)
        assert ours.k_max == theirs.k_max
        assert theirs_result.io.total_ios > ours_result.io.total_ios

    def test_ylj_mode_is_global(self):
        baseline = YLJMaintenance(complete_graph(4))
        assert baseline.insert(0, 4).mode == "global"


class TestBillWindow:
    @pytest.mark.parametrize("maintainer", [DynamicMaxTruss, YLJMaintenance])
    def test_updates_record_maintain_spans(self, maintainer):
        """Both maintainers bill an update under one ``maintain.<op>`` span
        whose I/O is the result's."""
        tracer = Tracer()
        context = ExecutionContext(
            EngineConfig(block_size=64, cache_blocks=32)
        ).attach_tracer(tracer)
        updater = maintainer(paper_example_graph(), context=context)
        results = [updater.insert(0, 4), updater.delete(1, 4)]
        context.close()
        spans = [
            r for r in tracer.records
            if r["type"] == "span" and r["name"].startswith("maintain.")
            and r["name"] != "maintain.init"
        ]
        assert [r["name"] for r in spans] == ["maintain.insert", "maintain.delete"]
        assert [r["attrs"]["u"] for r in spans] == [0, 1]
        for span, result in zip(spans, results):
            assert span["io"]["read_ios"] == result.io.read_ios
            assert span["io"]["write_ios"] == result.io.write_ios
