"""End-to-end integration scenarios spanning multiple subsystems."""

import numpy as np

from repro import EngineConfig, ExecutionContext, max_truss, semi_lazy_update
from repro.analysis import TrussHierarchy, split_max_truss
from repro.applications import truss_community
from repro.baselines import max_truss_edges
from repro.core.k_truss import k_truss_semi_external
from repro.dynamic import (
    DynamicMaxTruss,
    IngestPipeline,
    load_checkpoint,
    save_checkpoint,
)
from repro.graph.datasets import load_dataset
from repro.graph.formats import GRAPH_FORMATS, read_graph
from repro.graph.generators import planted_kmax_truss
from repro.graph.memgraph import Graph


class TestFileToAnswerPipelines:
    def test_text_binary_compressed_agree(self, tmp_path):
        """One graph through every format of the table yields one answer."""
        graph = load_dataset("cagrqc-s", seed=0)
        answers = set()
        for name, (_reader, writer) in GRAPH_FORMATS.items():
            path = tmp_path / f"g.{name}"
            writer(graph, path)
            answers.add(max_truss(read_graph(path)).k_max)
        assert len(answers) == 1

    def test_compute_then_navigate_hierarchy(self):
        """max_truss result is consistent with the full hierarchy view."""
        graph = planted_kmax_truss(7, periphery_n=60, seed=1)
        result = semi_lazy_update(graph)
        hierarchy = TrussHierarchy(graph)
        assert hierarchy.k_max == result.k_max
        assert hierarchy.k_truss_edges(result.k_max) == sorted(result.truss_edges)
        # Every class edge's community at k_max contains the edge.
        communities = hierarchy.max_truss_communities()
        assert split_max_truss(result.truss_edges) == communities

    def test_arbitrary_k_consistent_with_kmax(self):
        graph = load_dataset("emdnc-s", seed=0)
        result = max_truss(graph)
        at_kmax = k_truss_semi_external(graph, result.k_max)
        assert at_kmax.edges == sorted(result.truss_edges)
        assert not k_truss_semi_external(graph, result.k_max + 1).exists


class TestMaintenanceLifecycle:
    def test_maintain_checkpoint_resume_query(self, tmp_path):
        """Evolve, checkpoint, resume, evolve, query a community."""
        graph = planted_kmax_truss(6, periphery_n=40, seed=3)
        state = DynamicMaxTruss(graph)
        rng = np.random.default_rng(3)
        mutable = graph.to_mutable()
        for _ in range(15):
            u, v = int(rng.integers(0, graph.n)), int(rng.integers(0, graph.n))
            if u == v:
                continue
            if mutable.has_edge(u, v):
                mutable.delete_edge(u, v)
                state.delete(u, v)
            else:
                mutable.insert_edge(u, v)
                state.insert(u, v)
        path = tmp_path / "state.ckpt"
        save_checkpoint(state, path)
        resumed = load_checkpoint(path)
        for _ in range(15):
            u, v = int(rng.integers(0, graph.n)), int(rng.integers(0, graph.n))
            if u == v:
                continue
            if mutable.has_edge(u, v):
                mutable.delete_edge(u, v)
                resumed.delete(u, v)
            else:
                mutable.insert_edge(u, v)
                resumed.insert(u, v)
        frozen, _ = mutable.to_graph()
        expected_k, expected_edges = max_truss_edges(frozen)
        assert resumed.k_max == expected_k
        assert resumed.truss_pairs() == expected_edges
        # The maintained graph supports community queries directly.
        if expected_k >= 3 and expected_edges:
            anchor = expected_edges[0]
            community = truss_community(frozen, [anchor[0], anchor[1]])
            assert community is not None
            assert community.k >= expected_k

    def test_stream_on_dataset_edges(self):
        """Windowed stream over a real stand-in's edge sequence."""
        graph = load_dataset("diseasome-s", seed=0)
        state = DynamicMaxTruss(Graph.empty(0))
        with IngestPipeline(state, window=200, batch_size=8) as pipe:
            pipe.submit_many(graph.edge_pairs()[:400])
        assert state.k_max >= 2
        assert pipe.stats.arrivals - pipe.stats.expirations == 200
        # The reported truss satisfies the definition intrinsically.
        truss = Graph.from_edges(state.truss_pairs())
        if state.k_max >= 3:
            assert int(truss.edge_supports().min()) >= state.k_max - 2


class TestDeviceSharingAcrossPhases:
    def test_shared_device_accumulates_per_extent(self):
        """One device across compute + maintenance keeps a coherent bill."""
        graph = planted_kmax_truss(6, periphery_n=30, seed=0)
        context = ExecutionContext(EngineConfig())
        static_result = semi_lazy_update(graph, context=context)
        state = DynamicMaxTruss(graph, context=context)
        state.insert(graph.n - 1, graph.n - 2) if not graph.has_edge(
            graph.n - 1, graph.n - 2
        ) else state.delete(graph.n - 1, graph.n - 2)
        breakdown = context.device.io_by_extent()
        assert breakdown  # both phases attributed
        total = sum(reads + writes for reads, writes in breakdown.values())
        assert total >= static_result.io.total_ios
