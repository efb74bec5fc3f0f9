"""End-to-end integration scenarios spanning multiple subsystems."""

import numpy as np

from repro import EngineConfig, ExecutionContext, max_truss, semi_lazy_update
from repro.analysis import TrussHierarchy, split_max_truss
from repro.applications import truss_community
from repro.baselines import max_truss_edges
from repro.core.k_truss import k_truss_semi_external
from repro.dynamic import (
    DynamicMaxTruss,
    SlidingWindowTruss,
    load_checkpoint,
    save_checkpoint,
)
from repro.graph.datasets import load_dataset
from repro.graph.edgelist import read_edgelist, write_binary, write_text_edgelist
from repro.graph.formats import read_compressed, write_compressed
from repro.graph.generators import planted_kmax_truss


class TestFileToAnswerPipelines:
    def test_text_binary_compressed_agree(self, tmp_path):
        """One graph through all three formats yields one answer."""
        graph = load_dataset("cagrqc-s", seed=0)
        text_path = tmp_path / "g.txt"
        binary_path = tmp_path / "g.bin"
        compressed_path = tmp_path / "g.srtz"
        write_text_edgelist(graph, text_path)
        write_binary(graph, binary_path)
        write_compressed(graph, compressed_path)
        answers = {
            max_truss(read_edgelist(text_path)).k_max,
            max_truss(read_edgelist(binary_path)).k_max,
            max_truss(read_compressed(compressed_path)).k_max,
        }
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
        stream = SlidingWindowTruss(window=200, batch_size=8)
        stream.push_many(graph.edge_pairs()[:400])
        assert stream.k_max >= 2
        assert stream.live_edge_count() == 200
        # The reported truss satisfies the definition intrinsically.
        from repro.graph.memgraph import Graph

        truss = Graph.from_edges(stream.truss_pairs())
        if stream.k_max >= 3:
            assert int(truss.edge_supports().min()) >= stream.k_max - 2


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
