"""Tests for the semi-external DiskGraph."""

import numpy as np
import pytest

from repro.errors import DeviceError
from repro.graph.disk_graph import DiskGraph
from repro.graph.generators import complete_graph, gnm_random, paper_example_graph
from repro.storage import BlockDevice, MemoryMeter


@pytest.fixture
def setup():
    device = BlockDevice(block_size=64, cache_blocks=8)
    memory = MemoryMeter()
    graph = paper_example_graph()
    return DiskGraph(graph, device, memory), device, memory


class TestConstruction:
    def test_mirrors_topology(self, setup):
        dg, _, _ = setup
        assert (dg.n, dg.m) == (8, 15)

    def test_materialisation_charges_writes(self, setup):
        _, device, _ = setup
        device.flush()
        assert device.stats.write_ios > 0

    def test_node_file_charged_to_memory(self, setup):
        _, _, memory = setup
        assert memory.current_bytes > 0


class TestChargedAccess:
    def test_load_neighbors_matches_graph(self, setup):
        dg, _, _ = setup
        for v in range(dg.n):
            assert np.array_equal(dg.load_neighbors(v), dg.graph.neighbors(v))

    def test_load_neighbors_charges_reads(self, setup):
        dg, device, _ = setup
        device.drop_cache()
        device.stats.reset()
        dg.load_neighbors(4)
        assert device.stats.read_ios >= 1

    def test_load_neighbors_with_eids(self, setup):
        dg, _, _ = setup
        nbrs, eids = dg.load_neighbors_with_eids(1)
        assert np.array_equal(nbrs, dg.graph.neighbors(1))
        assert np.array_equal(eids, dg.graph.neighbor_eids(1))

    def test_load_endpoints(self, setup):
        dg, _, _ = setup
        for eid in range(dg.m):
            assert dg.load_endpoints(eid) == dg.edge_pair(eid)

    def test_load_endpoints_many(self, setup):
        dg, _, _ = setup
        got = dg.load_endpoints_many(np.array([0, 5, 14]))
        assert got.shape == (3, 2)
        assert np.array_equal(got, dg.graph.edges[[0, 5, 14]])

    def test_scan_edges_covers_all(self, setup):
        dg, _, _ = setup
        seen = []
        for start, block in dg.scan_edges(batch=4):
            seen.extend((int(u), int(v)) for u, v in block)
        assert seen == dg.graph.edge_pairs()

    def test_degree_is_free(self, setup):
        dg, device, _ = setup
        device.drop_cache()
        device.stats.reset()
        dg.degree(3)
        assert device.stats.total_ios == 0


class TestSubgraphs:
    def test_induced_subgraph(self, setup):
        dg, _, _ = setup
        sub, node_map, edge_map = dg.induced_subgraph([0, 1, 2, 3])
        assert sub.m == 6
        assert list(node_map) == [0, 1, 2, 3]

    def test_edge_subgraph(self, setup):
        dg, _, _ = setup
        sub, node_map, edge_map = dg.edge_subgraph([0, 1, 2])
        assert sub.m == 3
        assert list(edge_map) == [0, 1, 2]

    def test_edge_subgraph_rejects_out_of_range_ids(self, setup):
        dg, device, _ = setup
        before = device.stats.snapshot()
        for bad in ([0, -1], [0, dg.m]):
            with pytest.raises(DeviceError):
                dg.edge_subgraph(bad)
        assert device.stats.snapshot() == before

    def test_release_frees_disk(self):
        device = BlockDevice(block_size=64, cache_blocks=8)
        dg = DiskGraph(complete_graph(5), device, MemoryMeter())
        used = device.used_bytes
        dg.release()
        assert device.used_bytes < used


def _read_everything(dg):
    for v in range(dg.n):
        dg.load_neighbors_with_eids(v)
    dg.load_neighbors_batch(np.arange(dg.n)[::-1])
    dg.load_endpoints_many(np.arange(dg.m)[::3])
    for eid in range(0, dg.m, 5):
        dg.load_endpoints(eid)
        dg.read_adj_cell(eid)
    for _start, _block in dg.scan_edges(batch=7):
        pass


class TestAttach:
    def test_attach_charges_nothing(self):
        device = BlockDevice(block_size=64, cache_blocks=8)
        DiskGraph.attach(paper_example_graph(), device)
        device.flush()
        assert device.stats.total_ios == 0
        assert device.cached_block_count == 0

    def test_attach_copies_nothing(self):
        graph = paper_example_graph()
        view = DiskGraph.attach(graph, BlockDevice(block_size=64, cache_blocks=8))
        assert view.adj.peek() is graph.adj
        assert view.adj_eids.peek() is graph.adj_eids
        assert np.shares_memory(view.edge_endpoints.peek(), graph.edges)
        assert view.offsets is graph.offsets
        assert view.degrees is graph.degrees
        assert view.memory is None

    def test_attach_works_on_a_readonly_device(self):
        graph = paper_example_graph()
        device = BlockDevice(block_size=64, cache_blocks=8)
        device.readonly = True
        view = DiskGraph.attach(graph, device)
        np.testing.assert_array_equal(view.load_neighbors(4), graph.neighbors(4))
        assert device.stats.read_ios >= 1
        view.release()
        assert device.used_bytes == 0

    @pytest.mark.parametrize("policy", ["lru", "fifo", "clock"])
    def test_attached_reads_bill_like_materialised_reads(self, policy):
        graph = gnm_random(40, 160, seed=2)
        materialised = BlockDevice(block_size=64, cache_blocks=6, policy=policy)
        written = DiskGraph(graph, materialised, MemoryMeter())
        materialised.drop_cache()
        materialised.stats.reset()
        attached = BlockDevice(block_size=64, cache_blocks=6, policy=policy)
        _read_everything(written)
        _read_everything(DiskGraph.attach(graph, attached))
        assert attached.stats == materialised.stats
        assert attached.stats.read_ios > 0
