"""Parallel kernels: bit-identical results, bit-identical charged bill.

The contract of ``repro.parallel`` (docs/io_model.md, "Parallel kernels
and the ledger merge") is that sharding the support scans over worker
processes is *invisible* to everything the paper measures:
trussness output, total ``IOStats`` and the per-extent breakdown must all
equal the serial run's exactly, for every worker count and backend,
because the parent replays the canonical serial access sequence through
its one buffer pool as the ledger merge. These tests pin that contract
with an explicit workers x backends x methods matrix, a hypothesis sweep
over random graphs, the deterministic-wave peel order, the per-scan
lifetime of the shared-memory images, and the worker-teardown idempotence
of ``ExecutionContext.close``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import max_truss
from repro.core.peeling import (
    PlainDiskHeap,
    make_lhdh_heap,
    make_plain_heap,
    peel_below,
)
from repro.engine import EngineConfig, ExecutionContext
from repro.graph.disk_graph import DiskGraph
from repro.graph.generators import gnm_random
from repro.observability import Tracer
from repro.parallel import (
    LedgerMismatch,
    WorkerLedger,
    shard_vertices,
    verify_merged_touches,
)
from repro.parallel.executor import ParallelExecutor, active_executor, executor_scope
from repro.semiexternal.support import compute_supports
from repro.storage import BlockDevice, MemoryMeter, count_block_touches

WORKER_COUNTS = (1, 2, 4)
BACKENDS = ("simulated", "inmemory", "file", "mmap")
METHODS = ("semi-binary", "semi-greedy-core")

#: Shared matrix workload: dense enough to peel several waves, small
#: enough that the full matrix (plus pool spawns) stays quick.
MATRIX_GRAPH = dict(n=100, m=900, seed=5)

#: Low threshold so the support scans (including every binary-search
#: probe's) actually shard in the tests.
THRESHOLD = 4


def _run(graph, method, backend, workers, data_dir=None, tracer=None):
    """One decomposition; returns (result, io_by_extent)."""
    config = EngineConfig(
        backend=backend,
        workers=workers,
        parallel_threshold=THRESHOLD,
        data_dir=data_dir,
    ).validate()
    context = ExecutionContext(config)
    if tracer is not None:
        context.attach_tracer(tracer)
    try:
        result = max_truss(graph, method=method, context=context)
        by_extent = (
            context.device.io_by_extent() if backend != "inmemory" else {}
        )
    finally:
        context.close()
    return result, by_extent


@pytest.fixture(scope="module")
def matrix_graph():
    return gnm_random(**MATRIX_GRAPH)


@pytest.fixture(scope="module")
def serial_baselines(matrix_graph, tmp_path_factory):
    """Serial (workers=0) result per backend x method, computed once."""
    data_dir = str(tmp_path_factory.mktemp("serial-spill"))
    baselines = {}
    for method in METHODS:
        for backend in BACKENDS:
            baselines[method, backend] = _run(
                matrix_graph, method, backend, 0,
                data_dir=data_dir if backend == "file" else None,
            )
    return baselines


class TestEquivalenceMatrix:
    """workers x backends x methods: output and bill equal serial exactly."""

    @pytest.mark.parametrize(
        "workers", WORKER_COUNTS, ids=lambda w: f"workers{w}"
    )
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("method", METHODS)
    def test_parallel_equals_serial(
        self, matrix_graph, serial_baselines, method, backend, workers, tmp_path
    ):
        serial, serial_extent = serial_baselines[method, backend]
        parallel, parallel_extent = _run(
            matrix_graph, method, backend, workers,
            data_dir=str(tmp_path) if backend == "file" else None,
        )
        assert parallel.k_max == serial.k_max
        assert sorted(parallel.truss_edges) == sorted(serial.truss_edges)
        # the paper's metrics: merged bill and model memory bit-identical
        assert parallel.io == serial.io
        assert parallel_extent == serial_extent
        assert parallel.peak_memory_bytes == serial.peak_memory_bytes


class TestSupportScanEquivalence:
    """The sharded scan: same values, same bill, audited under a tracer."""

    def _scan(self, graph, workers, tracer=None, policy="lru"):
        config = EngineConfig(
            backend="simulated",
            workers=workers,
            parallel_threshold=THRESHOLD,
            cache_policy=policy,
        )
        context = ExecutionContext(config)
        if tracer is not None:
            context.attach_tracer(tracer)
        try:
            device = context.device_for(graph.n)
            disk_graph = DiskGraph(graph, device, context.memory, name="G")
            with context.parallel_kernels():
                scan = compute_supports(disk_graph)
            values = scan.supports.to_numpy()
            stats = device.stats.snapshot()
            by_extent = device.io_by_extent()
        finally:
            context.close()
        return values, stats, by_extent

    @pytest.mark.parametrize("policy", ("lru", "fifo", "clock"))
    @pytest.mark.parametrize(
        "workers", WORKER_COUNTS, ids=lambda w: f"workers{w}"
    )
    def test_values_and_bill(self, matrix_graph, workers, policy):
        """The replay goes through the public touch entry points, so the
        bill is worker-count-invariant under every replacement policy."""
        serial_values, serial_stats, serial_extent = self._scan(
            matrix_graph, 0, policy=policy
        )
        values, stats, by_extent = self._scan(
            matrix_graph, workers, policy=policy
        )
        np.testing.assert_array_equal(values, serial_values)
        assert stats == serial_stats
        assert by_extent == serial_extent

    def test_traced_run_passes_touch_audit_and_emits_worker_spans(
        self, matrix_graph
    ):
        """A tracer enables touch counting, which arms the ledger-merge
        cross-check (claimed vs replayed block touches) — the run only
        succeeds if every worker claim matched the replay exactly."""
        serial_values, serial_stats, _ = self._scan(matrix_graph, 0)
        tracer = Tracer()
        values, stats, _ = self._scan(matrix_graph, 2, tracer=tracer)
        np.testing.assert_array_equal(values, serial_values)
        assert stats == serial_stats
        names = [
            record.get("name")
            for record in tracer.records
            if isinstance(record, dict)
        ]
        assert "parallel.round" in names
        worker_spans = [
            record
            for record in tracer.records
            if isinstance(record, dict) and record.get("name") == "parallel.worker"
        ]
        assert len(worker_spans) >= 2  # one per shard

    def test_threshold_gates_dispatch_without_changing_the_bill(self):
        graph = gnm_random(40, 120, seed=9)
        serial_values, serial_stats, _ = self._scan(graph, 0)
        config = EngineConfig(
            backend="simulated", workers=2, parallel_threshold=10**9
        )
        with ExecutionContext(config) as context:
            device = context.device_for(graph.n)
            disk_graph = DiskGraph(graph, device, context.memory, name="G")
            with context.parallel_kernels() as executor:
                assert executor is not None
                assert not executor.wants_scan(graph.n, graph.m)
                scan = compute_supports(disk_graph)  # stays serial
            np.testing.assert_array_equal(
                scan.supports.to_numpy(), serial_values
            )
            assert device.stats == serial_stats


@settings(max_examples=6, deadline=None)
@given(
    n=st.integers(min_value=8, max_value=60),
    density=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_property_random_graphs_parallel_equals_serial(n, density, seed):
    """Hypothesis: any random graph decomposes identically under workers."""
    m = min(n * density, n * (n - 1) // 2)
    graph = gnm_random(n, m, seed=seed)
    serial, serial_extent = _run(graph, "semi-binary", "simulated", 0)
    parallel, parallel_extent = _run(graph, "semi-binary", "simulated", 2)
    assert parallel.k_max == serial.k_max
    assert sorted(parallel.truss_edges) == sorted(serial.truss_edges)
    assert parallel.io == serial.io
    assert parallel_extent == serial_extent


# --------------------------------------------------------------------- #
# deterministic peel order (waves fix it to support class, then edge id)
# --------------------------------------------------------------------- #


def _peel_order(graph, heap_factory, permute_seed=None):
    """The exact removal sequence peel_below produces for *graph*."""
    device = BlockDevice.for_semi_external(graph.n)
    memory = MemoryMeter()
    disk_graph = DiskGraph(graph, device, memory, name="G")
    scan = compute_supports(disk_graph)
    supports = scan.supports.to_numpy()
    order = np.arange(graph.m)
    if permute_seed is not None:
        order = np.random.default_rng(permute_seed).permutation(graph.m)
    heap = heap_factory(
        device, order.tolist(), supports[order].tolist(), memory=memory
    )
    removed = []
    original_pop = heap.pop_edge

    def recording_pop(eid):
        removed.append(eid)
        return original_pop(eid)

    heap.pop_edge = recording_pop
    peel_below(heap, disk_graph, support_threshold=supports.max() + 1)
    return removed


class TestDeterministicPeelOrder:
    """Waves fix the peel order to (support class, edge id) — nothing else."""

    def test_insertion_order_is_irrelevant(self):
        graph = gnm_random(60, 400, seed=13)
        baseline = _peel_order(graph, make_plain_heap)
        for permute_seed in (1, 2):
            assert (
                _peel_order(graph, make_plain_heap, permute_seed) == baseline
            )

    def test_plain_heap_and_lhdh_agree(self):
        """Two different heap structures, one canonical removal sequence."""
        graph = gnm_random(60, 400, seed=13)
        assert _peel_order(graph, make_lhdh_heap) == _peel_order(
            graph, make_plain_heap
        )

    def test_waves_are_ascending_edge_id_within_a_class(self):
        device = BlockDevice.for_semi_external(8)
        heap = PlainDiskHeap(device, [5, 1, 9, 3], [2, 2, 2, 7])
        key, wave = heap.collect_min_class()
        assert key == 2
        assert wave == [1, 5, 9]


# --------------------------------------------------------------------- #
# sharding / ledger units
# --------------------------------------------------------------------- #


class TestShardVertices:
    def test_partitions_are_contiguous_and_complete(self):
        offsets = np.cumsum([0] + [3] * 100, dtype=np.int64)
        shards = shard_vertices(offsets, workers=4, block_size=256)
        assert shards[0][0] == 0 and shards[-1][1] == 100
        for (_, hi), (lo, _) in zip(shards, shards[1:]):
            assert hi == lo
        assert all(lo < hi for lo, hi in shards)

    def test_serial_and_tiny_graphs_get_one_shard(self):
        offsets = np.array([0, 2, 4], dtype=np.int64)
        assert shard_vertices(offsets, workers=1, block_size=256) == [(0, 2)]
        assert shard_vertices(
            np.array([0, 1], dtype=np.int64), workers=8, block_size=256
        ) == [(0, 1)]

    def test_more_workers_than_vertices(self):
        offsets = np.cumsum([0] + [1] * 3, dtype=np.int64)
        shards = shard_vertices(offsets, workers=8, block_size=64)
        assert shards[0][0] == 0 and shards[-1][1] == 3
        assert all(lo < hi for lo, hi in shards)


class TestCountBlockTouches:
    def test_matches_device_tally(self):
        rng = np.random.default_rng(3)
        device = BlockDevice(block_size=64, cache_blocks=8)
        extent = device.allocate("x", 4096)
        device.enable_touch_counting()
        offsets = rng.integers(0, 4000, size=50)
        lengths = rng.integers(1, 96, size=50)
        lengths = np.minimum(lengths, 4096 - offsets)
        for offset, length in zip(offsets.tolist(), lengths.tolist()):
            device.touch_read(extent, offset, length)
        assert (
            count_block_touches(offsets, lengths, 64)
            == device.touch_counts_by_extent()["x"]
        )

    def test_zero_length_and_empty(self):
        assert count_block_touches(np.array([0, 64]), np.array([0, 0]), 64) == 0
        assert count_block_touches(np.array([], dtype=np.int64), 8, 64) == 0
        # scalar broadcast
        assert count_block_touches(np.array([0, 64, 128]), 8, 64) == 3


class TestLedgerAudit:
    def test_mismatch_raises(self):
        ledgers = [
            WorkerLedger(worker_id=0, shard=(0, 5), touch_claims={"adj": 10})
        ]
        with pytest.raises(LedgerMismatch, match="claimed 10"):
            verify_merged_touches(
                ledgers,
                touches_before={"G.adj": 0},
                touches_after={"G.adj": 9},
                extent_names={"adj": "G.adj"},
            )

    def test_exact_claims_pass(self):
        ledgers = [
            WorkerLedger(worker_id=0, shard=(0, 5), touch_claims={"adj": 4}),
            WorkerLedger(worker_id=1, shard=(5, 9), touch_claims={"adj": 6}),
        ]
        verify_merged_touches(
            ledgers,
            touches_before={"G.adj": 100},
            touches_after={"G.adj": 110},
            extent_names={"adj": "G.adj"},
        )


# --------------------------------------------------------------------- #
# lifecycle: idempotent teardown, ambient scoping, config validation
# --------------------------------------------------------------------- #


class TestLifecycle:
    def test_context_close_is_idempotent(self):
        graph = gnm_random(30, 90, seed=1)
        config = EngineConfig(
            backend="simulated", workers=2, parallel_threshold=THRESHOLD
        )
        context = ExecutionContext(config)
        max_truss(graph, method="semi-binary", context=context)
        context.close()
        context.close()  # the pool-worker ``finally`` double-close path
        context.close()
        assert context.parallel_executor() is None

    def test_close_before_any_device_or_executor(self):
        context = ExecutionContext(EngineConfig(workers=4))
        context.close()
        context.close()

    def test_each_sharded_scan_publishes_one_image_and_destroys_it(
        self, monkeypatch
    ):
        """A published image lives for exactly one sharded scan: once the
        run returns, every image the executor published is destroyed."""
        from repro.parallel import executor as executor_module
        from repro.parallel import scan as scan_module

        images, scans = [], []
        publish = executor_module.publish_graph
        sharded_scan = scan_module.parallel_compute_supports

        def recording_publish(*args, **kwargs):
            images.append(publish(*args, **kwargs))
            return images[-1]

        def recording_scan(*args, **kwargs):
            scans.append(args[0].m)
            return sharded_scan(*args, **kwargs)

        monkeypatch.setattr(executor_module, "publish_graph", recording_publish)
        monkeypatch.setattr(scan_module, "parallel_compute_supports", recording_scan)
        config = EngineConfig(workers=2, parallel_threshold=1)
        with ExecutionContext(config) as context:
            max_truss(gnm_random(60, 900, seed=1), method="semi-binary",
                      context=context)
            assert len(scans) > 1
            assert len(images) == len(scans)
            assert all(image.nbytes == 0 for image in images)

    def test_executor_shutdown_is_idempotent(self):
        executor = ParallelExecutor(workers=2, parallel_threshold=1)
        executor.shutdown()
        executor.shutdown()
        assert not executor.wants_scan(10, 10**9)

    def test_serial_config_has_no_executor(self):
        context = ExecutionContext(EngineConfig(workers=0))
        assert context.parallel_executor() is None
        with context.parallel_kernels() as executor:
            assert executor is None
            assert active_executor() is None
        context.close()

    def test_executor_scope_nests_and_unwinds(self):
        executor = ParallelExecutor(workers=2, parallel_threshold=1)
        try:
            assert active_executor() is None
            with executor_scope(executor):
                assert active_executor() is executor
                with executor_scope(None):
                    assert active_executor() is executor
            assert active_executor() is None
        finally:
            executor.shutdown()

    def test_config_validation(self):
        from repro.errors import DeviceError

        with pytest.raises(DeviceError, match="workers"):
            EngineConfig(workers=-1).validate()
        with pytest.raises(DeviceError, match="parallel_threshold"):
            EngineConfig(parallel_threshold=-1).validate()
        assert EngineConfig(workers=4).validate().describe()["workers"] == 4
        assert "workers=4" in EngineConfig(workers=4).summary()


class TestCLI:
    def test_compute_with_workers_matches_serial(self, tmp_path, capsys):
        from repro.cli import main
        from repro.graph.edgelist import write_text_edgelist
        from repro.graph.generators import paper_example_graph

        path = tmp_path / "example.txt"
        write_text_edgelist(paper_example_graph(), path)
        assert main(["compute", str(path), "--workers", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert "k_max: 4" in parallel_out
        assert main(["compute", str(path)]) == 0
        serial_out = capsys.readouterr().out

        def stripped(text):
            return [
                line for line in text.splitlines()
                if not line.startswith(("elapsed", "engine"))
            ]

        # identical report modulo wall-clock and the config echo
        assert stripped(parallel_out) == stripped(serial_out)

    def test_workers_rejects_negative(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["compute", "cagrqc-s", "--workers", "-2"]) == 1
        assert "workers" in capsys.readouterr().err
