"""Engine layer round-trip suite (ISSUE PR-2 acceptance).

Three families of guarantees:

* **Answer round-trip** — every backend in the table runs all six
  ``max_truss`` methods and insert/delete maintenance and agrees on
  ``k_max`` and the truss edge set.
* **Bit-identity** — the ``simulated`` backend driven through an
  :class:`ExecutionContext` charges exactly the ``IOStats`` and per-extent
  breakdown of a caller-built device.
* **Engine mechanics** — unknown-backend errors, context resolution,
  work budgets minted from the config, phase aggregation across a shared
  context, and the engine events an attached tracer records.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
import subprocess
import sys

import pytest

import repro

from repro import EngineConfig, ExecutionContext, list_backends, max_truss
from repro.core.api import available_methods
from repro.dynamic import DynamicMaxTruss
from repro.engine import make_device, resolve_context
from repro.errors import DeviceError, WorkLimitExceeded
from repro.graph.disk_graph import DiskGraph
from repro.graph.generators import barabasi_albert, gnm_random, paper_example_graph
from repro.observability import Tracer, summarize_trace
from repro.observability.metrics import global_metrics, pop_metrics, push_metrics
from repro.semiexternal.support import compute_supports
from repro.storage import (
    BlockDevice,
    InMemoryBlockDevice,
    MemoryMeter,
    ReferenceBlockDevice,
)
from repro.structures.linear_heap import LinearHeap

BACKENDS = ("simulated", "reference", "inmemory")
POLICIES = ("lru", "fifo", "clock")
SEMI_METHODS = ("semi-binary", "semi-greedy-core", "semi-lazy-update")


@pytest.fixture(scope="module")
def example():
    return paper_example_graph()


@pytest.fixture(scope="module")
def truth(example):
    return max_truss(example, method="in-memory")


# --------------------------------------------------------------------- #
# answer round-trip: every backend x every method + maintenance
# --------------------------------------------------------------------- #


class TestBackendRoundTrip:
    def test_registry_lists_the_builtins(self):
        assert set(BACKENDS) <= set(list_backends())

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("method", sorted(available_methods()))
    def test_every_method_on_every_backend(self, example, truth, backend, method):
        context = ExecutionContext(EngineConfig(backend=backend))
        result = max_truss(example, method=method, context=context)
        assert result.k_max == truth.k_max
        assert sorted(result.truss_edges) == sorted(truth.truss_edges)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_maintenance_on_every_backend(self, example, backend):
        reference = DynamicMaxTruss(example)
        state = DynamicMaxTruss(
            example, context=ExecutionContext(EngineConfig(backend=backend))
        )
        u, v = example.edge_pairs()[0]
        present = set(map(tuple, example.edge_pairs()))
        extra = next(
            (a, b)
            for a in range(example.n)
            for b in range(a + 1, example.n)
            if (a, b) not in present
        )
        for target in (reference, state):
            target.insert(*extra)
            target.delete(u, v)
        assert state.k_max == reference.k_max
        assert state.truss_pairs() == reference.truss_pairs()

    def test_inmemory_backend_charges_nothing(self, example):
        context = ExecutionContext(EngineConfig(backend="inmemory"))
        result = max_truss(example, method="semi-lazy-update", context=context)
        assert result.k_max > 0
        assert context.stats.read_ios == 0
        assert context.stats.write_ios == 0
        assert result.io.total_ios == 0

    def test_reference_backend_matches_simulated_counts(self):
        graph = gnm_random(60, 700, seed=5)
        bills = {}
        for backend in ("simulated", "reference"):
            context = ExecutionContext(
                EngineConfig(backend=backend, block_size=64, cache_blocks=16)
            )
            result = max_truss(graph, method="semi-binary", context=context)
            bills[backend] = (result.io.read_ios, result.io.write_ios)
        assert bills["simulated"] == bills["reference"]

    @pytest.mark.parametrize(
        "backend, device_class",
        [("inmemory", InMemoryBlockDevice), ("reference", ReferenceBlockDevice)],
        ids=["inmemory", "reference"],
    )
    def test_backend_builds_its_device_class(self, backend, device_class):
        device = ExecutionContext(EngineConfig(backend=backend)).device_for(50)
        assert isinstance(device, device_class)


# --------------------------------------------------------------------- #
# bit-identity vs a caller-built device (seeded graphs)
# --------------------------------------------------------------------- #


class TestSimulatedBitIdentity:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_support_scan_io_identical_to_device_path(self, policy):
        graph = gnm_random(60, 700, seed=5)
        device = BlockDevice(block_size=64, cache_blocks=16, policy=policy)
        legacy = compute_supports(DiskGraph(graph, device, MemoryMeter()))
        context = ExecutionContext(EngineConfig(
            block_size=64, cache_blocks=16, cache_policy=policy
        ))
        engine = compute_supports(
            DiskGraph(graph, context.device_for(graph.n), context.memory)
        )
        assert engine.triangle_count == legacy.triangle_count
        assert context.stats.read_ios == device.stats.read_ios
        assert context.stats.write_ios == device.stats.write_ios
        assert context.device.io_by_extent() == device.io_by_extent()


# --------------------------------------------------------------------- #
# backend table
# --------------------------------------------------------------------- #


class TestRegistry:
    def test_unknown_backend_rejected(self):
        with pytest.raises(DeviceError, match="unknown storage backend"):
            make_device(EngineConfig(backend="holographic"), 10)

    def test_context_rejects_unknown_backend_before_any_device(self):
        with pytest.raises(DeviceError, match="unknown storage backend"):
            ExecutionContext(EngineConfig(backend="nope"))


# --------------------------------------------------------------------- #
# context resolution and budgets
# --------------------------------------------------------------------- #


class TestContextMechanics:
    def test_in_memory_method_accepts_context(self, example, truth):
        context = ExecutionContext(EngineConfig(backend="inmemory"))
        result = max_truss(example, method="in-memory", context=context)
        assert result.k_max == truth.k_max

    def test_bare_config_accepted_as_context(self, example, truth):
        result = max_truss(
            example, method="semi-binary", context=EngineConfig(block_size=256)
        )
        assert result.k_max == truth.k_max

    def test_resolve_rejects_foreign_objects(self):
        with pytest.raises(DeviceError, match="ExecutionContext or EngineConfig"):
            resolve_context(context="simulated")

    def test_work_limit_minted_from_config(self, example):
        config = EngineConfig(work_limit=3)
        busy = gnm_random(60, 700, seed=5)
        with pytest.raises(WorkLimitExceeded):
            max_truss(busy, method="semi-binary", context=ExecutionContext(config))
        # maintenance adopts it as the local-tier budget
        state = DynamicMaxTruss(example, context=ExecutionContext(config))
        assert state.local_budget == 3

    def test_shared_context_aggregates_phases(self, example):
        context = ExecutionContext(EngineConfig(block_size=64))
        max_truss(example, method="semi-binary", context=context)
        after_first = context.stats.total_ios
        max_truss(example, method="semi-greedy-core", context=context)
        assert context.stats.total_ios > after_first

    @pytest.mark.parametrize("method", ["semi-binary", "semi-lazy-update"])
    def test_traced_run_records_one_phase_span(self, method):
        """The method's phase span carries the whole run's I/O, ``G``'s
        materialisation included, which ``result.io`` leaves out (``G``
        outgrows the 8-frame pool, so part of it is written back early)."""
        graph = gnm_random(60, 400, seed=1)
        config = EngineConfig(block_size=256, cache_blocks=8)
        tracer = Tracer()
        with ExecutionContext(config).attach_tracer(tracer) as context:
            result = max_truss(graph, method=method, context=context)
        phases = [
            r for r in tracer.records
            if r["type"] == "span" and r["kind"] == "phase"
        ]
        assert [r["name"] for r in phases] == [method]
        totals = tracer.records[-1]["totals"]["io"]
        assert phases[0]["io"] == totals
        assert phases[0]["io"]["write_ios"] > result.io.write_ios

    def test_trace_hook_sees_device_and_phases(self, example):
        tracer = Tracer()
        with ExecutionContext(EngineConfig()).attach_tracer(tracer) as context:
            max_truss(example, method="semi-binary", context=context)
        events = [r for r in tracer.records if r["type"] == "event"]
        assert [r["name"] for r in events] == ["device"]
        assert events[0]["payload"]["backend"] == "simulated"
        phase = next(r for r in tracer.records if r.get("kind") == "phase")
        assert phase["name"] == "semi-binary"
        assert phase["io"]["read_ios"] == context.stats.read_ios

    def test_context_close_is_idempotent(self):
        graph = gnm_random(30, 90, seed=1)
        context = ExecutionContext(EngineConfig(backend="simulated"))
        max_truss(graph, method="semi-binary", context=context)
        context.close()
        stats = context.stats.snapshot()
        context.close()  # a second close neither re-flushes nor raises
        context.close()
        assert context.stats == stats

    def test_close_before_any_device(self):
        context = ExecutionContext(EngineConfig())
        context.close()
        context.close()
        assert context.device is None

    def test_config_validation_errors(self):
        for broken in (
            {"backend": "nope"},
            {"block_size": 0},
            {"cache_blocks": -1},
            {"cache_policy": "mru"},
            {"work_limit": 0},
        ):
            with pytest.raises(DeviceError):
                EngineConfig(**broken)

    def test_config_is_frozen(self):
        config = EngineConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.block_size = 64
        assert config.block_size == EngineConfig().block_size


# --------------------------------------------------------------------- #
# device-first constructors on a context's device
# --------------------------------------------------------------------- #


class TestEnsureDevice:
    def test_disk_graph_accepts_a_context(self, example):
        context = ExecutionContext(EngineConfig(block_size=64, cache_blocks=16))
        disk_graph = DiskGraph(example, context.device_for(example.n))
        assert disk_graph.device is context.device
        context.device.flush()  # write-back cache: dirty blocks drain here
        assert context.stats.write_ios > 0  # materialisation was charged

    def test_linear_heap_accepts_a_config(self):
        heap = LinearHeap(
            make_device(EngineConfig(backend="inmemory"), 16), num_edges=16, max_key=4
        )
        heap.insert(0, 2)
        assert heap.pop_min() == (0, 2)


# --------------------------------------------------------------------- #
# observability: tracing is provably free when off, exact when on
# --------------------------------------------------------------------- #


def _run_traced(graph, backend, method):
    """One traced run: returns (result, closed context, tracer records)."""
    tracer = Tracer()
    context = ExecutionContext(
        EngineConfig(backend=backend, block_size=64, cache_blocks=32)
    ).attach_tracer(tracer)
    with context:
        result = max_truss(graph, method=method, context=context)
    return result, context, tracer.records


class TestTracingGuards:
    """ISSUE PR-5 acceptance: off = bit-identical, on = exactly attributed."""

    def test_touch_counting_is_off_by_default(self):
        context = ExecutionContext(EngineConfig(block_size=64, cache_blocks=16))
        device = context.device_for(50)
        assert device.touch_counts_by_extent() == {}
        max_truss(gnm_random(30, 100, seed=2), method="semi-binary",
                  context=context)
        assert device.touch_counts_by_extent() == {}  # still no tally

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("method", sorted(available_methods()))
    def test_tracer_never_perturbs_the_charged_ledger(
        self, example, backend, method
    ):
        """Charged IOStats and per-extent bills are bit-identical with a
        tracer attached and without one, for every backend x method."""
        plain_context = ExecutionContext(
            EngineConfig(backend=backend, block_size=64, cache_blocks=32)
        )
        with plain_context:
            plain = max_truss(example, method=method, context=plain_context)
        plain_extents = (
            plain_context.device.io_by_extent()
            if plain_context.device is not None else {}
        )
        traced, traced_context, _records = _run_traced(example, backend, method)
        assert traced.k_max == plain.k_max
        assert traced_context.stats.read_ios == plain_context.stats.read_ios
        assert traced_context.stats.write_ios == plain_context.stats.write_ios
        assert traced_context.stats.bytes_read == plain_context.stats.bytes_read
        assert (
            traced_context.stats.bytes_written
            == plain_context.stats.bytes_written
        )
        traced_extents = (
            traced_context.device.io_by_extent()
            if traced_context.device is not None else {}
        )
        assert traced_extents == plain_extents

    @pytest.mark.parametrize("method", SEMI_METHODS)
    def test_top_level_span_deltas_sum_exactly_to_run_totals(self, method):
        graph = barabasi_albert(80, attach=4, seed=3)
        _result, _context, records = _run_traced(graph, "simulated", method)
        summary = summarize_trace(records)
        totals = summary["totals"]["io"]
        assert summary["attributed_io"]["read_ios"] == totals["read_ios"]
        assert summary["attributed_io"]["write_ios"] == totals["write_ios"]
        assert totals["read_ios"] > 0  # the run actually charged I/O

    def test_maintenance_spans_sum_exactly_to_run_totals(self, example):
        tracer = Tracer()
        context = ExecutionContext(
            EngineConfig(block_size=64, cache_blocks=32)
        ).attach_tracer(tracer)
        state = DynamicMaxTruss(example, context=context)
        state.insert(0, 4)
        state.delete(0, 4)
        context.close()
        summary = summarize_trace(tracer.records)
        totals = summary["totals"]["io"]
        assert summary["attributed_io"]["read_ios"] == totals["read_ios"]
        assert summary["attributed_io"]["write_ios"] == totals["write_ios"]
        names = {r["name"] for r in tracer.records if r["type"] == "span"}
        assert {"maintain.init", "maintain.insert", "maintain.delete"} <= names

    def test_traced_run_attributes_known_kernels(self, example):
        _result, _context, records = _run_traced(
            example, "simulated", "semi-binary"
        )
        names = {r["name"] for r in records if r["type"] == "span"}
        assert {"semi-binary", "support_scan", "close.flush"} <= names
        # spans nest: every kernel hangs off some parent span
        spans = {r["id"]: r for r in records if r["type"] == "span"}
        kernels = [r for r in spans.values() if r["kind"] == "kernel"]
        assert kernels and all(r["parent"] in spans for r in kernels)

    def test_traced_run_reports_cache_hits(self):
        graph = barabasi_albert(80, attach=4, seed=3)
        push_metrics()
        try:
            _result, _context, records = _run_traced(
                graph, "simulated", "semi-binary"
            )
            gauges = global_metrics().snapshot()["gauges"]
        finally:
            pop_metrics()
        summary = summarize_trace(records)
        assert summary["extents"], "per-extent attribution missing"
        adj = next(e for e in summary["extents"] if e["extent"] == "G.adj")
        assert adj["touches"] >= adj["read_ios"]
        assert any(name.startswith("cache.hit_ratio") for name in gauges)


#: A static computation per charged method and a dynamic global phase
#: plus one delete/insert, then whether ``numpy.ma`` was ever imported.
_FOOTPRINT_SCRIPT = """
import sys
from repro import EngineConfig, ExecutionContext, max_truss
from repro.dynamic import DynamicMaxTruss
from repro.graph.generators import gnm_random

graph = gnm_random(60, 600, seed=3)
for method in ("semi-binary", "semi-greedy-core", "semi-lazy-update"):
    with ExecutionContext(EngineConfig()) as context:
        max_truss(graph, method=method, context=context)
state = DynamicMaxTruss(graph)
state.global_phase(state.k_max)
u, v = (int(x) for x in graph.edges[0])
state.delete(u, v)
state.insert(u, v)
print("numpy.ma" in sys.modules)
"""


class TestImportFootprint:
    def test_static_and_dynamic_paths_leave_numpy_ma_out(self):
        # numpy 2.x's flag-free np.unique imports numpy.ma (about 1.3 MiB
        # resident); the charged paths use mask/bincount forms instead.
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", _FOOTPRINT_SCRIPT],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"
