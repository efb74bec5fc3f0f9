"""Perf-regression harness for the vectorized I/O-accounting fast path.

Times the storage stack's batched accounting against the scalar reference
path (``ReferenceBlockDevice``) and records wall-clock + I/O numbers for
the support scan, the three semi-external decompositions and dynamic
maintenance on fixed seeded graphs. Results land in ``BENCH_PERF.json``
so regressions show up as diffs.

Sections
--------
``support_scan_accounting``
    **The speedup criterion.** Replays the support scan's exact charged
    access trace through the storage stack twice: once through the batch
    fast path (``touch_read_batch`` / ``touch_write_batch``, single-extent
    ``BlockDevice.replay`` calls) and once through the scalar path a
    per-slice / per-element caller issues (one ``touch_read`` per
    adjacency list, one ``touch_write`` per support value — the pre-batch
    granularity). The two traces must produce *identical* ``IOStats``;
    the fast path must be >= 3x faster at the default scale.
``support_scan_e2e``
    Full ``compute_supports`` vs ``compute_supports_reference`` including
    the (shared) data movement both paths pay; the honest end-to-end
    number, reported without a threshold.
``decomposition`` / ``maintenance``
    Wall-clock + I/O tracking for the three semi-external algorithms and
    a batched maintenance churn — regression tracking only.
``observability``
    The tracer's price tag: one decomposition untraced vs traced. The
    charged bill must be bit-identical (asserted) and span deltas must
    sum exactly to the run totals (asserted); the section records the
    wall-clock overhead factor, the top spans by self I/O and the
    metrics snapshot.
``file_backend``
    The persistence layer's price tag: the same support-scan trace
    replayed through ``FileBlockDevice`` (real ``pread``/``pwrite`` per
    charged block) vs the simulator. The charged ``IOStats`` must be
    identical — that equivalence is asserted, not just reported — and the
    section records the wall-clock overhead factor plus the physical
    bytes moved, so a change that silently inflates the real-I/O cost of
    the file backend shows up as a diff.
``ingest``
    The group-commit criterion. The same churn stream runs twice against
    a durable (WAL + real fsync) deployment: once per-op (one durability
    barrier per update) and once through ``IngestPipeline`` (micro-batches
    of ``batch_size``, one ``append_group`` barrier per batch). Both final
    decompositions must be bit-identical — and equal to a from-scratch
    decomposition of the mutated graph (asserted). Full mode demands
    >= ``INGEST_SPEEDUP_THRESHOLD`` on the durable path at batch size 64
    and fsyncs/edge <= 2/batch_size; the section also records the
    pipeline's sustained edges/sec.
``serve``
    The query service's price tag: membership throughput and p50/p95
    latency against a served snapshot, plus the charged I/O bill per
    point query. Every answer is asserted oracle-identical, and the
    average membership bill must stay a vanishing fraction of one full
    edge scan (the *o(edges)* point-query contract).

Run standalone (not collected by the tier-1 suite)::

    PYTHONPATH=src python benchmarks/bench_perf_regression.py          # full
    PYTHONPATH=src python benchmarks/bench_perf_regression.py --smoke  # CI

The report stamps the active ``EngineConfig`` once, at the top level
(``engine_config``). Exit status is non-zero when the full-scale run
misses a threshold or any equivalence assertion fails; ``--smoke`` shrinks the
graphs for CI and skips the threshold (timing below ~100 ms is noise)
while still exercising every section and writing valid JSON.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro import EngineConfig, ExecutionContext, max_truss
from repro.engine import make_device
from repro.dynamic import DynamicMaxTruss
from repro.dynamic.workload import mixed_churn
from repro.graph.disk_graph import DiskGraph
from repro.graph.generators import gnm_random
from repro.semiexternal.support import compute_supports, compute_supports_reference
from repro.storage import MemoryMeter

SPEEDUP_THRESHOLD = 3.0

#: Full-mode acceptance bar for group-commit ingestion on the durable
#: path: one fsync per 64-op batch must beat one fsync per op by >= 3x.
INGEST_SPEEDUP_THRESHOLD = 3.0
INGEST_BATCH_SIZE = 64

#: Default dataset scale for the support-scan microbenchmark: dense enough
#: that batches amortise the vectorization overhead (average degree ~600),
#: large enough that wall-clock differences dwarf timer noise.
FULL_SCAN_GRAPH = dict(n=1000, m=300_000, seed=3)
SMOKE_SCAN_GRAPH = dict(n=120, m=2_000, seed=3)


# --------------------------------------------------------------------- #
# support-scan access trace (the microbenchmark workload)
# --------------------------------------------------------------------- #


def _semi_external_device(backend: str, num_vertices: int, **fields):
    """A *backend* device with the semi-external pool for *num_vertices*."""
    return make_device(EngineConfig(backend=backend, **fields), num_vertices)


def _replay_support_trace(graph, device, batched: bool) -> float:
    """Issue the support scan's charged accesses against *device*.

    The trace is exactly what ``compute_supports`` charges: per vertex
    ``u``, a read of ``N(u)`` and its edge ids, one read of ``N(v)`` per
    forward neighbour ``v``, and one support write per forward edge. Only
    the *accounting* runs — no payload moves — so the timing isolates the
    storage stack. ``batched=True`` issues the forward reads/writes
    through the batch entry points; ``batched=False`` issues them one
    access at a time, the pre-batch caller granularity.
    """
    offsets = graph.offsets
    adj = device.allocate("adj", int(offsets[-1]) * 8)
    adjeids = device.allocate("adjeids", int(offsets[-1]) * 8)
    sup = device.allocate("sup", graph.m * 8)
    start_time = time.perf_counter()
    for u in range(graph.n):
        lo, hi = int(offsets[u]), int(offsets[u + 1])
        if lo == hi:
            continue
        device.touch_read(adj, lo * 8, (hi - lo) * 8)
        device.touch_read(adjeids, lo * 8, (hi - lo) * 8)
        nbrs = graph.adj[lo:hi]
        eids = graph.adj_eids[lo:hi]
        forward = nbrs > u
        if not forward.any():
            continue
        vs = nbrs[forward]
        starts = offsets[vs]
        counts = offsets[vs + 1] - starts
        if batched:
            device.touch_read_batch(adj, starts * 8, counts * 8)
            device.touch_write_batch(sup, eids[forward] * 8, 8)
        else:
            for slice_start, count in zip(starts.tolist(), counts.tolist()):
                device.touch_read(adj, slice_start * 8, count * 8)
            for eid in eids[forward].tolist():
                device.touch_write(sup, eid * 8, 8)
    return time.perf_counter() - start_time


def bench_support_scan_accounting(graph, reps: int) -> dict:
    fast_times, ref_times = [], []
    total_ios = None
    for _ in range(reps):
        fast_device = _semi_external_device("simulated", graph.n)
        fast_times.append(_replay_support_trace(graph, fast_device, batched=True))
        ref_device = _semi_external_device("reference", graph.n)
        ref_times.append(_replay_support_trace(graph, ref_device, batched=False))
        if fast_device.stats != ref_device.stats:
            raise AssertionError(
                "I/O-equivalence violated on the support-scan trace: "
                f"fast={fast_device.stats} reference={ref_device.stats}"
            )
        total_ios = fast_device.stats.total_ios
    fast_s, ref_s = min(fast_times), min(ref_times)
    return {
        "graph": {"n": graph.n, "m": graph.m},
        "reps": reps,
        "fast_s": round(fast_s, 4),
        "ref_s": round(ref_s, 4),
        "speedup": round(ref_s / fast_s, 2),
        "total_ios": total_ios,
    }


def bench_support_scan_e2e(graph, reps: int) -> dict:
    fast_times, ref_times = [], []
    triangles = total_ios = None
    for _ in range(reps):
        fast_device = _semi_external_device("simulated", graph.n)
        fast_dg = DiskGraph(graph, fast_device, MemoryMeter())
        start = time.perf_counter()
        fast_scan = compute_supports(fast_dg)
        fast_times.append(time.perf_counter() - start)

        ref_device = _semi_external_device("reference", graph.n)
        ref_dg = DiskGraph(graph, ref_device, MemoryMeter())
        start = time.perf_counter()
        ref_scan = compute_supports_reference(ref_dg)
        ref_times.append(time.perf_counter() - start)

        if (
            fast_device.stats != ref_device.stats
            or fast_device.io_by_extent() != ref_device.io_by_extent()
            or fast_scan.triangle_count != ref_scan.triangle_count
        ):
            raise AssertionError("batched and reference support scans diverged")
        triangles = fast_scan.triangle_count
        total_ios = fast_device.stats.total_ios
    fast_s, ref_s = min(fast_times), min(ref_times)
    return {
        "graph": {"n": graph.n, "m": graph.m},
        "reps": reps,
        "fast_s": round(fast_s, 4),
        "ref_s": round(ref_s, 4),
        "speedup": round(ref_s / fast_s, 2),
        "triangles": triangles,
        "total_ios": total_ios,
    }


def bench_file_backend(graph, reps: int) -> dict:
    """Replay the support-scan trace on the file backend vs the simulator.

    Both devices run the *batched* trace so the comparison isolates the
    cost of mirroring each charged block I/O as a real syscall. The
    charged bill must match exactly (the tentpole accounting-equivalence
    contract); the interesting outputs are the wall-clock overhead factor
    and the physical byte counters.
    """
    sim_times, file_times = [], []
    total_ios = physical_row = None
    for _ in range(reps):
        sim_device = _semi_external_device("simulated", graph.n)
        sim_times.append(_replay_support_trace(graph, sim_device, batched=True))
        sim_device.flush()
        file_device = _semi_external_device("file", graph.n, fsync_policy="never")
        try:
            file_times.append(
                _replay_support_trace(graph, file_device, batched=True)
            )
            file_device.flush()
            if (
                file_device.stats != sim_device.stats
                or file_device.io_by_extent() != sim_device.io_by_extent()
            ):
                raise AssertionError(
                    "file backend charged a different bill than the "
                    f"simulator: file={file_device.stats} "
                    f"simulated={sim_device.stats}"
                )
            total_ios = file_device.stats.total_ios
            physical = file_device.stats.physical
            physical_row = {
                "bytes_read": physical.bytes_read,
                "bytes_written": physical.bytes_written,
                "fsyncs": physical.fsyncs,
            }
        finally:
            file_device.close()
    sim_s, file_s = min(sim_times), min(file_times)
    return {
        "graph": {"n": graph.n, "m": graph.m},
        "reps": reps,
        "simulated_s": round(sim_s, 4),
        "file_s": round(file_s, 4),
        "overhead_x": round(file_s / sim_s, 2) if sim_s > 0 else None,
        "total_ios": total_ios,
        "physical": physical_row,
    }


def bench_observability(graph, config: EngineConfig) -> dict:
    """Price the tracer: the same decomposition untraced vs traced.

    The charged bill must be bit-identical either way (tracing observes
    the ledger, never participates in it) — that equivalence is asserted.
    The recorded outputs are the wall-clock overhead factor, the span
    count, the top spans by self I/O and the metrics snapshot, so a
    change that makes tracing expensive (or spans that stop summing to
    the run totals) shows up as a diff in this section.
    """
    from repro.observability import Tracer, summarize_trace
    from repro.observability.metrics import pop_metrics, push_metrics

    method = "semi-binary"
    plain_context = ExecutionContext(config)
    start = time.perf_counter()
    plain = max_truss(graph, method=method, context=plain_context)
    plain_context.close()
    plain_s = time.perf_counter() - start

    tracer = Tracer()
    registry = push_metrics()
    try:
        traced_context = ExecutionContext(config).attach_tracer(tracer)
        start = time.perf_counter()
        traced = max_truss(graph, method=method, context=traced_context)
        traced_context.close()
        traced_s = time.perf_counter() - start
    finally:
        pop_metrics()

    if (
        traced.k_max != plain.k_max
        or traced_context.stats.read_ios != plain_context.stats.read_ios
        or traced_context.stats.write_ios != plain_context.stats.write_ios
        or traced_context.device.io_by_extent()
        != plain_context.device.io_by_extent()
    ):
        raise AssertionError(
            "tracing perturbed the charged ledger: "
            f"traced={traced_context.stats} plain={plain_context.stats}"
        )
    summary = summarize_trace(tracer.records)
    totals = summary["totals"]["io"]
    if (
        summary["attributed_io"]["read_ios"] != totals["read_ios"]
        or summary["attributed_io"]["write_ios"] != totals["write_ios"]
    ):
        raise AssertionError(
            "span deltas do not sum to run totals: "
            f"{summary['attributed_io']} vs {totals}"
        )
    return {
        "graph": {"n": graph.n, "m": graph.m},
        "method": method,
        "untraced_s": round(plain_s, 4),
        "traced_s": round(traced_s, 4),
        "overhead_x": round(traced_s / plain_s, 2) if plain_s > 0 else None,
        "span_count": summary["span_count"],
        "total_ios": totals["read_ios"] + totals["write_ios"],
        "top_spans_by_self_io": [
            {
                "name": g["name"],
                "kind": g["kind"],
                "count": g["count"],
                "self_ios": g["self_total_ios"],
            }
            for g in summary["top_by_io"][:5]
        ],
        "metrics": registry.snapshot(),
    }


def bench_decomposition(graph, config: EngineConfig) -> dict:
    rows = {}
    for method in ("semi-binary", "semi-greedy-core", "semi-lazy-update"):
        context = ExecutionContext(config)
        start = time.perf_counter()
        result = max_truss(graph, method=method, context=context)
        elapsed = time.perf_counter() - start
        rows[method] = {
            "seconds": round(elapsed, 4),
            "total_ios": result.io.total_ios,
            "k_max": result.k_max,
        }
    return {
        "graph": {"n": graph.n, "m": graph.m},
        "methods": rows,
    }


def bench_maintenance(graph, ops: int, config: EngineConfig) -> dict:
    churn = mixed_churn(graph, ops, insert_fraction=0.5, seed=11)
    context = ExecutionContext(config)
    state = DynamicMaxTruss(graph, context=context)
    device = state.device
    baseline = device.stats.snapshot()
    start = time.perf_counter()
    state.apply_batch(churn)
    elapsed = time.perf_counter() - start
    return {
        "graph": {"n": graph.n, "m": graph.m},
        "ops": len(churn),
        "seconds": round(elapsed, 4),
        "total_ios": device.stats.since(baseline).total_ios,
        "k_max_after": state.k_max,
    }


def bench_ingest(graph, ops: int, batch_size: int, smoke: bool) -> dict:
    """Per-op durable maintenance vs pipelined group-commit ingestion.

    Both runs pay *real* fsyncs (the WAL lives on disk); the per-op run
    issues one barrier per update, the pipelined run one ``append_group``
    barrier per ``batch_size``-op micro-batch. A fault-free
    ``FaultInjector`` rides along as a pure syscall counter so the
    reported fsyncs/edge are exact, and both final decompositions are
    asserted bit-identical to each other and to a from-scratch
    decomposition of the mutated graph.
    """
    import tempfile

    from repro.baselines import max_truss_edges
    from repro.dynamic import IngestPipeline
    from repro.persistence import FaultInjector
    from repro.persistence.recovery import durable_from_graph

    churn = mixed_churn(graph, ops, insert_fraction=0.5, seed=13)

    with tempfile.TemporaryDirectory() as home:
        counter = FaultInjector()  # no trigger: counts writes/fsyncs only
        durable = durable_from_graph(graph, home, file_ops=counter)
        base_ops, base_writes = counter.ops, counter.writes
        start = time.perf_counter()
        for op, u, v in churn:
            getattr(durable, op)(u, v)
        per_op_s = time.perf_counter() - start
        per_op_fsyncs = (counter.ops - base_ops) - (counter.writes - base_writes)
        per_op_state = durable.state
        durable.close()

    with tempfile.TemporaryDirectory() as home:
        counter = FaultInjector()
        durable = durable_from_graph(graph, home, file_ops=counter)
        base_ops, base_writes = counter.ops, counter.writes
        pipe = IngestPipeline(durable, batch_size=batch_size)
        start = time.perf_counter()
        for op, u, v in churn:
            pipe.submit_op(op, u, v)
        pipe.close()
        piped_s = time.perf_counter() - start
        piped_fsyncs = (counter.ops - base_ops) - (counter.writes - base_writes)
        piped_state = durable.state
        durable.close()

    if (
        piped_state.k_max != per_op_state.k_max
        or piped_state.truss_pairs() != per_op_state.truss_pairs()
    ):
        raise AssertionError(
            "pipelined ingestion diverged from per-op maintenance: "
            f"k_max {piped_state.k_max} vs {per_op_state.k_max}"
        )
    mutable = graph.to_mutable()
    for op, u, v in churn:
        if op == "insert":
            mutable.insert_edge(u, v)
        else:
            mutable.delete_edge(u, v)
    frozen, _ = mutable.to_graph()
    scratch_k, scratch_edges = max_truss_edges(frozen)
    if (
        piped_state.k_max != scratch_k
        or piped_state.truss_pairs() != scratch_edges
    ):
        raise AssertionError(
            "pipelined ingestion diverged from the from-scratch "
            f"decomposition: k_max {piped_state.k_max} vs {scratch_k}"
        )

    speedup = round(per_op_s / piped_s, 2) if piped_s > 0 else None
    fsyncs_per_edge = piped_fsyncs / len(churn)
    fsync_bound = 2.0 / batch_size
    passed = bool(
        smoke
        or (speedup is not None and speedup >= INGEST_SPEEDUP_THRESHOLD
            and fsyncs_per_edge <= fsync_bound)
    )
    return {
        "graph": {"n": graph.n, "m": graph.m},
        "ops": len(churn),
        "batch_size": batch_size,
        "per_op_s": round(per_op_s, 4),
        "pipelined_s": round(piped_s, 4),
        "speedup": speedup,
        "per_op_fsyncs": per_op_fsyncs,
        "pipelined_fsyncs": piped_fsyncs,
        "fsyncs_per_edge": round(fsyncs_per_edge, 5),
        "fsyncs_per_edge_bound": round(fsync_bound, 5),
        "edges_per_sec": round(pipe.stats.edges_per_sec, 1),
        "batches": pipe.stats.batches,
        "k_max_after": piped_state.k_max,
        "threshold": INGEST_SPEEDUP_THRESHOLD,
        "passed": passed,
    }


def bench_serve(graph, queries: int, smoke: bool) -> dict:
    """Query-service section: throughput, tail latency, charged I/O.

    Runs *queries* membership requests against a served snapshot of
    *graph* and records throughput plus p50/p95 latency. Two properties
    are asserted, not just reported:

    * **parity** — every membership answer equals the from-scratch
      trussness oracle;
    * **sublinearity** — the average charged bill of a membership probe
      is a vanishing fraction of one full edge scan (the *o(edges)*
      point-query contract; a change that silently degrades membership
      to a scan fails the section).
    """
    from repro.baselines.inmemory import truss_decomposition
    from repro.serve import QueryEngine, SnapshotManager

    oracle = truss_decomposition(graph)
    engine = QueryEngine(SnapshotManager.initial(graph), EngineConfig())

    rng = np.random.default_rng(17)
    eids = rng.integers(0, graph.m, size=queries)
    latencies = []
    read_ios = 0
    bytes_read = 0
    start_time = time.perf_counter()
    for eid in eids:
        u, v = (int(x) for x in graph.edges[int(eid)])
        envelope = engine.execute(
            {"op": "membership", "u": u, "v": v, "k": 3}
        )
        result = envelope["result"]
        if (
            result["trussness"] != int(oracle[int(eid)])
            or result["member"] != bool(oracle[int(eid)] >= 3)
            or envelope["io"]["write_ios"] != 0
        ):
            raise AssertionError(
                f"served membership diverged from oracle on edge ({u}, {v})"
            )
        latencies.append(envelope["elapsed_ms"])
        read_ios += envelope["io"]["read_ios"]
        bytes_read += envelope["io"]["bytes_read"]
    elapsed = time.perf_counter() - start_time

    scan = engine.execute({"op": "export"})
    avg_read_ios = read_ios / queries
    avg_bytes = bytes_read / queries
    # o(edges): a point probe must stay far below one full scan's bill.
    sublinear = (
        avg_read_ios * 10 <= scan["io"]["read_ios"]
        and avg_bytes * 10 <= scan["io"]["bytes_read"]
    )
    latencies.sort()
    return {
        "graph": {"n": graph.n, "m": graph.m},
        "queries": queries,
        "throughput_qps": round(queries / elapsed, 1) if elapsed > 0 else None,
        "latency_ms": {
            "p50": latencies[len(latencies) // 2],
            "p95": latencies[int(len(latencies) * 0.95)],
        },
        "membership": {
            "avg_read_ios": round(avg_read_ios, 2),
            "avg_bytes_read": round(avg_bytes, 1),
            "scan_read_ios": scan["io"]["read_ios"],
            "scan_bytes_read": scan["io"]["bytes_read"],
        },
        "parity_checked": queries,
        # Parity is asserted at every scale; the sublinearity bar only
        # gates full mode (a smoke-scale scan is a handful of blocks, so
        # the x10 separation can't exist there).
        "passed": bool(smoke or sublinear),
    }


def bench_approx(make_graph, smoke: bool) -> dict:
    """Approximate-tier section: estimator accuracy and I/O separation.

    Two claims are measured (and the load-bearing one gated):

    * **accuracy curve** — triangle-estimate relative error and interval
      width shrink as the sample budget grows (reported, not gated: the
      curve is diagnostic);
    * **separation** — an ApproxEngine build plus one per-edge answer
      charges >= 10x fewer read I/Os than one exact max-truss run on the
      same graph (gated in full mode; smoke graphs are too small for the
      gap to exist structurally).
    """
    from repro.approx import ApproxEngine
    from repro.approx.estimators import estimate_triangle_count
    from repro.core.semi_binary import semi_binary
    from repro.engine.context import ExecutionContext
    from repro.graph import DiskGraph

    graph = make_graph()
    exact = semi_binary(graph)
    true_triangles = exact.extras["triangles"]

    curve = []
    with ExecutionContext(EngineConfig()) as ctx:
        probe = DiskGraph.attach(graph, ctx.device_for(graph.n))
        for samples in (32, 128, 512):
            est = estimate_triangle_count(
                probe, samples, 0.95, np.random.default_rng(samples)
            )
            error = (
                abs(est.value - true_triangles) / true_triangles
                if true_triangles else 0.0
            )
            curve.append({
                "samples": samples,
                "estimate": round(est.value, 1),
                "rel_error": round(error, 4),
                "ci_width": round(est.width(), 1),
                "charged_io": est.charged_io,
            })

    engine = ApproxEngine(make_graph(), config=EngineConfig())
    u, v = (int(x) for x in graph.edges[0][:2])
    trussness = engine.trussness(u, v)
    approx_reads = engine.build_charged_io + trussness.charged_io
    kmax_est = engine.kmax()
    covered = kmax_est.covers(exact.k_max)
    engine.close()
    separation = exact.io.read_ios / max(approx_reads, 1)

    return {
        "graph": {"n": graph.n, "m": graph.m},
        "triangles_exact": true_triangles,
        "accuracy_curve": curve,
        "kmax": {
            "exact": exact.k_max,
            "estimate": kmax_est.value,
            "ci": [kmax_est.ci_low, kmax_est.ci_high],
            "covered": bool(covered),
        },
        "io_separation": {
            "exact_read_ios": exact.io.read_ios,
            "approx_read_ios": approx_reads,
            "separation_x": round(separation, 1),
        },
        # The 10x separation bar only gates full mode.
        "passed": bool(smoke or (separation >= 10.0 and covered)),
    }


def run(smoke: bool) -> dict:
    scan_cfg = SMOKE_SCAN_GRAPH if smoke else FULL_SCAN_GRAPH
    reps = 1 if smoke else 3
    scan_graph = gnm_random(**scan_cfg)
    if not smoke:  # warm up allocator/JIT-ish caches so rep 1 isn't cold
        warm = gnm_random(n=200, m=10_000, seed=3)
        _replay_support_trace(warm, _semi_external_device("simulated", warm.n), True)

    config = EngineConfig()  # the active recipe, stamped once

    accounting = bench_support_scan_accounting(scan_graph, reps)
    accounting["threshold"] = SPEEDUP_THRESHOLD
    accounting["passed"] = bool(smoke or accounting["speedup"] >= SPEEDUP_THRESHOLD)

    e2e = bench_support_scan_e2e(scan_graph, reps)

    file_backend = bench_file_backend(scan_graph, reps)

    decomp_graph = gnm_random(n=60, m=900, seed=7) if smoke else gnm_random(
        n=300, m=20_000, seed=7
    )
    decomposition = bench_decomposition(decomp_graph, config)

    maint_graph = gnm_random(n=50, m=300, seed=11) if smoke else gnm_random(
        n=150, m=2_000, seed=11
    )
    maintenance = bench_maintenance(maint_graph, ops=4 if smoke else 16, config=config)

    observability = bench_observability(decomp_graph, config)

    ingest_graph = gnm_random(n=50, m=300, seed=13) if smoke else gnm_random(
        n=150, m=2_000, seed=13
    )
    ingest = bench_ingest(
        ingest_graph,
        ops=32 if smoke else 256,
        batch_size=16 if smoke else INGEST_BATCH_SIZE,
        smoke=smoke,
    )

    serve_graph = gnm_random(n=120, m=2_000, seed=17) if smoke else gnm_random(
        n=1_000, m=60_000, seed=17
    )
    serve = bench_serve(serve_graph, queries=50 if smoke else 500, smoke=smoke)

    approx_cfg = (
        {"n": 80, "m": 400, "seed": 0} if smoke
        else {"n": 1_500, "m": 15_000, "seed": 0}
    )
    approx = bench_approx(lambda: gnm_random(**approx_cfg), smoke)

    return {
        "schema": 1,
        "mode": "smoke" if smoke else "full",
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "engine_config": config.describe(),
        "benchmarks": {
            "support_scan_accounting": accounting,
            "support_scan_e2e": e2e,
            "file_backend": file_backend,
            "decomposition": decomposition,
            "maintenance": maintenance,
            "observability": observability,
            "ingest": ingest,
            "serve": serve,
            "approx": approx,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny graphs, one rep, no speedup threshold (CI mode)",
    )
    parser.add_argument(
        "--out", type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent / "BENCH_PERF.json",
        help="output JSON path (default: repo-root BENCH_PERF.json)",
    )
    args = parser.parse_args(argv)

    report = run(args.smoke)
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    accounting = report["benchmarks"]["support_scan_accounting"]
    e2e = report["benchmarks"]["support_scan_e2e"]
    print(f"wrote {args.out} ({report['mode']} mode)")
    print(
        f"support-scan accounting: fast {accounting['fast_s']}s, "
        f"reference {accounting['ref_s']}s -> {accounting['speedup']}x "
        f"(threshold {accounting['threshold']}x, "
        f"{'pass' if accounting['passed'] else 'FAIL'})"
    )
    print(
        f"support-scan end-to-end: fast {e2e['fast_s']}s, "
        f"reference {e2e['ref_s']}s -> {e2e['speedup']}x"
    )
    file_backend = report["benchmarks"]["file_backend"]
    physical = file_backend["physical"]
    print(
        f"file backend: simulated {file_backend['simulated_s']}s, "
        f"file {file_backend['file_s']}s -> {file_backend['overhead_x']}x "
        f"overhead ({physical['bytes_read']} B read, "
        f"{physical['bytes_written']} B written)"
    )
    observability = report["benchmarks"]["observability"]
    print(
        f"observability: untraced {observability['untraced_s']}s, "
        f"traced {observability['traced_s']}s -> "
        f"{observability['overhead_x']}x overhead, "
        f"{observability['span_count']} spans, charged bill identical"
    )
    ingest = report["benchmarks"]["ingest"]
    print(
        f"ingest: per-op {ingest['per_op_s']}s "
        f"({ingest['per_op_fsyncs']} fsyncs), pipelined "
        f"{ingest['pipelined_s']}s ({ingest['pipelined_fsyncs']} fsyncs, "
        f"batch {ingest['batch_size']}) -> {ingest['speedup']}x, "
        f"{ingest['edges_per_sec']} edges/s, "
        f"{ingest['fsyncs_per_edge']} fsyncs/edge "
        f"(bound {ingest['fsyncs_per_edge_bound']}; "
        f"{'pass' if ingest['passed'] else 'FAIL'}; decompositions identical)"
    )
    serve = report["benchmarks"]["serve"]
    print(
        f"serve: {serve['throughput_qps']} membership qps, "
        f"p50 {serve['latency_ms']['p50']}ms / "
        f"p95 {serve['latency_ms']['p95']}ms, "
        f"{serve['membership']['avg_read_ios']} read I/Os per query vs "
        f"{serve['membership']['scan_read_ios']} per scan "
        f"({'pass' if serve['passed'] else 'FAIL'}; "
        f"{serve['parity_checked']} answers oracle-identical)"
    )
    approx = report["benchmarks"]["approx"]
    print(
        f"approx: {approx['io_separation']['approx_read_ios']} read I/Os vs "
        f"{approx['io_separation']['exact_read_ios']} exact "
        f"({approx['io_separation']['separation_x']}x separation, "
        f"{'pass' if approx['passed'] else 'FAIL'})"
    )
    return (
        0 if accounting["passed"]
        and ingest["passed"] and serve["passed"] and approx["passed"]
        else 1
    )


if __name__ == "__main__":
    raise SystemExit(main())
