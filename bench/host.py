"""The program side of the benchmark: runs ``repro`` on generated inputs.

``run.py`` starts this script in a fresh process for each workload, so the
process's peak RSS is the program's own and the program sees only the
files it is handed -- never the generator or the oracle::

    python3 bench/host.py static DIR --methods semi-binary,semi-lazy-update --seconds 25 [--trace]
    python3 bench/host.py dynamic DIR --seconds 25 [--trace]
    python3 bench/host.py serve DIR [--trace]

``DIR`` holds the graph: ``graph-0.rgr``, ``graph-1.rgr``, ... for
``static`` (relabelled copies, each computed by each method in turn),
``graph.rgr`` otherwise, plus ``updates.json`` for ``dynamic``.
``static`` and ``dynamic`` print one JSON line with their raw timings and
answers; ``serve`` runs the same path as ``repro serve`` (``read_rgr`` ->
``SnapshotManager.initial`` -> ``QueryEngine`` -> ``run_server``), prints
``READY <port>`` once it listens and ``RESULT {...}`` (peak RSS, result
cache hit ratio) after it drained.
With ``--trace`` the span pass writes its spans to ``DIR/spans.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
import traceback
from collections import Counter
from typing import List

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro import EngineConfig, ExecutionContext, max_truss  # noqa: E402
from repro.dynamic import DynamicMaxTruss  # noqa: E402
from repro.graph.formats import read_rgr  # noqa: E402

from layers import COUNT_POINTS, SERVE_POINTS, SPAN_POINTS, CallCounter, SpanRecorder  # noqa: E402
from reference import SpeedReference  # noqa: E402

clock = time.perf_counter

#: Each static run repeats the computation of each (graph file, method)
#: pair at least this often.
MIN_STATIC_OPS = 3
#: Each dynamic run applies its update stream at least this often.
MIN_DYNAMIC_PASSES = 3


def _peak_rss_kib() -> int:
    """High-water RSS of this process's own address space.

    ``getrusage``'s ``ru_maxrss`` would also count the parent's pages that
    the fork held before ``exec``, so the kernel's ``VmHWM`` is read.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/status has no VmHWM line")


def _write_spans(directory: pathlib.Path, spans) -> None:
    with open(directory / "spans.jsonl", "w") as out:
        for span in spans:
            out.write(json.dumps(span) + "\n")


# --------------------------------------------------------------------- #
# static: one k_max-truss computation per operation
# --------------------------------------------------------------------- #


def _static_setup(path: pathlib.Path, config: EngineConfig):
    graph = read_rgr(path)
    context = ExecutionContext(config)
    context.device_for(graph.n)
    return graph, context


def _static_compute(graph, context, method: str) -> dict:
    start = clock()
    try:
        result = max_truss(graph, method=method, context=context)
        context.close()
    except Exception:  # noqa: BLE001 - a failed run is counted, not fatal
        context.close()
        return {"op_s": clock() - start, "error": traceback.format_exc()}
    return {
        "op_s": clock() - start,
        "ios": result.io.total_ios,
        "k_max": result.k_max,
        "edges": result.truss_edges,
        "peak_model_bytes": result.peak_memory_bytes,
        "extras": {
            key: result.extras[key]
            for key in ("search_probes", "support_scans")
            if key in result.extras
        },
    }


def run_static(directory: pathlib.Path, methods: List[str], seconds: float) -> dict:
    """Alternate set-up and computation until *seconds* of computation ran.

    The computations cycle through every (graph file, method) pair in
    turn, so each pair's repeats spread over the whole run; each result
    records its file's index as ``copy`` and its ``method``. Set-up
    (``read_rgr`` plus building the execution context) runs before every
    computation, so its repetitions sample the same stretch of time as the
    computations do. One untimed computation per method first pays the
    process's one-off costs (lazy imports, first-call allocations).
    """
    paths = sorted(directory.glob("graph-*.rgr"))
    pairs = [(copy, method) for copy in range(len(paths)) for method in methods]
    for method in methods:
        _static_compute(*_static_setup(paths[0], EngineConfig()), method)
    reference = SpeedReference()
    setups, ops = [], []
    while len(ops) < MIN_STATIC_OPS * len(pairs) or sum(op["op_s"] for op in ops) < seconds:
        copy, method = pairs[len(ops) % len(pairs)]
        start = clock()
        graph, context = _static_setup(paths[copy], EngineConfig())
        setups.append(clock() - start)
        ops.append(dict(_static_compute(graph, context, method), copy=copy, method=method))
        reference.sample()
    return {"setup_s": setups, "ops": ops, "reference_s": reference.samples,
            "rss_kib": _peak_rss_kib()}


def trace_static(directory: pathlib.Path, methods: List[str]) -> dict:
    """Untraced, span-traced, call-counted and ``inmemory`` runs of every
    method on ``graph-0.rgr``, once each (after the same untimed warm-up
    computations as :func:`run_static`). The span pass computes the methods
    one after another under one root span; the times and counts returned
    are summed over the methods."""
    path = directory / "graph-0.rgr"
    for method in methods:
        _static_compute(*_static_setup(path, EngineConfig()), method)
    plain = [_static_compute(*_static_setup(path, EngineConfig()), m) for m in methods]

    recorder = SpanRecorder()
    contexts = []
    recorder.io = lambda: sum(c.stats.read_ios + c.stats.write_ios for c in contexts)
    patches = recorder.install(SPAN_POINTS)
    traced = []
    try:
        with recorder.span("bench.run"):
            for method in methods:
                with recorder.span("graph.load"):
                    graph, context = _static_setup(path, EngineConfig())
                contexts.append(context)
                traced.append(_static_compute(graph, context, method))
    finally:
        patches.restore()
    _write_spans(directory, recorder.spans)

    counter = CallCounter()
    touches, by_extent = Counter(), {}
    patches = counter.install(COUNT_POINTS)
    counted = []
    try:
        for method in methods:
            graph, context = _static_setup(path, EngineConfig())
            device = context.device
            device.enable_touch_counting()
            counted.append(_static_compute(graph, context, method))
            touches.update(device.touch_counts_by_extent())
            for name, (reads, writes) in device.io_by_extent().items():
                total = by_extent.setdefault(name, [0, 0])
                total[0] += reads
                total[1] += writes
    finally:
        patches.restore()

    inmemory = [
        _static_compute(*_static_setup(path, EngineConfig(backend="inmemory")), m)
        for m in methods
    ]
    return {
        "ops": plain + traced + counted + inmemory,
        "traced": traced,
        "untraced_s": sum(op["op_s"] for op in plain),
        "traced_s": sum(op["op_s"] for op in traced),
        "inmemory_s": sum(op["op_s"] for op in inmemory),
        "counts": dict(counter.counts),
        "touches": dict(touches),
        "by_extent": by_extent,
    }


# --------------------------------------------------------------------- #
# dynamic: one edge update per operation, closed loop, one caller
# --------------------------------------------------------------------- #


def _dynamic_setup(path: pathlib.Path) -> DynamicMaxTruss:
    return DynamicMaxTruss(read_rgr(path), context=ExecutionContext(EngineConfig()))


def _apply_stream(state: DynamicMaxTruss, ops, check_every: int, at_checkpoint=None) -> dict:
    """Apply *ops* one at a time; snapshot the class every *check_every*.

    The snapshots (``k_max`` and the truss edges) are taken outside the
    timed calls; ``run.py`` compares them with the oracle afterwards.
    *at_checkpoint*, when given, is called after each snapshot.
    """
    latencies, ios, modes, errors, checkpoints = [], [], [], [], []
    for index, (op, u, v) in enumerate(ops, start=1):
        update = state.insert if op == "insert" else state.delete
        start = clock()
        try:
            result = update(u, v)
        except Exception:  # noqa: BLE001 - a failed update is counted, not fatal
            latencies.append(clock() - start)
            errors.append(traceback.format_exc())
            ios.append(0)
            modes.append("error")
        else:
            latencies.append(clock() - start)
            ios.append(result.io.total_ios)
            modes.append(result.mode)
        if index % check_every == 0 or index == len(ops):
            checkpoints.append({
                "after": index, "k_max": state.k_max, "pairs": state.truss_pairs(),
            })
            if at_checkpoint is not None:
                at_checkpoint()
    return {
        "latency_s": latencies, "ios": ios, "modes": modes, "errors": errors,
        "checkpoints": checkpoints, "peak_model_bytes": state.memory.peak_bytes,
    }


def _load_updates(directory: pathlib.Path):
    spec = json.loads((directory / "updates.json").read_text())
    return spec["ops"], spec["check_every"]


def run_dynamic(directory: pathlib.Path, seconds: float) -> dict:
    """Apply the whole stream pass after pass, each time to a freshly built
    state, until *seconds* of update time ran (at least
    :data:`MIN_DYNAMIC_PASSES` passes).

    Every pass does identical work, so ``run.py`` can time each update by
    its fastest pass. Set-up (``read_rgr`` plus ``DynamicMaxTruss``) is
    timed at the start of every pass and once more, on a throwaway state,
    at every checkpoint, so its repetitions spread over the run too; so is
    the speed reference.
    """
    path = directory / "graph.rgr"
    ops, check_every = _load_updates(directory)
    reference = SpeedReference()
    setups = []

    def timed_setup() -> DynamicMaxTruss:
        start = clock()
        state = _dynamic_setup(path)
        setups.append(clock() - start)
        return state

    def at_checkpoint() -> None:
        timed_setup().context.close()
        reference.sample()

    results = []
    while len(results) < MIN_DYNAMIC_PASSES or sum(
        sum(result["latency_s"]) for result in results
    ) < seconds:
        state = timed_setup()
        results.append(_apply_stream(state, ops, check_every, at_checkpoint=at_checkpoint))
        state.context.close()
    return {"passes": results, "setup_s": setups, "reference_s": reference.samples,
            "rss_kib": _peak_rss_kib()}


def trace_dynamic(directory: pathlib.Path) -> dict:
    """Untraced, span-traced and call-counted passes over the whole stream."""
    path = directory / "graph.rgr"
    ops, check_every = _load_updates(directory)
    state = _dynamic_setup(path)
    plain = _apply_stream(state, ops, check_every)
    state.context.close()

    recorder = SpanRecorder()
    patches = recorder.install(SPAN_POINTS)
    try:
        with recorder.span("bench.run"):
            with recorder.span("graph.load"):
                graph = read_rgr(path)
            state = DynamicMaxTruss(graph, context=ExecutionContext(EngineConfig()))
            recorder.io = lambda: state.context.stats.read_ios + state.context.stats.write_ios
            traced = _apply_stream(state, ops, check_every)
    finally:
        patches.restore()
    state.context.close()
    _write_spans(directory, recorder.spans)

    counter = CallCounter()
    patches = counter.install(COUNT_POINTS)
    try:
        state = _dynamic_setup(path)
        device = state.device
        device.enable_touch_counting()
        counted = _apply_stream(state, ops, check_every)
        state.context.close()
    finally:
        patches.restore()
    return {
        "passes": [plain, traced, counted],
        "untraced_s": sum(plain["latency_s"]),
        "traced_s": sum(traced["latency_s"]),
        "counts": dict(counter.counts),
        "touches": device.touch_counts_by_extent(),
        "by_extent": {name: list(io) for name, io in device.io_by_extent().items()},
    }


# --------------------------------------------------------------------- #
# serve: the query server, driven over TCP by run.py
# --------------------------------------------------------------------- #


def run_serve(directory: pathlib.Path, trace: bool) -> None:
    from repro.serve import QueryEngine, SnapshotManager
    from repro.serve.server import run_server

    recorder = SpanRecorder() if trace else None
    patches = recorder.install(SERVE_POINTS) if trace else None

    def ready(address) -> None:
        print(f"READY {address[1]}", flush=True)

    try:
        engine = QueryEngine(
            SnapshotManager.initial(read_rgr(directory / "graph.rgr")), EngineConfig()
        )
        run_server(engine, on_started=ready)
    finally:
        if patches is not None:
            patches.restore()
    if recorder is not None:
        _write_spans(directory, recorder.spans)
    print("RESULT " + json.dumps({
        "rss_kib": _peak_rss_kib(),
        "cache_hit_ratio": engine.cache.hit_ratio,
    }), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind", choices=("static", "dynamic", "serve"))
    parser.add_argument("directory", type=pathlib.Path)
    parser.add_argument("--methods", help="static: comma-separated max_truss methods")
    parser.add_argument("--seconds", type=float,
                        help="static and dynamic, untraced: computation time")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.kind == "serve":
        run_serve(args.directory, args.trace)
        return 0
    if args.kind == "static":
        methods = args.methods.split(",")
        result = (
            trace_static(args.directory, methods) if args.trace
            else run_static(args.directory, methods, args.seconds)
        )
    else:
        result = (
            trace_dynamic(args.directory) if args.trace
            else run_dynamic(args.directory, args.seconds)
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
