"""Command-line interface: ``repro-truss`` / ``python -m repro``.

Subcommands
-----------
* ``compute`` — run a max-truss algorithm on an edge-list file and print
  ``k_max``, the truss size, and the I/O / memory bill.
* ``stats`` — Table-I style statistics for a file or named dataset.
* ``generate`` — write a stand-in dataset (or generator output) to a file.
* ``convert`` — re-encode a graph between formats (text/metis/compressed/
  the binary ``.rgr`` CSR image — the paper's offline preprocessing step).
* ``maintain`` — apply an update stream to a graph, reporting per-op
  maintenance cost.
* ``ingest`` — pump an update stream through the ingestion front end
  (micro-batches applied as the stream is read, flushed on size or, at
  the next line, on age), optionally durable (group-commit WAL) and/or
  sliding-window.
* ``trace`` — summarize or diff recorded trace files (``compute`` and
  ``maintain`` record one with ``--trace FILE``).
* ``serve`` — answer truss queries over TCP (newline-delimited JSON)
  against a graph or a durable state directory (with background snapshot
  promotion).

Graph operands accept dataset names and every file ``convert`` writes
(:data:`repro.graph.formats.GRAPH_FORMATS`) everywhere; ``--backend
file`` runs any engine command against the real file-backed device with
identical charged I/O. Only ``compute`` with ``--format
text|markdown|csv`` also prints the device's physical byte and fsync
counters. ``maintain`` and ``ingest`` read one update-line grammar,
``[+|-]u v`` (unsigned lines insert).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import sys
from typing import List, Optional

from .analysis.statistics import graph_stats
from .core.api import available_methods, max_truss
from .dynamic import DynamicMaxTruss
from .engine import EngineConfig, ExecutionContext, list_backends
from .engine.config import CACHE_POLICIES, FSYNC_POLICIES
from .errors import GraphFormatError, ReproError, ServeError
from .graph.datasets import dataset_names, load_dataset
from .graph.edgelist import write_text_edgelist
from .graph.formats import GRAPH_FORMATS, format_for_suffix, read_graph
from .graph.memgraph import Graph


def _load_graph(source: str, seed: int) -> Graph:
    """Interpret *source* as a dataset name or a file path."""
    if source in dataset_names():
        return load_dataset(source, seed=seed)
    try:
        return read_graph(source)
    except (UnicodeDecodeError, ValueError) as exc:
        # Binary garbage fed to the text parser (or vice versa) must be a
        # one-line typed error at the CLI, never a traceback.
        raise GraphFormatError(
            f"{source}: not a recognisable graph file ({exc})"
        ) from exc


#: ``[+|-]u v``: a signed or unsigned pair of non-negative vertex ids.
_UPDATE_LINE = re.compile(r"([+-]?)\s*([0-9]+)\s+([0-9]+)")


class _BadUpdate(Exception):
    """An update line outside the grammar; ``main`` exits with status 2."""


def _read_updates(path: Optional[str], deletes: bool = True):
    """Yield ``(op, u, v)`` per line of the update stream *path* (stdin if
    ``None``): the one grammar of ``maintain`` and ``ingest``.

    A line is ``[+|-]u v``; an unsigned line inserts. Blank lines and
    ``#`` lines are skipped. Any other line, or a ``-`` line when
    *deletes* is false, raises :class:`_BadUpdate`.
    """
    stream = open(path, "r", encoding="utf-8") if path else sys.stdin
    try:
        for line_number, line in enumerate(stream, 1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            match = _UPDATE_LINE.fullmatch(text)
            if match is None:
                raise _BadUpdate(f"line {line_number}: malformed update {text!r}")
            sign, u, v = match.groups()
            if sign == "-" and not deletes:
                raise _BadUpdate(
                    f"line {line_number}: explicit deletes are invalid with "
                    "--window (expirations are automatic)"
                )
            yield ("delete" if sign == "-" else "insert"), int(u), int(v)
    finally:
        if path:
            stream.close()


@contextlib.contextmanager
def _maybe_trace(context: ExecutionContext, path: Optional[str]):
    """Attach a file-backed tracer to *context* when *path* is given."""
    if not path:
        yield
        return
    from .observability import Tracer, TraceWriter

    with TraceWriter(path) as writer:
        context.attach_tracer(Tracer(writer.write))
        yield
        # The context is closed (finishing the tracer) inside this scope
        # by the caller; the writer then flushes the final records.


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    """Storage-engine flags shared by every command that runs the engine.

    Each flag's ``dest`` is its :class:`EngineConfig` field, and a flag
    left out is ``None``, so the config's own default applies.
    """
    group = parser.add_argument_group("storage engine")
    group.add_argument(
        "--backend", choices=list_backends(),
        help="storage backend charged for edge-file I/O "
             "('file' mirrors every charged block as a real pread/pwrite)",
    )
    group.add_argument(
        "--block-size", type=int, help="block size B in bytes",
    )
    group.add_argument(
        "--cache-blocks", type=int,
        help="cache pool size in blocks (default: semi-external auto-sizing)",
    )
    group.add_argument(
        "--cache-policy", choices=CACHE_POLICIES, help="cache eviction policy",
    )
    group.add_argument(
        "--data-dir", metavar="DIR",
        help="spill-file directory for --backend file "
             "(default: private tmpdir, removed on close)",
    )
    group.add_argument(
        "--fsync", dest="fsync_policy", choices=FSYNC_POLICIES,
        help="fsync policy for --backend file",
    )


def _add_approx_flags(parser: argparse.ArgumentParser) -> None:
    """The approximate tier's knobs, on the commands that sample:
    ``estimate`` and ``serve`` (its ``precision: "approx"`` requests)."""
    approx = parser.add_argument_group("approximate tier")
    approx.add_argument(
        "--approx-epsilon", type=float, metavar="EPS",
        help="target CI half-width of the sampling estimators",
    )
    approx.add_argument(
        "--approx-confidence", type=float, metavar="CONF",
        help="nominal CI coverage of approximate answers",
    )
    approx.add_argument(
        "--approx-seed", type=int, metavar="SEED",
        help="base seed of every estimator RNG (runs are replayable)",
    )


def _engine_config(args: argparse.Namespace) -> EngineConfig:
    """Build the run's :class:`EngineConfig` from the engine flags given."""
    return EngineConfig(**_given(
        args, "backend", "block_size", "cache_blocks", "cache_policy",
        "data_dir", "fsync_policy", "approx_epsilon", "approx_confidence",
        "approx_seed",
    ))


def _given(args: argparse.Namespace, *names: str) -> dict:
    """The named flags the command line set, as keyword arguments.

    A flag left at ``None``, or one the command does not register, is
    omitted, so the component's own default applies: each default lives
    in one signature, not in the parser too.
    """
    values = {name: getattr(args, name, None) for name in names}
    return {name: value for name, value in values.items() if value is not None}


def _cmd_compute(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph, args.seed)
    config = _engine_config(args)
    context = ExecutionContext(config)
    with _maybe_trace(context, args.trace):
        with context:
            result = max_truss(graph, method=args.method, context=context)
    if args.trace:
        print(f"trace written to {args.trace}", file=sys.stderr)
    if args.format != "plain":
        from .reporting import render_result

        # The physical rows (file backend only) are the closed device's
        # whole life: the bill window misses writing G and the closing
        # flush and fsync.
        result.io.physical = context.stats.physical
        print(render_result(result, args.format))
        print(f"engine: {config.summary()}")
    else:
        print(f"graph: n={graph.n} m={graph.m}")
        print(f"engine: {config.summary()}")
        print(f"algorithm: {result.algorithm}")
        print(f"k_max: {result.k_max}")
        print(f"truss edges: {result.truss_edge_count}")
        print(f"truss vertices: {len(result.truss_vertices())}")
        print(f"read I/Os: {result.io.read_ios}")
        print(f"write I/Os: {result.io.write_ios}")
        print(f"peak model memory: {result.peak_memory_bytes} bytes")
        print(f"elapsed: {result.elapsed_seconds:.3f}s")
    if args.show_edges:
        for u, v in result.truss_edges:
            print(f"{u} {v}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .reporting import render_comparison

    graph = _load_graph(args.graph, args.seed)
    config = _engine_config(args)
    # One fresh context per method: same recipe, no warm-cache bleed
    # between competitors.
    results = []
    for method in args.methods:
        with ExecutionContext(config) as context:
            results.append(max_truss(graph, method=method, context=context))
    answers = {result.k_max for result in results}
    print(render_comparison(results, args.format))
    print(f"engine: {config.summary()}")
    if len(answers) != 1:
        print("WARNING: methods disagree on k_max!", file=sys.stderr)
        return 4
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    from .approx import build_approx_engine

    graph = _load_graph(args.graph, args.seed)
    config = _engine_config(args)
    with ExecutionContext(config) as context:
        engine = build_approx_engine(graph, context=context)
        kmax = engine.kmax()
        triangles = engine.triangles()
        max_support = engine.max_support()
        build_io = engine.build_charged_io

    def describe(name, estimate, digits=1):
        print(
            f"{name}: {estimate.value:.{digits}f} "
            f"(CI [{estimate.ci_low:.{digits}f}, {estimate.ci_high:.{digits}f}] "
            f"@ {estimate.confidence:.0%}, samples={estimate.samples})"
        )

    print(f"graph: n={graph.n} m={graph.m}")
    print(f"engine: {config.summary()}")
    print(f"estimator: epsilon={engine.epsilon} "
          f"confidence={engine.confidence} seed={engine.seed}")
    describe("estimated triangles", triangles)
    describe("estimated max support", max_support)
    describe("estimated k_max", kmax)
    print(f"estimator read I/Os: {build_io}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph, args.seed)
    stats = graph_stats(graph, name=args.graph)
    print(f"{'name':<16} {'n':>8} {'m':>9} {'kmax':>6} {'delta':>6} "
          f"{'tri':>9} {'dmax':>6}")
    print(stats.row())
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    graph = load_dataset(args.dataset, seed=args.seed)
    write_text_edgelist(graph, args.output)
    print(f"wrote {args.dataset} (n={graph.n}, m={graph.m}) to {args.output}")
    return 0


def _cmd_community(args: argparse.Namespace) -> int:
    from .applications import truss_community

    graph = _load_graph(args.graph, args.seed)
    result = truss_community(
        graph, args.query, connectivity=args.connectivity
    )
    if result is None:
        print("no common community exists for the query vertices")
        return 3
    print(f"community trussness k: {result.k}")
    print(f"community vertices ({result.size}): "
          + " ".join(str(v) for v in result.vertices[:40])
          + (" ..." if result.size > 40 else ""))
    print(f"community edges: {len(result.edges)}")
    if args.show_edges:
        for u, v in result.edges:
            print(f"{u} {v}")
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    from .baselines import truss_decomposition_semi_external

    graph = _load_graph(args.graph, args.seed)
    trussness = truss_decomposition_semi_external(graph)
    print(f"# trussness per edge: u v tau   (n={graph.n} m={graph.m})")
    for eid in range(graph.m):
        u, v = graph.edges[eid]
        print(f"{u} {v} {trussness[eid]}")
    return 0


def _cmd_hierarchy(args: argparse.Namespace) -> int:
    from .analysis.hierarchy import TrussHierarchy
    from .reporting import render_table

    graph = _load_graph(args.graph, args.seed)
    hierarchy = TrussHierarchy(graph)
    print(f"graph: n={graph.n} m={graph.m} k_max={hierarchy.k_max}")
    rows = [
        (k, count, len(hierarchy.communities(k)) if k >= 3 else "-")
        for k, count in hierarchy.level_profile().items()
    ]
    print(render_table(("k", "class_size", "communities"), rows, args.format))
    return 0


def _cmd_maintain(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph, args.seed)
    config = _engine_config(args)
    engine_context = ExecutionContext(config)
    with _maybe_trace(engine_context, args.trace):
        try:
            status = _run_maintain(args, config, engine_context, graph)
        finally:
            engine_context.close()
    if args.trace:
        print(f"trace written to {args.trace}", file=sys.stderr)
    return status


def _run_maintain(
    args: argparse.Namespace,
    config: EngineConfig,
    engine_context: ExecutionContext,
    graph: Graph,
) -> int:
    state = DynamicMaxTruss(graph, context=engine_context)
    print(f"engine: {config.summary()}")
    print(f"initial k_max: {state.k_max}")
    operations = []
    for op, u, v in _read_updates(args.updates):
        if args.batch:
            operations.append((op, u, v))
            continue
        result = state.insert(u, v) if op == "insert" else state.delete(u, v)
        print(
            f"{result.operation} ({u},{v}): k_max {result.k_max_before} -> "
            f"{result.k_max_after} [{result.mode}] "
            f"io={result.io.total_ios} {result.elapsed_seconds * 1e3:.2f}ms"
        )
    if args.batch and operations:
        batch = state.apply_batch(operations)
        print(
            f"batch of {batch.operations} ops "
            f"({batch.insertions} inserts, {batch.deletions} deletes): "
            f"k_max {batch.k_max_before} -> {batch.k_max_after} "
            f"[{batch.mode}] io={batch.io.total_ios} "
            f"{batch.elapsed_seconds * 1e3:.2f}ms"
        )
    print(f"final k_max: {state.k_max} ({state.truss_edge_count()} class edges)")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    from .dynamic.ingest import IngestPipeline

    config = _engine_config(args)
    graph = (
        Graph.empty(0) if args.graph is None
        else _load_graph(args.graph, args.seed)
    )
    engine_context = ExecutionContext(config)
    window = args.window is not None
    durable = None
    try:
        state = DynamicMaxTruss(graph, context=engine_context)
        # The pipeline checks its options before --durable writes DIR's
        # first checkpoint, so a rejected option leaves DIR untouched.
        pipe = IngestPipeline(
            state, window=args.window,
            **_given(args, "batch_size", "max_delay"),
        )
        if args.durable:
            from .persistence.recovery import DurableMaintenance

            durable = pipe.sink = DurableMaintenance(state, args.durable)
        with pipe:
            print(f"engine: {config.summary()}")
            print(
                f"ingest: batch_size={pipe.batch_size}"
                + (f" max_delay={pipe.max_delay}s"
                   if pipe.max_delay is not None else "")
                + (f" window={args.window}" if window else "")
                + (" durable" if args.durable else "")
            )
            for op, u, v in _read_updates(args.updates, deletes=not window):
                if window:
                    pipe.submit(u, v)
                else:
                    pipe.submit_op(op, u, v)
    finally:
        if durable is not None:
            durable.close()
        engine_context.close()
    stats = pipe.stats
    print(
        f"stream: {stats.submitted} submitted"
        + (f", {stats.duplicates_skipped} duplicates, "
           f"{stats.expirations} expired" if window else "")
    )
    triggers = ", ".join(
        f"{count} by {trigger}"
        for trigger, count in stats.flushes.items() if count
    )
    print(
        f"applied: {stats.applied_ops} ops in {stats.batches} batches"
        + (f" ({triggers})" if triggers else "")
    )
    print(
        f"throughput: {stats.edges_per_sec:.0f} edges/s "
        f"({stats.elapsed_seconds:.3f}s wall, "
        f"{stats.apply_seconds:.3f}s applying)"
    )
    print(f"final k_max: {state.k_max} ({state.truss_edge_count()} class edges)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import Promoter, QueryEngine
    from .serve.server import run_server
    from .serve.snapshot import SnapshotManager, bootstrap_manager

    sources = [s for s in (args.graph, args.durable) if s]
    if len(sources) != 1:
        print("error: give exactly one of GRAPH or --durable DIR",
              file=sys.stderr)
        return 2
    if args.interval is not None and args.interval <= 0:
        # Checked even without --durable, where no promoter would see it.
        raise ServeError(f"promote interval must be positive, got {args.interval}")
    config = _engine_config(args)
    server_options = _given(args, "host", "port", "query_timeout")
    if args.query_timeout is not None and args.query_timeout <= 0:
        server_options["query_timeout"] = None

    promoter = None
    if args.durable:
        manager = bootstrap_manager(args.durable)
        promoter = Promoter(manager, args.durable, **_given(args, "interval"))
        promoter.start()
        executor = QueryEngine(manager, config)
        snapshot = manager.current()
        described = (
            f"durable state {args.durable} (n={snapshot.graph.n}, "
            f"m={snapshot.graph.m}, wal_seq={snapshot.wal_seq}, "
            f"promoting every {promoter.interval}s)"
        )
    else:
        graph = _load_graph(args.graph, args.seed)
        executor = QueryEngine(SnapshotManager.initial(graph), config)
        described = f"{args.graph} (n={graph.n}, m={graph.m})"

    def announce(address) -> None:
        print(f"serving {described}", flush=True)
        print(f"listening on {address[0]}:{address[1]}", flush=True)

    try:
        server = run_server(executor, on_started=announce, **server_options)
    finally:
        if promoter is not None:
            promoter.stop()
    print(f"drained; served {server.requests_served} requests")
    return 0


def _cmd_trace_summary(args: argparse.Namespace) -> int:
    import json

    from .observability import format_summary, read_trace, summarize_trace

    summary = summarize_trace(read_trace(args.trace), top=args.top)
    if args.format == "json":
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(format_summary(summary, args.format))
    return 0


def _cmd_trace_diff(args: argparse.Namespace) -> int:
    import json

    from .observability import diff_traces, format_diff, read_trace

    diff = diff_traces(read_trace(args.a), read_trace(args.b), top=args.top)
    if args.format == "json":
        print(json.dumps(diff, indent=2, sort_keys=True))
    else:
        print(format_diff(diff, args.format))
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    to = args.to or format_for_suffix(args.output)
    graph = _load_graph(args.input, args.seed)
    GRAPH_FORMATS[to][1](graph, args.output)
    print(f"converted {args.input} (n={graph.n}, m={graph.m}) "
          f"to {to}: {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-truss",
        description="I/O efficient max-truss computation (ICDE 2024 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="compute the k_max-truss")
    compute.add_argument("graph", help="edge-list file or dataset name")
    compute.add_argument(
        "--method", default="semi-lazy-update", choices=available_methods()
    )
    compute.add_argument("--seed", type=int, default=0)
    compute.add_argument("--show-edges", action="store_true")
    compute.add_argument("--format", default="plain",
                         choices=["plain", "text", "markdown", "csv"])
    compute.add_argument(
        "--trace", default=None, metavar="FILE",
        help="record a structured trace (spans with exact I/O attribution) "
             "to FILE; inspect with 'repro trace summary FILE'",
    )
    _add_engine_flags(compute)
    compute.set_defaults(func=_cmd_compute)

    compare = sub.add_parser("compare", help="run several methods side by side")
    compare.add_argument("graph", help="edge-list file or dataset name")
    compare.add_argument(
        "--methods", nargs="+",
        default=["semi-binary", "semi-greedy-core", "semi-lazy-update"],
        choices=available_methods(),
    )
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument("--format", default="text",
                         choices=["text", "markdown", "csv"])
    _add_engine_flags(compare)
    compare.set_defaults(func=_cmd_compare)

    estimate = sub.add_parser(
        "estimate",
        help="sampling estimates with confidence bounds "
             "(triangles, max support, k_max)",
    )
    estimate.add_argument("graph", help="edge-list file or dataset name")
    estimate.add_argument("--seed", type=int, default=0,
                          help="seed for generated datasets")
    _add_engine_flags(estimate)
    _add_approx_flags(estimate)
    estimate.set_defaults(func=_cmd_estimate)

    stats = sub.add_parser("stats", help="Table-I style statistics")
    stats.add_argument("graph", help="edge-list file or dataset name")
    stats.add_argument("--seed", type=int, default=0)
    stats.set_defaults(func=_cmd_stats)

    generate = sub.add_parser("generate", help="write a stand-in dataset")
    generate.add_argument("dataset", choices=dataset_names())
    generate.add_argument("output")
    generate.add_argument("--seed", type=int, default=0)
    generate.set_defaults(func=_cmd_generate)

    convert = sub.add_parser(
        "convert",
        help="re-encode a graph (text/metis/compressed/.rgr binary CSR)",
    )
    convert.add_argument("input", help="graph file or dataset name")
    convert.add_argument("output", help="output path")
    convert.add_argument(
        "--to", default=None, choices=list(GRAPH_FORMATS),
        help="output format (default: by the output extension: .rgr, "
             ".metis/.graph, .cgr, anything else text)",
    )
    convert.add_argument("--seed", type=int, default=0)
    convert.set_defaults(func=_cmd_convert)

    maintain = sub.add_parser("maintain", help="apply an update stream")
    maintain.add_argument("graph", help="edge-list file or dataset name")
    maintain.add_argument(
        "--updates", help="file of '[+|-]u v' lines; unsigned lines insert "
                          "(default: stdin)"
    )
    maintain.add_argument(
        "--batch", action="store_true",
        help="apply the whole stream as one batch (single global recompute)",
    )
    maintain.add_argument("--seed", type=int, default=0)
    maintain.add_argument(
        "--trace", default=None, metavar="FILE",
        help="record a structured trace of the whole update stream to FILE",
    )
    _add_engine_flags(maintain)
    maintain.set_defaults(func=_cmd_maintain)

    ingest = sub.add_parser(
        "ingest",
        help="stream edges through the pipelined ingestion front end",
    )
    ingest.add_argument(
        "graph", nargs="?", default=None,
        help="starting graph (edge-list file or dataset name; "
             "default: empty graph)",
    )
    ingest.add_argument(
        "--updates", help="file of '[+|-]u v' lines; unsigned lines insert "
                          "(arrive, under --window) (default: stdin)",
    )
    ingest.add_argument(
        "--window", type=int, default=None, metavar="N",
        help="sliding-window mode: keep the last N streamed edges alive "
             "(lines are arrivals; expirations are automatic)",
    )
    ingest.add_argument(
        "--batch-size", type=int,
        help="micro-batch flush threshold (and WAL group-commit size)",
    )
    ingest.add_argument(
        "--max-delay", type=float, default=None, metavar="SECONDS",
        help="flush when a line arrives and the oldest queued event is "
             "this old (checked per line, not on a timer)",
    )
    ingest.add_argument(
        "--durable", default=None, metavar="DIR",
        help="run over a write-ahead log in DIR (one group-commit fsync "
             "per micro-batch)",
    )
    ingest.add_argument("--seed", type=int, default=0)
    _add_engine_flags(ingest)
    ingest.set_defaults(func=_cmd_ingest)

    trace = sub.add_parser(
        "trace", help="summarize or diff recorded trace files"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_summary = trace_sub.add_parser(
        "summary", help="top spans by I/O and wall-clock + extent attribution"
    )
    trace_summary.add_argument("trace", help="trace file to summarize")
    trace_summary.add_argument("--top", type=int, default=10)
    trace_summary.add_argument(
        "--format", default="text",
        choices=["text", "markdown", "csv", "json"],
    )
    trace_summary.set_defaults(func=_cmd_trace_summary)
    trace_diff = trace_sub.add_parser(
        "diff", help="A/B regression hunt between two traces"
    )
    trace_diff.add_argument("a", help="baseline trace file")
    trace_diff.add_argument("b", help="candidate trace file")
    trace_diff.add_argument("--top", type=int, default=10)
    trace_diff.add_argument(
        "--format", default="text",
        choices=["text", "markdown", "csv", "json"],
    )
    trace_diff.set_defaults(func=_cmd_trace_diff)

    community = sub.add_parser(
        "community", help="truss community search for query vertices"
    )
    community.add_argument("graph", help="edge-list file or dataset name")
    community.add_argument("query", type=int, nargs="+",
                           help="query vertex ids")
    community.add_argument("--connectivity", default="vertex",
                           choices=["vertex", "triangle"])
    community.add_argument("--seed", type=int, default=0)
    community.add_argument("--show-edges", action="store_true")
    community.set_defaults(func=_cmd_community)

    decompose = sub.add_parser(
        "decompose", help="full semi-external truss decomposition"
    )
    decompose.add_argument("graph", help="edge-list file or dataset name")
    decompose.add_argument("--seed", type=int, default=0)
    decompose.set_defaults(func=_cmd_decompose)

    hierarchy = sub.add_parser(
        "hierarchy", help="k-class level profile and community counts"
    )
    hierarchy.add_argument("graph", help="edge-list file or dataset name")
    hierarchy.add_argument("--seed", type=int, default=0)
    hierarchy.add_argument("--format", default="text",
                           choices=["text", "markdown", "csv"])
    hierarchy.set_defaults(func=_cmd_hierarchy)

    serve = sub.add_parser(
        "serve",
        help="answer truss queries over TCP (newline-delimited JSON)",
    )
    serve.add_argument(
        "graph", nargs="?", default=None,
        help="graph to serve (edge-list/.rgr file or dataset name); "
             "or use --durable",
    )
    serve.add_argument(
        "--durable", default=None, metavar="DIR",
        help="serve a durable maintenance directory (checkpoint + WAL); "
             "a background promoter publishes fresh snapshots as the WAL "
             "grows",
    )
    serve.add_argument("--host", help="bind address")
    serve.add_argument(
        "--port", type=int,
        help="bind port (0: ephemeral, announced on stdout)",
    )
    serve.add_argument(
        "--query-timeout", type=float, metavar="SECONDS",
        help="per-query budget; past it the query answers a timeout "
             "error envelope (0 or negative: no limit)",
    )
    serve.add_argument(
        "--promote-interval", type=float, dest="interval", metavar="SECONDS",
        help="promoter poll interval for --durable",
    )
    serve.add_argument("--seed", type=int, default=0)
    _add_engine_flags(serve)
    _add_approx_flags(serve)
    serve.set_defaults(func=_cmd_serve)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _BadUpdate as error:
        print(error, file=sys.stderr)
        return 2
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout piped into a pager/head that exited; not an error of ours.
        # Point stdout's fd at devnull so the interpreter's shutdown flush
        # does not raise again, and exit with the conventional 128+SIGPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        with contextlib.suppress(OSError, ValueError):
            os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except OSError as error:
        # Missing files, permission problems, full disks: one line, no
        # traceback (FileNotFoundError is the common case).
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
