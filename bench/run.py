"""End-to-end and per-layer benchmark of k_max-truss computation,
maintenance and serving.

One workload per run, as the benchmark contract asks::

    python3 bench/run.py --workload static-dense --seed 0 --seconds 25 --trace 0

prints one ``workload metric value unit`` line per metric and, as its last
line, ``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Without ``--workload`` every workload runs, one after another, each in a
fresh process; ``--out FILE`` then stores all results for ``compare.py``.
``--trace 1`` runs the per-layer pass instead of the end-to-end one and
writes ``bench/out/trace-<workload>.jsonl`` for ``trace_report.py``.

The workload generates its inputs from ``--seed``, hands the program
(``bench/host.py``, a fresh process) only the ``.rgr`` graph and the update
stream or TCP requests, and checks every answer against the in-memory
oracle outside the timed regions. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import select
import shutil
import socket
import subprocess
import sys
import time
import traceback
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

if __name__ == "__main__" and not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"error: {SRC} holds no repro package; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from repro.baselines import max_truss_edges  # noqa: E402
from repro.baselines.inmemory import truss_decomposition  # noqa: E402
from repro.dynamic.workload import mixed_churn  # noqa: E402
from repro.graph.formats import write_rgr  # noqa: E402
from repro.graph.generators import chung_lu, gnm_random, planted_kmax_truss  # noqa: E402
from repro.graph.memgraph import Graph  # noqa: E402

import layers  # noqa: E402
import loadgen  # noqa: E402
import reference  # noqa: E402
import stats  # noqa: E402

clock = time.perf_counter

# --------------------------------------------------------------------- #
# workloads
# --------------------------------------------------------------------- #


#: Workloads and metrics are declared in BENCHMARK.json (why, unit,
#: direction, bound); this file only says how each workload runs.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


#: The static workloads run both semi-external methods of the paper.
STATIC_METHODS = ("semi-binary", "semi-lazy-update")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "static" | "dynamic" | "serve"
    graph: str  # key of GRAPHS
    methods: Tuple[str, ...] = ()


WORKLOADS: Tuple[Workload, ...] = (
    Workload("static-dense", "static", "dense", STATIC_METHODS),
    Workload("static-sparse", "static", "sparse", STATIC_METHODS),
    Workload("dynamic-churn", "dynamic", "churn"),
    Workload("serve-point", "serve", "serve"),
)
BY_NAME = {workload.name: workload for workload in WORKLOADS}

#: Graph families as ``(full, smoke)`` builders. Each builds one fixed
#: instance; the run's seed only relabels its vertices (static workloads
#: compute several relabellings in turn; for the dynamic and serve
#: workloads the update stream and the requests follow the relabelling).
#: Different seeds therefore give different inputs -- vertex
#: ids, edge ids and on-device layout change -- but the same amount of
#: work, so the spread between runs measures the program and the machine,
#: not how hard one random graph happened to be.
#: The static graphs are small enough that one computation takes about
#: 0.1 s: a run then holds a dozen or more repeats of every computation,
#: and the fastest of them is the program's time outside the machine's slow
#: spells. (A dense graph twice as slow to compute spread 0.27 over ten runs;
#: this one spread 0.06-0.07.)
STRUCTURE_SEED = 7
#: Relabelled copies a static run computes in turn.
STATIC_COPIES = 3
GRAPHS: Dict[str, Tuple[Callable[[], Graph], Callable[[], Graph]]] = {
    "dense": (
        lambda: gnm_random(n=35, m=270, seed=STRUCTURE_SEED),
        lambda: gnm_random(n=20, m=80, seed=STRUCTURE_SEED),
    ),
    "sparse": (
        lambda: planted_kmax_truss(
            core_size=20, periphery_n=1500, periphery_avg_degree=8,
            seed=STRUCTURE_SEED,
        ),
        lambda: planted_kmax_truss(
            core_size=8, periphery_n=300, periphery_avg_degree=6,
            seed=STRUCTURE_SEED,
        ),
    ),
    "churn": (
        lambda: gnm_random(n=100, m=600, seed=STRUCTURE_SEED),
        lambda: gnm_random(n=40, m=150, seed=STRUCTURE_SEED),
    ),
    "serve": (
        lambda: chung_lu(n=5000, average_degree=10, seed=STRUCTURE_SEED),
        lambda: chung_lu(n=300, average_degree=6, seed=STRUCTURE_SEED),
    ),
}

#: Distinct updates of the dynamic workload ``(full, smoke)``. host.py
#: applies the stream pass after pass until ``--seconds`` of update time
#: ran (one pass takes about 1.7 s on a 2-core machine, so each update is
#: repeated about fifteen times over the run). The stream itself is fixed,
#: so its counts repeat exactly.
DYNAMIC_UPDATES = (250, 20)
#: The dynamic workload's class is checked against the oracle this often.
CHECK_EVERY = 100

#: Open-loop serve schedule (rates in requests per second). SERVE_SETUPS
#: servers are spawned one after another; the median spawn-to-READY time
#: is setup_s. Each serves a warm-up window at WARM_QPS, then its share of
#: the measured windows at REF_QPS: one WINDOW_S window, warm-ups
#: included, per WINDOW_S of ``--seconds``, at least MIN_WINDOWS measured
#: windows per server.
SERVE_SETUPS = 5
WARM_QPS = 500
REF_QPS = 1000
WINDOW_S = 1.0
MIN_WINDOWS = 2
SPAWN_TIMEOUT_S = 120.0
#: Speed-reference samples the client takes before each spawn and window.
KERNEL_SAMPLES = 3

# --------------------------------------------------------------------- #
# metrics: name -> unit
# --------------------------------------------------------------------- #

END_TO_END: Dict[str, str] = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER: Dict[str, str] = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: Spans whose self time is reported as a share (``<span>_pct``) of the
#: traced program time.
SHARE_SPANS = (
    "core.peel", "semiexternal.support_scan", "semiexternal.core_decomp",
    "storage.sort", "graph.subgraph", "graph.load", "structures.heap_build",
    "baselines.decomposition", "dynamic.global_phase", "dynamic.coreness_refresh",
)
SERVE_STAGES = layers.SERVE_STAGES
#: Extent groups reported as ``storage.ios.<group>``.
EXTENT_GROUPS = ("graph", "subgraph", "support", "heap", "sort")


def extent_group(name: str) -> str:
    """The storage group of a device extent name (``dyn.`` prefix ignored)."""
    head = name[4:] if name.startswith("dyn.") else name
    head = head.split(".")[0]
    if head in ("G", "truss"):
        return "graph"
    if head in ("H", "Hprime", "Gcmax"):
        return "subgraph"
    if head.endswith("sup"):
        return "support"
    if head.startswith("Tedge"):
        return "sort"
    if head in ("heap", "adisk", "lhdh"):
        return "heap"
    return "other"


# --------------------------------------------------------------------- #
# inputs
# --------------------------------------------------------------------- #


def workload_rng(name: str, seed: int, stream: int = 0) -> np.random.Generator:
    """One of the workload's own generators, derived from the run seed.

    Stream 0 relabels the graph; the serve workload draws its send times
    from stream 1 and its requests from stream 2.
    """
    return np.random.default_rng([seed, zlib.crc32(name.encode()), stream])


def relabel(graph: Graph, permutation: np.ndarray) -> Graph:
    return Graph(graph.n, permutation[graph.edges])


def prepare_dir(name: str) -> pathlib.Path:
    directory = OUT / name
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    return directory


def spawn_host(args: List[str]) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(BENCH / "host.py"), *args],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )


def run_host(args: List[str]) -> Dict[str, Any]:
    """Run host.py to completion and return its JSON line."""
    proc = spawn_host(args)
    out, _ = proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"host.py {args[0]} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def read_spans(directory: pathlib.Path) -> List[Dict[str, Any]]:
    with open(directory / "spans.jsonl") as spans:
        return [json.loads(line) for line in spans]


def write_trace(name: str, meta: Dict[str, Any], spans: List[Dict[str, Any]]) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"trace-{name}.jsonl", "w") as out:
        out.write(json.dumps({"type": "meta", "workload": name, **meta}) + "\n")
        for span in spans:
            out.write(json.dumps({"type": "span", **span}) + "\n")


# --------------------------------------------------------------------- #
# result assembly
# --------------------------------------------------------------------- #


@dataclass
class Outcome:
    """Operations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.problems) < 5:
            self.problems.append(why)


def render(outcome: Outcome, values: Dict[str, float], table: Dict[str, str]):
    missing = sorted(set(table) - set(values))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in table.items()
        },
    }


def reference_speed(name: str, samples: List[float]) -> float:
    """The factor that scales a run's times to reference speed (see
    ``reference.py``); the raw kernel time goes to a ``#`` note."""
    factor = reference.scale(samples)
    print(f"# {name} reference kernel {1000.0 * min(samples):.4f} ms: "
          f"times scaled by {factor:.4f}")
    return factor


def idle_layers() -> Dict[str, float]:
    """Every per-layer metric at 0: a layer the workload never enters."""
    return dict.fromkeys(PER_LAYER, 0.0)


def layer_values(spans: List[Dict[str, Any]], host: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics of a static or dynamic traced run.

    Shares are of the root span (one set-up plus the measured work); the
    root's own self time is what no named layer covers. Call counts, the
    cache hit ratio and I/O by extent group come from the count pass.
    """
    table = layers.layer_table(spans)

    def row(name: str) -> Dict[str, float]:
        return table.get(name, {"self_s": 0.0, "calls": 0, "ios": 0, "edges": 0})

    root = next(span for span in spans if span["name"] == "bench.run")
    program_s = root["end"] - root["start"]
    values = idle_layers()
    values.update({f"{name}_pct": 100.0 * row(name)["self_s"] / program_s for name in SHARE_SPANS})
    values.update({
        "core.peeled_edges": row("core.peel")["edges"],
        "semiexternal.support_scans": row("semiexternal.support_scan")["calls"],
        "semiexternal.scanned_edges": row("semiexternal.support_scan")["edges"],
        "graph.subgraphs": row("graph.subgraph")["calls"],
        "bench.other_pct": 100.0 * row("bench.run")["self_s"] / program_s,
        "bench.trace_overhead_x": host["traced_s"] / host["untraced_s"],
    })
    counts = host["counts"]
    touches = sum(host["touches"].values())
    reads = sum(reads for reads, _writes in host["by_extent"].values())
    values.update({
        "structures.heap_ops": counts.get("structures.heap_ops", 0),
        "storage.scalar_touches": counts.get("storage.scalar_touches", 0),
        "storage.batch_touches": counts.get("storage.batch_touches", 0),
        "storage.cache_hit_ratio": 1.0 - reads / touches if touches else 0.0,
    })
    for name, (extent_reads, extent_writes) in host["by_extent"].items():
        group = extent_group(name)
        if group in EXTENT_GROUPS:
            values[f"storage.ios.{group}"] += extent_reads + extent_writes
    return values


# --------------------------------------------------------------------- #
# static workloads
# --------------------------------------------------------------------- #


def check_static(ops: List[Dict[str, Any]], k_max: int, pairs_by_copy, outcome: Outcome) -> None:
    """Each computation must return the oracle's ``k_max`` and the truss
    edges of the copy it ran on."""
    for op in ops:
        outcome.attempted += 1
        if "error" in op:
            outcome.fail(1, op["error"].strip().splitlines()[-1])
        elif (
            op["k_max"] != k_max
            or [tuple(edge) for edge in op["edges"]] != pairs_by_copy[op.get("copy", 0)]
        ):
            outcome.fail(1, f"k_max {op['k_max']} (oracle {k_max}) or truss edges differ")


def run_static(workload: Workload, seed: int, seconds: float, trace: bool, smoke: bool,
               outcome: Outcome):
    base = GRAPHS[workload.graph][smoke]()
    oracle_start = clock()
    k_max, base_pairs = max_truss_edges(base)
    oracle_s = clock() - oracle_start
    # The relabelled copies are isomorphic to the base graph, so the
    # oracle's truss edges map over by the same permutation.
    rng = workload_rng(workload.name, seed)
    directory = prepare_dir(workload.name)
    pairs_by_copy = []
    for copy in range(STATIC_COPIES):
        permutation = rng.permutation(base.n)
        write_rgr(relabel(base, permutation), directory / f"graph-{copy}.rgr")
        pairs_by_copy.append(sorted(
            tuple(sorted((int(permutation[u]), int(permutation[v])))) for u, v in base_pairs
        ))
    args = ["static", str(directory), "--methods", ",".join(workload.methods)]
    if not trace:
        host = run_host(args + ["--seconds", str(seconds)])
        ops = host["ops"]
        check_static(ops, k_max, pairs_by_copy, outcome)
        by_pair: Dict[Tuple[str, int], List[Dict[str, Any]]] = {}
        for op in ops:
            by_pair.setdefault((op["method"], op["copy"]), []).append(op)
        # A pair's repeats are one deterministic computation; they differ
        # only by interference from the machine, so the fastest is the
        # program's time on that pair. Averaging over the copies evens out
        # how the seed's relabelling happened to lay the graph out.
        fastest = {pair: min(op["op_s"] for op in group) for pair, group in by_pair.items()}
        by_method = {
            method: stats.mean([s for (m, _copy), s in fastest.items() if m == method])
            for method in workload.methods
        }
        speed = reference_speed(workload.name, host["reference_s"])
        mean_s = speed * stats.mean(list(by_method.values()))
        values = {
            "setup_s": speed * stats.median(host["setup_s"]),
            # The mean computation, over methods and copies.
            "latency_ms": 1000.0 * mean_s,
            # Each computation is deterministic, so the tail is the slower
            # method's mean computation.
            "latency_tail_ms": 1000.0 * speed * max(by_method.values()),
            # Work completed per second at this input size: edges decomposed.
            "throughput_per_s": base.m / mean_s,
            "ios_per_op": stats.mean([
                stats.median([op.get("ios", 0) for op in group]) for group in by_pair.values()
            ]),
            "peak_rss_mb": host["rss_kib"] / 1024.0,
        }
        return values, END_TO_END
    host = run_host(args + ["--trace"])
    check_static(host["ops"], k_max, pairs_by_copy, outcome)
    spans = read_spans(directory)
    traced = host["traced"]
    values = layer_values(spans, host)
    values.update({
        "core.search_probes": sum(op.get("extras", {}).get("search_probes", 0) for op in traced),
        "storage.accounting_pct": (
            100.0 * (host["untraced_s"] - host["inmemory_s"]) / host["untraced_s"]
        ),
        "storage.peak_model_bytes": max(op.get("peak_model_bytes", 0) for op in traced),
        "baselines.oracle_x": host["untraced_s"] / (len(traced) * oracle_s),
    })
    write_trace(workload.name, {
        "kind": "static", "methods": list(workload.methods), "seed": seed,
        "untraced_s": host["untraced_s"], "traced_s": host["traced_s"],
        "inmemory_s": host["inmemory_s"], "oracle_s": oracle_s,
    }, spans)
    return values, PER_LAYER


# --------------------------------------------------------------------- #
# dynamic workload
# --------------------------------------------------------------------- #


def dynamic_oracle(graph: Graph, ops, check_every: int) -> Dict[int, Tuple[int, list]]:
    """``update count -> (k_max, truss edges)`` on the bench's mirror graph."""
    mirror = graph.to_mutable()
    expected = {}
    for index, (op, u, v) in enumerate(ops, start=1):
        if op == "insert":
            mirror.insert_edge(u, v)
        else:
            mirror.delete_edge(u, v)
        if index % check_every == 0 or index == len(ops):
            frozen, _ = mirror.to_graph()
            expected[index] = max_truss_edges(frozen)
    return expected


def check_dynamic(run: Dict[str, Any], expected, outcome: Outcome) -> None:
    outcome.attempted += len(run["modes"])
    for error in run["errors"]:
        outcome.fail(1, error.strip().splitlines()[-1])
    seen = {point["after"]: point for point in run["checkpoints"]}
    for after, (k_max, pairs) in expected.items():
        point = seen.get(after)
        if point is None:
            outcome.fail(1, f"no checkpoint after {after} updates")
        elif point["k_max"] != k_max or [tuple(p) for p in point["pairs"]] != pairs:
            outcome.fail(1, f"class after {after} updates differs from the oracle")


def run_dynamic(workload: Workload, seed: int, seconds: float, trace: bool, smoke: bool,
                outcome: Outcome):
    base = GRAPHS[workload.graph][smoke]()
    base_ops = mixed_churn(
        base, DYNAMIC_UPDATES[smoke], insert_fraction=0.5, seed=STRUCTURE_SEED
    )
    rng = workload_rng(workload.name, seed)
    permutation = rng.permutation(base.n)
    graph = relabel(base, permutation)
    ops = [(op, int(permutation[u]), int(permutation[v])) for op, u, v in base_ops]
    check_every = CHECK_EVERY // 10 if smoke else CHECK_EVERY
    directory = prepare_dir(workload.name)
    write_rgr(graph, directory / "graph.rgr")
    (directory / "updates.json").write_text(
        json.dumps({"ops": ops, "check_every": check_every})
    )
    expected = dynamic_oracle(graph, ops, check_every)
    if not trace:
        host = run_host(["dynamic", str(directory), "--seconds", str(seconds)])
        passes = host["passes"]
        for stream in passes:
            check_dynamic(stream, expected, outcome)
        # Every pass applies the same updates to the same state, so an
        # update's fastest pass is its time without machine interference;
        # the passes spread each update's repeats over the whole run.
        speed = reference_speed(workload.name, host["reference_s"])
        latencies = [speed * min(times) for times in zip(*(p["latency_s"] for p in passes))]
        values = {
            "setup_s": speed * stats.median(host["setup_s"]),
            "latency_ms": 1000.0 * stats.median(latencies),
            "latency_tail_ms": 1000.0 * stats.tail(latencies),
            "throughput_per_s": len(latencies) / sum(latencies),
            "ios_per_op": sum(passes[0]["ios"]) / len(passes[0]["ios"]),
            "peak_rss_mb": host["rss_kib"] / 1024.0,
        }
        return values, END_TO_END
    host = run_host(["dynamic", str(directory), "--trace"])
    for stream in host["passes"]:
        check_dynamic(stream, expected, outcome)
    spans = read_spans(directory)
    modes = host["passes"][1]["modes"]
    values = layer_values(spans, host)
    values.update({
        "storage.peak_model_bytes": host["passes"][1]["peak_model_bytes"],
        "dynamic.global_phases": modes.count("global"),
        "dynamic.untouched_updates": modes.count("untouched"),
        "dynamic.local_updates": modes.count("local"),
    })
    write_trace(workload.name, {
        "kind": "dynamic", "seed": seed, "updates": len(ops),
        "untraced_s": host["untraced_s"], "traced_s": host["traced_s"],
    }, spans)
    return values, PER_LAYER


# --------------------------------------------------------------------- #
# serve workload
# --------------------------------------------------------------------- #


class Requests:
    """The request mix: 90% ``membership`` (k uniform in 3..6) on
    Zipf(1.1)-ranked edges, whose ranks pass through a seeded permutation,
    and 10% ``trussness`` on uniformly drawn edges."""

    def __init__(self, graph: Graph, trussness: np.ndarray, rng: np.random.Generator):
        self.edges = graph.edges
        self.trussness = trussness
        self.rng = rng
        self.by_rank = rng.permutation(graph.m)
        weights = np.arange(1, graph.m + 1, dtype=np.float64) ** -1.1
        self.cumulative = np.cumsum(weights / weights.sum())
        self.next_id = 0

    def take(self, count: int) -> Tuple[List[bytes], List[Tuple[str, int, int]]]:
        """*count* encoded request lines and their expected answers."""
        rng = self.rng
        membership = rng.random(count) < 0.9
        ranks = np.searchsorted(self.cumulative, rng.random(count))
        ranks = np.minimum(ranks, len(self.by_rank) - 1)
        zipf_eids = self.by_rank[ranks]
        uniform_eids = rng.integers(0, len(self.edges), size=count)
        ks = rng.integers(3, 7, size=count)
        lines, expected = [], []
        for i in range(count):
            request_id = self.next_id
            self.next_id += 1
            eid = int(zipf_eids[i] if membership[i] else uniform_eids[i])
            u, v = (int(x) for x in self.edges[eid])
            if membership[i]:
                request = {"id": request_id, "op": "membership", "u": u, "v": v, "k": int(ks[i])}
                expected.append(("membership", int(self.trussness[eid]), int(ks[i])))
            else:
                request = {"id": request_id, "op": "trussness", "u": u, "v": v}
                expected.append(("trussness", int(self.trussness[eid]), 0))
            lines.append(json.dumps(request, separators=(",", ":")).encode() + b"\n")
        return lines, expected


@dataclass
class Window:
    """One measured window: load at REF_QPS for WINDOW_S, with every answer
    and the CPU time the server spent meanwhile."""

    result: loadgen.PhaseResult
    envelopes: List[Dict[str, Any]]
    cpu_s: float

    @property
    def latencies(self) -> List[float]:
        return self.result.latencies

    @property
    def answers_per_cpu_s(self) -> float:
        return len(self.envelopes) / self.cpu_s


def check_serve(envelopes, expected, outcome: Outcome) -> None:
    """Every answer must equal the oracle; missing answers count as failed."""
    outcome.attempted += len(expected)
    if len(envelopes) < len(expected):
        outcome.fail(len(expected) - len(envelopes), "answers missing")
    for envelope, (op, tau, k) in zip(envelopes, expected):
        result = envelope.get("result") or {}
        if not envelope.get("ok"):
            outcome.fail(1, f"error envelope: {envelope.get('error')}")
        elif result.get("trussness") != tau or (
            op == "membership" and result.get("member") != (tau >= k)
        ):
            outcome.fail(1, f"{op} answered {result}, oracle trussness {tau}")


class Server:
    """One ``host.py serve`` process: spawned, timed to READY, shut down."""

    def __init__(self, directory: pathlib.Path, trace: bool) -> None:
        start = clock()
        self.proc = spawn_host(["serve", str(directory)] + (["--trace"] if trace else []))
        line = self._readline(SPAWN_TIMEOUT_S)
        self.setup_s = clock() - start
        if not line.startswith("READY "):
            self.kill()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split()[1])

    def _readline(self, timeout: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        return self.proc.stdout.readline().strip() if ready else ""

    def cpu_s(self) -> float:
        """CPU time the server's live threads have used so far, to the
        nanosecond (the first field of each thread's ``schedstat``)."""
        total = 0
        for task in pathlib.Path(f"/proc/{self.proc.pid}/task").iterdir():
            try:
                total += int((task / "schedstat").read_text().split()[0])
            except FileNotFoundError:  # the thread ended meanwhile
                pass
        return total / 1e9

    def shutdown(self) -> Dict[str, Any]:
        """Ask the server to drain and exit; returns its RESULT record."""
        try:
            with socket.create_connection(("127.0.0.1", self.port), timeout=30) as sock:
                sock.sendall(b'{"op":"shutdown"}\n')
                sock.recv(4096)
            out, _ = self.proc.communicate(timeout=60)
        finally:
            self.kill()
        for line in out.splitlines():
            if line.startswith("RESULT "):
                return json.loads(line[len("RESULT "):])
        raise RuntimeError("server exited without a RESULT line")

    def kill(self) -> None:
        """Stop the process if it still runs (no-op after a clean shutdown)."""
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def drive_window(sock, server: Server, requests: Requests, rate: float, duration: float, rng,
                 outcome) -> Window:
    """Open-loop load at *rate* for *duration*; every answer is checked."""
    offsets = loadgen.poisson_offsets(rate, duration, rng)
    lines, expected = requests.take(len(offsets))
    cpu_before = server.cpu_s()
    result = loadgen.drive(sock, lines, offsets)
    cpu_s = server.cpu_s() - cpu_before
    envelopes = [json.loads(line) for line in result.payload.splitlines()]
    check_serve(envelopes, expected, outcome)
    if len(envelopes) < len(expected):
        # Late answers would be read as the next window's: stop here.
        raise RuntimeError("the server stopped answering")
    return Window(result, envelopes, cpu_s)


def run_serve(workload: Workload, seed: int, seconds: float, trace: bool, smoke: bool,
              outcome: Outcome):
    base = GRAPHS[workload.graph][smoke]()
    graph = relabel(base, workload_rng(workload.name, seed).permutation(base.n))
    directory = prepare_dir(workload.name)
    write_rgr(graph, directory / "graph.rgr")
    trussness = truss_decomposition(graph)
    window_s = 0.3 if smoke else WINDOW_S
    per_server = max(MIN_WINDOWS, round(seconds / (SERVE_SETUPS * window_s)) - 1)
    # The client times the speed reference between windows and spawns.
    kernel = reference.SpeedReference()

    def measured_window(sock, server: Server, requests: Requests, send_rng) -> Window:
        for _ in range(KERNEL_SAMPLES):
            kernel.sample()
        return drive_window(sock, server, requests, REF_QPS, window_s, send_rng, outcome)

    def session(server: Server) -> Tuple[List[Window], Dict[str, Any]]:
        """Warm-up, then *per_server* measured windows, over one connection.

        Every session draws the same send times and requests from the
        seed, so every server (traced or not) sees identical load.
        """
        requests = Requests(graph, trussness, workload_rng(workload.name, seed, 2))
        send_rng = workload_rng(workload.name, seed, 1)
        try:
            with loadgen.connect(server.port) as sock:
                drive_window(sock, server, requests, WARM_QPS, window_s, send_rng, outcome)
                windows = [
                    measured_window(sock, server, requests, send_rng)
                    for _ in range(per_server)
                ]
            return windows, server.shutdown()
        finally:
            server.kill()

    def latencies(windows: List[Window]) -> List[float]:
        return [latency for window in windows for latency in window.latencies]

    if not trace:
        # Each spawned server serves its share of the measured windows:
        # how fast a server answers depends on where its threads land on
        # the machine's cores, and the windows should sample that too.
        setups, windows, hosts = [], [], []
        for _ in range(SERVE_SETUPS):
            for _ in range(KERNEL_SAMPLES):
                kernel.sample()
            server = Server(directory, trace=False)
            setups.append(server.setup_s)
            served, host = session(server)
            windows += served
            hosts.append(host)
        # A result-cache hit replays the original bill but touches no block.
        read_ios = [
            0 if e.get("cached") else e["io"]["read_ios"] for w in windows for e in w.envelopes
        ]
        lags = [lag for window in windows for lag in window.result.lags]
        speed = reference_speed(workload.name, kernel.samples)
        values = {
            "setup_s": speed * stats.median(setups),
            "latency_ms": (
                1000.0 * speed * stats.across_windows([w.latencies for w in windows], 0.5)
            ),
            # The p95, not the p99: a window's p99 is set by the machine's
            # scheduling hiccups, which come and go between runs.
            "latency_tail_ms": (
                1000.0 * speed * stats.across_windows([w.latencies for w in windows], 0.95)
            ),
            # What one server core sustains: answers per CPU-second of the
            # server, the upper quartile over the windows (the quieter ones,
            # as for the latencies).
            "throughput_per_s": (
                stats.quartiles([w.answers_per_cpu_s for w in windows])[2] / speed
            ),
            "ios_per_op": sum(read_ios) / len(read_ios),
            "peak_rss_mb": max(h["rss_kib"] for h in hosts) / 1024.0,
        }
        print(f"# {workload.name} generator lag p99 "
              f"{1000.0 * stats.percentile(lags, 0.99):.4f} ms")
        return values, END_TO_END

    traced, host = session(Server(directory, trace=True))
    spans = read_spans(directory)
    plain, _ = session(Server(directory, trace=False))
    paths = layers.request_paths(spans)
    path_s = paths["path"] or 1.0
    values = idle_layers()
    for stage in SERVE_STAGES:
        values[f"{stage}_pct"] = 100.0 * paths.get(stage, 0.0) / path_s
    covered = sum(paths.get(stage, 0.0) for stage in SERVE_STAGES)
    values.update({
        "serve.cache_hit_ratio": host["cache_hit_ratio"],
        "bench.other_pct": 100.0 * max(0.0, path_s - covered) / path_s,
        "bench.trace_overhead_x": (
            stats.median(latencies(traced)) / stats.median(latencies(plain))
        ),
    })
    write_trace(workload.name, {
        "kind": "serve", "seed": seed, "requests": paths["requests"],
        "program_s": paths["path"], "cache_hit_ratio": host["cache_hit_ratio"],
    }, spans)
    return values, PER_LAYER


RUNNERS = {"static": run_static, "dynamic": run_dynamic, "serve": run_serve}


# --------------------------------------------------------------------- #
# command line
# --------------------------------------------------------------------- #


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> Dict[str, Any]:
    workload = BY_NAME[name]
    outcome = Outcome()
    try:
        values, table = RUNNERS[workload.kind](workload, seed, seconds, trace, smoke, outcome)
        result = render(outcome, values, table)
    except Exception as error:
        # The program broke off the run: report what was counted so far,
        # with the break itself as at least one failed operation.
        traceback.print_exc()
        if outcome.failed == 0:
            outcome.fail(1, f"{type(error).__name__}: {error}")
        attempted = max(outcome.attempted, outcome.failed)
        result = {"correct": False, "attempted": attempted, "failed": outcome.failed,
                  "metrics": {}}
    for problem in outcome.problems:
        print(f"# {name} failure: {problem}", file=sys.stderr)
    return result


def print_lines(name: str, result: Dict[str, Any]) -> None:
    for metric, entry in result["metrics"].items():
        print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
    print(f"{name} attempted {result['attempted']} failed {result['failed']}")


def run_all(args) -> int:
    """Every workload in its own fresh process; prints and stores all."""
    results = {}
    for workload in WORKLOADS:
        command = [
            sys.executable, str(BENCH / "run.py"), "--workload", workload.name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"{workload.name} exited with {proc.returncode} and no result",
                  file=sys.stderr)
            results[workload.name] = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
            continue
        results[workload.name] = json.loads(lines[-1])
        print("\n".join(lines[:-1]), flush=True)
    report = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace, "workloads": results}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: run the per-layer pass")
    parser.add_argument("--out", type=pathlib.Path, help="also store the results here")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, short phases")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "workloads": {args.workload: result},
        }, indent=1) + "\n")
    print_lines(args.workload, result)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
