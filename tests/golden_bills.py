"""Golden bill table: the charged I/O bill and the answers, pinned across commits.

Every other equivalence guard compares two paths at the same commit (batch
vs scalar device, ``file`` vs ``simulated``), so a rewrite that
changes *which* cells an algorithm touches passes all of them. This table
is the cross-commit check: it records, for a fixed set of small inputs on
a tiny buffer pool (256-byte blocks, 8 frames, where every policy
difference shows), what each charged path answers and what it bills:

* ``methods`` — the five charged ``max_truss`` methods × ``lru`` /
  ``fifo`` / ``clock`` × four graphs: ``k_max``, the truss-edge count,
  ``read_ios``, ``write_ios``, ``io_by_extent()`` (after the closing
  flush) and peak model memory;
* ``maintenance`` — per policy, on ``chung_lu``: one 80-update
  ``mixed_churn`` stream through ``DynamicMaxTruss.insert``/``delete``
  (each update's ``k_max`` and mode, and the stream's whole bill); a
  20-update stream through ``YLJMaintenance`` (each update's ``k_max``,
  mode and I/O, and the whole bill); and the 80-update stream applied
  10 at a time through ``DynamicMaxTruss.apply_batch`` (each batch's
  counts, mode, cancelled ops, gate probes and I/O, and the whole bill);
* ``serve`` — one request per query op (exact, plus the approximate
  point ops) with the result cache off: the envelope's ``io`` and a
  digest of its ``result``;
* ``decompositions`` — on the same graphs and policies, the h-index
  truss decomposition (a digest of every edge's trussness, its round
  count and its whole bill) and the semi-external k-truss query at
  ``k = 3``, ``k = k_max`` and a level above every support (edge count
  and bill).

With the pool's two settings that makes 128 rows, the count ``--check``
prints. Regenerate after a change that alters a bill on purpose (and say
why in the change log)::

    PYTHONPATH=src python tests/golden_bills.py

Check without writing (exit status 1 and the differing rows on a
mismatch)::

    PYTHONPATH=src python tests/golden_bills.py --check

``tests/test_golden_bills.py`` runs the same comparison in the tier-1
suite.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys
from typing import Any, Dict

TABLE_PATH = pathlib.Path(__file__).with_name("golden_bills.json")

BLOCK_SIZE = 256
CACHE_BLOCKS = 8
POLICIES = ("lru", "fifo", "clock")
METHODS = ("semi-binary", "semi-greedy-core", "semi-lazy-update", "bottom-up", "top-down")
MAINTENANCE_UPDATES = 80
YLJ_UPDATES = 20
BATCH_SIZE = 10


def _graphs():
    from repro.graph.generators import (
        chung_lu,
        gnm_random,
        paper_example_graph,
        planted_kmax_truss,
    )

    return {
        "paper": paper_example_graph(),
        "gnm": gnm_random(40, 220, seed=1),
        "planted": planted_kmax_truss(7, periphery_n=60, seed=2),
        "chung_lu": chung_lu(120, 6.0, seed=3),
    }


def _config(policy: str, **extra):
    from repro.engine import EngineConfig

    return EngineConfig(
        block_size=BLOCK_SIZE, cache_blocks=CACHE_BLOCKS, cache_policy=policy, **extra
    )


def _extents(device) -> Dict[str, list]:
    return {name: [reads, writes] for name, (reads, writes) in device.io_by_extent().items()}


def _method_row(graph, method: str, policy: str) -> Dict[str, Any]:
    from repro import ExecutionContext, max_truss

    context = ExecutionContext(_config(policy))
    try:
        result = max_truss(graph, method=method, context=context)
    finally:
        context.close()
    return {
        "k_max": result.k_max,
        "truss_edges": len(result.truss_edges),
        "read_ios": result.io.read_ios,
        "write_ios": result.io.write_ios,
        "io_by_extent": _extents(context.device),
        "peak_memory_bytes": result.peak_memory_bytes,
    }


def _h_index_row(graph, policy: str) -> Dict[str, Any]:
    from repro import ExecutionContext
    from repro.semiexternal.truss_decomp import h_index_truss_decomposition

    context = ExecutionContext(_config(policy))
    try:
        result = h_index_truss_decomposition(graph, context=context)
    finally:
        context.close()
    return {
        "k_max": result.k_max,
        "rounds": result.rounds,
        "trussness_sha256": hashlib.sha256(
            json.dumps(result.trussness.tolist()).encode()
        ).hexdigest()[:16],
        "read_ios": context.stats.read_ios,
        "write_ios": context.stats.write_ios,
        "io_by_extent": _extents(context.device),
    }


def _k_truss_row(graph, k: int, policy: str) -> Dict[str, Any]:
    from repro import ExecutionContext
    from repro.core.k_truss import k_truss_semi_external

    context = ExecutionContext(_config(policy))
    try:
        result = k_truss_semi_external(graph, k, context=context)
    finally:
        context.close()
    return {
        "k": k,
        "edges": result.edge_count,
        "read_ios": result.io.read_ios,
        "write_ios": result.io.write_ios,
        "io_by_extent": _extents(context.device),
    }


def _stream_row(graph, policy: str, build, run) -> Dict[str, Any]:
    """Bill one update stream: *build* makes the maintainer on a fresh
    context, *run* drives it and returns the row's per-step fields."""
    from repro import ExecutionContext

    context = ExecutionContext(_config(policy))
    try:
        maintainer = build(graph, context=context)
        before = context.stats.snapshot()
        row = run(maintainer)
        bill = context.stats.since(before)
    finally:
        context.close()
    row.update(
        read_ios=bill.read_ios,
        write_ios=bill.write_ios,
        io_by_extent=_extents(context.device),
        peak_memory_bytes=context.memory.peak_bytes,
    )
    return row


def _maintenance_rows(graph, policy: str) -> Dict[str, Dict[str, Any]]:
    from repro.dynamic import DynamicMaxTruss, YLJMaintenance
    from repro.dynamic.workload import mixed_churn

    stream = mixed_churn(graph, MAINTENANCE_UPDATES, seed=4)

    def per_update(state):
        updates = []
        for op, u, v in stream:
            result = state.insert(u, v) if op == "insert" else state.delete(u, v)
            updates.append([op, u, v, result.k_max_after, result.mode])
        return {"updates": updates, "truss_edges": state.truss_edge_count()}

    def ylj(baseline):
        updates = []
        for op, u, v in stream[:YLJ_UPDATES]:
            result = baseline.insert(u, v) if op == "insert" else baseline.delete(u, v)
            updates.append([op, u, v, result.k_max_after, result.mode,
                            result.io.read_ios, result.io.write_ios])
        return {"updates": updates}

    def batched(state):
        batches = []
        for start in range(0, len(stream), BATCH_SIZE):
            result = state.apply_batch(stream[start:start + BATCH_SIZE])
            batches.append([
                result.operations, result.insertions, result.deletions,
                result.k_max_after, result.mode, result.cancelled_ops,
                result.gate_probes, result.io.read_ios, result.io.write_ios,
            ])
        return {"batches": batches, "truss_edges": state.truss_edge_count()}

    return {
        f"chung_lu/{policy}": _stream_row(graph, policy, DynamicMaxTruss, per_update),
        f"chung_lu/ylj/{policy}": _stream_row(graph, policy, YLJMaintenance, ylj),
        f"chung_lu/batch/{policy}": _stream_row(graph, policy, DynamicMaxTruss, batched),
    }


def _serve_requests(graph):
    u, v = (int(x) for x in graph.edges[graph.m // 2])
    return {
        "membership": {"op": "membership", "u": u, "v": v, "k": 4},
        "trussness": {"op": "trussness", "u": u, "v": v},
        "community": {"op": "community", "q": u, "include_edges": True},
        "hierarchy": {"op": "hierarchy"},
        "export": {"op": "export"},
        "stats": {"op": "stats"},
        "membership-approx": {"op": "membership", "u": u, "v": v, "k": 4,
                              "precision": "approx"},
        "trussness-approx": {"op": "trussness", "u": u, "v": v, "precision": "approx"},
        "stats-approx": {"op": "stats", "precision": "approx"},
    }


def _serve_rows(graph) -> Dict[str, Any]:
    from repro.serve.engine import QueryEngine
    from repro.serve.snapshot import SnapshotManager

    engine = QueryEngine(
        SnapshotManager.initial(graph),
        _config("lru", serve_cache_entries=0),
    )
    rows = {}
    for name, request in _serve_requests(graph).items():
        envelope = engine.execute(dict(request, id=name))
        digest = hashlib.sha256(
            json.dumps(envelope["result"], sort_keys=True).encode()
        ).hexdigest()[:16]
        rows[name] = {"io": envelope["io"], "result_sha256": digest}
    return rows


def compute_table() -> Dict[str, Any]:
    """Recompute every row of the table from the current code."""
    graphs = _graphs()
    methods, maintenance, decompositions = {}, {}, {}
    for graph_name, graph in graphs.items():
        for method in METHODS:
            for policy in POLICIES:
                methods[f"{graph_name}/{method}/{policy}"] = _method_row(graph, method, policy)
        for policy in POLICIES:
            h_index = decompositions[f"{graph_name}/h-index/{policy}"] = _h_index_row(
                graph, policy
            )
            # "above": a level past every support, the query's early return.
            above = int(graph.edge_supports().max()) + 3
            for label, k in (("3", 3), ("k_max", h_index["k_max"]), ("above", above)):
                decompositions[f"{graph_name}/k-truss-{label}/{policy}"] = _k_truss_row(
                    graph, k, policy
                )
    for policy in POLICIES:
        maintenance.update(_maintenance_rows(graphs["chung_lu"], policy))
    return {
        "pool": {"block_size": BLOCK_SIZE, "cache_blocks": CACHE_BLOCKS},
        "methods": methods,
        "maintenance": maintenance,
        "serve": _serve_rows(graphs["planted"]),
        "decompositions": decompositions,
    }


def render(table: Dict[str, Any]) -> str:
    """The table's canonical JSON text (byte-stable across runs)."""
    return json.dumps(table, indent=1, sort_keys=True) + "\n"


def differences(expected: Dict[str, Any], actual: Dict[str, Any]):
    """``section/row`` keys whose recomputed value differs (or is missing)."""
    keys = []
    for section in sorted(set(expected) | set(actual)):
        left, right = expected.get(section), actual.get(section)
        if not isinstance(left, dict) or not isinstance(right, dict):
            if left != right:
                keys.append(section)
            continue
        for row in sorted(set(left) | set(right)):
            if left.get(row) != right.get(row):
                keys.append(f"{section}/{row}")
    return keys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--check", action="store_true",
        help="recompute and compare with the committed table; write nothing",
    )
    args = parser.parse_args(argv)
    table = compute_table()
    if not args.check:
        TABLE_PATH.write_text(render(table))
        print(f"wrote {TABLE_PATH}")
        return 0
    expected = json.loads(TABLE_PATH.read_text())
    changed = differences(expected, table)
    if changed or render(expected) != render(table):
        print("golden bill table differs in:", file=sys.stderr)
        for key in changed:
            print(f"  {key}", file=sys.stderr)
        return 1
    print(f"golden bill table matches ({sum(len(v) for v in table.values() if isinstance(v, dict))} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
