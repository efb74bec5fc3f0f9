"""Outside-in layer instrumentation for the benchmark's traced runs.

Nothing under ``src/`` knows about it: spans and counters are installed by
replacing public callables *at the binding their caller uses*. A
``from .peeling import peel_below`` copies the function into the importing
module, so patching only ``repro.core.peeling`` would miss every caller;
the tables below therefore name the calling module. (The package attribute
``repro.core.semi_binary`` is the re-exported *function*, which is why
modules are reached through :func:`importlib.import_module`.)

Two passes, never combined in one run:

* the **span pass** (:class:`SpanRecorder`) wraps coarse calls only, so its
  overhead stays small, and charges each span the block I/Os the program's
  ledger moved while it was open;
* the **count pass** (:class:`CallCounter`) counts calls on the hot
  per-edge and per-block methods, which costs too much to run under the
  span pass's timings.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import threading
import time
from collections import Counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: ``(calling module, attribute path, span name)`` of the span pass. The
#: span name's prefix is the layer, named after the ``repro`` subpackage.
SPAN_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.semi_binary", "peel_below", "core.peel"),
    ("repro.core.semi_greedy_core", "peel_below", "core.peel"),
    ("repro.dynamic.state", "peel_below", "core.peel"),
    ("repro.core.semi_binary", "compute_supports", "semiexternal.support_scan"),
    ("repro.core.semi_greedy_core", "compute_supports", "semiexternal.support_scan"),
    ("repro.dynamic.state", "compute_supports", "semiexternal.support_scan"),
    ("repro.core.semi_greedy_core", "semi_external_core_decomposition",
     "semiexternal.core_decomp"),
    ("repro.dynamic.state", "core_decomposition_inmemory", "semiexternal.core_decomp"),
    ("repro.core.semi_binary", "external_argsort_by_key", "storage.sort"),
    ("repro.graph.disk_graph", "DiskGraph.edge_subgraph", "graph.subgraph"),
    ("repro.graph.disk_graph", "DiskGraph.induced_subgraph", "graph.subgraph"),
    ("repro.core.peeling", "PlainDiskHeap.__init__", "structures.heap_build"),
    ("repro.structures.lhdh", "LHDH.__init__", "structures.heap_build"),
    ("repro.dynamic.state", "DynamicMaxTruss.global_phase", "dynamic.global_phase"),
    ("repro.dynamic.state", "DynamicMaxTruss.refresh_coreness", "dynamic.coreness_refresh"),
    # DynamicMaxTruss imports it inside _initialise, so the defining module
    # is the binding its caller reads.
    ("repro.baselines.inmemory", "truss_decomposition", "baselines.decomposition"),
)

#: Span points inside the server process (``host.py serve --trace``).
SERVE_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.serve.server", "decode_line", "serve.decode"),
    ("repro.serve.server", "encode_envelope", "serve.encode"),
    ("repro.serve.engine", "QueryEngine.execute", "serve.execute"),
    ("repro.serve.snapshot", "SnapshotManager.pin", "serve.pin"),
    ("repro.serve.snapshot", "SnapshotManager.unpin", "serve.pin"),
    ("repro.serve.cache", "ResultCache.get", "serve.cache_get"),
)

#: The stages :func:`request_paths` splits a served request into.
SERVE_STAGES = (
    "serve.decode", "serve.handoff_wait", "serve.execute", "serve.pin",
    "serve.cache_get", "serve.encode",
)

#: ``(module, attribute path, counter name)`` of the count pass. Small
#: batches fan out to the scalar touches, and those calls count as scalar.
COUNT_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.storage.device", "BlockDevice.touch_read", "storage.scalar_touches"),
    ("repro.storage.device", "BlockDevice.touch_write", "storage.scalar_touches"),
    ("repro.storage.device", "BlockDevice.touch_read_batch", "storage.batch_touches"),
    ("repro.storage.device", "BlockDevice.touch_write_batch", "storage.batch_touches"),
    ("repro.structures.linear_heap", "LinearHeap.insert", "structures.heap_ops"),
    ("repro.structures.linear_heap", "LinearHeap.remove", "structures.heap_ops"),
    ("repro.structures.linear_heap", "LinearHeap.update_key", "structures.heap_ops"),
    ("repro.structures.lhdh", "LHDH.decrement_edge", "structures.heap_ops"),
    ("repro.structures.lhdh", "LHDH.decrement_edges", "structures.heap_ops"),
)


def _work_note(name: str, args: tuple, result: Any) -> Dict[str, Any]:
    """Work done by one call, kept on its span (edges peeled or scanned)."""
    if name == "core.peel":
        return {"edges": int(result.removed_edges)}
    if name == "semiexternal.support_scan":
        return {"edges": int(args[0].m)}
    return {}


def _request_id(name: str, args: tuple, result: Any) -> Any:
    """The serve request id a span belongs to, when the call reveals it."""
    if name == "serve.decode" and isinstance(result, dict):
        return result.get("id")
    if name == "serve.encode" and args and isinstance(args[0], dict):
        return args[0].get("id")
    if name == "serve.execute" and len(args) > 1 and isinstance(args[1], dict):
        return args[1].get("id")
    return None


class Patches:
    """Installed replacements, restored in reverse order by :meth:`restore`."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any, bool]] = []

    def replace(self, module: str, path: str, make: Callable[[Callable], Callable]) -> None:
        owner: Any = importlib.import_module(module)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        own = attr in vars(owner)
        self._undo.append((owner, attr, original, own))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original, own = self._undo.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def _install(points: Sequence[Tuple[str, str, str]], wrapper: Callable) -> Patches:
    """Replace each point's callable ``f`` by ``wrapper(name, f)``."""
    patches = Patches()
    for module, path, name in points:
        patches.replace(module, path, functools.partial(wrapper, name))
    return patches


class SpanRecorder:
    """Coarse spans in memory: name, start, end, parent and request id.

    Each thread keeps its own stack, so spans opened on the server's loop
    thread and on its executor threads nest correctly. *io*, when set,
    returns the charged block I/Os the program's ledger has moved so far;
    each span then records the I/Os moved while it was open.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.io: Optional[Callable[[], int]] = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _ios(self) -> int:
        return 0 if self.io is None else self.io()

    @contextlib.contextmanager
    def span(self, name: str, rid: Any = None) -> Iterator[Dict[str, Any]]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        record: Dict[str, Any] = {
            "id": next(self._ids),
            "name": name,
            "parent": parent["id"] if parent else None,
            "rid": rid if rid is not None or parent is None else parent["rid"],
        }
        ios_before = self._ios()
        stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            record["ios"] = self._ios() - ios_before
            self.spans.append(record)

    def install(self, points: Sequence[Tuple[str, str, str]]) -> Patches:
        return _install(points, self._wrapper)

    def _wrapper(self, name: str, func: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            # Execute and encode carry the id in their arguments, so nested
            # spans (pin, cache lookup) inherit it; decode reveals it only
            # in its result.
            with self.span(name, rid=_request_id(name, args, None)) as record:
                result = func(*args, **kwargs)
                if record["rid"] is None:
                    record["rid"] = _request_id(name, args, result)
                record.update(_work_note(name, args, result))
                return result
        return wrapper


class CallCounter:
    """Call counts on the hot methods (single-threaded programs only)."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()

    def install(self, points: Sequence[Tuple[str, str, str]]) -> Patches:
        return _install(points, self._wrapper)

    def _wrapper(self, name: str, func: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)
        return wrapper


# --------------------------------------------------------------------- #
# span arithmetic
# --------------------------------------------------------------------- #


def _covered(start: float, end: float, intervals: List[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of *intervals*."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: Sequence[Dict[str, Any]]) -> Dict[int, Tuple[float, int]]:
    """``span id -> (self seconds, self I/Os)``.

    Self time is the span's duration minus the part of it that its child
    spans cover; self I/O is its I/O minus its children's.
    """
    children: Dict[int, List[Dict[str, Any]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        kids = children.get(span["id"], [])
        covered = _covered(
            span["start"], span["end"], [(k["start"], k["end"]) for k in kids]
        )
        own_ios = span.get("ios", 0) - sum(k.get("ios", 0) for k in kids)
        result[span["id"]] = (span["end"] - span["start"] - covered, own_ios)
    return result


def layer_table(spans: Sequence[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per span name: summed self seconds, calls, self I/Os and work notes."""
    own = self_times(spans)
    table: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(
            span["name"], {"self_s": 0.0, "calls": 0, "ios": 0, "edges": 0}
        )
        seconds, ios = own[span["id"]]
        row["self_s"] += seconds
        row["calls"] += 1
        row["ios"] += ios
        row["edges"] += span.get("edges", 0)
    return table


def request_paths(spans: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Server-side request time split into stages, summed over requests.

    A request's path runs from the start of its decode to the end of its
    encode. ``serve.handoff_wait`` is the time the request spends between
    the event loop and the executor thread: decode end to execute start,
    plus execute end to encode start. Whatever else the path holds (the
    event loop's own work, socket writes) no stage covers.
    """
    by_rid: Dict[Any, Dict[str, Dict[str, Any]]] = {}
    for span in spans:
        if span["name"] in ("serve.decode", "serve.execute", "serve.encode"):
            by_rid.setdefault(span["rid"], {})[span["name"]] = span
    own = self_times(spans)
    stage_of = {span["id"]: span["name"] for span in spans}
    totals = {"path": 0.0, "serve.handoff_wait": 0.0}
    complete = set()
    for rid, parts in by_rid.items():
        if len(parts) != 3 or rid is None:
            continue
        complete.add(rid)
        decode, execute, encode = (
            parts["serve.decode"], parts["serve.execute"], parts["serve.encode"]
        )
        totals["path"] += encode["end"] - decode["start"]
        totals["serve.handoff_wait"] += (
            max(0.0, execute["start"] - decode["end"])
            + max(0.0, encode["start"] - execute["end"])
        )
    for span in spans:
        if span["rid"] in complete:
            name = stage_of[span["id"]]
            totals[name] = totals.get(name, 0.0) + own[span["id"]][0]
    totals["requests"] = len(complete)
    return totals
