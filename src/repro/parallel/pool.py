"""Process pool dispatching shard kernels over shared-memory graph images.

The pool is deliberately small and explicit (no ``multiprocessing.Pool``):
each worker owns a task queue (so shard -> worker assignment is
deterministic), results come back tagged on one shared queue, and image
publications are broadcast in-band so FIFO ordering guarantees a worker
has attached an image before any task references it.

Each worker process runs against its own
:class:`~repro.engine.ExecutionContext` (``inmemory`` backend — workers
compute values, they never charge the model bill) with a private
:class:`~repro.storage.MemoryMeter`; the context is closed in the
worker's ``finally`` *and again* by the stop handler, which is exactly
the double-close path ``ExecutionContext.close`` must tolerate.
"""

from __future__ import annotations

import multiprocessing
import traceback
from typing import Any, Dict, List, Tuple

_RESULT_TIMEOUT = 120.0  # seconds; a worker stuck longer than this is dead


def _worker_main(worker_id: int, task_queue, result_queue, foreign_tracker: bool) -> None:
    """Worker loop: attach images, run kernels, return (tag, payload)."""
    from ..engine import EngineConfig, ExecutionContext
    from . import kernels
    from .shm import AttachedImage, attach_array, mark_foreign_tracker

    if foreign_tracker:
        # Spawn start method: this process's resource tracker never saw
        # the parent create the segments, so attachments must unregister.
        mark_foreign_tracker()
    context = ExecutionContext(EngineConfig(backend="inmemory"))
    images: Dict[int, AttachedImage] = {}
    try:
        while True:
            message = task_queue.get()
            if message is None:
                break
            kind = message[0]
            try:
                if kind == "publish":
                    _kind, key, descriptors = message
                    images[key] = AttachedImage(descriptors)
                elif kind == "drop":
                    image = images.pop(message[1], None)
                    if image is not None:
                        image.close()
                elif kind == "scan":
                    _kind, tag, key, out_descriptor, lo, hi, block_size = message
                    out_segment, out_values = attach_array(out_descriptor)
                    try:
                        ledger = kernels.scan_shard(
                            images[key].views, out_values, lo, hi,
                            block_size, worker_id, memory=context.memory,
                        )
                    finally:
                        del out_values
                        out_segment.close()
                    result_queue.put((tag, "ok", ledger))
                else:  # pragma: no cover - protocol-defensive
                    result_queue.put((None, "error", f"unknown task {kind!r}"))
            except Exception:
                if kind == "scan":
                    result_queue.put((message[1], "error", traceback.format_exc()))
                else:  # pragma: no cover - publish/drop never raise in tests
                    result_queue.put((None, "error", traceback.format_exc()))
    finally:
        for image in images.values():
            image.close()
        context.close()
        # Teardown runs close() again on the shared path with the stop
        # handler — ExecutionContext.close must be idempotent.
        context.close()


class WorkerPool:
    """A fixed set of kernel workers fed over per-worker task queues."""

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("WorkerPool needs at least one worker")
        methods = multiprocessing.get_all_start_methods()
        start_method = "fork" if "fork" in methods else "spawn"
        self._mp = multiprocessing.get_context(start_method)
        self.workers = workers
        self._result_queue = self._mp.Queue()
        self._task_queues = [self._mp.Queue() for _ in range(workers)]
        self._processes = []
        for worker_id in range(workers):
            process = self._mp.Process(
                target=_worker_main,
                args=(
                    worker_id,
                    self._task_queues[worker_id],
                    self._result_queue,
                    start_method != "fork",
                ),
                daemon=True,
            )
            process.start()
            self._processes.append(process)
        self._published: set = set()
        self._next_tag = 0
        self._closed = False

    # ------------------------------------------------------------------ #
    # image lifecycle
    # ------------------------------------------------------------------ #

    def publish(self, key: int, descriptors: Dict[str, tuple]) -> None:
        """Broadcast an image to every worker (attach before first task)."""
        if key in self._published:
            return
        for queue in self._task_queues:
            queue.put(("publish", key, descriptors))
        self._published.add(key)

    def drop(self, key: int) -> None:
        """Broadcast image teardown (workers close their attachments)."""
        if key not in self._published:
            return
        for queue in self._task_queues:
            queue.put(("drop", key))
        self._published.discard(key)

    # ------------------------------------------------------------------ #
    # task dispatch
    # ------------------------------------------------------------------ #

    def run_tasks(self, tasks: List[Tuple[int, tuple]]) -> List[Any]:
        """Run ``(worker_id, message_tail)`` tasks; results in task order.

        ``message_tail`` is the task tuple *without* the tag; the pool
        inserts a unique tag as the second element and collects results by
        it. Worker errors re-raise in the parent with the remote traceback.
        """
        tags = []
        for worker_id, tail in tasks:
            tag = self._next_tag
            self._next_tag += 1
            message = (tail[0], tag) + tuple(tail[1:])
            self._task_queues[worker_id % self.workers].put(message)
            tags.append(tag)
        pending = set(tags)
        results: Dict[int, Any] = {}
        while pending:
            tag, status, payload = self._result_queue.get(timeout=_RESULT_TIMEOUT)
            if status != "ok":
                raise RuntimeError(f"parallel worker failed:\n{payload}")
            results[tag] = payload
            pending.discard(tag)
        return [results[tag] for tag in tags]

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def shutdown(self) -> None:
        """Stop every worker (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for queue in self._task_queues:
            try:
                queue.put(None)
            except Exception:  # pragma: no cover - teardown-defensive
                pass
        for process in self._processes:
            process.join(timeout=10)
            if process.is_alive():  # pragma: no cover - hung worker
                process.terminate()
                process.join(timeout=5)
        for queue in self._task_queues + [self._result_queue]:
            queue.close()
            queue.join_thread()
        self._processes = []

    def __del__(self):  # pragma: no cover - GC-order dependent
        try:
            self.shutdown()
        except Exception:
            pass
