"""Shared-memory numpy views for the worker pool (zero-copy graph images).

Workers must see the parent's CSR arrays without pickling them per round
(the graph image is the bulk of the data; serialising it would erase the
point of parallelism). ``multiprocessing.shared_memory`` gives both sides
a view over the same pages: the parent *publishes* an image once per
scan, workers *attach* by segment name, and only tiny descriptor
tuples ever cross the task queues.

Lifecycle: the parent owns every segment (create + unlink); workers only
close their attachments. On Python < 3.13 an attaching process registers
the segment with its ``resource_tracker``; in a *spawned* worker that is
a fresh tracker which would unlink the parent's segment at worker exit,
so :func:`attach_array` unregisters it (the standard workaround; 3.13+
uses ``track=False`` directly). Forked workers — and the parent's own
re-attachments — share the tracker that witnessed creation, where the
re-registration is an idempotent no-op and unregistering would instead
erase the parent's legitimate entry; :func:`mark_foreign_tracker` is how
a spawned worker opts into the unregister.
"""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import Dict, List, Tuple

import numpy as np

#: Descriptor = (segment name, shape tuple, dtype string) — picklable.
Descriptor = Tuple[str, Tuple[int, ...], str]

#: True in processes whose resource tracker did not witness segment
#: creation (spawn-started workers); see :func:`mark_foreign_tracker`.
_FOREIGN_TRACKER = False


def mark_foreign_tracker() -> None:
    """Declare this process's resource tracker foreign to the segments.

    Called once at startup by spawn-started pool workers, before any
    :func:`attach_array`.
    """
    global _FOREIGN_TRACKER
    _FOREIGN_TRACKER = True


def share_array(values: np.ndarray) -> Tuple[shared_memory.SharedMemory, Descriptor]:
    """Copy *values* into a fresh shared segment; returns (segment, descriptor)."""
    values = np.ascontiguousarray(values)
    segment = shared_memory.SharedMemory(create=True, size=max(1, values.nbytes))
    view = np.ndarray(values.shape, dtype=values.dtype, buffer=segment.buf)
    view[...] = values
    return segment, (segment.name, tuple(values.shape), values.dtype.str)


def attach_array(descriptor: Descriptor) -> Tuple[shared_memory.SharedMemory, np.ndarray]:
    """Attach to a published segment; returns (segment handle, numpy view).

    The handle must outlive the view and be ``close()``d (not unlinked)
    when the worker drops the image.
    """
    name, shape, dtype = descriptor
    try:
        segment = shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track kwarg
        segment = shared_memory.SharedMemory(name=name)
        if _FOREIGN_TRACKER:
            try:  # keep unlink ownership with the parent (module docstring)
                from multiprocessing import resource_tracker

                resource_tracker.unregister(segment._name, "shared_memory")
            except Exception:  # pragma: no cover - platform-defensive
                pass
    view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=segment.buf)
    return segment, view


class SharedGraphImage:
    """Parent-side handle on one published CSR image (+ optional extras).

    ``descriptors`` maps field name (``offsets``, ``adj``, ``adj_eids``,
    optionally ``dense``) to its shared segment's picklable descriptor —
    the payload broadcast to workers.
    """

    def __init__(self, key: int) -> None:
        self.key = key
        self._segments: List[shared_memory.SharedMemory] = []
        self.descriptors: Dict[str, Descriptor] = {}

    def add(self, field: str, values: np.ndarray) -> None:
        segment, descriptor = share_array(values)
        self._segments.append(segment)
        self.descriptors[field] = descriptor

    @property
    def nbytes(self) -> int:
        return sum(segment.size for segment in self._segments)

    def destroy(self) -> None:
        """Close and unlink every segment (parent-side teardown)."""
        for segment in self._segments:
            try:
                segment.close()
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments = []
        self.descriptors = {}


def publish_graph(key: int, graph, dense_budget_bytes: int = 0) -> SharedGraphImage:
    """Publish a :class:`~repro.graph.memgraph.Graph`'s CSR arrays.

    When ``4 * n**2`` fits in *dense_budget_bytes* (and the graph is dense
    enough for BLAS to win, ``m >= n``), a float32 dense adjacency matrix
    is published alongside so workers can run the matmul scan kernel.
    """
    image = SharedGraphImage(key)
    image.add("offsets", graph.offsets)
    image.add("adj", graph.adj)
    image.add("adj_eids", graph.adj_eids)
    n = graph.n
    if n and graph.m >= n and 4 * n * n <= dense_budget_bytes:
        dense = np.zeros((n, n), dtype=np.float32)
        degrees = np.diff(graph.offsets)
        rows = np.repeat(np.arange(n, dtype=np.int64), degrees)
        dense[rows, graph.adj] = 1.0
        image.add("dense", dense)
    return image


def share_output(length: int, dtype=np.int64) -> Tuple[shared_memory.SharedMemory, Descriptor]:
    """A zero-filled shared result array workers scatter values into."""
    segment = shared_memory.SharedMemory(
        create=True, size=max(1, length * np.dtype(dtype).itemsize)
    )
    view = np.ndarray((length,), dtype=dtype, buffer=segment.buf)
    view[:] = 0
    return segment, (segment.name, (length,), np.dtype(dtype).str)


class AttachedImage:
    """Worker-side cache entry: attached views of one published image."""

    def __init__(self, descriptors: Dict[str, Descriptor]) -> None:
        self._segments: List[shared_memory.SharedMemory] = []
        self.views: Dict[str, np.ndarray] = {}
        for field, descriptor in descriptors.items():
            segment, view = attach_array(descriptor)
            self._segments.append(segment)
            self.views[field] = view

    def close(self) -> None:
        self.views = {}
        for segment in self._segments:
            try:
                segment.close()
            except Exception:  # pragma: no cover - teardown-defensive
                pass
        self._segments = []
