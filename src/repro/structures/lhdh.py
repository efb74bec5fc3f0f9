"""LHDH — the composite Linear-Heap + Dynamic-Heap structure (paper §III-C).

The linear-heap keeps every edge on disk bucketed by support; the dynamic
heap keeps the *frequently updated* edges in memory so that repeated support
decrements cost no I/O. The protocol implemented here is Algorithm 4
(``DeleteEdgeKernal``) plus its two maintenance rules:

* **spill** (lines 14–17): when the dynamic heap exceeds ``capacity``, its
  smallest ``capacity`` entries are written back to their linear-heap
  buckets;
* **write-back** (lines 18–20): after a kernel step, while the dynamic
  heap's top is no greater than the linear-heap minimum, top entries are
  written back so deletions keep draining from the linear heap.

The structure runs in two planes, as the support scan does:

* **values** — the linear heap's node records (``key`` / ``prev`` /
  ``next``), its bucket heads and counts and its minimum cursor are plain
  Python lists and ints (:class:`TracedLinearHeap`); the dynamic heap is a
  :class:`~repro.structures.DynamicHeap`;
* **charges** — every link-field touch the disk-resident records take is
  appended, in order, to a pending trace of ``(extent, offset, length,
  write)`` accesses on the ``{name}.lheap.key/prev/next`` extents, and
  posted through :meth:`~repro.storage.BlockDevice.replay` in chunks of at
  most :data:`_CHUNK` accesses. Replaying a trace in pieces, in order,
  charges what the scalar touches would.

Every public method posts what it appended before it returns, so a caller
that reads the ledger never finds accesses pending. The exception is
:func:`repro.core.peeling.peel_below`, whose LHDH kernel holds the posts
for the length of a peel, appends its own graph reads to the same trace and
posts it in full chunks, and whatever remains on every exit. The lists and
the trace are the simulator's scratch, outside the model bill.
``tests/lhdh_reference.py`` keeps the scalar structure — a
:class:`~repro.structures.LinearHeap` of ``DiskArray`` cells — as the
executable spec.

The structure exposes the uniform *peel-heap protocol* consumed by
:mod:`repro.core.peeling`: ``min_key``, ``pop_min``, ``collect_min_class``,
``pop_edge``, ``key_if_alive``, ``decrement_edge``, ``after_kernel``,
``__len__``.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from ..errors import ArrayBoundsError, CapacityError, HeapEmptyError, HeapError
from ..storage import BlockDevice, MemoryMeter
from .dynamic_heap import DynamicHeap
from .linear_heap import LinearHeap

_NIL = -1      # end of a bucket list
_DEAD = -2     # edge removed from the heap
_ITEMSIZE = 8  # node records are int64 cells

#: Accesses per replayed chunk of the charge trace (bounds its scratch).
_CHUNK = 512


class TracedLinearHeap:
    """The linear-heap half of LHDH, in two planes.

    The same bucket queue as :class:`~repro.structures.LinearHeap` — built
    by it, so the bin-sort write pass and its checks are that class's —
    with the node records held in lists afterwards. Each operation appends
    the link-field accesses the disk records would take to :attr:`trace`,
    three ints per access (``extent << 1 | write``, byte offset, length);
    the owner posts them with :meth:`post`.
    """

    def __init__(
        self,
        device: BlockDevice,
        eids: Iterable[int],
        keys: Iterable[int],
        memory: Optional[MemoryMeter] = None,
        name: str = "lheap",
    ) -> None:
        build = LinearHeap(device, eids, keys, memory=memory, name=name)
        self.device = device
        self.memory = memory
        self.name = name
        self.max_key = build.max_key
        self.length = build.keys.length
        self.extents = (build.keys.extent, build.prev.extent, build.next.extent)
        self.key: List[int] = build.keys.peek().tolist()
        self.prev: List[int] = build.prev.peek().tolist()
        self.next: List[int] = build.next.peek().tolist()
        self.heads: List[int] = build.heads.tolist()
        self.counts: List[int] = build.counts.tolist()
        self.size = len(build)
        self.min_cursor = 0
        key_extent, prev_extent, next_extent = self.extents
        #: Trace codes of a read (even) and a write (odd) of each record.
        self.key_read, self.key_write = 2 * key_extent, 2 * key_extent + 1
        self.prev_read, self.prev_write = 2 * prev_extent, 2 * prev_extent + 1
        self.next_read, self.next_write = 2 * next_extent, 2 * next_extent + 1
        self.trace: List[int] = []

    def __len__(self) -> int:
        return self.size

    def check(self, eid: int) -> None:
        """Raise as a ``DiskArray`` access to cell *eid* would."""
        if not 0 <= eid < self.length:
            raise ArrayBoundsError(
                f"range [{eid}, {eid + 1}) out of bounds for "
                f"{self.name + '.next'!r} of length {self.length}"
            )

    # ------------------------------------------------------------------ #
    # primitive operations (each link touch is appended to the trace)
    # ------------------------------------------------------------------ #

    def insert(self, eid: int, key: int) -> None:
        """Link *eid* at the front of bucket *key*."""
        if key < 0 or key > self.max_key:
            raise HeapError(f"key {key} outside [0, {self.max_key}]")
        self.check(eid)
        head = self.heads[key]
        offset = eid * _ITEMSIZE
        self.trace += (
            self.key_write, offset, _ITEMSIZE,
            self.prev_write, offset, _ITEMSIZE,
            self.next_write, offset, _ITEMSIZE,
        )
        self.key[eid] = key
        self.prev[eid] = _NIL
        self.next[eid] = head
        if head != _NIL:
            self.trace += (self.prev_write, head * _ITEMSIZE, _ITEMSIZE)
            self.prev[head] = eid
        self.heads[key] = eid
        self.counts[key] += 1
        self.size += 1
        if key < self.min_cursor:
            self.min_cursor = key

    def contains(self, eid: int) -> bool:
        """Whether *eid* is currently linked (reads its record)."""
        self.check(eid)
        self.trace += (self.next_read, eid * _ITEMSIZE, _ITEMSIZE)
        return self.next[eid] != _DEAD

    def key_of(self, eid: int) -> int:
        """Current key of a linked edge (reads its record)."""
        if not self.contains(eid):
            raise HeapError(f"edge {eid} not in linear heap")
        self.trace += (self.key_read, eid * _ITEMSIZE, _ITEMSIZE)
        return self.key[eid]

    def remove(self, eid: int) -> int:
        """Unlink *eid*; returns its key."""
        if not self.contains(eid):
            raise HeapError(f"edge {eid} not in linear heap")
        nxt = self.next
        next_eid = nxt[eid]
        prev_eid = self.prev[eid]
        key = self.key[eid]
        offset = eid * _ITEMSIZE
        trace = self.trace
        trace += (self.prev_read, offset, _ITEMSIZE, self.key_read, offset, _ITEMSIZE)
        if prev_eid != _NIL:
            trace += (self.next_write, prev_eid * _ITEMSIZE, _ITEMSIZE)
            nxt[prev_eid] = next_eid
        else:
            self.heads[key] = next_eid
        if next_eid != _NIL:
            trace += (self.prev_write, next_eid * _ITEMSIZE, _ITEMSIZE)
            self.prev[next_eid] = prev_eid
        trace += (self.next_write, offset, _ITEMSIZE)
        nxt[eid] = _DEAD
        self.counts[key] -= 1
        self.size -= 1
        return key

    def probe(self, eids: List[int]) -> List[int]:
        """Key per edge, ``-1`` if dead: one pass over the ``next`` records,
        then the ``key`` records of the survivors, in the given order."""
        if eids and (min(eids) < 0 or max(eids) >= self.length):
            raise ArrayBoundsError(
                f"gather indices out of bounds for {self.name + '.next'!r}"
            )
        nxt, key, trace = self.next, self.key, self.trace
        next_read, key_read = self.next_read, self.key_read
        out = []
        for eid in eids:
            trace += (next_read, eid * _ITEMSIZE, _ITEMSIZE)
            out.append(-1 if nxt[eid] == _DEAD else key[eid])
        for eid, value in zip(eids, out):
            if value >= 0:
                trace += (key_read, eid * _ITEMSIZE, _ITEMSIZE)
        return out

    # ------------------------------------------------------------------ #
    # minimum access and inspection
    # ------------------------------------------------------------------ #

    def min_key(self) -> Optional[int]:
        """Smallest occupied key, or ``None`` when empty (in-memory scan)."""
        if self.size == 0:
            return None
        counts, cursor = self.counts, self.min_cursor
        while cursor <= self.max_key and counts[cursor] == 0:
            cursor += 1
        self.min_cursor = cursor
        return cursor

    def bucket(self, key: int) -> List[int]:
        """Edge ids in bucket *key* front-to-back (reads every record)."""
        members = []
        nxt, trace, next_read = self.next, self.trace, self.next_read
        eid = self.heads[key]
        while eid != _NIL:
            members.append(eid)
            trace += (next_read, eid * _ITEMSIZE, _ITEMSIZE)
            eid = nxt[eid]
        return members

    def live_items(self) -> List[Tuple[int, int]]:
        """All ``(eid, key)`` pairs, bucket by bucket (reads every record)."""
        return [
            (eid, key)
            for key in range(self.max_key + 1) if self.counts[key]
            for eid in self.bucket(key)
        ]

    # ------------------------------------------------------------------ #
    # the charge plane
    # ------------------------------------------------------------------ #

    def post(self, whole: bool = True) -> None:
        """Replay the pending trace in order, :data:`_CHUNK` accesses at a
        time; with ``whole=False``, only full chunks (the rest stays
        pending)."""
        trace = self.trace
        count = len(trace) // 3
        if not whole:
            count -= count % _CHUNK
        if not count:
            return
        pending = np.array(trace[:3 * count], dtype=np.int64).reshape(count, 3)
        del trace[:3 * count]
        for start in range(0, count, _CHUNK):
            chunk = pending[start:start + _CHUNK]
            codes = chunk[:, 0]
            self.device.replay(
                codes >> 1, chunk[:, 1], chunk[:, 2], (codes & 1).astype(bool)
            )

    def release(self) -> None:
        """Post, then free the disk extents and the memory charge."""
        self.post()
        for extent in self.extents:
            self.device.free(extent)
        self.key, self.prev, self.next = [], [], []
        self.length = 0
        if self.memory is not None:
            self.memory.release(f"{self.name}.heads")


class LHDH:
    """Composite disk/memory heap with lazy support updates.

    Parameters
    ----------
    device, eids, keys:
        The edge population, bucketed on disk at build time.
    capacity:
        Dynamic-heap size limit; the paper sets it to ``n`` (vertex count).
    memory:
        Meter charged with the bucket heads and the live dynamic-heap size.
    """

    def __init__(
        self,
        device: BlockDevice,
        eids: Iterable[int],
        keys: Iterable[int],
        capacity: int,
        memory: Optional[MemoryMeter] = None,
        name: str = "lhdh",
        writeback: bool = False,
    ) -> None:
        if capacity < 1:
            raise CapacityError(f"LHDH capacity must be at least 1, got {capacity}")
        self.capacity = int(capacity)
        self.memory = memory
        self.name = name
        #: Whether to run the paper's literal lines 18-20 write-back. The
        #: paper writes dynamic-heap entries back to the linear heap once
        #: they reach the current minimum so that deletions always drain
        #: from disk. Since :meth:`pop_min` here inspects both components,
        #: that write-back is pure extra I/O — entries about to be deleted
        #: would be written to disk only to be read straight back. It is
        #: therefore off by default and kept available for the ablation
        #: benchmark (bench_ablation_lhdh).
        self.writeback = writeback
        self.lheap = TracedLinearHeap(device, eids, keys, memory=memory, name=f"{name}.lheap")
        self.dheap = DynamicHeap()
        self._memory_tag = f"{name}.dheap"
        #: Set while a peel kernel holds the posts (see the module docstring).
        self.held = False

    def _settle(self) -> None:
        """Post the pending trace unless a peel kernel holds it."""
        if not self.held:
            self.lheap.post()

    # ------------------------------------------------------------------ #
    # sizes and minima
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self.lheap) + len(self.dheap)

    def min_key(self) -> Optional[int]:
        """Smallest key across both components, or ``None`` when empty."""
        lmin = self.lheap.min_key()
        dmin = self.dheap.top_key()
        if lmin is None:
            return dmin
        if dmin is None:
            return lmin
        return min(lmin, dmin)

    def pop_min(self) -> Tuple[int, int]:
        """Remove and return the globally smallest ``(eid, key)``.

        Prefers the dynamic heap on ties — popping from memory is free.
        """
        lmin = self.lheap.min_key()
        dmin = self.dheap.top_key()
        if lmin is None and dmin is None:
            raise HeapEmptyError("pop_min() on empty LHDH")
        if lmin is None or (dmin is not None and dmin <= lmin):
            eid, key = self.dheap.pop()
            self._recharge()
            return eid, key
        eid = self.lheap.heads[lmin]
        try:
            self.lheap.remove(eid)
        finally:
            self._settle()
        return eid, lmin

    def collect_min_class(self) -> Tuple[int, list]:
        """The minimum key and every edge currently holding it, ascending
        by edge id (one peel *wave*). Dynamic-heap members are read from
        memory; linear-heap members cost one bucket walk.
        """
        key = self.min_key()
        if key is None:
            raise HeapEmptyError("collect_min_class() on empty LHDH")
        members = [eid for eid, k in self.dheap.items() if k == key]
        if self.lheap.min_key() == key:
            members.extend(self.lheap.bucket(key))
            self._settle()
        return key, sorted(members)

    def pop_edge(self, eid: int) -> int:
        """Remove a specific (alive) edge from whichever component holds
        it; returns its key. Free for dynamic-heap residents."""
        if eid in self.dheap:
            key = self.dheap.remove(eid)
            self._recharge()
            return key
        try:
            return self.lheap.remove(eid)
        finally:
            self._settle()

    # ------------------------------------------------------------------ #
    # kernel operations (Algorithm 4)
    # ------------------------------------------------------------------ #

    def key_if_alive(self, eid: int) -> Optional[int]:
        """Current key of *eid*, or ``None`` if it was already deleted.

        Dynamic-heap membership is free; a linear-heap probe reads records.
        """
        if eid in self.dheap:
            return self.dheap.key_of(eid)
        try:
            if self.lheap.contains(eid):
                return self.lheap.key_of(eid)
            return None
        finally:
            self._settle()

    def decrement_edge(self, eid: int, level: int) -> None:
        """Apply Alg 4 lines 4–12 to neighbour edge *eid* at peel *level*.

        An edge with key ``<= level`` is pending deletion at this level and
        is left untouched; otherwise its key drops by one — migrating it
        from disk into the dynamic heap on first touch.
        """
        if eid in self.dheap:
            if self.dheap.key_of(eid) > level:
                self.dheap.decrement(eid)
            return
        try:
            key = self.lheap.key_of(eid)
            if key > level:
                self.lheap.remove(eid)
                self.dheap.push(eid, key - 1)
                self._recharge()
        finally:
            self._settle()

    def probe(self, eids: List[int]) -> List[int]:
        """:meth:`probe_keys` on a list, appending without posting (the
        peel kernel's form)."""
        dheap = self.dheap
        out = [dheap.key_of(eid) if eid in dheap else None for eid in eids]
        on_disk = [eid for eid, key in zip(eids, out) if key is None]
        if on_disk:
            keys = iter(self.lheap.probe(on_disk))
            out = [next(keys) if key is None else key for key in out]
        return out

    def probe_keys(self, eids: np.ndarray) -> np.ndarray:
        """Batched :meth:`key_if_alive`: current key per edge, ``-1`` if dead.

        Dynamic-heap residents are answered from memory; the rest share one
        batched linear-heap probe.
        """
        try:
            keys = self.probe(np.asarray(eids, dtype=np.int64).tolist())
        finally:
            self._settle()
        return np.asarray(keys, dtype=np.int64)

    def decrement(self, eids: List[int], keys: List[int], level: int) -> None:
        """:meth:`decrement_edges` on lists, appending without posting (the
        peel kernel's form)."""
        dheap, lheap = self.dheap, self.lheap
        for eid, key in zip(eids, keys):
            if eid in dheap:
                if dheap.key_of(eid) > level:
                    dheap.decrement(eid)
            elif key > level:
                lheap.remove(eid)
                dheap.push(eid, key - 1)
        self._recharge()

    def decrement_edges(self, eids: np.ndarray, keys: np.ndarray, level: int) -> None:
        """Batched :meth:`decrement_edge` for edges whose keys were just
        probed (*keys* aligned with *eids*); one memory recharge at the end.
        """
        try:
            self.decrement(
                np.asarray(eids, dtype=np.int64).tolist(),
                np.asarray(keys, dtype=np.int64).tolist(),
                level,
            )
        finally:
            self._settle()

    def after_kernel(self) -> None:
        """Spill + write-back maintenance (Alg 4 lines 14–20)."""
        try:
            # Spill: dynamic heap over capacity -> flush smallest entries
            # back to disk. The paper flushes a fixed batch of `capacity`
            # entries (Alg 4 line 15); draining to the limit additionally
            # guarantees the O(n + capacity) memory bound even for bulk
            # update batches.
            while len(self.dheap) > self.capacity:
                eid, key = self.dheap.pop()
                self.lheap.insert(eid, key)
            # Write-back (paper lines 18-20): keep the global minimum
            # drainable from the lheap. Optional — see `writeback`.
            if self.writeback:
                while len(self.dheap):
                    lmin = self.lheap.min_key()
                    dtop = self.dheap.top_key()
                    if lmin is not None and lmin < dtop:
                        break
                    eid, key = self.dheap.pop()
                    self.lheap.insert(eid, key)
            self._recharge()
        finally:
            self._settle()

    # ------------------------------------------------------------------ #
    # bookkeeping
    # ------------------------------------------------------------------ #

    def _recharge(self) -> None:
        if self.memory is not None:
            self.memory.charge(self._memory_tag, self.dheap.nbytes)

    def live_items(self) -> List[Tuple[int, int]]:
        """All surviving ``(eid, key)`` pairs (result extraction)."""
        try:
            return self.lheap.live_items() + self.dheap.items()
        finally:
            self._settle()

    def release(self) -> None:
        """Post, then free disk extents and memory charges."""
        self.lheap.release()
        if self.memory is not None:
            self.memory.release(self._memory_tag)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LHDH({self.name!r}, lheap={len(self.lheap)}, "
            f"dheap={len(self.dheap)}, capacity={self.capacity})"
        )
