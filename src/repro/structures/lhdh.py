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

The structure exposes the uniform *peel-heap protocol* consumed by
:mod:`repro.core.peeling`: ``min_key``, ``pop_min``, ``collect_min_class``,
``pop_edge``, ``key_if_alive``, ``decrement_edge``, ``after_kernel``,
``__len__``.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from ..errors import CapacityError, HeapEmptyError
from ..storage import BlockDevice, MemoryMeter
from .dynamic_heap import DynamicHeap
from .linear_heap import LinearHeap


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
        self.lheap = LinearHeap(device, eids, keys, memory=memory, name=f"{name}.lheap")
        self.dheap = DynamicHeap()

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
        return self.lheap.pop_min()

    def collect_min_class(self) -> Tuple[int, list]:
        """The minimum key and every edge currently holding it, ascending
        by edge id (one peel *wave*). Dynamic-heap members are read from
        memory; linear-heap members cost one charged bucket walk.
        """
        key = self.min_key()
        if key is None:
            raise HeapEmptyError("collect_min_class() on empty LHDH")
        members = [eid for eid, k in self.dheap.items() if k == key]
        if self.lheap.min_key() == key:
            members.extend(self.lheap.iter_bucket(key))
        return key, sorted(members)

    def pop_edge(self, eid: int) -> int:
        """Remove a specific (alive) edge from whichever component holds
        it; returns its key. Free for dynamic-heap residents."""
        if eid in self.dheap:
            key = self.dheap.remove(eid)
            self._recharge()
            return key
        return self.lheap.remove(eid)

    # ------------------------------------------------------------------ #
    # kernel operations (Algorithm 4)
    # ------------------------------------------------------------------ #

    def key_if_alive(self, eid: int) -> Optional[int]:
        """Current key of *eid*, or ``None`` if it was already deleted.

        Dynamic-heap membership is free; a linear-heap probe is charged.
        """
        if eid in self.dheap:
            return self.dheap.key_of(eid)
        if self.lheap.contains(eid):
            return self.lheap.key_of(eid)
        return None

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
        key = self.lheap.key_of(eid)
        if key > level:
            self.lheap.remove(eid)
            self.dheap.push(eid, key - 1)
            self._recharge()

    def probe_keys(self, eids: np.ndarray) -> np.ndarray:
        """Batched :meth:`key_if_alive`: current key per edge, ``-1`` if dead.

        Dynamic-heap residents are answered from memory; the rest share one
        batched linear-heap probe (run-compressed disk reads).
        """
        eids = np.asarray(eids, dtype=np.int64)
        out = np.empty(len(eids), dtype=np.int64)
        on_disk = np.zeros(len(eids), dtype=bool)
        for position, eid in enumerate(eids.tolist()):
            if eid in self.dheap:
                out[position] = self.dheap.key_of(eid)
            else:
                on_disk[position] = True
        if on_disk.any():
            out[on_disk] = self.lheap.probe_keys(eids[on_disk])
        return out

    def decrement_edges(self, eids: np.ndarray, keys: np.ndarray, level: int) -> None:
        """Batched :meth:`decrement_edge` for edges whose keys were just
        probed (*keys* aligned with *eids*); one memory recharge at the end.
        """
        for eid, key in zip(
            np.asarray(eids, dtype=np.int64).tolist(),
            np.asarray(keys, dtype=np.int64).tolist(),
        ):
            if eid in self.dheap:
                if self.dheap.key_of(eid) > level:
                    self.dheap.decrement(eid)
            elif key > level:
                self.lheap.remove(eid)
                self.dheap.push(eid, key - 1)
        self._recharge()

    def after_kernel(self) -> None:
        """Spill + write-back maintenance (Alg 4 lines 14–20)."""
        # Spill: dynamic heap over capacity -> flush smallest entries back
        # to disk. The paper flushes a fixed batch of `capacity` entries
        # (Alg 4 line 15); draining to the limit additionally guarantees the
        # O(n + capacity) memory bound even for bulk update batches.
        while len(self.dheap) > self.capacity:
            eid, key = self.dheap.pop()
            self.lheap.insert(eid, key)
        # Write-back (paper lines 18-20): keep the global minimum drainable
        # from the lheap. Optional — see the `writeback` attribute.
        if self.writeback:
            while len(self.dheap):
                lmin = self.lheap.min_key()
                dtop = self.dheap.top_key()
                if lmin is not None and lmin < dtop:
                    break
                eid, key = self.dheap.pop()
                self.lheap.insert(eid, key)
        self._recharge()

    # ------------------------------------------------------------------ #
    # bookkeeping
    # ------------------------------------------------------------------ #

    def _recharge(self) -> None:
        if self.memory is not None:
            self.memory.charge(f"{self.name}.dheap", self.dheap.nbytes)

    def live_items(self):
        """All surviving ``(eid, key)`` pairs (result extraction)."""
        yield from self.lheap.live_items()
        yield from self.dheap.items()

    def release(self) -> None:
        """Free disk extents and memory charges."""
        self.lheap.release()
        if self.memory is not None:
            self.memory.release(f"{self.name}.dheap")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LHDH({self.name!r}, lheap={len(self.lheap)}, "
            f"dheap={len(self.dheap)}, capacity={self.capacity})"
        )
