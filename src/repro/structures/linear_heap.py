"""The disk-based linear-heap half of LHDH (paper §III-C, Fig 3).

Edges are bucketed by support. Each bucket is a doubly-linked list whose
node records (``key``, ``prev``, ``next``) live in :class:`DiskArray`s —
every link-field touch is a charged I/O. Bucket heads, bucket occupancy
counts and the running minimum live in memory (the paper: "it becomes
feasible to retain the information of the head node ... in memory", since
max support < n).

This structure is also used *alone* by SemiBinary and SemiGreedyCore as
``A_disk`` (its peel-protocol subclass
:class:`~repro.core.peeling.PlainDiskHeap`), the bin-sorted edge array
whose "reorder (u,w) and (v,w) according to their new support" steps each
pay disk I/O — the cost the dynamic heap of :mod:`repro.structures.lhdh`
exists to avoid.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from ..errors import HeapEmptyError, HeapError
from ..storage import BlockDevice, DiskArray, MemoryMeter

_NIL = -1      # end of a bucket list
_DEAD = -2     # edge removed from the heap


class LinearHeap:
    """Disk-resident bucket queue over edge ids keyed by support.

    Built from parallel ``eids`` / ``keys`` sequences: the final structure
    is exactly what inserting the sequence in reverse would produce (each
    bucket lists its edge ids in the given order), but the link fields are
    computed vectorized and written to disk through the batch path in one
    bin-sort write pass (Alg 1 line 10) instead of ``O(m)`` individual
    link updates.

    Parameters
    ----------
    device:
        Block device holding the link arrays.
    eids, keys:
        The initial population (empty by default).
    memory:
        Optional meter charged for the in-memory bucket heads.
    max_key:
        Largest representable key (bucket count − 1); defaults to the
        largest initial key.
    num_edges:
        Capacity: edge ids must lie in ``[0, num_edges)``; defaults to one
        past the largest initial edge id.
    """

    def __init__(
        self,
        device: BlockDevice,
        eids: Iterable[int] = (),
        keys: Iterable[int] = (),
        memory: Optional[MemoryMeter] = None,
        name: str = "lheap",
        max_key: Optional[int] = None,
        num_edges: Optional[int] = None,
    ) -> None:
        eid_array = np.asarray(list(eids), dtype=np.int64)
        key_array = np.asarray(list(keys), dtype=np.int64)
        if len(eid_array) != len(key_array):
            raise HeapError("eids and keys must have equal length")
        if max_key is None:
            max_key = int(key_array.max()) if len(key_array) else 0
        if num_edges is None:
            num_edges = int(eid_array.max()) + 1 if len(eid_array) else 0
        if max_key < 0:
            raise HeapError("max_key must be non-negative")
        self.device = device
        self.memory = memory
        self.name = name
        self.max_key = int(max_key)
        # Disk-resident node records.
        self.keys = DiskArray(device, num_edges, np.int64, name=f"{name}.key", fill=0)
        self.prev = DiskArray(device, num_edges, np.int64, name=f"{name}.prev", fill=_NIL)
        self.next = DiskArray(device, num_edges, np.int64, name=f"{name}.next", fill=_DEAD)
        # In-memory bucket heads + occupancy (the semi-external allowance).
        self.heads = np.full(self.max_key + 1, _NIL, dtype=np.int64)
        self.counts = np.zeros(self.max_key + 1, dtype=np.int64)
        self._size = 0
        self._min_cursor = 0
        if memory is not None:
            memory.charge(f"{name}.heads", self.heads.nbytes + self.counts.nbytes)
        count = len(eid_array)
        if count == 0:
            return
        if key_array.min() < 0 or key_array.max() > max_key:
            raise HeapError(f"key outside [0, {max_key}]")
        # Stable sort groups each bucket while preserving the sequence
        # order inside it — the order sequential front-inserts (in reverse)
        # would leave the bucket lists in.
        order = np.argsort(key_array, kind="stable")
        sorted_eids = eid_array[order]
        sorted_keys = key_array[order]
        same_as_prev = np.zeros(count, dtype=bool)
        same_as_prev[1:] = sorted_keys[1:] == sorted_keys[:-1]
        prev_vals = np.where(same_as_prev, np.roll(sorted_eids, 1), _NIL)
        same_as_next = np.zeros(count, dtype=bool)
        same_as_next[:-1] = same_as_prev[1:]
        next_vals = np.where(same_as_next, np.roll(sorted_eids, -1), _NIL)
        bucket_firsts = ~same_as_prev
        self.heads[sorted_keys[bucket_firsts]] = sorted_eids[bucket_firsts]
        self.counts[:] = np.bincount(
            key_array, minlength=self.max_key + 1
        )[: self.max_key + 1]
        self._size = count
        # Disk write pass: one batched scatter per link array, in ascending
        # edge-id order (near-sequential on the common dense id ranges).
        ascending = np.argsort(sorted_eids, kind="stable")
        write_eids = sorted_eids[ascending]
        if count == num_edges and np.array_equal(
            write_eids, np.arange(num_edges, dtype=np.int64)
        ):
            # Dense case: full sequential rewrite, no read-modify-write.
            self.keys.write_slice(0, sorted_keys[ascending])
            self.prev.write_slice(0, prev_vals[ascending])
            self.next.write_slice(0, next_vals[ascending])
        else:
            self.keys.scatter(write_eids, sorted_keys[ascending])
            self.prev.scatter(write_eids, prev_vals[ascending])
            self.next.scatter(write_eids, next_vals[ascending])

    # ------------------------------------------------------------------ #
    # primitive operations (each link touch is charged I/O)
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._size

    def insert(self, eid: int, key: int) -> None:
        """Link *eid* at the front of bucket *key*."""
        if key < 0 or key > self.max_key:
            raise HeapError(f"key {key} outside [0, {self.max_key}]")
        head = int(self.heads[key])
        self.keys.set(eid, key)
        self.prev.set(eid, _NIL)
        self.next.set(eid, head)
        if head != _NIL:
            self.prev.set(head, eid)
        self.heads[key] = eid
        self.counts[key] += 1
        self._size += 1
        if key < self._min_cursor:
            self._min_cursor = key

    def contains(self, eid: int) -> bool:
        """Whether *eid* is currently linked (charged: reads its record)."""
        return self.next.get(eid) != _DEAD

    def key_of(self, eid: int) -> int:
        """Current key of a linked edge (charged read)."""
        if self.next.get(eid) == _DEAD:
            raise HeapError(f"edge {eid} not in linear heap")
        return self.keys.get(eid)

    def probe_keys(self, eids: np.ndarray) -> np.ndarray:
        """Batched aliveness + key probe: ``keys[i]`` or ``-1`` if dead.

        One gather over the ``next`` records answers aliveness for the whole
        batch; keys are gathered only for the survivors. Charged through
        the device's run-compressed batch path.
        """
        eids = np.asarray(eids, dtype=np.int64)
        out = np.full(len(eids), -1, dtype=np.int64)
        if len(eids) == 0:
            return out
        alive = self.next.gather(eids) != _DEAD
        if alive.any():
            out[alive] = self.keys.gather(eids[alive])
        return out

    def remove(self, eid: int) -> int:
        """Unlink *eid*; returns its key. Charged link-field I/O."""
        next_eid = self.next.get(eid)
        if next_eid == _DEAD:
            raise HeapError(f"edge {eid} not in linear heap")
        prev_eid = self.prev.get(eid)
        key = self.keys.get(eid)
        if prev_eid != _NIL:
            self.next.set(prev_eid, next_eid)
        else:
            self.heads[key] = next_eid
        if next_eid != _NIL:
            self.prev.set(next_eid, prev_eid)
        self.next.set(eid, _DEAD)
        self.counts[key] -= 1
        self._size -= 1
        return int(key)

    def update_key(self, eid: int, new_key: int) -> None:
        """Move *eid* to bucket *new_key* (the A_disk "reorder" step)."""
        self.remove(eid)
        self.insert(eid, new_key)

    def decrement(self, eid: int) -> int:
        """Decrease *eid*'s key by one; returns the new key."""
        key = self.remove(eid)
        if key == 0:
            raise HeapError(f"cannot decrement edge {eid} below key 0")
        self.insert(eid, key - 1)
        return key - 1

    # ------------------------------------------------------------------ #
    # minimum access
    # ------------------------------------------------------------------ #

    def min_key(self) -> Optional[int]:
        """Smallest occupied key, or ``None`` when empty (in-memory scan)."""
        if self._size == 0:
            return None
        while self._min_cursor <= self.max_key and self.counts[self._min_cursor] == 0:
            self._min_cursor += 1
        return int(self._min_cursor)

    def top(self) -> Tuple[int, int]:
        """``(eid, key)`` at the current minimum, without removal."""
        key = self.min_key()
        if key is None:
            raise HeapEmptyError("top() on empty linear heap")
        return int(self.heads[key]), key

    def pop_min(self) -> Tuple[int, int]:
        """Remove and return the ``(eid, key)`` with the smallest key."""
        eid, key = self.top()
        self.remove(eid)
        return eid, key

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #

    def iter_bucket(self, key: int):
        """Yield edge ids in bucket *key* front-to-back (charged reads)."""
        eid = int(self.heads[key])
        while eid != _NIL:
            yield eid
            eid = self.next.get(eid)

    def live_items(self):
        """Yield all ``(eid, key)`` pairs (charged; tests/result use)."""
        for key in range(self.max_key + 1):
            if self.counts[key]:
                for eid in self.iter_bucket(key):
                    yield eid, key

    def release(self) -> None:
        """Free the disk extents and memory charge."""
        self.keys.free()
        self.prev.free()
        self.next.free()
        if self.memory is not None:
            self.memory.release(f"{self.name}.heads")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LinearHeap({self.name!r}, size={self._size}, max_key={self.max_key})"
