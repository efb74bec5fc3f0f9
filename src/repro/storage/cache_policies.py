"""Buffer-pool replacement policies for :class:`BlockDevice`.

The paper's experiments run on an OS page cache (effectively LRU-ish);
real buffer managers vary, and replacement policy visibly shifts I/O
counts for the scan-then-random-access patterns of truss peeling. Three
classic policies are provided:

* **LRU** — least-recently-used (default; matches the analysis model);
* **FIFO** — eviction in admission order, no access recency;
* **CLOCK** — the second-chance approximation of LRU used by most real
  buffer pools.

All expose the same minimal interface the device needs: ``lookup`` (and
touch), ``insert`` returning an evicted ``(key, dirty)`` or ``None``,
``discard``, ``set_dirty``, ``items``, ``clear``, ``__len__``, and
``replay`` — one tight loop applying a run-compressed sequence of touches
(:meth:`BlockDevice.replay`'s fast path).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import DeviceError

Key = Tuple[int, int]
Evicted = Optional[Tuple[Key, bool]]


class LRUCache:
    """Least-recently-used over an ordered dict."""

    name = "lru"
    #: A hit moves the block to the most recent end (FIFO's does not).
    hits_refresh = True

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[Key, bool]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Key) -> bool:
        return key in self._entries

    def lookup(self, key: Key) -> Optional[bool]:
        """Return the dirty flag and refresh recency; ``None`` on miss."""
        if key not in self._entries:
            return None
        self._entries.move_to_end(key)
        return self._entries[key]

    def insert(self, key: Key, dirty: bool) -> Evicted:
        """Insert/overwrite; returns the evicted entry when full."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = dirty
            return None
        self._entries[key] = dirty
        if len(self._entries) > self.capacity:
            return self._entries.popitem(last=False)
        return None

    def discard(self, key: Key) -> Optional[bool]:
        """Drop an entry (no eviction charge); returns its dirty flag."""
        return self._entries.pop(key, None)

    def set_dirty(self, key: Key, dirty: bool) -> None:
        """Update a resident entry's dirty flag without recency change.

        A non-resident key is a caller bug: silently inserting it would
        grow the pool past capacity, bypassing eviction accounting.
        """
        if key not in self._entries:
            raise DeviceError(f"set_dirty on non-resident block {key}")
        self._entries[key] = dirty

    def items(self) -> Iterator[Tuple[Key, bool]]:
        return iter(list(self._entries.items()))

    def clear(self) -> None:
        self._entries.clear()

    def replay(self, keys, faults, dirty, repeats) -> Tuple[List[Key], List[Key]]:
        """Apply a run-compressed, ordered sequence of block touches.

        Run *i* is one or more consecutive touches of block ``keys[i]``:
        ``faults[i]`` says whether a miss of its first touch charges a read
        (a write covering the whole block does not), ``dirty[i]`` whether
        any touch wrote, and the numpy bool array ``repeats[i]`` whether it
        held more than one touch. Equivalent, touch for touch, to the scalar
        ``lookup``/``insert``/``set_dirty`` protocol of
        ``BlockDevice._touch_block`` / ``touch_write``; returns
        ``(charged_read_keys, evicted_dirty_keys)`` so the device can post
        the I/O in bulk. The later touches of a run only re-run
        ``move_to_end`` on the already most recent key (and FIFO hits
        move nothing), so *repeats* does not matter here.
        """
        entries = self._entries
        capacity = self.capacity
        refresh = entries.move_to_end if self.hits_refresh else None
        pop = entries.popitem
        size = len(entries)
        charged: List[Key] = []
        evicted: List[Key] = []
        for key, fault, write in zip(keys, faults, dirty):
            if key in entries:
                if refresh is not None:
                    refresh(key)
                if write:
                    entries[key] = True
                continue
            if fault:
                charged.append(key)
            if size < capacity:
                size += 1
            else:
                victim, victim_dirty = pop(last=False)
                if victim_dirty:
                    evicted.append(victim)
            entries[key] = write
        return charged, evicted


class FIFOCache(LRUCache):
    """First-in-first-out: like LRU but lookups don't refresh recency."""

    name = "fifo"
    hits_refresh = False

    def lookup(self, key: Key) -> Optional[bool]:
        return self._entries.get(key)

    def insert(self, key: Key, dirty: bool) -> Evicted:
        if key in self._entries:
            self._entries[key] = dirty  # keep original admission position
            return None
        self._entries[key] = dirty
        if len(self._entries) > self.capacity:
            return self._entries.popitem(last=False)
        return None


class ClockCache:
    """CLOCK (second chance): a circular buffer of frames with ref bits."""

    name = "clock"

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._frames: List[Optional[Key]] = []
        self._index: Dict[Key, int] = {}
        self._dirty: Dict[Key, bool] = {}
        self._referenced: Dict[Key, bool] = {}
        self._hand = 0

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key: Key) -> bool:
        return key in self._index

    def lookup(self, key: Key) -> Optional[bool]:
        if key not in self._index:
            return None
        self._referenced[key] = True
        return self._dirty[key]

    def _advance(self) -> int:
        while True:
            if self._hand >= len(self._frames):
                self._hand = 0
            key = self._frames[self._hand]
            if key is None:
                return self._hand
            if self._referenced.get(key, False):
                self._referenced[key] = False
                self._hand += 1
                continue
            return self._hand

    def insert(self, key: Key, dirty: bool) -> Evicted:
        if key in self._index:
            self._dirty[key] = dirty
            self._referenced[key] = True
            return None
        if len(self._frames) < self.capacity:
            self._frames.append(key)
            self._index[key] = len(self._frames) - 1
            self._dirty[key] = dirty
            # Admit unreferenced: the bit is earned by a subsequent hit
            # (the variant that keeps second-chance meaningful).
            self._referenced[key] = False
            return None
        slot = self._advance()
        victim = self._frames[slot]
        evicted: Evicted = None
        if victim is not None:
            evicted = (victim, self._dirty[victim])
            del self._index[victim]
            del self._dirty[victim]
            self._referenced.pop(victim, None)
        self._frames[slot] = key
        self._index[key] = slot
        self._dirty[key] = dirty
        self._referenced[key] = False
        self._hand = slot + 1
        return evicted

    def discard(self, key: Key) -> Optional[bool]:
        slot = self._index.pop(key, None)
        if slot is None:
            return None
        self._frames[slot] = None
        self._referenced.pop(key, None)
        return self._dirty.pop(key)

    def set_dirty(self, key: Key, dirty: bool) -> None:
        if key not in self._index:
            raise DeviceError(f"set_dirty on non-resident block {key}")
        self._dirty[key] = dirty

    def replay(self, keys, faults, dirty, repeats) -> Tuple[List[Key], List[Key]]:
        """:meth:`LRUCache.replay` for CLOCK: a hit sets the reference bit,
        and so does a repeat in a run whose first touch admitted the block
        (the admission withholds the bit; the next touch earns it)."""
        index = self._index
        dirty_bits = self._dirty
        referenced = self._referenced
        insert = self.insert
        charged: List[Key] = []
        evicted: List[Key] = []
        for key, fault, write, repeat in zip(keys, faults, dirty, repeats.tolist()):
            if key in index:
                referenced[key] = True
                if write:
                    dirty_bits[key] = True
                continue
            if fault:
                charged.append(key)
            victim = insert(key, write)
            if victim is not None and victim[1]:
                evicted.append(victim[0])
            if repeat:
                referenced[key] = True
        return charged, evicted

    def items(self) -> Iterator[Tuple[Key, bool]]:
        return iter([(k, self._dirty[k]) for k in self._index])

    def clear(self) -> None:
        self._frames.clear()
        self._index.clear()
        self._dirty.clear()
        self._referenced.clear()
        self._hand = 0


#: The policy registry: every name a config, the CLI or a device accepts.
POLICY_CLASSES = {"lru": LRUCache, "fifo": FIFOCache, "clock": ClockCache}


def make_cache(policy: str, capacity: int):
    """Instantiate a cache by policy name (``lru`` / ``fifo`` / ``clock``)."""
    try:
        return POLICY_CLASSES[policy](capacity)
    except KeyError:
        known = ", ".join(sorted(POLICY_CLASSES))
        raise ValueError(f"unknown cache policy {policy!r}; known: {known}") from None
