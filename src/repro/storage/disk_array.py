"""Typed arrays living on a simulated :class:`BlockDevice`.

A :class:`DiskArray` is the edge-indexed workhorse of the semi-external
algorithms: per-edge support, alive flags, linear-heap link fields and the
sorted edge file ``T_edge(G)`` are all ``DiskArray``s. Every element access
is routed through the owning device so block I/Os are charged exactly as the
paper's model prescribes.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ..errors import ArrayBoundsError
from .device import BlockDevice

IndexLike = Union[int, np.integer]


class DiskArray:
    """A fixed-length typed array stored on a :class:`BlockDevice`.

    Parameters
    ----------
    device:
        The block device the array lives on.
    length:
        Number of elements.
    dtype:
        Any numpy dtype (int64 by default).
    name:
        Label used for the device extent (debugging / accounting).
    fill:
        Optional initial value; initialisation is charged as a sequential
        append-style write of the whole extent.

    Notes
    -----
    Reads return copies (like a real ``pread``), so callers can't mutate disk
    contents behind the accounting layer.
    """

    def __init__(
        self,
        device: BlockDevice,
        length: int,
        dtype: np.dtype = np.int64,
        name: str = "array",
        fill: int = None,
    ) -> None:
        if length < 0:
            raise ArrayBoundsError(f"length must be non-negative, got {length}")
        self._bind(device, np.zeros(int(length), dtype=dtype), name, shared=False)
        if fill is not None and self.length:
            self._data[:] = fill
            device.append_write(self.extent, 0, self.length * self.itemsize)

    def _bind(self, device: BlockDevice, data: np.ndarray, name: str,
              shared: bool) -> None:
        self.device = device
        self.length = len(data)
        self.dtype = data.dtype
        self.itemsize = self.dtype.itemsize
        self.name = name
        self._data = data
        self._mapped = shared
        self.extent = device.allocate(name, self.length * self.itemsize)

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_numpy(
        cls, device: BlockDevice, values: np.ndarray, name: str = "array"
    ) -> "DiskArray":
        """Materialise *values* on *device*, charging a sequential write."""
        values = np.asarray(values)
        array = cls(device, len(values), values.dtype, name=name)
        if len(values):
            array._data[:] = values
            device.append_write(array.extent, 0, len(values) * array.itemsize)
        return array

    @classmethod
    def attach(
        cls, device: BlockDevice, values: np.ndarray, name: str = "array"
    ) -> "DiskArray":
        """Register *values* as the payload of a new extent: no copy, no charge.

        For contents that are already on disk (a frozen graph image, a
        published snapshot): reads are charged as usual, but registering
        moves no block. The payload stays the caller's buffer; a later
        charged write through :meth:`set` / :meth:`scatter` / … first
        materialises a private copy (copy-on-write), so the caller's array
        is never written through.
        """
        values = np.asarray(values)
        if values.ndim != 1:
            raise ArrayBoundsError(
                f"attach expects a 1-d array for {name!r}, got shape {values.shape}"
            )
        array = cls.__new__(cls)
        array._bind(device, values, name, shared=True)
        return array

    @property
    def mapped(self) -> bool:
        """Whether the payload is still the buffer given to :meth:`attach`."""
        return self._mapped

    def _materialize(self) -> None:
        """Copy-on-write: replace an attached buffer with a private copy
        before the first mutation (charges nothing — the write that
        triggered it is charged by the caller as usual)."""
        if self._mapped:
            self._data = np.array(self._data)
            self._mapped = False

    # ------------------------------------------------------------------ #
    # element and slice access
    # ------------------------------------------------------------------ #

    def _check_range(self, start: int, stop: int) -> None:
        if start < 0 or stop > self.length or start > stop:
            raise ArrayBoundsError(
                f"range [{start}, {stop}) out of bounds for {self.name!r} of length {self.length}"
            )

    def get(self, index: IndexLike) -> int:
        """Read one element (charged as a block read)."""
        index = int(index)
        self._check_range(index, index + 1)
        self.device.touch_read(self.extent, index * self.itemsize, self.itemsize)
        return self._data[index].item()

    def set(self, index: IndexLike, value: int) -> None:
        """Write one element (charged as a block write)."""
        index = int(index)
        self._check_range(index, index + 1)
        self.device.touch_write(self.extent, index * self.itemsize, self.itemsize)
        self._materialize()
        self._data[index] = value

    def read_slice(self, start: int, stop: int) -> np.ndarray:
        """Read ``[start, stop)`` as a fresh numpy array (charged).

        A contiguous range is a single access run, so the scalar touch it
        issues is exactly the batch path's n == 1 case (see
        :meth:`BlockDevice.touch_read_batch`); use :meth:`read_slices` to
        batch many ranges into one charged call.
        """
        start, stop = int(start), int(stop)
        self._check_range(start, stop)
        nbytes = (stop - start) * self.itemsize
        if nbytes:
            self.device.touch_read(self.extent, start * self.itemsize, nbytes)
        return self._data[start:stop].copy()

    def write_slice(self, start: int, values: np.ndarray) -> None:
        """Write *values* at *start* (charged)."""
        start = int(start)
        values = np.asarray(values, dtype=self.dtype)
        stop = start + len(values)
        self._check_range(start, stop)
        if len(values):
            self.device.touch_write(
                self.extent, start * self.itemsize, len(values) * self.itemsize
            )
            self._materialize()
            self._data[start:stop] = values

    def fill(self, value: int) -> None:
        """Overwrite the whole array (sequential write)."""
        if self.length:
            self._materialize()
            self._data[:] = value
            self.device.append_write(self.extent, 0, self.length * self.itemsize)

    # ------------------------------------------------------------------ #
    # bulk, maintenance
    # ------------------------------------------------------------------ #

    def gather(self, indices: np.ndarray) -> np.ndarray:
        """Read many scattered elements via the device's batch path.

        Indices are visited in the given order; a *run* of consecutive
        accesses landing on the same block is charged as a single block
        touch (run compression — see ``docs/io_model.md``). Non-adjacent
        repeats are charged again unless the buffer pool still holds the
        block, exactly as the equivalent sequence of single-element reads
        would be.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if len(indices) == 0:
            return np.empty(0, dtype=self.dtype)
        if indices.min() < 0 or indices.max() >= self.length:
            raise ArrayBoundsError(f"gather indices out of bounds for {self.name!r}")
        self.device.touch_read_batch(
            self.extent, indices * self.itemsize, self.itemsize
        )
        return self._data[indices].copy()

    def scatter(self, indices: np.ndarray, values: np.ndarray) -> None:
        """Write many scattered elements via the device's batch path
        (run-compressed, same charges as element-at-a-time writes)."""
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=self.dtype)
        if len(indices) != len(values):
            raise ArrayBoundsError("scatter: indices and values length mismatch")
        if len(indices) == 0:
            return
        if indices.min() < 0 or indices.max() >= self.length:
            raise ArrayBoundsError(f"scatter indices out of bounds for {self.name!r}")
        self.device.touch_write_batch(
            self.extent, indices * self.itemsize, self.itemsize
        )
        self._materialize()
        self._data[indices] = values

    def read_slices(self, starts: np.ndarray, counts: np.ndarray):
        """Read many ``[start, start + count)`` runs in one batched access.

        Returns ``(values, bounds)`` where *values* is the concatenation of
        the requested runs and ``bounds[i]:bounds[i + 1]`` delimits run *i*.
        Charged exactly like the equivalent sequence of :meth:`read_slice`
        calls (the batch path preserves access order and run compression).
        """
        starts = np.asarray(starts, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        if starts.shape != counts.shape:
            raise ArrayBoundsError("read_slices: starts and counts length mismatch")
        bounds = np.zeros(len(starts) + 1, dtype=np.int64)
        np.cumsum(counts, out=bounds[1:])
        if len(starts) == 0:
            return np.empty(0, dtype=self.dtype), bounds
        if (
            counts.min() < 0
            or starts.min() < 0
            or int((starts + counts).max()) > self.length
        ):
            raise ArrayBoundsError(
                f"read_slices ranges out of bounds for {self.name!r}"
            )
        self.device.touch_read_batch(
            self.extent, starts * self.itemsize, counts * self.itemsize
        )
        total = int(bounds[-1])
        if total == 0:
            return np.empty(0, dtype=self.dtype), bounds
        # Assemble by per-run slice copies: each run is contiguous, and
        # sequential copies are far cheaper than one huge fancy-index
        # gather over scattered positions.
        values = np.empty(total, dtype=self.dtype)
        data = self._data
        position = 0
        for start, count in zip(starts.tolist(), counts.tolist()):
            stop = position + count
            values[position:stop] = data[start:start + count]
            position = stop
        return values, bounds

    def adopt(self, values: np.ndarray) -> None:
        """Install *values* as the payload without charging any I/O.

        The support scan computes its values in one in-process kernel and
        charges the scan's access sequence separately through
        :meth:`BlockDevice.replay`; writing the values through ``scatter``
        as well would double-charge the writes. Algorithm code must pair
        every ``adopt`` with a replayed charge of the same accesses, or its
        I/O counts would lie.
        """
        values = np.asarray(values, dtype=self.dtype)
        if len(values) != self.length:
            raise ArrayBoundsError(
                f"adopt: {len(values)} values for {self.name!r} of length {self.length}"
            )
        self._materialize()
        self._data[:] = values

    def to_numpy(self) -> np.ndarray:
        """Full sequential read of the array contents."""
        return self.read_slice(0, self.length)

    def peek(self) -> np.ndarray:
        """Accounting-free view of the raw contents.

        For tests and result extraction only — algorithm code must never use
        this, or its I/O counts would lie.
        """
        return self._data

    def free(self) -> None:
        """Release the backing extent (models deleting a scratch file)."""
        self.device.free(self.extent)
        self._data = np.empty(0, dtype=self.dtype)
        self._mapped = False
        self.length = 0

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DiskArray({self.name!r}, length={self.length}, dtype={self.dtype})"
