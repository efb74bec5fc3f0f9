"""Engine configuration: one declarative recipe for a storage setup.

Before the engine layer existed, every consumer of the semi-external model
re-plumbed ``device: Optional[BlockDevice] = None`` by hand, so block size,
cache size, replacement policy and work budgets could not be pinned
consistently across an experiment. :class:`EngineConfig` centralises those
knobs; an :class:`~repro.engine.context.ExecutionContext` turns a config
into live devices/meters and threads them through the algorithms.

A config is a *recipe*, not a run: it is cheap, immutable (a frozen
dataclass that checks its fields once, when built) and reusable — build
one per experiment and derive a fresh context per run (warm caches never
leak between runs unless a context is shared on purpose). It holds the
storage and run knobs only; the ingest pipeline and the query server take
their own settings as constructor arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Optional

from ..errors import DeviceError
from ..storage import DEFAULT_BLOCK_SIZE
from ..storage.cache_policies import POLICY_CLASSES

#: Storage backends, sorted by name; ``engine/backends.py`` maps each to
#: its device class.
BACKENDS = ("file", "inmemory", "reference", "simulated")

#: Block replacement policies, in the order of the cache-policy registry.
CACHE_POLICIES = tuple(POLICY_CLASSES)

#: When the ``file`` backend fsyncs its spill file.
FSYNC_POLICIES = ("never", "close", "always")


@dataclass(frozen=True)
class EngineConfig:
    """Declarative storage/engine settings shared by every algorithm.

    Parameters
    ----------
    backend:
        Storage backend name, one of :data:`BACKENDS`: ``simulated``
        (the block-device simulator, default), ``reference`` (the scalar
        accounting spec), ``inmemory`` (null charging) or ``file``
        (a real spill file).
    block_size:
        Bytes per block (``B`` in the I/O model).
    cache_blocks:
        Buffer-pool frames (``M/B``). ``None`` (default) sizes the pool
        with :func:`repro.storage.semi_external_cache_blocks` for the
        vertex count of the first graph the context touches.
    cache_policy:
        Block replacement policy: ``lru`` / ``fifo`` / ``clock``.
    work_limit:
        Optional cap on abstract work units per run; algorithms receive a
        fresh :class:`~repro._util.WorkBudget` built from it, and
        :class:`~repro.dynamic.state.DynamicMaxTruss` adopts it as its
        local-tier budget.
    data_dir:
        Directory for the ``file`` backend's spill file. ``None``
        (default) uses a private temporary directory removed when the
        device closes. Ignored by the purely simulated backends.
    fsync_policy:
        When the ``file`` backend fsyncs its spill file: ``never``,
        ``close`` (default: once, when the device closes) or ``always``
        (after every physical block write). Ignored by the simulated
        backends.
    serve_cache_entries:
        Capacity of the serve tier's per-snapshot result cache (answers
        are immutable per snapshot, so memoisation is exact). ``0``
        disables caching.
    approx_epsilon:
        Target half-width (as a fraction of the estimated quantity) of
        the approximate tier's confidence intervals; sets the sampling
        budget via the Hoeffding count.
    approx_confidence:
        Nominal CI coverage of approximate answers (e.g. ``0.95``).
    approx_seed:
        Base seed for every estimator RNG — estimator runs are
        replayable by default (per-edge probes derive sub-seeds from the
        edge, so answers are per-edge deterministic too).

    Example
    -------
    >>> from repro.engine import EngineConfig
    >>> config = EngineConfig(backend="inmemory")
    >>> config.backend
    'inmemory'
    >>> EngineConfig(block_size=0)
    Traceback (most recent call last):
        ...
    repro.errors.DeviceError: block_size must be positive, got 0
    """

    backend: str = "simulated"
    block_size: int = DEFAULT_BLOCK_SIZE
    cache_blocks: Optional[int] = None
    cache_policy: str = "lru"
    work_limit: Optional[int] = None
    data_dir: Optional[str] = None
    fsync_policy: str = "close"
    serve_cache_entries: int = 1024
    approx_epsilon: float = 0.1
    approx_confidence: float = 0.95
    approx_seed: int = 0

    def __post_init__(self) -> None:
        """Check the backend name and field ranges, once, at construction."""
        if self.backend not in BACKENDS:
            raise DeviceError(
                f"unknown storage backend {self.backend!r}; "
                f"available: {', '.join(BACKENDS)}"
            )
        if self.block_size <= 0:
            raise DeviceError(
                f"block_size must be positive, got {self.block_size}"
            )
        if self.cache_blocks is not None and self.cache_blocks <= 0:
            raise DeviceError(
                f"cache_blocks must be positive or None, got {self.cache_blocks}"
            )
        if self.cache_policy not in CACHE_POLICIES:
            raise DeviceError(
                f"unknown cache policy {self.cache_policy!r}; "
                f"known: {', '.join(CACHE_POLICIES)}"
            )
        if self.work_limit is not None and self.work_limit <= 0:
            raise DeviceError(
                f"work_limit must be positive or None, got {self.work_limit}"
            )
        if self.fsync_policy not in FSYNC_POLICIES:
            raise DeviceError(
                f"unknown fsync policy {self.fsync_policy!r}; "
                f"known: {', '.join(FSYNC_POLICIES)}"
            )
        if self.serve_cache_entries < 0:
            raise DeviceError(
                f"serve_cache_entries must be non-negative, "
                f"got {self.serve_cache_entries}"
            )
        if not 0.0 < self.approx_epsilon < 1.0:
            raise DeviceError(
                f"approx_epsilon must be in (0, 1), got {self.approx_epsilon}"
            )
        if not 0.5 <= self.approx_confidence < 1.0:
            raise DeviceError(
                f"approx_confidence must be in [0.5, 1), "
                f"got {self.approx_confidence}"
            )

    def describe(self) -> Dict[str, Any]:
        """JSON-serialisable summary (stamped into benchmark reports)."""
        return {field.name: getattr(self, field.name) for field in fields(self)}

    def summary(self) -> str:
        """One-line human-readable form (echoed by the CLI)."""
        cache = "auto" if self.cache_blocks is None else str(self.cache_blocks)
        parts = [
            f"backend={self.backend}",
            f"block_size={self.block_size}",
            f"cache_blocks={cache}",
            f"policy={self.cache_policy}",
        ]
        if self.work_limit is not None:
            parts.append(f"work_limit={self.work_limit}")
        if self.backend == "file":
            parts.append(f"fsync={self.fsync_policy}")
            if self.data_dir is not None:
                parts.append(f"data_dir={self.data_dir}")
        return " ".join(parts)
