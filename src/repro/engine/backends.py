"""Storage-backend registry: names -> block-device factories.

Backends decouple *what an algorithm does* from *what storage it charges*.
A backend factory receives the :class:`~repro.engine.config.EngineConfig`,
the vertex count of the graph being materialised (for semi-external pool
auto-sizing) and a shared :class:`~repro.storage.IOStats`, and returns a
ready :class:`~repro.storage.BlockDevice`. Every built-in factory goes
through :func:`build_device`, so pool sizing is decided in one place.

Built-ins
---------
``simulated``
    :class:`~repro.storage.BlockDevice` — the block-I/O simulator with the
    vectorized batch accounting.
``reference``
    :class:`~repro.storage.ReferenceBlockDevice` — the executable scalar
    spec of the accounting contract; identical counts, no fast path.
``inmemory``
    :class:`~repro.storage.InMemoryBlockDevice` — null charging; for
    ground-truth answers and CI-speed runs.
``file`` / ``mmap``
    Registered by :mod:`repro.persistence` (real spill file / tiered
    page-cache model; charged bill identical to ``simulated``).

Third-party backends register through :func:`register_backend`; anything
that builds a ``BlockDevice``-compatible object slots in without touching
the algorithms.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional

from ..errors import DeviceError
from ..storage import (
    BlockDevice,
    InMemoryBlockDevice,
    IOStats,
    ReferenceBlockDevice,
)
from .config import EngineConfig

#: ``factory(config, num_vertices, stats) -> BlockDevice``
BackendFactory = Callable[[EngineConfig, int, Optional[IOStats]], BlockDevice]

_REGISTRY: Dict[str, BackendFactory] = {}


def register_backend(
    name: str, factory: BackendFactory, replace: bool = False
) -> None:
    """Register *factory* under *name* (``replace=True`` to override)."""
    if not name or not isinstance(name, str):
        raise DeviceError(f"backend name must be a non-empty string, got {name!r}")
    if name in _REGISTRY and not replace:
        raise DeviceError(
            f"backend {name!r} is already registered (pass replace=True to override)"
        )
    _REGISTRY[name] = factory


def unregister_backend(name: str) -> None:
    """Remove a registered backend (built-ins included — tests only)."""
    if name not in _REGISTRY:
        raise DeviceError(f"unknown storage backend {name!r}")
    del _REGISTRY[name]


def list_backends() -> List[str]:
    """Sorted registered backend names.

    The canonical enumeration surface: the CLI's ``--backend`` choices and
    help text, report stamps, and the unknown-backend error message all go
    through here, so a newly registered backend shows up everywhere at
    once.
    """
    return sorted(_REGISTRY)


def make_device(
    config: EngineConfig,
    num_vertices: int,
    stats: Optional[IOStats] = None,
) -> BlockDevice:
    """Build the device the config's backend describes."""
    try:
        factory = _REGISTRY[config.backend]
    except KeyError:
        raise DeviceError(
            f"unknown storage backend {config.backend!r}; "
            f"available: {', '.join(list_backends())}"
        ) from None
    config.validate()
    return factory(config, num_vertices, stats)


def build_device(
    cls,
    config: EngineConfig,
    num_vertices: int,
    stats: Optional[IOStats] = None,
    **extras,
) -> BlockDevice:
    """Build a *cls* device for *config*.

    An explicit ``config.cache_blocks`` fixes the pool size; ``None``
    keeps the semi-external auto-sizing of
    :meth:`~repro.storage.BlockDevice.for_semi_external` for
    *num_vertices*. *extras* are the backend's own constructor knobs.
    """
    if config.cache_blocks is not None:
        return cls(
            config.block_size, config.cache_blocks, stats=stats,
            policy=config.cache_policy, **extras,
        )
    return cls.for_semi_external(
        num_vertices, block_size=config.block_size, stats=stats,
        policy=config.cache_policy, **extras,
    )


register_backend("simulated", partial(build_device, BlockDevice))
register_backend("reference", partial(build_device, ReferenceBlockDevice))
register_backend("inmemory", partial(build_device, InMemoryBlockDevice))
