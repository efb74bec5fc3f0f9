"""Engine layer: one execution context + pluggable storage backends.

The one way algorithms choose and share storage:

* :class:`EngineConfig` — the declarative recipe (backend, block size,
  cache size/policy, work budget);
* :class:`ExecutionContext` — the live run state (device construction,
  I/O + memory aggregation, phases);
* the **backend registry** — ``simulated`` / ``reference`` / ``inmemory``
  built in, ``file`` / ``mmap`` from :mod:`repro.persistence`,
  :func:`register_backend` for new ones.

Typical use::

    from repro import max_truss
    from repro.engine import EngineConfig, ExecutionContext

    config = EngineConfig(backend="simulated", cache_policy="clock")
    context = ExecutionContext(config)
    result = max_truss(graph, method="semi-lazy-update", context=context)
    print(context.stats, context.memory)
"""

from .config import EngineConfig
from .backends import (
    BackendFactory,
    list_backends,
    make_device,
    register_backend,
    unregister_backend,
)
from .context import ContextLike, ExecutionContext, resolve_context

__all__ = [
    "EngineConfig",
    "ExecutionContext",
    "ContextLike",
    "BackendFactory",
    "list_backends",
    "make_device",
    "register_backend",
    "unregister_backend",
    "resolve_context",
]

# The "file" and "mmap" backends live in repro.persistence, which imports
# back into the engine (graph formats -> graph package -> engine.context);
# register them here, after the registry and context are fully initialised,
# so the cycle is already resolved by the time the persistence package
# loads.
from ..persistence.file_device import register_file_backend  # noqa: E402
from ..persistence.mmap_device import register_mmap_backend  # noqa: E402

register_file_backend()
register_mmap_backend()
