"""Engine layer: one execution context over a table of storage backends.

The one way algorithms choose and share storage:

* :class:`EngineConfig` — the declarative, frozen recipe (backend, block
  size, cache size/policy, work budget);
* :class:`ExecutionContext` — the live run state (device construction,
  I/O + memory aggregation, tracing);
* :func:`make_device` — builds a backend's device from the config
  (:data:`~repro.engine.config.BACKENDS` names them: ``simulated`` /
  ``reference`` / ``inmemory``, and ``file`` from
  :mod:`repro.persistence`).

Typical use::

    from repro import max_truss
    from repro.engine import EngineConfig, ExecutionContext

    config = EngineConfig(backend="simulated", cache_policy="clock")
    context = ExecutionContext(config)
    result = max_truss(graph, method="semi-lazy-update", context=context)
    print(context.stats, context.memory)
"""

from .config import BACKENDS, EngineConfig
from .backends import list_backends, make_device
from .context import ContextLike, ExecutionContext, resolve_context

__all__ = [
    "BACKENDS",
    "EngineConfig",
    "ExecutionContext",
    "ContextLike",
    "list_backends",
    "make_device",
    "resolve_context",
]
