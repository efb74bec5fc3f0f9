"""Facade: one entry point over every ``k_max``-truss algorithm."""

from __future__ import annotations

from typing import Callable, Dict, Optional

from .._util import WorkBudget
from ..engine.context import ContextLike, resolve_context
from ..errors import UnknownMethodError
from ..graph.memgraph import Graph
from ..observability.tracer import trace_span
from .result import MaxTrussResult
from .semi_binary import semi_binary
from .semi_greedy_core import semi_greedy_core
from .semi_lazy_update import semi_lazy_update


def _method_table() -> Dict[str, Callable[..., MaxTrussResult]]:
    # Imported lazily to avoid a cycle: baselines use the core peeling.
    from ..baselines.bottom_up import bottom_up
    from ..baselines.top_down import top_down
    from ..baselines.inmemory import in_memory_max_truss

    return {
        "semi-binary": semi_binary,
        "semi-greedy-core": semi_greedy_core,
        "semi-lazy-update": semi_lazy_update,
        "bottom-up": bottom_up,
        "top-down": top_down,
        "in-memory": in_memory_max_truss,
    }


def available_methods() -> list:
    """Names accepted by :func:`max_truss`."""
    return sorted(_method_table())


def max_truss(
    graph: Graph,
    method: str = "semi-lazy-update",
    budget: Optional[WorkBudget] = None,
    context: Optional[ContextLike] = None,
    **kwargs,
) -> MaxTrussResult:
    """Compute the ``k_max``-truss of *graph* with the chosen *method*.

    Parameters
    ----------
    graph:
        Input graph.
    method:
        One of :func:`available_methods` — the paper's three semi-external
        algorithms, the two external baselines, or the in-memory reference.
    context:
        :class:`~repro.engine.ExecutionContext` (or bare
        :class:`~repro.engine.EngineConfig`) selecting the storage backend
        and aggregating I/O/memory across runs. The ``in-memory`` method
        charges no I/O regardless of the context's backend.
    budget / kwargs:
        Forwarded to the selected algorithm.

    Example
    -------
    >>> from repro.graph.generators import complete_graph
    >>> max_truss(complete_graph(5)).k_max
    5
    """
    table = _method_table()
    try:
        implementation = table[method]
    except KeyError:
        raise UnknownMethodError(
            f"unknown method {method!r}; available: {', '.join(sorted(table))}"
        ) from None
    if method == "in-memory":
        return implementation(graph, **kwargs)
    ctx = resolve_context(context)
    with trace_span(method, kind="phase"):
        return implementation(graph, budget=budget, context=ctx, **kwargs)
