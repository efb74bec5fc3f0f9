"""repro — I/O efficient max-truss computation in large static and dynamic
graphs (reproduction of Jiang et al., ICDE 2024).

Public API tour
---------------
>>> from repro import max_truss
>>> from repro.graph.generators import complete_graph
>>> result = max_truss(complete_graph(6), method="semi-lazy-update")
>>> result.k_max
6

Packages
--------
* :mod:`repro.engine` — engine configs, execution contexts, storage backends
* :mod:`repro.storage` — simulated block device / disk arrays / external sort
* :mod:`repro.graph` — graph types, file formats, generators, dataset stand-ins
* :mod:`repro.semiexternal` — support scans, triangles, core decomposition
* :mod:`repro.structures` — linear-heap, dynamic-heap, LHDH
* :mod:`repro.core` — SemiBinary / SemiGreedyCore / SemiLazyUpdate
* :mod:`repro.dynamic` — k_max-truss maintenance (+ YLJ baselines)
* :mod:`repro.baselines` — in-memory ground truth, Bottom-Up, Top-Down
* :mod:`repro.analysis` — degeneracy, cliques, dataset statistics
* :mod:`repro.observability` — structured tracing, metrics registry,
  per-phase I/O attribution
"""

from .core import (
    MaxTrussResult,
    MaintenanceResult,
    available_methods,
    max_truss,
    semi_binary,
    semi_greedy_core,
    semi_lazy_update,
)
from .engine import EngineConfig, ExecutionContext, list_backends
from .errors import ReproError
from .graph import Graph, MutableGraph, DiskGraph
from .observability import MetricsRegistry, Tracer, TraceWriter, read_trace
from .storage import BlockDevice, IOStats, MemoryMeter
from ._util import WorkBudget

__version__ = "1.0.0"

__all__ = [
    "Graph",
    "MutableGraph",
    "DiskGraph",
    "BlockDevice",
    "IOStats",
    "MemoryMeter",
    "EngineConfig",
    "ExecutionContext",
    "list_backends",
    "WorkBudget",
    "MaxTrussResult",
    "MaintenanceResult",
    "ReproError",
    "max_truss",
    "available_methods",
    "semi_binary",
    "semi_greedy_core",
    "semi_lazy_update",
    "MetricsRegistry",
    "Tracer",
    "TraceWriter",
    "read_trace",
    "__version__",
]
