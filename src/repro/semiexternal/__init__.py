"""Semi-external primitives: support scans, core decomposition and the
h-index truss decomposition, plus the triangle enumeration the tests check
supports against."""

from .support import SupportScan, compute_supports, support_histogram, prefix_positions
from .triangles import (
    triangle_count,
    enumerate_triangles,
    edge_triangle_supports_naive,
)
from .truss_decomp import HIndexDecomposition, h_index_round, h_index_truss_decomposition
from .core_decomp import (
    CoreDecompositionResult,
    core_decomposition_inmemory,
    semi_external_core_decomposition,
    h_index,
)

__all__ = [
    "SupportScan",
    "compute_supports",
    "support_histogram",
    "prefix_positions",
    "triangle_count",
    "enumerate_triangles",
    "edge_triangle_supports_naive",
    "CoreDecompositionResult",
    "core_decomposition_inmemory",
    "semi_external_core_decomposition",
    "h_index",
    "HIndexDecomposition",
    "h_index_round",
    "h_index_truss_decomposition",
]
