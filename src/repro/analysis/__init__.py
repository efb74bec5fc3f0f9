"""Analyses behind Table I, Exp-5/6 and the Fig 9 case study: degeneracy,
maximum clique and core, truss components, dataset statistics and the
truss hierarchy."""

from .degeneracy import degeneracy, degeneracy_ordering, kmax_vs_degeneracy_gap
from .cliques import maximum_clique, clique_number, maximum_core
from .components import (
    DisjointSet,
    vertex_connected_components,
    triangle_connected_components,
    split_max_truss,
)
from .statistics import GraphStats, graph_stats, kmax_distribution, degeneracy_comparison
from .hierarchy import TrussHierarchy

__all__ = [
    "degeneracy",
    "degeneracy_ordering",
    "kmax_vs_degeneracy_gap",
    "maximum_clique",
    "clique_number",
    "maximum_core",
    "DisjointSet",
    "vertex_connected_components",
    "triangle_connected_components",
    "split_max_truss",
    "GraphStats",
    "graph_stats",
    "kmax_distribution",
    "degeneracy_comparison",
    "TrussHierarchy",
]
