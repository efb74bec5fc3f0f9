"""Core decomposition: in-memory peeling and the semi-external iteration.

SemiGreedyCore (Alg 2 line 1) and the maintenance algorithms rely on
coreness values. The semi-external computation follows Wen et al. (ICDE'16),
as cited by the paper: start from ``core(v) = d(v)`` and repeatedly lower
each vertex to the *h-index* of its neighbours' current values, scanning the
adjacency file once per round, until a fixpoint. Memory is ``O(n)``; I/O is
``O(l · (n + m) / B)`` for ``l`` convergence rounds (the paper's Theorem 2).

The in-memory bucket-peeling variant (Batagelj–Zaversnik) is the ground
truth used in tests and by the purely in-memory baselines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.disk_graph import DiskGraph
from ..graph.memgraph import Graph


def h_index(values: np.ndarray) -> int:
    """Largest ``h`` such that at least ``h`` of *values* are ``>= h``."""
    if len(values) == 0:
        return 0
    ordered = np.sort(values)[::-1]
    ranks = np.arange(1, len(ordered) + 1)
    qualifying = ordered >= ranks
    return int(ranks[qualifying][-1]) if qualifying.any() else 0


def core_decomposition_inmemory(graph: Graph) -> np.ndarray:
    """Exact coreness of every vertex by bucket peeling (O(n + m))."""
    n = graph.n
    degrees = graph.degrees.copy()
    coreness = np.zeros(n, dtype=np.int64)
    if n == 0:
        return coreness
    max_degree = int(degrees.max()) if n else 0
    # Bucket sort vertices by degree.
    bins = np.zeros(max_degree + 2, dtype=np.int64)
    for d in degrees:
        bins[d] += 1
    starts = np.zeros(max_degree + 2, dtype=np.int64)
    np.cumsum(bins[:-1], out=starts[1:])
    position = np.zeros(n, dtype=np.int64)
    order = np.zeros(n, dtype=np.int64)
    cursor = starts.copy()
    for v in range(n):
        position[v] = cursor[degrees[v]]
        order[position[v]] = v
        cursor[degrees[v]] += 1
    bucket_start = starts
    current = degrees.copy()
    for index in range(n):
        v = order[index]
        coreness[v] = current[v]
        for u in graph.neighbors(int(v)):
            u = int(u)
            if current[u] > current[v]:
                # Move u one bucket down: swap it to the front of its bucket.
                du = current[u]
                front = bucket_start[du]
                front_vertex = order[front]
                if front_vertex != u:
                    order[front], order[position[u]] = u, front_vertex
                    position[front_vertex], position[u] = position[u], front
                bucket_start[du] += 1
                current[u] -= 1
    return coreness


@dataclass
class CoreDecompositionResult:
    """Semi-external coreness plus its convergence statistics."""

    coreness: np.ndarray
    rounds: int

    @property
    def c_max(self) -> int:
        """Maximum coreness (the degeneracy ``c_max``)."""
        return int(self.coreness.max()) if len(self.coreness) else 0


def semi_external_core_decomposition(
    disk_graph: DiskGraph, max_rounds: int = None
) -> CoreDecompositionResult:
    """Iterative-h-index coreness over a :class:`DiskGraph` (charged I/O).

    Converges to the exact coreness; each round is one sequential pass over
    the adjacency file.
    """
    n = disk_graph.n
    memory_tag = "coredecomp.core"
    disk_graph.memory.charge(memory_tag, 8 * n)
    coreness = disk_graph.degrees.astype(np.int64).copy()
    rounds = 0
    try:
        while True:
            changed = False
            for v in range(n):
                if disk_graph.degree(v) == 0:
                    continue
                nbrs = disk_graph.load_neighbors(v)
                candidate = h_index(coreness[nbrs])
                if candidate < coreness[v]:
                    coreness[v] = candidate
                    changed = True
            rounds += 1
            if not changed:
                break
            if max_rounds is not None and rounds >= max_rounds:
                break
    finally:
        disk_graph.memory.release(memory_tag)
    return CoreDecompositionResult(coreness, rounds)
