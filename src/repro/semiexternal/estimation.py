"""Sampling estimators for triangle statistics and ``k_max`` bounds.

At the paper's true scale even one exact support scan is a major I/O
investment. Before committing to it, cheap sampled estimates answer
planning questions: roughly how many triangles (how expensive will the scan
be), and roughly where will the binary search start (a probabilistic
Lemma 1 seed). The classic tool is **wedge sampling** (Seshadhri et al.):
sample two-paths uniformly, measure how often they close into a triangle.

Estimators are semi-external: they read ``O(samples)`` adjacency lists
through the charged access path and keep only ``O(n)`` state.

Randomness is always an explicit :class:`numpy.random.Generator`: pass
*rng* to share a stream across estimators, or *seed* to derive one; with
neither, the seed comes from the context's
:attr:`~repro.engine.EngineConfig.approx_seed` — estimator runs are
replayable by default, never wall-clock seeded. (The confidence-bounded
successors of these planning estimators live in :mod:`repro.approx`.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .._util import ceil_div
from ..engine.context import ContextLike, resolve_context
from ..graph.disk_graph import DiskGraph
from ..graph.memgraph import Graph


def _resolve_rng(
    rng: Optional[np.random.Generator],
    seed: Optional[int],
    ctx,
) -> np.random.Generator:
    """One explicit Generator: *rng* wins, then *seed*, then the config's
    ``approx_seed`` (so an unseeded call is still deterministic)."""
    if rng is not None:
        return rng
    if seed is not None:
        return np.random.default_rng(seed)
    return np.random.default_rng(ctx.config.approx_seed)


@dataclass
class TriangleEstimate:
    """A wedge-sampling estimate of the triangle count.

    Attributes
    ----------
    triangles:
        Point estimate of ``Δ_G``.
    closure_rate:
        Fraction of sampled wedges that closed.
    wedges:
        Total number of wedges in the graph (exact, from degrees).
    samples:
        Wedges sampled.
    """

    triangles: float
    closure_rate: float
    wedges: int
    samples: int

    def lemma1_seed(self, num_edges: int) -> int:
        """A probabilistic Lemma 1 lower-bound seed from the estimate.

        Because the estimate is noisy, callers must treat this like the
        exact Lemma 1 value: a search seed backed by verification, never a
        correctness assumption.
        """
        if num_edges <= 0 or self.triangles <= 0:
            return 2
        return ceil_div(int(3 * self.triangles), num_edges) + 2


def estimate_triangles(
    graph: Graph,
    samples: int = 2000,
    seed: Optional[int] = None,
    context: Optional[ContextLike] = None,
    rng: Optional[np.random.Generator] = None,
) -> TriangleEstimate:
    """Estimate ``Δ_G`` by uniform wedge sampling (charged I/O).

    ``Δ_G = closure_rate * wedges / 3`` since every triangle contains
    exactly three wedges. Exact for graphs with no wedges (returns 0).
    *rng* (or *seed*, or the config's ``approx_seed``) fixes the sample.
    """
    if samples <= 0:
        raise ValueError("samples must be positive")
    ctx = resolve_context(context)
    device = ctx.device_for(graph.n)
    disk_graph = DiskGraph(graph, device, ctx.memory, name="est.G")
    degrees = graph.degrees.astype(np.int64)
    wedge_counts = degrees * (degrees - 1) // 2
    total_wedges = int(wedge_counts.sum())
    if total_wedges == 0:
        disk_graph.release()
        return TriangleEstimate(0.0, 0.0, 0, samples)
    rng = _resolve_rng(rng, seed, ctx)
    probabilities = wedge_counts / total_wedges
    centers = rng.choice(graph.n, size=samples, p=probabilities)
    closed = 0
    for center in centers:
        nbrs = disk_graph.load_neighbors(int(center))
        first, second = rng.choice(len(nbrs), size=2, replace=False)
        a, b = int(nbrs[first]), int(nbrs[second])
        # Membership probe against the smaller endpoint's list.
        probe = a if graph.degree(a) <= graph.degree(b) else b
        other = b if probe == a else a
        probe_nbrs = disk_graph.load_neighbors(probe)
        position = np.searchsorted(probe_nbrs, other)
        if position < len(probe_nbrs) and probe_nbrs[position] == other:
            closed += 1
    disk_graph.release()
    rate = closed / samples
    return TriangleEstimate(rate * total_wedges / 3.0, rate, total_wedges, samples)


def estimate_max_support(
    graph: Graph,
    samples: int = 500,
    seed: Optional[int] = None,
    context: Optional[ContextLike] = None,
    rng: Optional[np.random.Generator] = None,
) -> int:
    """A sampled *lower* bound on ``max_e sup(e)`` (charged I/O).

    Samples edges biased toward high-degree endpoints (where the maximum
    support lives) and measures their exact support. The true maximum is
    at least the returned value; it seeds progress displays and sanity
    checks, not correctness decisions (Lemma 2 needs the exact maximum).
    *rng* (or *seed*, or the config's ``approx_seed``) fixes the sample.
    """
    if samples <= 0:
        raise ValueError("samples must be positive")
    if graph.m == 0:
        return 0
    ctx = resolve_context(context)
    device = ctx.device_for(graph.n)
    disk_graph = DiskGraph(graph, device, ctx.memory, name="est.G")
    rng = _resolve_rng(rng, seed, ctx)
    degrees = graph.degrees.astype(np.float64)
    edge_weights = degrees[graph.edges[:, 0]] + degrees[graph.edges[:, 1]]
    probabilities = edge_weights / edge_weights.sum()
    chosen = rng.choice(graph.m, size=min(samples, graph.m), replace=False,
                        p=probabilities)
    best = 0
    for eid in chosen:
        u, v = int(graph.edges[eid, 0]), int(graph.edges[eid, 1])
        nbrs_u = disk_graph.load_neighbors(u)
        nbrs_v = disk_graph.load_neighbors(v)
        support = len(np.intersect1d(nbrs_u, nbrs_v, assume_unique=True))
        best = max(best, support)
    disk_graph.release()
    return best
