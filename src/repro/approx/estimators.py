"""Charged sampling estimators: triangles, supports, ``k_max`` intervals.

All estimators read adjacency through a
:class:`~repro.graph.disk_graph.DiskGraph` view registered with
:meth:`~repro.graph.disk_graph.DiskGraph.attach`, so the graph is never
written. Every sampled adjacency access is charged to the view's
:class:`~repro.storage.BlockDevice`, so an estimate's ``charged_io`` is a
measured Aggarwal–Vitter bill, directly comparable to the exact
algorithms' bills. :class:`~repro.approx.engine.ApproxEngine` builds its
cached per-graph state from them.

Estimator toolbox (Conte et al., "Efficient Estimation of Graph
Trussness", adapted to the semi-external cost model):

* **wedge sampling** (Seshadhri et al.) for the triangle count: sample
  wedge centers proportional to ``d(d-1)/2``, close each wedge with one
  membership probe;
* **uniform edge sampling** for the support distribution: each sampled
  edge's support is computed exactly (two adjacency loads), giving an
  unbiased sample of the support tail;
* **tail-count bound** for ``k_max``: a non-empty ``k``-truss has at
  least ``k(k-1)/2`` edges, each with support ``>= k - 2`` in ``G`` — so
  ``k_max <= 2 + max{s : |{e : sup(e) >= s}| >= (s+1)(s+2)/2}``. Applied
  to the *sampled* tail (Wilson-widened to the confidence envelope) it
  becomes the estimator's ``k_hi``; a witnessed triangle plus the sound
  Nash-Williams bound on the triangle estimate's lower envelope gives
  ``k_lo``.

A sample that covers the whole population degenerates to a census: the
interval collapses and ``confidence`` reads 1.0 (small graphs get exact
answers; the sampling economics only start at scale).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core import bounds
from .estimate import Estimate, hoeffding_samples, wilson_interval

__all__ = [
    "SupportSample",
    "sample_budget",
    "estimate_triangle_count",
    "sample_edge_supports",
    "max_support_from_sample",
    "kmax_from_sample",
    "estimate_edge_support",
]


def _read_bill(source) -> int:
    """Current read-I/O counter of the graph's device."""
    return int(source.device.stats.read_ios)


def sample_budget(
    population: int,
    epsilon: float,
    confidence: float,
    floor: int = 64,
) -> int:
    """Sample count for one estimator stage, capped by the population.

    The Hoeffding count for ``(epsilon, confidence)`` — never below
    *floor* (tiny epsilon-free callers still get a usable sample), never
    above *population* (beyond which the sample is a census).

    >>> sample_budget(10**6, 0.1, 0.95)
    185
    >>> sample_budget(40, 0.1, 0.95)
    40
    """
    if population <= 0:
        return 0
    return min(population, max(floor, hoeffding_samples(epsilon, confidence)))


def charged_bisect(source, v: int, target: int) -> bool:
    """Is *target* in ``N(v)``? Binary search charging each visited cell.

    Costs ``O(log deg(v))`` single-cell touches instead of the full
    ``O(deg(v) / B)`` slice — the membership probe that keeps per-edge
    support sampling sublinear in the endpoint degrees.

    >>> from repro.engine import EngineConfig, ExecutionContext
    >>> from repro.graph import DiskGraph
    >>> from repro.graph.generators import complete_graph
    >>> graph = complete_graph(4)
    >>> context = ExecutionContext(EngineConfig(backend="inmemory"))
    >>> view = DiskGraph.attach(graph, context.device_for(graph.n))
    >>> charged_bisect(view, 0, 3), charged_bisect(view, 0, 7)
    (True, False)
    """
    base = source.adj_base(v)
    lo, hi = 0, source.degree(v)
    while lo < hi:
        mid = (lo + hi) // 2
        value = source.read_adj_cell(base + mid)
        if value == target:
            return True
        if value < target:
            lo = mid + 1
        else:
            hi = mid
    return False


def estimate_triangle_count(
    source,
    samples: int,
    confidence: float,
    rng: np.random.Generator,
) -> Estimate:
    """Estimate ``Δ_G`` by wedge sampling (charged adjacency probes).

    Samples wedge centers proportional to their wedge count, closes each
    wedge with one membership probe against the smaller endpoint, and
    scales the Wilson interval of the closure rate by ``wedges / 3``.

    >>> from repro.engine import EngineConfig, ExecutionContext
    >>> from repro.graph import DiskGraph
    >>> from repro.graph.generators import complete_graph
    >>> import numpy as np
    >>> graph = complete_graph(6)
    >>> context = ExecutionContext(EngineConfig(backend="inmemory"))
    >>> view = DiskGraph.attach(graph, context.device_for(graph.n))
    >>> est = estimate_triangle_count(
    ...     view, 200, 0.95, np.random.default_rng(0))
    >>> est.value == 20.0 and est.covers(20)  # every wedge closes
    True
    """
    if samples <= 0:
        raise ValueError("samples must be positive")
    degrees = source.degrees.astype(np.int64)
    wedge_counts = degrees * (degrees - 1) // 2
    total_wedges = int(wedge_counts.sum())
    if total_wedges == 0:
        return Estimate.exact(0.0, samples=0)
    before = _read_bill(source)
    probabilities = wedge_counts / total_wedges
    centers = rng.choice(source.n, size=samples, p=probabilities)
    closed = 0
    for center in centers:
        nbrs = source.load_neighbors(int(center))
        first, second = rng.choice(len(nbrs), size=2, replace=False)
        a, b = int(nbrs[first]), int(nbrs[second])
        probe = a if source.degree(a) <= source.degree(b) else b
        other = b if probe == a else a
        probe_nbrs = source.load_neighbors(probe)
        position = int(np.searchsorted(probe_nbrs, other))
        if position < len(probe_nbrs) and int(probe_nbrs[position]) == other:
            closed += 1
    rate = closed / samples
    low, high = wilson_interval(closed, samples, confidence)
    scale = total_wedges / 3.0
    return Estimate(
        rate * scale, low * scale, high * scale, confidence, samples,
        charged_io=_read_bill(source) - before,
    )


@dataclass(frozen=True)
class SupportSample:
    """A uniform sample of edge supports (exact per sampled edge).

    ``census`` is True when every edge was sampled — the tail fractions
    are then exact counts, not estimates.

    >>> import numpy as np
    >>> sample = SupportSample(np.arange(4), np.array([0, 2, 3, 3]), 20,
    ...                        False, 0)
    >>> sample.size, sample.tail_count(2), sample.tail_count(3)
    (4, 3, 2)
    """

    eids: np.ndarray
    supports: np.ndarray
    population: int
    census: bool
    charged_io: int

    @property
    def size(self) -> int:
        return len(self.supports)

    def tail_count(self, min_support: int) -> int:
        """Sampled edges with support ``>= min_support``."""
        return int((self.supports >= min_support).sum())


def sample_edge_supports(
    source,
    samples: int,
    rng: np.random.Generator,
) -> SupportSample:
    """Uniformly sample edges and measure each one's exact support.

    Each sampled edge charges one edge-table row plus both endpoints'
    adjacency slices — ``O(samples * d_avg / B)`` I/Os total, sublinear
    in ``m`` whenever ``samples << m``.

    >>> from repro.engine import EngineConfig, ExecutionContext
    >>> from repro.graph import DiskGraph
    >>> from repro.graph.generators import complete_graph
    >>> import numpy as np
    >>> graph = complete_graph(5)   # every edge has support 3
    >>> context = ExecutionContext(EngineConfig(backend="inmemory"))
    >>> view = DiskGraph.attach(graph, context.device_for(graph.n))
    >>> sample = sample_edge_supports(view, 10**6,
    ...                               np.random.default_rng(0))
    >>> sample.census, sample.size, int(sample.supports.min())
    (True, 10, 3)
    """
    m = source.m
    if m == 0 or samples <= 0:
        return SupportSample(
            np.empty(0, np.int64), np.empty(0, np.int64), m, m == 0, 0
        )
    before = _read_bill(source)
    census = samples >= m
    if census:
        eids = np.arange(m, dtype=np.int64)
    else:
        eids = np.sort(rng.choice(m, size=samples, replace=False))
    supports = np.empty(len(eids), dtype=np.int64)
    for i, eid in enumerate(eids):
        u, v = source.load_endpoints(int(eid))
        nbrs_u = source.load_neighbors(u)
        nbrs_v = source.load_neighbors(v)
        supports[i] = len(np.intersect1d(nbrs_u, nbrs_v, assume_unique=True))
    return SupportSample(
        eids, supports, m, census, _read_bill(source) - before
    )


def max_support_from_sample(sample: SupportSample, max_degree: int) -> Estimate:
    """``max_e sup(e)`` from a support sample (no further I/O).

    The sampled maximum is a *sound* lower bound (it was witnessed); the
    upper envelope is the free degree bound ``d_max - 1`` unless the
    sample was a census.

    >>> import numpy as np
    >>> sample = SupportSample(np.arange(3), np.array([1, 4, 2]), 10,
    ...                        False, 0)
    >>> est = max_support_from_sample(sample, 8)
    >>> (est.value, est.ci_low, est.ci_high)
    (4.0, 4.0, 7.0)
    """
    if sample.size == 0:
        return Estimate.exact(0.0)
    witnessed = float(sample.supports.max())
    if sample.census:
        return Estimate.exact(
            witnessed, samples=sample.size, charged_io=sample.charged_io
        )
    cap = float(max(witnessed, max_degree - 1))
    return Estimate(
        witnessed, witnessed, cap, 1.0, sample.size, sample.charged_io
    )


def _tail_bound_level(need_tail, max_level: int) -> int:
    """``max{s >= 1 : need_tail(s) holds}`` (0 when no level qualifies)."""
    best = 0
    for s in range(1, max_level + 1):
        if need_tail(s):
            best = s
    return best


def kmax_from_sample(
    sample: SupportSample,
    triangles: Estimate,
    confidence: float,
) -> Estimate:
    """``k_max`` interval from a support sample + triangle estimate.

    No further I/O — pure arithmetic on the sampled tail:

    * ``k_hi``: tail-count bound on the Wilson *upper* envelope of the
      tail fractions (exact tail counts for a census);
    * ``k_lo``: 3 when a triangle was witnessed (sound), tightened by the
      sound Nash-Williams bound on the triangle estimate's lower
      envelope;
    * point: the tail-count bound on the point tail fractions, clamped
      into ``[k_lo, k_hi]``.

    >>> import numpy as np
    >>> sample = SupportSample(np.arange(15), np.full(15, 4), 15, True, 0)
    >>> est = kmax_from_sample(sample, Estimate.exact(20.0), 0.95)
    >>> est.covers(6), (est.value, est.ci_high)   # K6 census
    (True, (6.0, 6.0))
    """
    m = sample.population
    if m == 0:
        return Estimate.exact(0.0)
    if sample.size == 0:
        return Estimate(2.0, 2.0, float(m + 2), confidence, 0, 0)
    # Levels above sqrt(2m) can never satisfy the (s+1)(s+2)/2 edge-count
    # requirement, so the scan is O(sqrt(m)).
    max_level = int(sample.supports.max())
    level_cap = 1
    while (level_cap + 2) * (level_cap + 3) // 2 <= m:
        level_cap += 1
    if not sample.census:
        max_level = max(max_level, level_cap)

    def need(s: int) -> int:
        return (s + 1) * (s + 2) // 2

    if sample.census:
        best_point = _tail_bound_level(
            lambda s: sample.tail_count(s) >= need(s), max_level
        )
        best_high = best_point
    else:
        size = sample.size

        def point_ok(s: int) -> bool:
            return m * sample.tail_count(s) / size >= need(s)

        def high_ok(s: int) -> bool:
            _, p_high = wilson_interval(sample.tail_count(s), size, confidence)
            return m * p_high >= need(s)

        best_point = _tail_bound_level(point_ok, max_level)
        best_high = _tail_bound_level(high_ok, max_level)
    witnessed_triangle = bool(
        (sample.supports > 0).any() or triangles.ci_low > 0
    )
    floor = 3 if witnessed_triangle else 2
    k_lo = float(max(
        floor,
        bounds.nash_williams_lower_bound(int(triangles.ci_low), m),
    ))
    k_hi = float(max(
        k_lo,
        best_high + 2 if best_high else floor,
    ))
    k_lo = min(k_lo, k_hi)
    point = float(best_point + 2 if best_point else floor)
    point = min(max(point, k_lo), k_hi)
    if sample.census and triangles.is_exact:
        conf = 1.0
    else:
        conf = confidence
    return Estimate(
        point, k_lo, k_hi, conf,
        sample.size + triangles.samples,
        sample.charged_io + triangles.charged_io,
    )


def estimate_edge_support(
    source,
    u: int,
    v: int,
    samples: int,
    confidence: float,
    rng: np.random.Generator,
) -> Optional[Estimate]:
    """Support of edge ``(u, v)`` by neighbour sampling; None if absent.

    Loads the smaller endpoint's adjacency once (also the presence
    check). When that list fits the sample budget the intersection is
    computed exactly (census); otherwise *samples* neighbours are drawn
    with replacement and membership-probed against the larger endpoint
    via :func:`charged_bisect` — ``O(deg_min / B + samples * log d_max)``
    charged I/O, independent of ``m``.

    >>> from repro.engine import EngineConfig, ExecutionContext
    >>> from repro.graph import DiskGraph
    >>> from repro.graph.generators import complete_graph
    >>> import numpy as np
    >>> graph = complete_graph(5)
    >>> context = ExecutionContext(EngineConfig(backend="inmemory"))
    >>> view = DiskGraph.attach(graph, context.device_for(graph.n))
    >>> est = estimate_edge_support(
    ...     view, 0, 1, 64, 0.95, np.random.default_rng(0))
    >>> est.value, est.is_exact
    (3.0, True)
    >>> estimate_edge_support(
    ...     view, 0, 0, 64, 0.95, np.random.default_rng(0)) is None
    True
    """
    if samples <= 0:
        raise ValueError("samples must be positive")
    if u == v:
        return None
    small, big = (u, v) if source.degree(u) <= source.degree(v) else (v, u)
    before = _read_bill(source)
    nbrs_small = source.load_neighbors(small)
    position = int(np.searchsorted(nbrs_small, big))
    if position >= len(nbrs_small) or int(nbrs_small[position]) != big:
        return None
    deg_small = len(nbrs_small)
    if deg_small <= samples:
        nbrs_big = source.load_neighbors(big)
        support = len(np.intersect1d(nbrs_small, nbrs_big, assume_unique=True))
        return Estimate.exact(
            float(support), samples=deg_small,
            charged_io=_read_bill(source) - before,
        )
    picks = rng.integers(0, deg_small, size=samples)
    hits = 0
    for index in picks:
        if charged_bisect(source, big, int(nbrs_small[index])):
            hits += 1
    low, high = wilson_interval(hits, samples, confidence)
    # sup(u, v) <= deg_small - 1 always (big sits in N(small) but never in
    # its own common-neighbour set), so the whole interval caps there.
    cap = deg_small - 1.0
    point = min(hits / samples * deg_small, cap)
    return Estimate(
        point,
        min(low * deg_small, point),
        min(max(high * deg_small, point), cap),
        confidence,
        samples,
        charged_io=_read_bill(source) - before,
    )
