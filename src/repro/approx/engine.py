"""ApproxEngine: cached estimator state answering queries sublinearly.

One :class:`ApproxEngine` owns the sampled state for one immutable graph
(in serving, one pinned snapshot): a wedge-sampling triangle estimate and
a uniform support sample, built once with a measured charged-I/O bill.
From that state it answers ``k_max`` / triangle-count / max-support
queries with **zero** further I/O, and per-edge trussness /
membership-likelihood queries with a small per-query probe (charged to
the caller's device, so serve envelopes bill each request honestly).

Per-edge probes derive their RNG from ``(seed, u, v)``, so repeated
queries for the same edge return the same estimate — the property that
makes approx answers safely memoisable in the serve result cache.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..engine.config import EngineConfig
from ..engine.context import ContextLike, ExecutionContext, resolve_context
from ..errors import ReproError
from ..graph.disk_graph import DiskGraph
from ..graph.memgraph import Graph
from .estimate import Estimate
from .estimators import (
    estimate_edge_support,
    estimate_triangle_count,
    kmax_from_sample,
    max_support_from_sample,
    sample_budget,
    sample_edge_supports,
)

__all__ = ["ApproxEngine"]


def _normal_tail(x: float) -> float:
    """``P(Z >= x)`` for a standard normal (via ``math.erf``)."""
    return 0.5 * (1.0 - math.erf(x / math.sqrt(2.0)))


class ApproxEngine:
    """Sampled-state query engine over one immutable graph.

    Parameters
    ----------
    graph:
        The frozen graph image (a serve snapshot's, or any
        :class:`~repro.graph.Graph`).
    config:
        Optional :class:`~repro.engine.EngineConfig`: its
        ``approx_epsilon``, ``approx_confidence`` and ``approx_seed`` are
        the estimator knobs, and its backend builds the private build
        context. Without one the engine-wide defaults apply.

    Example
    -------
    >>> from repro.engine import EngineConfig
    >>> from repro.graph.generators import complete_graph
    >>> engine = ApproxEngine(
    ...     complete_graph(7), config=EngineConfig(backend="inmemory"))
    >>> engine.kmax().covers(7)   # K7: k_max = 7
    True
    >>> engine.triangles().value == 35.0
    True
    >>> engine.trussness(0, 1).covers(7)
    True
    """

    def __init__(
        self, graph: Graph, config: Optional[EngineConfig] = None
    ) -> None:
        config = config if config is not None else EngineConfig()
        self.graph = graph
        self.epsilon = config.approx_epsilon
        self.confidence = config.approx_confidence
        self.seed = config.approx_seed
        self._config = config
        self._own_context: Optional[ExecutionContext] = None
        self._built = False
        self._build_io = 0
        self._tri: Optional[Estimate] = None
        self._sample = None
        self._kmax: Optional[Estimate] = None
        self._max_support: Optional[Estimate] = None

    # ------------------------------------------------------------------ #
    # state construction
    # ------------------------------------------------------------------ #

    def build(self, probe=None) -> "ApproxEngine":
        """Sample the graph once; idempotent (later calls are free).

        *probe* supplies the charged access path (a
        :class:`~repro.graph.DiskGraph`, typically an attached view);
        without one the engine samples through a view on a private device
        built from its config. The build's read I/Os are
        recorded as :attr:`build_charged_io` — that is the whole cost of
        every later :meth:`kmax` / :meth:`triangles` /
        :meth:`max_support` answer.
        """
        if self._built:
            return self
        if probe is None:
            probe = DiskGraph.attach(
                self.graph, self._require_own_device(), name="approx"
            )
        rng = np.random.default_rng(self.seed)
        budget = sample_budget(
            max(self.graph.m, 1), self.epsilon, self.confidence
        )
        self._tri = estimate_triangle_count(
            probe, max(budget, 1), self.confidence, rng
        )
        self._sample = sample_edge_supports(probe, budget, rng)
        self._max_support = max_support_from_sample(
            self._sample, self.graph.max_degree if self.graph.n else 0
        )
        self._kmax = kmax_from_sample(self._sample, self._tri, self.confidence)
        self._build_io = self._sample.charged_io + self._tri.charged_io
        self._built = True
        return self

    def close(self) -> None:
        """Release the private build context, if one was created."""
        if self._own_context is not None:
            self._own_context.close()
            self._own_context = None

    @property
    def build_charged_io(self) -> int:
        """Read I/Os the one-off sampling pass charged."""
        self.build()
        return self._build_io

    # ------------------------------------------------------------------ #
    # cached answers (no I/O beyond the build)
    # ------------------------------------------------------------------ #

    def kmax(self) -> Estimate:
        """``k_max`` interval from the cached sampled tail."""
        self.build()
        return self._kmax

    def triangles(self) -> Estimate:
        """Triangle-count estimate from the cached wedge sample."""
        self.build()
        return self._tri

    def max_support(self) -> Estimate:
        """Max-support estimate from the cached support sample."""
        self.build()
        return self._max_support

    # ------------------------------------------------------------------ #
    # per-edge answers (small per-query probe)
    # ------------------------------------------------------------------ #

    def _edge_rng(self, u: int, v: int) -> np.random.Generator:
        a, b = (u, v) if u <= v else (v, u)
        return np.random.default_rng([self.seed, a, b])

    def _edge_budget(self) -> int:
        return sample_budget(
            max(self.graph.n, 1), self.epsilon, self.confidence
        )

    def edge_support(self, u: int, v: int, probe=None) -> Optional[Estimate]:
        """Support estimate for edge ``(u, v)``; None when absent.

        *probe* routes the query's adjacency touches (defaults to a view
        on the engine's private device, released after the query — serve
        passes the request's own view so the bill lands on that request's
        envelope).
        """
        self.build()
        if probe is None:
            view = DiskGraph.attach(
                self.graph, self._require_own_device(), name="approx.q"
            )
            try:
                return self.edge_support(u, v, view)
            finally:
                view.release()
        return estimate_edge_support(
            probe, u, v, self._edge_budget(), self.confidence,
            self._edge_rng(u, v),
        )

    def trussness(self, u: int, v: int, probe=None) -> Optional[Estimate]:
        """Trussness estimate for edge ``(u, v)``; None when absent.

        The envelope combines the per-edge support estimate with the
        cached ``k_max`` interval: ``tau(e) <= min(sup(e) + 2, k_max)``
        always, and ``tau(e) >= 2`` always, so the returned interval is
        ``[2 | 3, min(sup_hi + 2, kmax_hi)]``.
        """
        support = self.edge_support(u, v, probe)
        if support is None:
            return None
        kmax = self.kmax()
        high = min(support.ci_high + 2.0, kmax.ci_high)
        low = 3.0 if support.ci_low >= 1.0 else 2.0
        low = min(low, high)
        point = min(max(support.value + 2.0, low), high)
        confidence = min(support.confidence, kmax.confidence)
        return Estimate(
            point, low, high, confidence, support.samples,
            support.charged_io,
        )

    def membership_likelihood(
        self, u: int, v: int, k: int, probe=None,
        support_estimate: Optional[Estimate] = None,
    ) -> Estimate:
        """``P(tau(u, v) >= k)`` under the support estimator's normal
        approximation (0 exactly when the edge is absent, 1 when ``k <= 2``
        and the edge is present).

        *support_estimate* reuses a support estimate the caller already
        computed for this edge (the serve tier probes once per request);
        without it the support probe runs here.
        """
        support = (
            support_estimate
            if support_estimate is not None
            else self.edge_support(u, v, probe)
        )
        if support is None:
            return Estimate.exact(0.0)
        if k <= 2:
            return Estimate.exact(1.0, samples=support.samples,
                                  charged_io=support.charged_io)
        kmax = self.kmax()
        if k > kmax.ci_high:
            return Estimate(0.0, 0.0, 0.0, kmax.confidence,
                            support.samples, support.charged_io)
        threshold = float(k - 2)

        def likelihood(center: float) -> float:
            spread = max(support.width() / 2.0, 0.5)
            return _normal_tail((threshold - center) / spread)

        value = likelihood(support.value)
        low = min(likelihood(support.ci_low), value)
        high = max(likelihood(support.ci_high), value)
        return Estimate(
            value, low, high, support.confidence, support.samples,
            support.charged_io,
        )

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #

    def _require_own_device(self):
        if self._own_context is None:
            self._own_context = ExecutionContext(self._config)
        return self._own_context.device_for(self.graph.n)

    def __enter__(self) -> "ApproxEngine":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "built" if self._built else "lazy"
        return (
            f"ApproxEngine(n={self.graph.n}, m={self.graph.m}, "
            f"epsilon={self.epsilon}, confidence={self.confidence}, {state})"
        )


def build_approx_engine(
    graph: Graph, context: Optional[ContextLike] = None
) -> ApproxEngine:
    """Construct-and-build an :class:`ApproxEngine` from a context.

    The estimator knobs come from the context's config, and the sampling
    is charged to the *context's* device (one shared bill).

    >>> from repro.engine import EngineConfig, ExecutionContext
    >>> from repro.graph.generators import complete_graph
    >>> context = ExecutionContext(EngineConfig(backend="inmemory"))
    >>> engine = build_approx_engine(complete_graph(6), context=context)
    >>> engine.kmax().covers(6)
    True
    """
    ctx = resolve_context(context)
    engine = ApproxEngine(graph, config=ctx.config)
    if graph.n == 0:
        raise ReproError("cannot estimate over an empty graph")
    return engine.build(
        DiskGraph.attach(graph, ctx.device_for(graph.n), name="approx")
    )
