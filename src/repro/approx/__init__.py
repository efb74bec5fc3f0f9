"""Approximate answer tier: sampled estimates with confidence bounds.

The library's one home for sampled estimates: charged sampling
estimators (:mod:`~repro.approx.estimators`), the
:class:`~repro.approx.estimate.Estimate` envelope they all speak, and the
:class:`~repro.approx.engine.ApproxEngine` that serves trussness /
``k_max`` / membership-likelihood queries from cached sampled state.

Two integration points:

* the serve tier's ``precision: "approx"`` request parameter — sublinear
  per-query answers carrying ``{estimate, ci, confidence, samples}``;
* the ``repro estimate`` CLI.

Both read the estimator knobs from ``EngineConfig.approx_*``.
"""

from .engine import ApproxEngine, build_approx_engine
from .estimate import Estimate, hoeffding_samples, normal_quantile, wilson_interval
from .estimators import (
    SupportSample,
    estimate_edge_support,
    estimate_triangle_count,
    kmax_from_sample,
    max_support_from_sample,
    sample_budget,
    sample_edge_supports,
)

__all__ = [
    "ApproxEngine",
    "build_approx_engine",
    "Estimate",
    "normal_quantile",
    "wilson_interval",
    "hoeffding_samples",
    "SupportSample",
    "sample_budget",
    "estimate_triangle_count",
    "sample_edge_supports",
    "max_support_from_sample",
    "kmax_from_sample",
    "estimate_edge_support",
]
