"""Order statistics shared by run.py, compare.py and the tests."""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 when the median is 0)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def tail(values: Sequence[float]) -> float:
    """The highest percentile with at least ten samples above it, but
    never lower than the upper quartile.

    With 1000 samples that is the p99, with 700 about the p98.6; under 40
    samples no percentile above the upper quartile keeps ten beyond it, so
    the upper quartile it is.
    """
    return percentile(values, max(0.75, 1.0 - 10 / len(values)))


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile: the smallest sample with *share* of all
    samples at or below it (``share`` in ``(0, 1]``)."""
    ordered = sorted(values)
    rank = math.ceil(share * len(ordered) - 1e-9)
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def across_windows(windows: Sequence[Sequence[float]], share: float) -> float:
    """The lower quartile over *windows* of each window's *share* percentile.

    The windows carry the same load, so they differ by interference from
    other tenants of the machine. The lower quartile is the level of the
    quieter windows: it moves only when three in four windows were
    disturbed, while one percentile over all samples pooled moves with
    every disturbed window.
    """
    return quartiles([percentile(window, share) for window in windows])[0]
