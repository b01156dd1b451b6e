"""Small statistics used by the benchmark harness (pure Python, no NumPy).

The parent process must not import NumPy or ``repro``: it only aggregates
numbers its children print, so these helpers stay dependency-free.
"""

from __future__ import annotations

import statistics
from typing import Iterable, List, Optional, Sequence

__all__ = ["percentile", "pooled_percentile", "median", "spread", "jain_index"]


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation.

    Same definition as ``numpy.percentile``'s default: rank ``q/100 * (n-1)``
    interpolated between the two neighbouring order statistics.
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def pooled_percentile(groups: Iterable[Sequence[float]], q: float) -> float:
    """Percentile over the samples of all ``groups`` taken together.

    Interval latencies of every repeat are pooled before the percentile is
    taken, so the tail is estimated from all intervals measured rather than
    from a median of per-repeat tails.
    """
    pooled: List[float] = []
    for group in groups:
        pooled.extend(group)
    return percentile(pooled, q)


def median(samples: Sequence[float]) -> float:
    return float(statistics.median(samples))


def spread(samples: Sequence[float]) -> Optional[float]:
    """Interquartile range as a share of the median (``None`` below 2 samples).

    Uses ``statistics.quantiles(values, n=4)``, the definition the
    repeatability criterion is stated in.
    """
    if len(samples) < 2:
        return None
    q1, _, q3 = statistics.quantiles(samples, n=4)
    mid = statistics.median(samples)
    if mid == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(mid)


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index ``(sum x)^2 / (n * sum x^2)`` (1.0 = all equal)."""
    if not values:
        raise ValueError("Jain's index of an empty sample")
    total = 0.0
    squares = 0.0
    for value in values:
        total += value
        squares += value * value
    if squares == 0.0:
        return 1.0
    return total * total / (len(values) * squares)
