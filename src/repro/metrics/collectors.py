"""Metric collectors and small time-series helpers.

Experiments accumulate per-query and per-run observations; these helpers keep
that bookkeeping out of the experiment code and provide the summary statistics
reported in EXPERIMENTS.md (mean ± std, confidence-style spreads, series
down-sampling for the SIC time series).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from ..core.fairness import summary_moments

__all__ = [
    "SummaryStats",
    "TimeSeries",
    "MetricsCollector",
    "summarize_backpressure",
    "summarize_network",
]


def summarize_network(network) -> Dict[str, object]:
    """Flatten a :class:`~repro.federation.network.Network`'s accounting.

    One plain dictionary combining the legacy top-level counters with the
    per-message-type :class:`NetworkStats` ledger — what ``RunResult.network``
    carries and the experiment reports print.  ``delivered`` counts unique
    application-dispatched messages; retransmissions, duplicates, drops and
    expirations are itemised per message kind under ``stats``.
    """
    return {
        "sent_messages": network.sent_messages,
        "delivered_messages": network.delivered_messages,
        "bytes_sent": network.bytes_sent,
        "bytes_delivered": network.bytes_delivered,
        "in_flight": network.in_flight(),
        "reliable_pending": network.reliable_pending(),
        "reorder_buffered": network.reorder_buffered(),
        "stats": network.stats.as_dict(),
    }


def summarize_backpressure(system) -> Dict[str, object]:
    """Flatten a federation's ingress-backpressure accounting.

    Per node: the configured bound, tuples paced back at the sources,
    tuples refused by the hard cap (``overflow`` — zero when pacing engages
    early enough) and how often the high watermark was crossed.  All zeros
    (and ``bounded: False``) when no node bounds its ingress.
    """
    per_node: Dict[str, Dict[str, object]] = {}
    for node_id in sorted(system.nodes):
        node = system.nodes[node_id]
        per_node[node_id] = {
            "max_ingress_tuples": node.max_ingress_tuples,
            "paced_tuples": node.stats.paced_tuples,
            "overflow_tuples": node.stats.ingress_overflow_tuples,
            "engagements": node.stats.backpressure_engagements,
        }
    return {
        "bounded": any(
            entry["max_ingress_tuples"] is not None for entry in per_node.values()
        ),
        "paced_tuples": sum(e["paced_tuples"] for e in per_node.values()),
        "overflow_tuples": sum(e["overflow_tuples"] for e in per_node.values()),
        "engagements": sum(e["engagements"] for e in per_node.values()),
        "per_node": per_node,
    }


@dataclass
class SummaryStats:
    """Mean, standard deviation and extrema of a sample."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float

    @classmethod
    def from_samples(cls, samples: Iterable[float]) -> "SummaryStats":
        values = [float(v) for v in samples]
        if not values:
            return cls(count=0, mean=0.0, std=0.0, minimum=0.0, maximum=0.0)
        # Shared moments helper (vectorized with sequential-order sums above
        # its cut-over, exact scalar loops below it — bit-identical).
        mean, variance, minimum, maximum = summary_moments(values)
        return cls(
            count=len(values),
            mean=mean,
            std=math.sqrt(variance),
            minimum=minimum,
            maximum=maximum,
        )

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "max": self.maximum,
        }

    def __str__(self) -> str:
        return f"{self.mean:.4f} ± {self.std:.4f} (n={self.count})"


class TimeSeries:
    """An append-only (time, value) series with summary helpers."""

    def __init__(self, name: str = "series") -> None:
        self.name = name
        self._times: List[float] = []
        self._values: List[float] = []

    def append(self, time: float, value: float) -> None:
        if self._times and time < self._times[-1]:
            raise ValueError(
                f"time series {self.name!r} requires non-decreasing times"
            )
        self._times.append(float(time))
        self._values.append(float(value))

    def times(self) -> List[float]:
        return list(self._times)

    def values(self) -> List[float]:
        return list(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def last(self) -> Optional[float]:
        return self._values[-1] if self._values else None

    def summary(self, skip_initial: int = 0) -> SummaryStats:
        return SummaryStats.from_samples(self._values[skip_initial:])

    def downsample(self, max_points: int) -> List[Tuple[float, float]]:
        """Return at most ``max_points`` evenly spaced (time, value) pairs."""
        if max_points <= 0:
            raise ValueError(f"max_points must be positive, got {max_points}")
        n = len(self._values)
        if n <= max_points:
            return list(zip(self._times, self._values))
        step = n / max_points
        indices = [min(n - 1, int(i * step)) for i in range(max_points)]
        return [(self._times[i], self._values[i]) for i in indices]


class MetricsCollector:
    """Keyed collection of samples (e.g. per query, per configuration)."""

    def __init__(self) -> None:
        self._samples: Dict[str, List[float]] = {}

    def record(self, key: str, value: float) -> None:
        self._samples.setdefault(key, []).append(float(value))

    def record_many(self, values: Mapping[str, float]) -> None:
        for key, value in values.items():
            self.record(key, value)

    def keys(self) -> List[str]:
        return list(self._samples)

    def samples(self, key: str) -> List[float]:
        return list(self._samples.get(key, []))

    def summary(self, key: str) -> SummaryStats:
        return SummaryStats.from_samples(self._samples.get(key, []))

    def summaries(self) -> Dict[str, SummaryStats]:
        return {key: self.summary(key) for key in self._samples}

    def means(self) -> Dict[str, float]:
        return {key: self.summary(key).mean for key in self._samples}

    def __contains__(self, key: str) -> bool:
        return key in self._samples

    def __len__(self) -> int:
        return len(self._samples)
