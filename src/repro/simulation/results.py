"""Run results and summaries.

A :class:`RunResult` captures everything the experiments report: per-query
mean result SIC over the measurement period, Jain's Fairness Index, the SIC
time series, per-node shedding statistics and network counters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

from ..core.fairness import FairnessSummary, jains_index, summarize_fairness

__all__ = ["NodeSummary", "RunResult"]


@dataclass
class NodeSummary:
    """Per-node statistics extracted from the node's counters."""

    node_id: str
    received_tuples: int
    kept_tuples: int
    shed_tuples: int
    overloaded_ticks: int
    ticks: int
    shedder_invocations: int
    shedder_time_seconds: float

    @property
    def shed_fraction(self) -> float:
        if self.received_tuples == 0:
            return 0.0
        return self.shed_tuples / self.received_tuples

    @property
    def mean_shedder_time(self) -> float:
        if self.shedder_invocations == 0:
            return 0.0
        return self.shedder_time_seconds / self.shedder_invocations


@dataclass
class RunResult:
    """Summary of one simulated FSPS run."""

    shedder: str
    duration_seconds: float
    per_query_sic: Dict[str, float] = field(default_factory=dict)
    sic_time_series: Dict[str, List[float]] = field(default_factory=dict)
    node_summaries: List[NodeSummary] = field(default_factory=list)
    messages_sent: int = 0
    bytes_sent: int = 0
    result_values: Dict[str, List[Dict[str, object]]] = field(default_factory=dict)
    # Flattened transport accounting (see metrics.collectors.summarize_network):
    # bytes_delivered plus the per-message-type sent/delivered/dropped/
    # duplicate/retransmit/expired ledger of the run's Network.
    network: Dict[str, object] = field(default_factory=dict)
    # Ingress-backpressure accounting (metrics.collectors.summarize_backpressure):
    # paced/overflow/engagement counts, total and per node.
    backpressure: Dict[str, object] = field(default_factory=dict)
    # Exactly-once result-ledger closure (FederatedSystem.result_accounting_report):
    # arrived == recorded + deduped + dropped + lost_to_crash + retired.
    ledger: Dict[str, object] = field(default_factory=dict)
    extra: Dict[str, object] = field(default_factory=dict)

    # --------------------------------------------------------------- fairness
    @property
    def jains_index(self) -> float:
        return jains_index(self.per_query_sic.values())

    @property
    def mean_sic(self) -> float:
        values = list(self.per_query_sic.values())
        if not values:
            return 0.0
        return sum(values) / len(values)

    @property
    def std_sic(self) -> float:
        values = list(self.per_query_sic.values())
        if not values:
            return 0.0
        mean = self.mean_sic
        return math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))

    def fairness(self) -> FairnessSummary:
        return summarize_fairness(self.per_query_sic)

    # ----------------------------------------------------------------- totals
    @property
    def total_shed_tuples(self) -> int:
        return sum(n.shed_tuples for n in self.node_summaries)

    @property
    def total_received_tuples(self) -> int:
        return sum(n.received_tuples for n in self.node_summaries)

    @property
    def shed_fraction(self) -> float:
        total = self.total_received_tuples
        if total == 0:
            return 0.0
        return self.total_shed_tuples / total

    @property
    def mean_shedder_time(self) -> float:
        invocations = sum(n.shedder_invocations for n in self.node_summaries)
        if invocations == 0:
            return 0.0
        total = sum(n.shedder_time_seconds for n in self.node_summaries)
        return total / invocations

    def summary_row(self) -> Dict[str, float]:
        """A flat dictionary convenient for tabular experiment output."""
        return {
            "shedder": self.shedder,
            "queries": len(self.per_query_sic),
            "mean_sic": self.mean_sic,
            "std_sic": self.std_sic,
            "jains_index": self.jains_index,
            "shed_fraction": self.shed_fraction,
        }
