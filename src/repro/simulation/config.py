"""Simulation configuration.

The reproduction substitutes the paper's physical test-beds (Table 2) with a
deterministic time-stepped simulation; :class:`SimulationConfig` collects the
knobs that the experiments sweep — STW duration, shedding interval, run
duration, warm-up, shedder choice, network latency, and the per-node
processing budget expressed as a fraction of the offered load (the "overload
factor").
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..core.stw import StwConfig

__all__ = ["SimulationConfig", "RUNTIMES"]

# Execution drivers: "event" is the discrete-event runtime
# (:mod:`repro.runtime`); "lockstep" is the original global tick loop, kept
# as the equivalence oracle and perf baseline; "sharded" partitions the
# event runtime by site into per-shard schedulers, executed in this process,
# with results bit-identical to "event".
RUNTIMES = ("event", "lockstep", "sharded")


def _default_runtime() -> str:
    """Process-wide runtime default, overridable via ``REPRO_RUNTIME``.

    Lets CI run the whole tier-1 suite under the sharded driver
    (``REPRO_RUNTIME=sharded``) without touching each test's config, the
    same pattern as ``REPRO_COLUMNAR_BACKEND``.
    """
    value = os.environ.get("REPRO_RUNTIME", "").strip().lower()
    if not value:
        return "event"
    if value not in RUNTIMES:
        raise ValueError(
            f"REPRO_RUNTIME must be one of {RUNTIMES}, got {value!r}"
        )
    return value


def _default_workers() -> int:
    """Process-wide shard-count default, overridable via ``REPRO_WORKERS``.

    Companion to ``REPRO_RUNTIME``: lets CI (and the experiments CLI) vary
    how many per-site shards the sharded driver uses without touching each
    test's config.  Ignored by the other runtimes.
    """
    value = os.environ.get("REPRO_WORKERS", "").strip()
    if not value:
        return 2
    try:
        return int(value)
    except ValueError:
        raise ValueError(
            f"REPRO_WORKERS must be an integer, got {value!r}"
        ) from None


@dataclass
class SimulationConfig:
    """Configuration of one simulated FSPS run.

    Attributes:
        duration_seconds: simulated run length after warm-up.
        warmup_seconds: initial period excluded from the reported statistics
            (the paper reports results over 5 minutes of execution after query
            deployment; the simulation uses shorter, warmed-up runs).
        shedding_interval: the tuple shedder invocation period (slide of the
            STW approximation); 250 ms in the paper's evaluation.
        stw_seconds: duration of the source time window; 10 s in the paper.
        shedder: which shedder nodes use ("balance-sic", "random",
            "tail-drop" or "none").
        capacity_fraction: per-node processing budget as a fraction of the
            load offered to that node; values below 1.0 create permanent
            overload (characteristic C2).
        network_latency_seconds: one-way latency between distinct endpoints.
        enable_sic_updates: whether coordinators disseminate result SIC values
            (the Figure 4 ablation disables this).
        coordinator_update_interval: dissemination period; defaults to the
            shedding interval.
        columnar: run the columnar tick pipeline (vectorized source
            generation, SIC stamping and window bucketing).  Result-identical
            to the per-tuple path for equal seeds; disable to time or
            differentially test the tuple-at-a-time reference path.  Column
            storage (NumPy or plain lists) and fused fragment execution are
            not configured here: they follow the process-wide columnar backend
            (:mod:`repro.core.columns`), and every seeded run is bit-exact
            result-identical across them.
        runtime: execution driver — ``"event"`` (the discrete-event runtime,
            default), ``"lockstep"`` (the original global tick loop, kept as
            the equivalence oracle) or ``"sharded"`` (the event runtime
            partitioned by site into per-shard schedulers).  Seeded
            homogeneous-interval runs are result-identical under all three.
        workers / shard_partition: shard count of the sharded driver and
            optional node id → shard overrides.
        node_shedding_intervals: per-node shedding-interval overrides (node
            id → seconds), honoured by the event runtime only — the lockstep
            loop is homogeneous by construction.
        checkpoint_interval: cadence (seconds) of the federation-wide
            checkpoint round that keeps the coordinator-held fragment
            checkpoints (node rejoin) and coordinator standby states
            (failover) fresh.  Event runtime only; ``None`` disables
            periodic checkpointing.  Checkpoints never mutate state, so
            enabling them does not change a run's results.
        reliable_delivery: run data/result messages over the network's
            reliable channel (per-link sequence numbers, acks, retransmit
            with exponential backoff, receiver-side dedup) instead of
            fire-and-forget.  With no injected faults this changes no
            results (asserted differentially); under loss it gives
            exactly-once delivery.  ``updateSIC`` and heartbeats stay
            best-effort either way.
        heartbeat_interval: cadence (seconds) of the heartbeat-based failure
            detector's sweeps; ``None`` (default) disables the detector.
            Event runtime only.  With zero injected faults every heartbeat
            arrives and the detector never acts.
        heartbeat_timeout_intervals: silent sweeps before a node is declared
            dead (detection timeout = interval × this).
        max_ingress_tuples: bound on each node's ingress buffer (tuples).
            ``None`` (default) leaves ingress unbounded, matching the
            pre-backpressure behaviour.  When set, sources are paced against
            the node's remaining credit before memory grows, and the cap is
            enforced as a last defence (overflow counted, never buffered).
        ingress_high_fraction / ingress_low_fraction: hysteresis thresholds
            for backpressure as fractions of ``max_ingress_tuples`` —
            pacing engages when occupancy reaches the high watermark and
            releases once it drains to the low one.
        retain_result_values: keep every result tuple's payload on the query
            coordinators (needed by the SIC-correlation experiments, which
            align degraded and perfect runs window by window).  Off by
            default: unbounded retention leaks memory on long runs.
        max_result_values: cap on retained result payloads per query (oldest
            evicted first); ``None`` retains everything while
            ``retain_result_values`` is on.
        seed: RNG seed shared by data generation, placement and shedders.
    """

    duration_seconds: float = 30.0
    warmup_seconds: float = 5.0
    shedding_interval: float = 0.25
    stw_seconds: float = 10.0
    shedder: str = "balance-sic"
    capacity_fraction: float = 0.5
    network_latency_seconds: float = 0.005
    enable_sic_updates: bool = True
    coordinator_update_interval: Optional[float] = None
    columnar: bool = True
    runtime: str = field(default_factory=_default_runtime)
    workers: int = field(default_factory=_default_workers)
    shard_partition: Dict[str, int] = field(default_factory=dict)
    node_shedding_intervals: Dict[str, float] = field(default_factory=dict)
    checkpoint_interval: Optional[float] = None
    reliable_delivery: bool = False
    heartbeat_interval: Optional[float] = None
    heartbeat_timeout_intervals: int = 3
    max_ingress_tuples: Optional[int] = None
    ingress_high_fraction: float = 0.8
    ingress_low_fraction: float = 0.5
    retain_result_values: bool = False
    max_result_values: Optional[int] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.duration_seconds <= 0:
            raise ValueError(
                f"duration_seconds must be positive, got {self.duration_seconds}"
            )
        if self.warmup_seconds < 0:
            raise ValueError(
                f"warmup_seconds must be non-negative, got {self.warmup_seconds}"
            )
        if self.shedding_interval <= 0:
            raise ValueError(
                f"shedding_interval must be positive, got {self.shedding_interval}"
            )
        if self.stw_seconds < self.shedding_interval:
            raise ValueError("stw_seconds must be at least the shedding interval")
        if self.capacity_fraction <= 0:
            raise ValueError(
                f"capacity_fraction must be positive, got {self.capacity_fraction}"
            )
        if self.network_latency_seconds < 0:
            raise ValueError("network_latency_seconds must be non-negative")
        if self.runtime not in RUNTIMES:
            raise ValueError(
                f"runtime must be one of {RUNTIMES}, got {self.runtime!r}"
            )
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")
        for node_id, shard in self.shard_partition.items():
            if not (0 <= shard < self.workers):
                raise ValueError(
                    f"shard_partition[{node_id!r}] must be in [0, "
                    f"{self.workers}), got {shard}"
                )
        for node_id, interval in self.node_shedding_intervals.items():
            if interval <= 0:
                raise ValueError(
                    f"node_shedding_intervals[{node_id!r}] must be positive, "
                    f"got {interval}"
                )
        if self.checkpoint_interval is not None and self.checkpoint_interval <= 0:
            raise ValueError(
                f"checkpoint_interval must be positive, got "
                f"{self.checkpoint_interval}"
            )
        if self.heartbeat_interval is not None and self.heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be positive, got {self.heartbeat_interval}"
            )
        if self.heartbeat_timeout_intervals < 1:
            raise ValueError(
                f"heartbeat_timeout_intervals must be at least 1, got "
                f"{self.heartbeat_timeout_intervals}"
            )
        if self.max_ingress_tuples is not None and self.max_ingress_tuples <= 0:
            raise ValueError(
                f"max_ingress_tuples must be positive, got {self.max_ingress_tuples}"
            )
        if not (0.0 < self.ingress_low_fraction <= self.ingress_high_fraction <= 1.0):
            raise ValueError(
                "ingress watermark fractions must satisfy "
                "0 < low <= high <= 1, got "
                f"low={self.ingress_low_fraction} high={self.ingress_high_fraction}"
            )
        if self.max_result_values is not None and self.max_result_values <= 0:
            raise ValueError(
                f"max_result_values must be positive, got {self.max_result_values}"
            )

    @property
    def total_seconds(self) -> float:
        return self.duration_seconds + self.warmup_seconds

    @property
    def warmup_ticks(self) -> int:
        return int(round(self.warmup_seconds / self.shedding_interval))

    @property
    def total_ticks(self) -> int:
        return int(round(self.total_seconds / self.shedding_interval))

    def stw_config(self) -> StwConfig:
        """Build the :class:`StwConfig` corresponding to this configuration."""
        return StwConfig(
            stw_seconds=self.stw_seconds, slide_seconds=self.shedding_interval
        )

    def reliability_config(self):
        """The network :class:`ReliabilityConfig` for this run (or ``None``)."""
        if not self.reliable_delivery:
            return None
        # Imported lazily: the simulation package stays importable without
        # pulling the federation layer in at module-import time.
        from ..federation.network import ReliabilityConfig

        return ReliabilityConfig()
