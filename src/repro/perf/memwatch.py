"""Bounded-memory soak instrumentation.

Long-running soak experiments (repeated crash/rejoin and failover cycles)
must not grow memory cycle over cycle.  ``tracemalloc`` and RSS are too
noisy for a deterministic gate — the simulation shares its process with the
test harness — so :class:`MemoryWatch` instead counts the entries of every
structure in the federation that *could* grow and converts the counts into
an RSS proxy with fixed per-entry byte estimates.  The estimates do not
need to be exact; they only need to be *constant*, so that flat counts read
as flat bytes and a leak in any tracked structure shows up as growth.

Probes fall into two classes:

* **bounded** — structures the design promises stay flat across cycles:
  scheduler queue, network buffers, node ingress buffers, sliding-window
  tracker events, checkpoint/standby stores, ledger lanes, epoch tails,
  retained result payloads, fault timelines and detector incident records.
  The soak gate (``growth_fraction``) applies to these.
* **series** — metrics time series that grow linearly with *simulated
  time* by design (one entry per shedding interval), independent of how
  many fault cycles run: the result-SIC snapshot histories.  They are
  reported separately so they cannot mask (or masquerade as) a leak.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["MemorySample", "MemoryWatch", "PER_ENTRY_BYTES", "SERIES_PROBES"]

# Fixed per-entry RSS-proxy costs (bytes).  Rough CPython object-graph sizes;
# constant by construction so growth in counts is growth in bytes.
PER_ENTRY_BYTES: Dict[str, int] = {
    "scheduler_pending_events": 160,
    "network_in_flight_messages": 256,
    "network_reliable_pending": 256,
    "network_reorder_buffered": 256,
    "node_input_buffer_tuples": 120,
    "node_tracker_window_events": 64,
    "coordinator_tracker_window_events": 64,
    "checkpoint_envelopes": 4096,
    "standby_snapshots": 2048,
    "ledger_lanes": 160,
    "epoch_tails": 96,
    "retained_result_values": 240,
    "fault_timeline_events": 96,
    "detector_incident_records": 160,
    "node_tracker_history_samples": 64,
    "coordinator_tracker_history_samples": 64,
}

#: Probes that grow linearly with simulated time by design (excluded from
#: the flat-memory gate, reported separately).
SERIES_PROBES = frozenset(
    {"node_tracker_history_samples", "coordinator_tracker_history_samples"}
)


@dataclass
class MemorySample:
    """One memwatch observation: per-probe entry counts plus byte totals."""

    at: float
    counts: Dict[str, int] = field(default_factory=dict)

    @property
    def bounded_bytes(self) -> int:
        return sum(
            count * PER_ENTRY_BYTES[name]
            for name, count in self.counts.items()
            if name not in SERIES_PROBES
        )

    @property
    def series_bytes(self) -> int:
        return sum(
            count * PER_ENTRY_BYTES[name]
            for name, count in self.counts.items()
            if name in SERIES_PROBES
        )

    @property
    def total_bytes(self) -> int:
        return self.bounded_bytes + self.series_bytes


class MemoryWatch:
    """Samples the growable structures of a federation into an RSS proxy.

    Call :meth:`sample` at stable points (e.g. once per soak cycle); the
    samples accumulate on the watch and :meth:`growth_fraction` reports the
    relative growth of the *bounded* byte total between the first retained
    sample and the last — the number the soak's ±5% flatness gate checks.
    """

    def __init__(self) -> None:
        self.samples: List[MemorySample] = []

    def sample(
        self,
        system,
        now: float = 0.0,
        scheduler=None,
        injector=None,
        detector=None,
    ) -> MemorySample:
        """Probe ``system`` (and optional runtime companions) once."""
        counts: Dict[str, int] = {}
        node_buffer = 0
        node_events = 0
        node_history = 0
        for node in system.nodes.values():
            node_buffer += node.input_buffer_size()
            events, history = node.tracker_footprint()
            node_events += events
            node_history += history
        counts["node_input_buffer_tuples"] = node_buffer
        counts["node_tracker_window_events"] = node_events
        counts["node_tracker_history_samples"] = node_history

        coord_events = 0
        coord_history = 0
        lanes = 0
        retained = 0
        for coordinator in system.coordinators.all():
            coord_events += coordinator.tracker.window_event_count()
            coord_history += coordinator.tracker.history_size()
            retained += len(coordinator.result_values)
            lanes += coordinator.ledger.lane_count
        counts["coordinator_tracker_window_events"] = coord_events
        counts["coordinator_tracker_history_samples"] = coord_history
        counts["ledger_lanes"] = lanes
        counts["retained_result_values"] = retained
        counts["checkpoint_envelopes"] = system.coordinators.checkpoint_store_size()
        counts["standby_snapshots"] = system.coordinators.standby_store_size()
        counts["epoch_tails"] = system.epoch_tail_count()

        network = system.network
        counts["network_in_flight_messages"] = network.in_flight()
        counts["network_reliable_pending"] = network.reliable_pending()
        counts["network_reorder_buffered"] = network.reorder_buffered()

        if scheduler is not None:
            counts["scheduler_pending_events"] = scheduler.pending_events()
        if injector is not None:
            counts["fault_timeline_events"] = len(injector.timeline)
        if detector is not None:
            counts["detector_incident_records"] = len(detector.detections) + len(
                detector.recoveries
            )

        sample = MemorySample(at=now, counts=counts)
        self.samples.append(sample)
        return sample

    # ------------------------------------------------------------------ gates
    def growth_fraction(
        self, skip_initial: int = 1, window: int = 1
    ) -> Optional[float]:
        """Relative bounded-bytes growth, early retained samples → late.

        ``skip_initial`` drops warm-up samples taken before the structures
        reached steady state (default: the very first).  ``window`` averages
        that many samples at each end before comparing: per-cycle samples
        jitter by a few percent with the crash/failover phase (buffers are
        probed mid-recovery at varying offsets), so a single endpoint pair
        is a noisy growth estimator while window means cancel the phase
        pattern — soak callers use a window spanning whole failover periods.
        Returns ``None`` with fewer than ``2 * window`` comparable samples.
        """
        samples = self.samples[skip_initial:]
        window = max(1, window)
        if len(samples) < 2 * window:
            return None
        first = sum(s.bounded_bytes for s in samples[:window]) / window
        last = sum(s.bounded_bytes for s in samples[-window:]) / window
        if first <= 0:
            return None if last <= 0 else float("inf")
        return (last - first) / first

    def peak_bounded_bytes(self) -> int:
        return max((s.bounded_bytes for s in self.samples), default=0)

    def summary(self, skip_initial: int = 1, window: int = 1) -> Dict[str, object]:
        growth = self.growth_fraction(skip_initial=skip_initial, window=window)
        return {
            "samples": len(self.samples),
            "first_bounded_bytes": (
                self.samples[0].bounded_bytes if self.samples else 0
            ),
            "last_bounded_bytes": (
                self.samples[-1].bounded_bytes if self.samples else 0
            ),
            "peak_bounded_bytes": self.peak_bounded_bytes(),
            "last_series_bytes": (
                self.samples[-1].series_bytes if self.samples else 0
            ),
            "bounded_growth_fraction": growth,
        }
