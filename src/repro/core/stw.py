"""Source time window (STW) accounting (§4, §6).

The STW is the period over which source tuples are related to result tuples:
a source tuple and a result tuple belong to the same processing "round" if
their timestamps fall within a common STW.  THEMIS approximates the STW with a
sliding window whose slide equals the shedding interval; the result SIC of a
query at time ``t`` is the sum of the SIC of result tuples generated in
``(t - STW, t]``, normalised so that perfect processing yields 1.

:class:`ResultSicTracker` performs that accounting for a single query and
:class:`StwRegistry` keeps one tracker per query for a whole deployment.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple as PyTuple

from .tuples import Batch

__all__ = ["StwConfig", "ResultSicTracker", "StwRegistry"]


@dataclass(frozen=True)
class StwConfig:
    """Configuration of the sliding STW approximation.

    Attributes:
        stw_seconds: duration of the source time window.  The paper sets it to
            an order of magnitude above the end-to-end latency (10 s in §7).
        slide_seconds: slide of the window; equals the shedding interval
            (250 ms in §7).
    """

    stw_seconds: float = 10.0
    slide_seconds: float = 0.25

    def __post_init__(self) -> None:
        if self.stw_seconds <= 0:
            raise ValueError(f"stw_seconds must be positive, got {self.stw_seconds}")
        if self.slide_seconds <= 0:
            raise ValueError(
                f"slide_seconds must be positive, got {self.slide_seconds}"
            )
        if self.slide_seconds > self.stw_seconds:
            raise ValueError("slide_seconds cannot exceed stw_seconds")


class ResultSicTracker:
    """Tracks the result SIC of one query over a sliding STW.

    The tracker receives the SIC carried by result tuples as they are emitted
    at the query sink and answers "what is the query's result SIC right now?"
    — the sum of SIC received during the last STW, normalised by the fraction
    of the STW observed so far (so a freshly deployed query is not reported as
    fully degraded before a full STW has elapsed).
    """

    def __init__(self, query_id: str, config: StwConfig) -> None:
        self.query_id = query_id
        self.config = config
        # The window as two parallel deques — event times and their SIC —
        # so a reading sums the SIC deque directly (same floats, same
        # left-to-right order) instead of unpacking pairs per element.
        self._times: Deque[float] = deque()
        self._sics: Deque[float] = deque()
        self._first_event_time: Optional[float] = None
        self._history: List[PyTuple[float, float]] = []

    def record_result(self, timestamp: float, sic: float) -> None:
        """Record ``sic`` worth of result tuples emitted at ``timestamp``."""
        if sic < 0:
            raise ValueError(f"sic must be non-negative, got {sic}")
        if self._first_event_time is None:
            self._first_event_time = timestamp
        self._times.append(timestamp)
        self._sics.append(sic)

    def record_batch(self, batch: Batch) -> None:
        """Record all tuples of a result batch."""
        for t in batch:
            self.record_result(t.timestamp, t.sic)

    def current_sic(self, now: float) -> float:
        """Return the query result SIC over the STW ending at ``now``."""
        self._expire(now)
        total = sum(self._sics)
        coverage = self._coverage(now)
        if coverage <= 0.0:
            return 0.0
        return total / coverage

    def snapshot(self, now: float, value: Optional[float] = None) -> float:
        """Record the current SIC in the history and return it.

        ``value`` is a :meth:`current_sic` reading the caller already took at
        ``now`` (with no event recorded since); it is recorded as is.
        """
        if value is None:
            value = self.current_sic(now)
        self._history.append((now, value))
        return value

    @property
    def history(self) -> List[PyTuple[float, float]]:
        """Time series of snapshots taken via :meth:`snapshot`."""
        return list(self._history)

    def window_event_count(self) -> int:
        """Unexpired events in the sliding window (memwatch probe)."""
        return len(self._times)

    def history_size(self) -> int:
        """Snapshot samples retained so far (memwatch probe; grows linearly
        with simulated time by design — one sample per shedding interval)."""
        return len(self._history)

    def mean_sic(self, skip_initial: int = 0) -> float:
        """Mean of the snapshot history (optionally skipping warm-up samples)."""
        samples = [v for _, v in self._history[skip_initial:]]
        if not samples:
            return 0.0
        return sum(samples) / len(samples)

    def _coverage(self, now: float) -> float:
        """Fraction of a full STW for which the query has been observed."""
        if self._first_event_time is None:
            return 0.0
        observed = now - self._first_event_time + self.config.slide_seconds
        if observed <= 0:
            return 0.0
        return min(1.0, observed / self.config.stw_seconds)

    def expire(self, now: float) -> None:
        """Drop events that left the sliding window.

        :meth:`current_sic` expires lazily, but a tracker whose value is
        never read (e.g. a node-local tracker shadowed by coordinator
        ``updateSIC`` reports) would otherwise accumulate events without
        bound; hosts call this once per round to keep the window flat.
        Expiry never changes a later reading — expired events contribute
        nothing to any sum taken at or after ``now``.
        """
        self._expire(now)

    def _expire(self, now: float) -> None:
        horizon = now - self.config.stw_seconds
        times = self._times
        while times and times[0] <= horizon:
            times.popleft()
            self._sics.popleft()

    # ------------------------------------------------------ checkpoint/restore
    def snapshot_state(self) -> Dict[str, object]:
        """Serialise the tracker: unexpired events, first-event anchor, history."""
        return {
            "query_id": self.query_id,
            "events": [list(event) for event in zip(self._times, self._sics)],
            "first_event_time": self._first_event_time,
            "history": [list(sample) for sample in self._history],
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Rebuild the tracker from :meth:`snapshot_state` output."""
        if state["query_id"] != self.query_id:
            raise ValueError(
                f"tracker checkpoint for query {state['query_id']!r} does not "
                f"match {self.query_id!r}"
            )
        self._times = deque(t for t, _ in state["events"])
        self._sics = deque(sic for _, sic in state["events"])
        self._first_event_time = state["first_event_time"]
        self._history = [(t, value) for t, value in state["history"]]


class StwRegistry:
    """One :class:`ResultSicTracker` per query."""

    def __init__(self, config: StwConfig) -> None:
        self.config = config
        self._trackers: Dict[str, ResultSicTracker] = {}

    def tracker(self, query_id: str) -> ResultSicTracker:
        """Return (creating if needed) the tracker for ``query_id``."""
        if query_id not in self._trackers:
            self._trackers[query_id] = ResultSicTracker(query_id, self.config)
        return self._trackers[query_id]

    def record_batch(self, batch: Batch) -> None:
        self.tracker(batch.query_id).record_batch(batch)

    def current_sic_values(self, now: float) -> Dict[str, float]:
        """Current result SIC per query."""
        return {qid: t.current_sic(now) for qid, t in self._trackers.items()}

    def snapshot_all(self, now: float) -> Dict[str, float]:
        return {qid: t.snapshot(now) for qid, t in self._trackers.items()}

    def mean_sic_per_query(self, skip_initial: int = 0) -> Dict[str, float]:
        return {
            qid: t.mean_sic(skip_initial=skip_initial)
            for qid, t in self._trackers.items()
        }

    def query_ids(self) -> List[str]:
        return list(self._trackers)

    def __contains__(self, query_id: str) -> bool:
        return query_id in self._trackers

    def __len__(self) -> int:
        return len(self._trackers)
