"""Deterministic discrete-event scheduler.

The event runtime replaces the lockstep ``FederatedSystem.tick()`` loop with a
heap of ``(time, priority, seq, event)`` entries: source generation rounds,
network deliveries, per-node shedding rounds and per-query coordinator rounds
are all independently scheduled.  Determinism is the design constraint — the
differential tests assert that a seeded event-driven run with homogeneous
intervals is *result-identical* to the lockstep loop — so ties are broken
first by an explicit phase priority (mirroring the phase order inside one
lockstep tick) and then by scheduling order.  Heap entries are plain tuples,
so every sift compares in C, and ``seq`` is unique per scheduler, so a
comparison is decided before it reaches the event object.

The scheduler knows nothing about the federation; it stores opaque callbacks.
Cancellation is lazy: :meth:`ScheduledEvent.cancel` marks the event and the
run loop skips it when popped, which keeps ``cancel`` O(1) — the lifecycle
API (query undeploy, node failure) relies on this.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

__all__ = [
    "EventScheduler",
    "ScheduledEvent",
    "PRIORITY_FAULT",
    "PRIORITY_SOURCE",
    "PRIORITY_DELIVERY",
    "PRIORITY_NODE",
    "PRIORITY_COORDINATOR",
    "PRIORITY_POST_DELIVERY",
]

# Phase priorities for events scheduled at the same instant.  They mirror the
# phase order of one lockstep tick: sources generate, due messages are
# delivered, nodes run their shedding rounds, coordinators disseminate and
# snapshot.  POST_DELIVERY exists for zero-latency messages sent *during* a
# node or coordinator phase: the lockstep loop would only deliver them at the
# next tick (its delivery phase has already passed), so the event runtime
# delivers them at the end of the current instant — after every same-instant
# round has observed the pre-send state, exactly like the lockstep path.
PRIORITY_SOURCE = 0
PRIORITY_DELIVERY = 1
PRIORITY_NODE = 2
PRIORITY_COORDINATOR = 3
PRIORITY_POST_DELIVERY = 4
# Fault-injection and failure-detector events fire before anything else at
# their instant: a crash planned for time t must be visible to t's source,
# delivery and shedding phases, exactly as if the machine died just before
# the instant began.
PRIORITY_FAULT = -1


class ScheduledEvent:
    """A scheduled callback; ordered by ``(time, priority, seq)``.

    ``rank`` is optional cross-scheduler ordering metadata: the sharded
    runtime stamps every lineage-spawned event with its action token so
    barrier instants can merge events from several schedulers in the exact
    order one global heap would have popped them.  The scheduler itself
    never reads it.
    """

    __slots__ = ("time", "priority", "seq", "fn", "cancelled", "_scheduler", "rank")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        fn: Callable[[float], None],
        scheduler: Optional["EventScheduler"] = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.cancelled = False
        self._scheduler = scheduler
        self.rank = None

    def cancel(self) -> None:
        """Mark the event as cancelled; it is skipped when popped."""
        if not self.cancelled:
            self.cancelled = True
            if self._scheduler is not None:
                self._scheduler._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"ScheduledEvent(t={self.time}, p={self.priority}{state})"


# One heap slot: the unique ``(time, priority, seq)`` key, then the handle.
_HeapEntry = Tuple[float, int, int, ScheduledEvent]


class EventScheduler:
    """A deterministic event heap with an inclusive ``run_until`` horizon."""

    # Lazily-cancelled entries are compacted away once they exceed the live
    # entries (~50% dead), so long churn/migration runs do not accumulate
    # dead events; small heaps are never compacted (not worth a rebuild).
    COMPACT_MIN_CANCELLED = 64

    def __init__(self, start: float = 0.0) -> None:
        self._heap: List[_HeapEntry] = []
        self._seq = itertools.count()
        self.now = float(start)
        # Priority of the event currently being processed (None outside
        # run_until); the runtime consults it to order zero-latency
        # deliveries after the sending phase.
        self.current_priority: Optional[int] = None
        self.processed_events = 0
        # Cancelled events still sitting in the heap; maintained by
        # ScheduledEvent.cancel / the pops that skip them.
        self._cancelled = 0
        self.compactions = 0

    def schedule(
        self, time: float, priority: int, fn: Callable[[float], None]
    ) -> ScheduledEvent:
        """Schedule ``fn(time)``; returns a handle whose ``cancel()`` works.

        Scheduling at the current instant is allowed (zero-latency message
        deliveries); scheduling in the past is a programming error.
        """
        if time < self.now:
            raise ValueError(
                f"cannot schedule event at {time} before current time {self.now}"
            )
        seq = next(self._seq)
        event = ScheduledEvent(time, priority, seq, fn, self)
        heapq.heappush(self._heap, (time, priority, seq, event))
        return event

    # --------------------------------------------------------------- compaction
    def _note_cancelled(self) -> None:
        self._cancelled += 1
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        """Drop cancelled entries once they outnumber the live ones.

        ``heapify`` over the surviving entries preserves the full
        ``(time, priority, seq)`` order — the total order lives in the
        entries, not on heap positions — so compaction is invisible to the
        run loop (asserted in ``tests/runtime/test_scheduler.py``).
        """
        cancelled = self._cancelled
        if cancelled < self.COMPACT_MIN_CANCELLED:
            return
        if cancelled * 2 <= len(self._heap):
            return
        # In place: run_until holds a reference to the heap list across event
        # callbacks (which may cancel events), so the list object must stay.
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[3].cancelled]
        heapq.heapify(heap)
        self._cancelled = 0
        self.compactions += 1

    def run_until(self, end: float) -> int:
        """Process every event with ``time <= end`` (inclusive), in order.

        Events scheduled while running — deliveries, recurring-round
        reschedules — are processed in the same call when they fall within
        the horizon.  Afterwards ``now`` is advanced to ``end`` even if the
        heap ran dry, so later lifecycle calls anchor at the horizon.
        Returns the number of events processed.
        """
        heap = self._heap
        processed = 0
        while heap and heap[0][0] <= end:
            event = heapq.heappop(heap)[3]
            if event.cancelled:
                self._cancelled -= 1
                continue
            self.now = event.time
            self.current_priority = event.priority
            try:
                event.fn(event.time)
            finally:
                self.current_priority = None
            processed += 1
        if end > self.now:
            self.now = end
        self.processed_events += processed
        return processed

    def run_window(self, end: float) -> int:
        """Process every event with ``time < end`` (strict), in order.

        The conservative time-windowing of the sharded runtime needs a
        *strict-exclusive* horizon: a boundary message sent at ``T`` over a
        link with latency equal to the lookahead arrives exactly at the
        window end and must land in the *next* window, after the barrier
        exchange — an inclusive horizon would silently miss it.  ``now`` is
        left at the last processed instant (not advanced to ``end``), so the
        window-end instant can still be scheduled into and processed by
        :meth:`run_instant`.
        """
        heap = self._heap
        processed = 0
        while heap and heap[0][0] < end:
            event = heapq.heappop(heap)[3]
            if event.cancelled:
                self._cancelled -= 1
                continue
            self.now = event.time
            self.current_priority = event.priority
            try:
                event.fn(event.time)
            finally:
                self.current_priority = None
            processed += 1
        self.processed_events += processed
        return processed

    def run_instant(self, time: float, priority: int) -> int:
        """Process the events at exactly ``(time, priority)``, in seq order.

        Barrier instants (window ends that carry global events — faults,
        checkpoint rounds, the run horizon) are phase-stepped across shards:
        the sharded runtime calls this per shard per phase priority so that
        every shard observes a globally consistent phase order at the
        barrier, exactly like the single-heap runtime's ``(time, priority,
        seq)`` pops.  Events the callbacks schedule at the same
        ``(time, priority)`` are processed in the same call (the
        POST_DELIVERY cascade), at higher priorities by later phases.
        """
        if time < self.now:
            raise ValueError(
                f"cannot run instant {time} before current time {self.now}"
            )
        heap = self._heap
        processed = 0
        while heap and heap[0][0] == time and heap[0][1] <= priority:
            event = heapq.heappop(heap)[3]
            if event.cancelled:
                self._cancelled -= 1
                continue
            if event.priority < priority:
                # A lower-priority event at the barrier instant means a
                # phase was scheduled into after its pass ran; that breaks
                # the lockstep phase order the barrier stepping reproduces.
                raise RuntimeError(
                    f"event at ({time}, {event.priority}) scheduled after "
                    f"its barrier phase ran (current phase {priority})"
                )
            self.now = event.time
            self.current_priority = event.priority
            try:
                event.fn(event.time)
            finally:
                self.current_priority = None
            processed += 1
        if time > self.now:
            self.now = time
        self.processed_events += processed
        return processed

    def peek_instant(self, time: float, priority: int) -> Optional[ScheduledEvent]:
        """The next pending event at exactly ``(time, priority)``, unpopped."""
        heap = self._drop_cancelled_head()
        if heap and heap[0][0] == time and heap[0][1] == priority:
            return heap[0][3]
        return None

    def run_one(self, time: float, priority: int) -> None:
        """Pop and run exactly one event at ``(time, priority)``.

        Caller must have :meth:`peek_instant`-ed it — the heap top is
        assumed to be a live event at that exact instant.  Used by the
        sharded runtime's rank-merged barrier phases, which pick the next
        event across several schedulers before running it.
        """
        event = heapq.heappop(self._heap)[3]
        assert (
            not event.cancelled
            and event.time == time
            and event.priority == priority
        )
        self.now = event.time
        self.current_priority = event.priority
        try:
            event.fn(event.time)
        finally:
            self.current_priority = None
        self.processed_events += 1

    def _drop_cancelled_head(self) -> List[_HeapEntry]:
        """Pop cancelled entries off the top; returns the heap."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
            self._cancelled -= 1
        return heap

    def has_events_at(self, time: float, priority: int) -> bool:
        """True if a pending event sits at exactly ``(time, priority)``."""
        heap = self._drop_cancelled_head()
        return bool(heap) and heap[0][0] == time and heap[0][1] == priority

    def next_event_time(self) -> Optional[float]:
        """Time of the earliest pending (non-cancelled) event, if any."""
        heap = self._drop_cancelled_head()
        if not heap:
            return None
        return heap[0][0]

    def pending_events(self) -> int:
        """Number of scheduled, not-yet-cancelled events."""
        return len(self._heap) - self._cancelled

    def __len__(self) -> int:
        return len(self._heap)
