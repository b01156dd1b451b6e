"""Unit tests for the deterministic discrete-event scheduler."""

import pytest

from repro.runtime.scheduler import (
    PRIORITY_COORDINATOR,
    PRIORITY_DELIVERY,
    PRIORITY_NODE,
    PRIORITY_POST_DELIVERY,
    PRIORITY_SOURCE,
    EventScheduler,
)


class TestOrdering:
    def test_events_run_in_time_order(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule(0.5, PRIORITY_NODE, lambda t: fired.append(("b", t)))
        scheduler.schedule(0.25, PRIORITY_NODE, lambda t: fired.append(("a", t)))
        scheduler.run_until(1.0)
        assert fired == [("a", 0.25), ("b", 0.5)]

    def test_equal_time_orders_by_priority_then_seq(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule(1.0, PRIORITY_POST_DELIVERY, lambda t: fired.append("post"))
        scheduler.schedule(1.0, PRIORITY_SOURCE, lambda t: fired.append("source-0"))
        scheduler.schedule(1.0, PRIORITY_NODE, lambda t: fired.append("node"))
        scheduler.schedule(1.0, PRIORITY_SOURCE, lambda t: fired.append("source-1"))
        scheduler.schedule(1.0, PRIORITY_DELIVERY, lambda t: fired.append("deliver"))
        scheduler.schedule(1.0, PRIORITY_COORDINATOR, lambda t: fired.append("coord"))
        scheduler.run_until(1.0)
        # Priority mirrors the lockstep tick's phase order; equal priorities
        # preserve scheduling order.
        assert fired == ["source-0", "source-1", "deliver", "node", "coord", "post"]

    def test_run_until_is_inclusive_of_the_horizon(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule(2.0, PRIORITY_NODE, lambda t: fired.append(t))
        scheduler.schedule(2.0000001, PRIORITY_NODE, lambda t: fired.append(t))
        assert scheduler.run_until(2.0) == 1
        assert fired == [2.0]
        assert scheduler.pending_events() == 1

    def test_events_scheduled_while_running_are_processed(self):
        scheduler = EventScheduler()
        fired = []

        def recurring(now):
            fired.append(now)
            if now < 1.0:
                scheduler.schedule(now + 0.25, PRIORITY_NODE, recurring)

        scheduler.schedule(0.25, PRIORITY_NODE, recurring)
        scheduler.run_until(1.0)
        assert fired == [0.25, 0.5, 0.75, 1.0]

    def test_same_instant_event_scheduled_during_processing_runs(self):
        scheduler = EventScheduler()
        fired = []

        def outer(now):
            fired.append("outer")
            scheduler.schedule(now, PRIORITY_POST_DELIVERY, lambda t: fired.append("inner"))

        scheduler.schedule(0.5, PRIORITY_NODE, outer)
        scheduler.run_until(0.5)
        assert fired == ["outer", "inner"]


class TestBookkeeping:
    def test_cancelled_events_are_skipped(self):
        scheduler = EventScheduler()
        fired = []
        handle = scheduler.schedule(0.5, PRIORITY_NODE, lambda t: fired.append("x"))
        scheduler.schedule(0.5, PRIORITY_NODE, lambda t: fired.append("y"))
        handle.cancel()
        scheduler.run_until(1.0)
        assert fired == ["y"]

    def test_now_advances_to_horizon_even_without_events(self):
        scheduler = EventScheduler()
        scheduler.run_until(3.0)
        assert scheduler.now == 3.0

    def test_scheduling_in_the_past_is_rejected(self):
        scheduler = EventScheduler()
        scheduler.run_until(1.0)
        with pytest.raises(ValueError):
            scheduler.schedule(0.5, PRIORITY_NODE, lambda t: None)

    def test_current_priority_visible_during_processing(self):
        scheduler = EventScheduler()
        seen = []
        scheduler.schedule(
            0.5, PRIORITY_NODE, lambda t: seen.append(scheduler.current_priority)
        )
        scheduler.run_until(1.0)
        assert seen == [PRIORITY_NODE]
        assert scheduler.current_priority is None

    def test_next_event_time_skips_cancelled(self):
        scheduler = EventScheduler()
        first = scheduler.schedule(0.5, PRIORITY_NODE, lambda t: None)
        scheduler.schedule(0.75, PRIORITY_NODE, lambda t: None)
        assert scheduler.next_event_time() == 0.5
        first.cancel()
        assert scheduler.next_event_time() == 0.75


class TestCompaction:
    def test_compaction_drops_dead_entries_and_preserves_ordering(self):
        # Long churn/migration runs cancel many recurring streams; once the
        # dead entries outnumber the live ones the heap is compacted, and the
        # compaction must be invisible to the event ordering.
        scheduler = EventScheduler()
        fired = []
        live = []
        handles = []
        for i in range(200):
            time = 1.0 + (i % 37) * 0.25 + (i // 37) * 0.01
            handles.append(
                scheduler.schedule(
                    time, PRIORITY_NODE, lambda t, i=i: fired.append((t, i))
                )
            )
            live.append((time, i))
        # Cancel ~75% of the entries: well past the >50%-of-live threshold.
        for i, handle in enumerate(handles):
            if i % 4 != 0:
                handle.cancel()
        assert scheduler.compactions >= 1
        survivors = sorted(
            ((t, i) for t, i in live if i % 4 == 0),
        )
        # The heap physically shrank: dead entries remaining after the last
        # compaction stay below the re-trigger threshold instead of
        # accumulating without bound.
        assert scheduler.pending_events() == len(survivors)
        assert (
            len(scheduler) - scheduler.pending_events()
            < scheduler.COMPACT_MIN_CANCELLED
        )
        scheduler.run_until(100.0)
        # Same (time, seq) order as an uncompacted run would produce.
        assert fired == survivors

    def test_small_heaps_are_never_compacted(self):
        scheduler = EventScheduler()
        handles = [
            scheduler.schedule(1.0 + i, PRIORITY_NODE, lambda t: None)
            for i in range(20)
        ]
        for handle in handles:
            handle.cancel()
        assert scheduler.compactions == 0
        assert scheduler.pending_events() == 0

    def test_compaction_during_run_keeps_processing(self):
        # Cancelling from inside a callback (the lifecycle API does this)
        # may trigger a compaction mid-run; later events must still fire.
        scheduler = EventScheduler()
        fired = []
        doomed = [
            scheduler.schedule(5.0 + i * 0.01, PRIORITY_NODE, lambda t: None)
            for i in range(130)
        ]

        def cancel_all(now):
            fired.append("cancel")
            for handle in doomed:
                handle.cancel()

        scheduler.schedule(1.0, PRIORITY_NODE, cancel_all)
        scheduler.schedule(2.0, PRIORITY_NODE, lambda t: fired.append("after"))
        scheduler.run_until(10.0)
        assert fired == ["cancel", "after"]
        assert scheduler.compactions >= 1
        assert scheduler.pending_events() == 0


class TestHeapEntries:
    """The heap holds ``(time, priority, seq, event)`` tuples compared in C."""

    def test_entries_are_tuples_with_unique_seqs_and_pop_in_key_order(self):
        import random

        rng = random.Random(5)
        scheduler = EventScheduler()
        fired = []
        expected = []
        for index in range(300):
            time = rng.choice((0.25, 0.5, 0.5, 1.0))
            priority = rng.choice(
                (PRIORITY_SOURCE, PRIORITY_DELIVERY, PRIORITY_NODE, PRIORITY_COORDINATOR)
            )
            scheduler.schedule(
                time, priority, lambda t, index=index: fired.append(index)
            )
            expected.append((time, priority, index))
        heap = scheduler._heap
        assert all(type(entry) is tuple and len(entry) == 4 for entry in heap)
        assert all(
            entry[:3] == (entry[3].time, entry[3].priority, entry[3].seq)
            for entry in heap
        )
        # Equal keys cannot occur, so a comparison is decided before it
        # reaches the event object in the last slot.
        assert len({entry[2] for entry in heap}) == len(heap)
        scheduler.run_until(1.0)
        assert fired == [index for _, _, index in sorted(expected)]

    def test_events_are_never_compared(self):
        from repro.runtime.scheduler import ScheduledEvent

        def refuse(self, other):
            raise AssertionError("heap comparison reached a ScheduledEvent")

        names = ("__lt__", "__le__", "__gt__", "__ge__", "__eq__")
        saved = {name: ScheduledEvent.__dict__.get(name) for name in names}
        for name in names:
            setattr(ScheduledEvent, name, refuse)
        try:
            scheduler = EventScheduler()
            fired = []
            handles = [
                scheduler.schedule(
                    1.0 + (i % 5) * 0.25, PRIORITY_NODE, lambda t, i=i: fired.append(i)
                )
                for i in range(200)
            ]
            for i, handle in enumerate(handles):
                if i % 4:
                    handle.cancel()  # crosses the compaction threshold
            assert scheduler.compactions >= 1
            assert scheduler.peek_instant(1.0, PRIORITY_NODE) is handles[0]
            scheduler.run_until(5.0)
        finally:
            for name, original in saved.items():
                if original is None:
                    delattr(ScheduledEvent, name)
                else:
                    setattr(ScheduledEvent, name, original)
        assert fired == sorted(
            (i for i in range(200) if i % 4 == 0), key=lambda i: (i % 5, i)
        )

    def test_peek_and_run_one_walk_the_same_order(self):
        scheduler = EventScheduler()
        fired = []
        first = scheduler.schedule(1.0, PRIORITY_NODE, lambda t: fired.append("a"))
        second = scheduler.schedule(1.0, PRIORITY_NODE, lambda t: fired.append("b"))
        scheduler.schedule(1.0, PRIORITY_COORDINATOR, lambda t: fired.append("c"))
        first.cancel()
        assert scheduler.has_events_at(1.0, PRIORITY_NODE)
        assert scheduler.peek_instant(1.0, PRIORITY_NODE) is second
        scheduler.run_one(1.0, PRIORITY_NODE)
        assert scheduler.peek_instant(1.0, PRIORITY_NODE) is None
        assert scheduler.next_event_time() == 1.0
        scheduler.run_instant(1.0, PRIORITY_COORDINATOR)
        assert fired == ["b", "c"]
