"""Unit tests for the source time window accounting."""

import pytest

from repro.core.stw import ResultSicTracker, StwConfig, StwRegistry
from repro.core.tuples import Batch, Tuple


class TestStwConfig:
    def test_defaults_match_paper(self):
        config = StwConfig()
        assert config.stw_seconds == 10.0
        assert config.slide_seconds == 0.25

    def test_rejects_non_positive_values(self):
        with pytest.raises(ValueError):
            StwConfig(stw_seconds=0)
        with pytest.raises(ValueError):
            StwConfig(slide_seconds=0)

    def test_rejects_slide_larger_than_stw(self):
        with pytest.raises(ValueError):
            StwConfig(stw_seconds=1.0, slide_seconds=2.0)


class TestResultSicTracker:
    def test_no_events_gives_zero(self):
        tracker = ResultSicTracker("q", StwConfig(10.0, 0.25))
        assert tracker.current_sic(now=5.0) == 0.0

    def test_perfect_processing_approaches_one(self):
        tracker = ResultSicTracker("q", StwConfig(10.0, 1.0))
        # One result per second, each carrying 1/10 of the STW's information.
        for second in range(1, 21):
            tracker.record_result(timestamp=float(second), sic=0.1)
        assert tracker.current_sic(now=20.0) == pytest.approx(1.0, abs=0.11)

    def test_degraded_processing_scales_with_kept_fraction(self):
        tracker = ResultSicTracker("q", StwConfig(10.0, 1.0))
        for second in range(1, 21):
            tracker.record_result(timestamp=float(second), sic=0.05)  # half kept
        assert tracker.current_sic(now=20.0) == pytest.approx(0.5, abs=0.06)

    def test_old_events_expire(self):
        tracker = ResultSicTracker("q", StwConfig(stw_seconds=2.0, slide_seconds=1.0))
        tracker.record_result(timestamp=1.0, sic=1.0)
        assert tracker.current_sic(now=1.5) > 0.0
        assert tracker.current_sic(now=10.0) == 0.0

    def test_coverage_normalisation_before_full_stw(self):
        tracker = ResultSicTracker("q", StwConfig(10.0, 1.0))
        # Only two seconds of history: 0.2 of information observed over a
        # coverage of roughly 0.2-0.3 of the STW -> close to 1, not 0.2.
        tracker.record_result(timestamp=1.0, sic=0.1)
        tracker.record_result(timestamp=2.0, sic=0.1)
        assert tracker.current_sic(now=2.0) > 0.5

    def test_reading_is_the_left_to_right_sum_of_the_window_bit_for_bit(self):
        # The window is summed straight off a SIC-only deque; the value must
        # equal the old per-pair generator sum over the same events in the
        # same order, through record / expire / checkpoint-restore churn.
        import random

        rng = random.Random(12)
        config = StwConfig(stw_seconds=2.0, slide_seconds=0.25)
        tracker = ResultSicTracker("q", config)
        events = []  # the oracle's (timestamp, sic) window
        now = 0.0
        for step in range(400):
            now += rng.choice((0.0, 0.01, 0.25, 0.6))
            for _ in range(rng.randrange(4)):
                # Magnitudes spread over many binades so summation order and
                # rounding are visible in the low bits.
                sic = rng.random() * 10.0 ** rng.randrange(-12, 3)
                tracker.record_result(now, sic)
                events.append((now, sic))
            action = rng.randrange(4)
            if action == 0:
                tracker.expire(now)
                events = [e for e in events if e[0] > now - config.stw_seconds]
            elif action == 1:
                state = tracker.snapshot_state()
                assert state["events"] == [list(e) for e in events]
                tracker = ResultSicTracker("q", config)
                tracker.restore_state(state)
            else:
                events = [e for e in events if e[0] > now - config.stw_seconds]
                expected = sum(sic for _, sic in events)
                first = tracker._first_event_time
                if first is not None:
                    observed = now - first + config.slide_seconds
                    expected = expected / min(1.0, observed / config.stw_seconds)
                reading = tracker.current_sic(now)
                assert reading.hex() == float(expected).hex()
                assert tracker.current_sic(now).hex() == reading.hex()  # re-read
                assert tracker.window_event_count() == len(events)

    def test_negative_sic_rejected(self):
        tracker = ResultSicTracker("q", StwConfig())
        with pytest.raises(ValueError):
            tracker.record_result(timestamp=1.0, sic=-0.1)

    def test_snapshot_history_and_mean(self):
        tracker = ResultSicTracker("q", StwConfig(10.0, 1.0))
        for second in range(1, 11):
            tracker.record_result(timestamp=float(second), sic=0.1)
            tracker.snapshot(now=float(second))
        assert len(tracker.history) == 10
        assert tracker.mean_sic() > 0.0
        assert tracker.mean_sic(skip_initial=5) >= tracker.mean_sic() - 1e-9

    def test_record_batch_accounts_all_tuples(self):
        tracker = ResultSicTracker("q", StwConfig(10.0, 1.0))
        batch = Batch("q", [Tuple(1.0, 0.2, {}), Tuple(1.5, 0.3, {})])
        tracker.record_batch(batch)
        assert tracker.current_sic(now=2.0) > 0.0


class TestStwRegistry:
    def test_tracker_created_on_demand(self):
        registry = StwRegistry(StwConfig())
        assert "q1" not in registry
        tracker = registry.tracker("q1")
        assert "q1" in registry
        assert registry.tracker("q1") is tracker

    def test_record_batch_routes_to_query_tracker(self):
        registry = StwRegistry(StwConfig(10.0, 1.0))
        registry.record_batch(Batch("q1", [Tuple(1.0, 0.5, {})]))
        registry.record_batch(Batch("q2", [Tuple(1.0, 0.1, {})]))
        values = registry.current_sic_values(now=1.5)
        assert values["q1"] > values["q2"]

    def test_snapshot_all_and_mean(self):
        registry = StwRegistry(StwConfig(10.0, 1.0))
        registry.record_batch(Batch("q1", [Tuple(1.0, 0.5, {})]))
        registry.snapshot_all(now=1.0)
        means = registry.mean_sic_per_query()
        assert set(means) == {"q1"}
        assert len(registry) == 1
