"""Unit tests for query coordinators."""

import pytest

from repro.core.stw import StwConfig
from repro.core.tuples import Batch, Tuple
from repro.federation.coordinator import CoordinatorRegistry, QueryCoordinator


def result_batch(query="q", sic=0.1, ts=1.0):
    return Batch(query, [Tuple(ts, sic, {"avg": 42.0})])


def stamped_batch(seq, query="q", fragment="f0", epoch=0):
    """A root-fragment result batch stamped with its ledger coordinates."""
    batch = Batch(query, [Tuple(float(seq), 0.1, {"avg": 42.0})])
    batch.origin_fragment_id = fragment
    batch.origin_epoch = epoch
    batch.origin_seq = seq
    return batch


class TestQueryCoordinator:
    def test_records_results_and_tracks_sic(self):
        coordinator = QueryCoordinator("q", StwConfig(10.0, 1.0), retain_results=True)
        coordinator.record_result(result_batch(sic=0.2), now=1.0)
        assert coordinator.result_tuples == 1
        assert coordinator.current_sic(now=1.5) > 0.0
        assert coordinator.result_values[0]["avg"] == 42.0
        assert "_ts" in coordinator.result_values[0]

    def test_result_retention_is_opt_in_and_bounded(self):
        # Default: SIC accounting only, no payload retention (memory bound).
        plain = QueryCoordinator("q", StwConfig(10.0, 1.0))
        plain.record_result(result_batch(sic=0.2), now=1.0)
        assert plain.result_tuples == 1
        assert len(plain.result_values) == 0
        # Opt-in with a cap: oldest payloads are evicted first.
        capped = QueryCoordinator(
            "q", StwConfig(10.0, 1.0), retain_results=True, max_retained_results=3
        )
        for i in range(5):
            capped.record_result(result_batch(sic=0.1, ts=float(i)), now=float(i))
        assert capped.result_tuples == 5
        assert len(capped.result_values) == 3
        assert [v["_ts"] for v in capped.result_values] == [2.0, 3.0, 4.0]

    def test_rejects_non_positive_retention_cap(self):
        with pytest.raises(ValueError):
            QueryCoordinator("q", StwConfig(), max_retained_results=0)

    def test_updates_only_sent_to_registered_nodes(self):
        coordinator = QueryCoordinator("q", StwConfig(), update_interval=0.25)
        coordinator.register_hosting_node("n2")
        coordinator.register_hosting_node("n1")
        assert coordinator.update_targets(now=0.25) == ["n1", "n2"]
        assert coordinator.updates_sent == 2

    def test_updates_respect_the_interval(self):
        coordinator = QueryCoordinator("q", StwConfig(), update_interval=1.0)
        coordinator.register_hosting_node("n1")
        assert coordinator.update_targets(now=0.0)  # first call always due
        assert coordinator.update_targets(now=0.5) == []
        assert coordinator.update_targets(now=1.0)

    def test_rejects_bad_update_interval(self):
        with pytest.raises(ValueError):
            QueryCoordinator("q", StwConfig(), update_interval=0.0)

    def test_snapshot_builds_history(self):
        coordinator = QueryCoordinator("q", StwConfig(10.0, 1.0))
        coordinator.record_result(result_batch(sic=0.1), now=1.0)
        coordinator.snapshot(now=1.0)
        coordinator.snapshot(now=2.0)
        assert len(coordinator.tracker.history) == 2


class TestExactlyOnceLedger:
    """Every coordinator runs its results through the exactly-once ledger."""

    def test_replayed_batch_is_deduplicated(self):
        coordinator = QueryCoordinator("q", StwConfig(10.0, 1.0))
        coordinator.on_result(stamped_batch(1), now=1.0)
        coordinator.on_result(stamped_batch(1), now=1.1)  # crash replay
        assert coordinator.result_tuples == 1
        assert coordinator.ledger.deduped_tuples == 1
        assert coordinator.accounted_tuples() == 2

    def test_restore_rolls_the_ledger_back_with_the_tracker(self):
        coordinator = QueryCoordinator("q", StwConfig(10.0, 1.0))
        coordinator.on_result(stamped_batch(1), now=1.0)
        state = coordinator.snapshot_state(now=1.0)
        coordinator.on_result(stamped_batch(2), now=2.0)
        coordinator.restore_state(state)
        assert coordinator.result_tuples == 1
        assert coordinator.ledger.acked("f0", 0) == 1
        # The arrival after the snapshot re-delivers instead of deduplicating.
        coordinator.on_result(stamped_batch(2), now=2.5)
        assert coordinator.result_tuples == 2
        assert coordinator.ledger.deduped_tuples == 0

    def test_promoted_standby_carries_the_checkpointed_ledger(self):
        registry = CoordinatorRegistry(StwConfig(10.0, 1.0))
        registry.coordinator("q").on_result(stamped_batch(1), now=1.0)
        registry.checkpoint_coordinator("q", now=1.0)
        registry.coordinator("q").on_result(stamped_batch(2), now=2.0)
        _, promoted = registry.fail_over("q")
        assert promoted.ledger.acked("f0", 0) == 1
        promoted.on_result(stamped_batch(1), now=2.5)
        assert promoted.ledger.deduped_tuples == 1
        # The standby was consumed: a second failover starts a blank ledger.
        _, blank = registry.fail_over("q")
        assert blank.ledger.acked("f0", 0) == 0
        assert blank.ledger.lane_count == 0


class TestCoordinatorRegistry:
    def test_coordinator_created_once_per_query(self):
        registry = CoordinatorRegistry(StwConfig())
        a = registry.coordinator("q1")
        b = registry.coordinator("q1")
        assert a is b
        assert "q1" in registry
        assert len(registry) == 1

    def test_remove_tears_down_and_get_does_not_resurrect(self):
        registry = CoordinatorRegistry(StwConfig())
        registry.coordinator("q1")
        removed = registry.remove("q1")
        assert removed.query_id == "q1"
        assert "q1" not in registry
        assert registry.get("q1") is None  # no auto-create on the get path
        with pytest.raises(KeyError):
            registry.remove("q1")

    def test_current_and_mean_sic_per_query(self):
        registry = CoordinatorRegistry(StwConfig(10.0, 1.0))
        registry.coordinator("q1").record_result(result_batch("q1", sic=0.3), now=1.0)
        registry.coordinator("q2").record_result(result_batch("q2", sic=0.1), now=1.0)
        current = registry.current_sic_values(now=1.5)
        assert current["q1"] > current["q2"]
        for coordinator in registry.all():
            coordinator.snapshot(now=1.5)
        means = registry.mean_sic_per_query()
        assert set(means) == {"q1", "q2"}
