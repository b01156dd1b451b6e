"""Tests for the mid-run cluster & query lifecycle API of the event runtime
and the stream cohorts it keeps in step with it."""

import pytest

from repro.core.shedding import make_shedder
from repro.core.stw import StwConfig
from repro.federation.fsps import FederatedSystem
from repro.federation.network import Network, UniformLatency
from repro.federation.node import FspsNode
from repro.runtime import EventRuntime, ShardedRuntime
from repro.workloads.aggregate import make_aggregate_query

INTERVAL = 0.25
STW = StwConfig(stw_seconds=4.0, slide_seconds=INTERVAL)


def make_node(node_id, budget=150.0, shedder="balance-sic", seed=0):
    return FspsNode(
        node_id=node_id,
        shedder=make_shedder(shedder, seed=seed),
        budget_per_interval=budget,
        stw_config=STW,
    )


def make_system(num_nodes=2, budget=150.0):
    system = FederatedSystem(
        stw_config=STW,
        shedding_interval=INTERVAL,
        network=Network(UniformLatency(0.005)),
    )
    for i in range(num_nodes):
        system.add_node(make_node(f"node-{i}", budget=budget, seed=i))
    return system


def deploy(target, query_id, node_id, rate=80.0, seed=0):
    """Deploy a single-fragment aggregate query on ``node_id``.

    ``target`` is either a FederatedSystem (pre-run) or an EventRuntime
    (mid-run).
    """
    query = make_aggregate_query("avg", query_id=query_id, rate=rate, seed=seed)
    placement = {fragment_id: node_id for fragment_id in query.fragments}
    return target.deploy_query(
        query.query_id, query.fragments, query.sources, placement
    )


class TestQueryLifecycle:
    def test_mid_run_deploy_produces_results(self):
        system = make_system()
        deploy(system, "q0", "node-0", seed=0)
        runtime = EventRuntime(system)
        runtime.run(3.0)
        before = system.coordinators.coordinator("q0").result_tuples
        deploy(runtime, "q1", "node-1", seed=1)
        runtime.run(3.0)
        assert system.coordinators.coordinator("q0").result_tuples > before
        late = system.coordinators.coordinator("q1")
        assert late.result_tuples > 0
        assert late.current_sic(system.now) > 0.0
        # The late query's SIC accounting starts at its deployment, so its
        # coverage normalisation does not punish the late arrival.
        assert system.queries["q1"].deployed_at == pytest.approx(3.0)

    def test_undeploy_stops_generation_and_tears_down(self):
        system = make_system()
        deploy(system, "q0", "node-0", seed=0)
        deploy(system, "q1", "node-0", seed=1)
        runtime = EventRuntime(system)
        runtime.run(3.0)
        coordinator = runtime.undeploy_query("q1")
        assert coordinator.query_id == "q1"
        assert "q1" not in system.queries
        assert "q1" not in system.coordinators
        assert system.nodes["node-0"].hosted_queries() == ["q0"]
        received_at_undeploy = system.total_received_tuples()
        runtime.run(3.0)
        # q0 keeps flowing; q1's sources are gone (any in-flight remainder is
        # at most one interval's worth, delivered right after the undeploy).
        assert "q0" in system.current_sic_per_query()
        assert "q1" not in system.current_sic_per_query()
        q0_per_tick = 80.0 * INTERVAL
        assert (
            system.total_received_tuples() - received_at_undeploy
            <= (3.0 / INTERVAL + 1) * q0_per_tick
        )

    def test_redeploy_same_id_does_not_receive_stale_in_flight_messages(self):
        # A batch created at or before the new incarnation's deploy instant
        # belongs to the previous incarnation and must be dropped on
        # delivery, not leak into the redeployed query.
        from repro.core.tuples import Batch, Tuple
        from repro.federation.fsps import COORDINATOR_ENDPOINT
        from repro.federation.network import DataMessage, ResultMessage

        system = make_system()
        deploy(system, "q0", "node-0", seed=0)
        runtime = EventRuntime(system)
        runtime.run(3.0)
        runtime.undeploy_query("q0")
        fresh = deploy(runtime, "q0", "node-0", seed=0)
        assert fresh.deployed_at == pytest.approx(3.0)
        node = system.nodes["node-0"]
        received_before = node.stats.received_tuples
        stale_batch = Batch(
            "q0", [Tuple(2.9, 0.01, {"v": 1.0})], created_at=2.9,
            fragment_id=next(iter(fresh.fragments)),
        )
        system.dispatch(
            DataMessage(destination="node-0", batch=stale_batch,
                        target_fragment_id=stale_batch.fragment_id),
            now=3.1,
        )
        assert node.stats.received_tuples == received_before
        system.dispatch(
            ResultMessage(destination=COORDINATOR_ENDPOINT, batch=stale_batch),
            now=3.1,
        )
        assert system.coordinators.coordinator("q0").result_tuples == 0
        # An updateSIC from the old incarnation's coordinator is dropped too;
        # one from after the redeploy is applied.
        from repro.federation.network import SicUpdateMessage

        system.dispatch(
            SicUpdateMessage(destination="node-0", query_id="q0",
                             sic_value=0.9, sent_at=2.9),
            now=3.1,
        )
        assert "q0" not in node._reported_sic
        system.dispatch(
            SicUpdateMessage(destination="node-0", query_id="q0",
                             sic_value=0.9, sent_at=3.25),
            now=3.3,
        )
        assert node._reported_sic["q0"] == 0.9
        # Fresh traffic still flows end to end after the redeploy.
        runtime.run(3.0)
        assert system.coordinators.coordinator("q0").result_tuples > 0

    def test_lifecycle_from_event_callback_stamps_event_time(self):
        # deploy_query called from inside an event callback must stamp
        # deployed_at with the scheduler's instant, not the horizon of the
        # previous run() — the stale-message guard anchors on it.
        from repro.runtime.scheduler import PRIORITY_NODE

        system = make_system()
        deploy(system, "q0", "node-0", seed=0)
        runtime = EventRuntime(system)
        runtime.run(1.0)
        deployed_at = {}

        def deploy_late(now):
            fresh = deploy(runtime, "q-late", "node-1", seed=1)
            deployed_at["value"] = fresh.deployed_at

        runtime.scheduler.schedule(1.5, PRIORITY_NODE, deploy_late)
        runtime.run(2.0)
        assert deployed_at["value"] == pytest.approx(1.5)
        assert system.coordinators.coordinator("q-late").result_tuples > 0

    def test_stale_sic_update_for_undeployed_query_is_dropped(self):
        from repro.federation.network import SicUpdateMessage

        system = make_system()
        deploy(system, "q0", "node-0", seed=0)
        runtime = EventRuntime(system)
        runtime.run(3.0)
        runtime.undeploy_query("q0")
        system.dispatch(
            SicUpdateMessage(destination="node-0", query_id="q0", sic_value=0.5),
            now=3.1,
        )
        assert "q0" not in system.nodes["node-0"]._reported_sic

    def test_undeploy_unknown_query_rejected(self):
        system = make_system()
        deploy(system, "q0", "node-0")
        runtime = EventRuntime(system)
        with pytest.raises(ValueError):
            runtime.undeploy_query("nope")


class TestClusterLifecycle:
    def test_mid_run_add_node_hosts_new_query(self):
        system = make_system(num_nodes=1)
        deploy(system, "q0", "node-0", seed=0)
        runtime = EventRuntime(system)
        runtime.run(2.0)
        runtime.add_node(make_node("node-9", seed=9))
        deploy(runtime, "q9", "node-9", seed=9)
        runtime.run(4.0)
        node = system.nodes["node-9"]
        assert node.stats.ticks > 0
        assert node.stats.received_tuples > 0
        assert system.coordinators.coordinator("q9").result_tuples > 0

    def test_fail_node_degrades_only_its_queries(self):
        system = make_system(num_nodes=2)
        deploy(system, "q-keep", "node-0", seed=0)
        deploy(system, "q-lost", "node-1", seed=1)
        runtime = EventRuntime(system)
        runtime.run(4.0)
        sic_before = system.current_sic_per_query()
        assert sic_before["q-lost"] > 0.5
        failed = runtime.fail_node("node-1")
        ticks_at_failure = failed.stats.ticks
        runtime.run(6.0)
        assert "node-1" not in system.nodes
        # The failed node's rounds stopped; the survivor kept running.
        assert failed.stats.ticks == ticks_at_failure
        assert system.nodes["node-0"].stats.ticks == pytest.approx(10.0 / INTERVAL)
        # The lost query's sources are unrouted but keep generating; its
        # result SIC decays to zero while the surviving query is unaffected.
        sic_after = system.current_sic_per_query()
        assert sic_after["q-lost"] == 0.0
        assert sic_after["q-keep"] > 0.5
        routes = system.queries["q-lost"].source_plan
        assert all(route.node_id is None for route in routes)
        # The coordinator no longer addresses the dead node.
        assert "node-1" not in system.coordinators.coordinator("q-lost").hosting_nodes

    def test_remove_node_migrates_hosted_fragments(self):
        # Graceful decommission of a loaded node live-migrates its fragments
        # to the survivors instead of refusing (PR 4).
        system = make_system(num_nodes=2)
        deploy(system, "q0", "node-1", seed=0)
        runtime = EventRuntime(system)
        runtime.run(2.0)
        results_before = system.coordinators.coordinator("q0").result_tuples
        removed = runtime.remove_node("node-1")
        ticks_at_removal = removed.stats.ticks
        assert "node-1" not in system.nodes
        assert not removed.fragments
        fragment_id = next(iter(system.queries["q0"].fragments))
        assert system.placement[fragment_id] == "node-0"
        assert "node-0" in system.coordinators.coordinator("q0").hosting_nodes
        runtime.run(4.0)
        # The query keeps producing results from its new host; the removed
        # node never runs another round.
        assert (
            system.coordinators.coordinator("q0").result_tuples > results_before
        )
        assert system.current_sic_per_query()["q0"] > 0.5
        assert removed.stats.ticks == ticks_at_removal

    def test_remove_node_with_zero_hosted_fragments(self):
        # The decommission edge case: nothing to migrate, node just leaves.
        system = make_system(num_nodes=2)
        deploy(system, "q0", "node-0", seed=0)
        runtime = EventRuntime(system)
        runtime.run(2.0)
        removed = runtime.remove_node("node-1")
        assert not removed.fragments
        assert "node-1" not in system.nodes
        assert system.forwarded_batches == 0
        runtime.run(2.0)
        assert system.current_sic_per_query()["q0"] > 0.0

    def test_remove_last_node_hosting_fragments_refused(self):
        # With nowhere to migrate, the decommission is still refused.
        system = make_system(num_nodes=1)
        deploy(system, "q0", "node-0", seed=0)
        runtime = EventRuntime(system)
        runtime.run(1.0)
        with pytest.raises(ValueError):
            runtime.remove_node("node-0")

    def test_remove_node_with_unknown_migration_target_is_all_or_nothing(self):
        system = make_system(num_nodes=2)
        deploy(system, "q0", "node-0", seed=0)
        deploy(system, "q1", "node-0", seed=1)
        runtime = EventRuntime(system)
        runtime.run(1.0)
        hosted_before = sorted(system.nodes["node-0"].fragments)
        with pytest.raises(ValueError):
            runtime.remove_node("node-0", migrate_to=["node-1", "ghost"])
        # The bad target aborted the decommission before any fragment moved.
        assert sorted(system.nodes["node-0"].fragments) == hosted_before
        runtime.run(1.0)
        assert system.coordinators.coordinator("q0").result_tuples > 0

    def test_readded_node_does_not_inherit_interval_override(self):
        system = make_system(num_nodes=1)
        deploy(system, "q0", "node-0", seed=0)
        runtime = EventRuntime(system)
        runtime.add_node(make_node("node-x", seed=1), shedding_interval=0.125)
        runtime.run(2.0)
        fast = runtime.fail_node("node-x")
        assert fast.stats.ticks == pytest.approx(2.0 / 0.125)
        # Re-adding under the same id without an override uses the default
        # cadence, not the dead node's 0.125 s override.
        runtime.add_node(make_node("node-x", seed=2))
        runtime.run(2.0)
        assert system.nodes["node-x"].stats.ticks == pytest.approx(2.0 / INTERVAL)

    def test_fail_unknown_node_rejected(self):
        runtime = EventRuntime(make_system())
        with pytest.raises(ValueError):
            runtime.fail_node("nope")

    def test_undeploy_with_delivery_in_flight(self):
        # Batches sent at the run horizon (latency 5 ms) are still in flight
        # when the query is undeployed; their delivery must be dropped
        # without resurrecting the coordinator or crashing the dispatcher.
        system = make_system(num_nodes=2)
        deploy(system, "q0", "node-0", seed=0)
        deploy(system, "q1", "node-1", seed=1)
        runtime = EventRuntime(system)
        runtime.run(2.0)
        assert system.network.in_flight() > 0
        runtime.undeploy_query("q0")
        runtime.run(2.0)
        assert "q0" not in system.coordinators
        assert "q0" not in system.queries
        # The survivor is untouched and the network queue drained normally.
        assert system.current_sic_per_query() == pytest.approx(
            {"q1": system.coordinators.coordinator("q1").current_sic(system.now)}
        )

    def test_node_id_reuse_after_fail_and_rejoin(self):
        # fail -> rejoin under the same id -> fail again -> add_node fresh
        # under the same id: every transition must leave consistent routing.
        system = make_system(num_nodes=2)
        deploy(system, "q0", "node-1", seed=0)
        runtime = EventRuntime(system, checkpoint_interval=INTERVAL)
        runtime.run(2.0)
        runtime.fail_node("node-1")
        runtime.run(1.0)
        report = runtime.rejoin_node(make_node("node-1", seed=5))
        assert report.restored_fragments == list(system.queries["q0"].fragments)
        runtime.run(2.0)
        assert system.current_sic_per_query()["q0"] > 0.0
        # Second crash; this time the query leaves before the id returns.
        runtime.fail_node("node-1")
        runtime.undeploy_query("q0")
        # The id is now reusable as a plain new node (nothing to restore:
        # rejoin refuses because no lost fragments remain for it).
        with pytest.raises(ValueError):
            runtime.rejoin_node(make_node("node-1", seed=6))
        runtime.add_node(make_node("node-1", seed=6))
        deploy(runtime, "q-new", "node-1", seed=2)
        runtime.run(2.0)
        assert system.coordinators.coordinator("q-new").result_tuples > 0

    def test_rejoin_unknown_node_rejected(self):
        runtime = EventRuntime(make_system())
        with pytest.raises(ValueError):
            runtime.rejoin_node(make_node("ghost"))


class TestCohorts:
    """Recurring streams share one heap entry per (priority, interval, instant)."""

    def test_member_cancelled_while_its_cohort_fires_does_not_fire(self, monkeypatch):
        # node-0's round crashes node-1, whose round is next in the same node
        # cohort: node-1 must not run at that instant or after.
        system = make_system(num_nodes=2)
        deploy(system, "q0", "node-0", seed=0)
        runtime = EventRuntime(system)
        runtime.run(1.0)
        original = FederatedSystem.run_node_round
        fired = []

        def run_node_round(self, node, now, timer=None):
            fired.append((now, node.node_id))
            result = original(self, node, now, timer=timer)
            if node.node_id == "node-0" and now == 1.5:
                runtime.crash_node_silently("node-1")
            return result

        monkeypatch.setattr(FederatedSystem, "run_node_round", run_node_round)
        runtime.run(1.0)
        assert fired == [
            (1.25, "node-0"), (1.25, "node-1"),
            (1.5, "node-0"),
            (1.75, "node-0"),
            (2.0, "node-0"),
        ]
        assert system.nodes["node-1"].stats.ticks == 5

    def test_join_order_is_one_event_per_stream_order(self, monkeypatch):
        # One event per stream would fire q-a (scheduled at PRIORITY_FAULT,
        # before the 1.5 rounds rescheduled) first and q-b (scheduled after
        # the horizon's rounds) last at every later instant.
        from repro.runtime.scheduler import PRIORITY_FAULT

        system = make_system(num_nodes=1)
        deploy(system, "q0", "node-0", seed=0)
        deploy(system, "q1", "node-0", seed=1)
        runtime = EventRuntime(system)
        runtime.run(1.0)
        order = []
        for name in ("generate_query_sources", "run_coordinator_round"):
            original = getattr(FederatedSystem, name)

            def recording(self, component, *args, _name=name, _original=original):
                order.append((runtime.now, _name, component.query_id))
                return _original(self, component, *args)

            monkeypatch.setattr(FederatedSystem, name, recording)
        runtime.scheduler.schedule(
            1.5, PRIORITY_FAULT, lambda now: deploy(runtime, "q-a", "node-0", seed=2)
        )
        runtime.run(0.5)
        deploy(runtime, "q-b", "node-0", seed=3)
        runtime.run(0.5)
        for now in (1.75, 2.0):
            for name in ("generate_query_sources", "run_coordinator_round"):
                fired = [q for at, kind, q in order if at == now and kind == name]
                assert fired == ["q-a", "q0", "q1", "q-b"]

    def test_emptied_cohort_leaves_no_live_heap_entry(self):
        system = make_system(num_nodes=1)
        deploy(system, "q0", "node-0", seed=0)
        deploy(system, "q1", "node-0", seed=1)
        runtime = EventRuntime(system)
        runtime.run(1.0)
        scheduler = runtime.scheduler
        # Two queries, one node: a source, a coordinator and a node cohort,
        # plus the deliveries in flight at the horizon.
        before = scheduler.pending_events()
        runtime.undeploy_query("q0")
        assert scheduler.pending_events() == before
        runtime.undeploy_query("q1")
        assert scheduler.pending_events() == before - 2
        runtime.crash_node_silently("node-0")
        assert scheduler.pending_events() == before - 3
        runtime.run(1.0)
        assert scheduler.pending_events() == 0
        assert system.nodes["node-0"].stats.ticks == 4

    def test_node_running_follows_cancel_and_restart(self):
        system = make_system(num_nodes=2)
        deploy(system, "q0", "node-1", seed=0)
        runtime = EventRuntime(system, checkpoint_interval=INTERVAL)
        assert runtime.node_running("node-1")
        runtime.run(1.0)
        runtime.crash_node_silently("node-1")
        assert not runtime.node_running("node-1")
        assert runtime.node_running("node-0")
        runtime.fail_node("node-1")
        assert not runtime.node_running("node-1")
        runtime.run(0.5)
        runtime.rejoin_node(make_node("node-1", seed=3))
        assert runtime.node_running("node-1")
        ticks = system.nodes["node-1"].stats.ticks
        runtime.run(1.0)
        assert system.nodes["node-1"].stats.ticks == ticks + 4
        runtime.remove_node("node-1")
        assert not runtime.node_running("node-1")
        runtime.add_node(make_node("node-2", seed=4), shedding_interval=0.125)
        assert runtime.node_running("node-2")


class TestRuntimeHygiene:
    def test_two_runtimes_on_one_system_rejected(self):
        system = make_system()
        deploy(system, "q0", "node-0")
        EventRuntime(system)
        with pytest.raises(ValueError):
            EventRuntime(system)

    def test_close_detaches_the_network_listener(self):
        system = make_system()
        deploy(system, "q0", "node-0")
        runtime = EventRuntime(system)
        runtime.run(1.0)
        runtime.close()
        assert system.network.send_listener is None
        # A detached system can keep running under the lockstep driver.
        system.tick()

    def test_run_rejects_non_positive_duration(self):
        runtime = EventRuntime(make_system())
        with pytest.raises(ValueError):
            runtime.run(0.0)

    @pytest.mark.parametrize("ticks", [0, -3])
    @pytest.mark.parametrize("runtime_cls", [EventRuntime, ShardedRuntime])
    def test_run_rejects_non_positive_ticks(self, runtime_cls, ticks):
        system = make_system()
        deploy(system, "q0", "node-0")
        runtime = runtime_cls(system)
        runtime.run(ticks=4)
        with pytest.raises(ValueError):
            runtime.run(ticks=ticks)
        # A rejected call leaves the tick counter and the clock where they were.
        assert system.ticks == 4
        assert system.now == pytest.approx(1.0)
