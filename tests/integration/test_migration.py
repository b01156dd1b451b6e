"""Differential tests: live fragment migration is invisible to query results.

The acceptance bar for the checkpoint/restore subsystem is the same oracle
pattern as PR 1-3: a seeded event-runtime run with a mid-run
``migrate_fragment`` must yield *identical* per-query results to the same run
without the migration — same result-SIC series, same result payloads — on
LAN and zero-latency networks.  The migration moves state exclusively
through the serialised :class:`~repro.state.FragmentCheckpoint` envelope, so
these tests also prove snapshot/restore fidelity end to end.

The scenarios run the nodes below capacity: shedding decisions depend on
node-local history (cost-model moving average, shedder RNG) that legitimately
differs between hosts, so under overload migration is *conservative* (no
tuple lost or duplicated — asserted separately) but not bit-identical.
"""

import pytest

from repro.core.shedding import make_shedder
from repro.core.stw import StwConfig
from repro.experiments.common import build_federation
from repro.federation.fsps import FederatedSystem
from repro.federation.network import Network, UniformLatency
from repro.federation.node import FspsNode
from repro.runtime import EventRuntime
from repro.simulation.config import SimulationConfig
from repro.workloads.aggregate import make_aggregate_query
from repro.workloads.generators import WorkloadSpec, generate_complex_workload

INTERVAL = 0.25
STW = StwConfig(stw_seconds=4.0, slide_seconds=INTERVAL)


def make_node(node_id, budget=500.0, seed=0):
    return FspsNode(
        node_id=node_id,
        shedder=make_shedder("balance-sic", seed=seed),
        budget_per_interval=budget,
        stw_config=STW,
    )


def make_local_system(latency, num_nodes=2, queries=2, budget=500.0):
    system = FederatedSystem(
        stw_config=STW,
        shedding_interval=INTERVAL,
        network=Network(UniformLatency(latency)),
        retain_results=True,
    )
    for i in range(num_nodes):
        system.add_node(make_node(f"node-{i}", budget=budget, seed=i))
    for i in range(queries):
        query = make_aggregate_query(
            ("avg", "count")[i % 2], query_id=f"q{i}", rate=80.0, seed=i
        )
        system.deploy_query(
            query.query_id,
            query.fragments,
            query.sources,
            {fid: f"node-{i % num_nodes}" for fid in query.fragments},
        )
    return system


def query_results(system):
    """Per-query observable outcome: SIC series, counts, payloads."""
    out = {}
    for coordinator in system.coordinators.all():
        out[coordinator.query_id] = (
            coordinator.tracker.history,
            coordinator.result_tuples,
            list(coordinator.result_values),
        )
    return out


class TestGracefulMigrationIdentity:
    @pytest.mark.parametrize("latency", [0.005, 0.0], ids=["lan", "zero"])
    def test_single_fragment_migration_is_result_identical(self, latency):
        baseline = make_local_system(latency)
        runtime = EventRuntime(baseline)
        runtime.run(8.0)
        runtime.close()

        migrated = make_local_system(latency)
        runtime = EventRuntime(migrated)
        runtime.run(4.0)
        fragment_id = next(iter(migrated.queries["q0"].fragments))
        report = runtime.migrate_fragment(fragment_id, "node-1")
        assert report.source_node == "node-0"
        assert report.target_node == "node-1"
        runtime.run(4.0)
        runtime.close()

        assert query_results(migrated) == query_results(baseline)
        # All generated tuples arrived somewhere (some via the forwarding
        # pointer); none were lost to the move.
        assert migrated.total_received_tuples() == baseline.total_received_tuples()

    @pytest.mark.parametrize("latency", [0.005, 0.0], ids=["lan", "zero"])
    def test_multi_fragment_query_migration_is_result_identical(self, latency):
        def build():
            config = SimulationConfig(
                duration_seconds=6.0,
                warmup_seconds=0.0,
                stw_seconds=4.0,
                capacity_fraction=20.0,  # generously under capacity
                network_latency_seconds=latency,
                retain_result_values=True,
                seed=5,
            )
            spec = WorkloadSpec(
                num_queries=4,
                fragments_per_query=2,
                kinds=("avg-all", "cov"),
                source_rate=30.0,
                seed=5,
            )
            return build_federation(
                generate_complex_workload(spec), num_nodes=3, config=config
            )

        baseline = build()
        runtime = EventRuntime(baseline)
        runtime.run(6.0)
        runtime.close()

        migrated = build()
        runtime = EventRuntime(migrated)
        runtime.run(3.0)
        # Move one upstream fragment of a chained query to a different node.
        fragment_id = sorted(migrated.placement)[0]
        old_host = migrated.placement[fragment_id]
        target = next(
            node_id
            for node_id in sorted(migrated.nodes)
            if node_id != old_host
        )
        runtime.migrate_fragment(fragment_id, target)
        runtime.run(3.0)
        runtime.close()

        assert query_results(migrated) == query_results(baseline)

    def test_adoption_does_not_clobber_established_host_state(self):
        # When the target already hosts a sibling fragment of the same
        # query, its own (at least as fresh) view of the query must survive
        # the adoption — only a first-time host takes the envelope's
        # context.
        config = SimulationConfig(
            duration_seconds=4.0,
            warmup_seconds=0.0,
            capacity_fraction=20.0,
            seed=2,
        )
        spec = WorkloadSpec(
            num_queries=2,
            fragments_per_query=2,
            kinds=("avg-all",),
            source_rate=30.0,
            seed=2,
        )
        system = build_federation(
            generate_complex_workload(spec), num_nodes=2, config=config
        )
        runtime = EventRuntime(system)
        runtime.run(2.0)
        # Find a query whose two fragments sit on different nodes.
        query_id, query = next(
            (qid, q)
            for qid, q in system.queries.items()
            if len({system.placement[f] for f in q.fragments}) == 2
        )
        moving = next(iter(query.fragments))
        source_host = system.placement[moving]
        target_host = next(
            n for n in system.nodes if n != source_host
        )
        system.nodes[source_host].on_sic_update(query_id, 0.111)
        system.nodes[target_host].on_sic_update(query_id, 0.999)
        runtime.migrate_fragment(moving, target_host)
        # The established host keeps its own reported value; the envelope's
        # stale 0.111 from the departing host is ignored.
        assert system.nodes[target_host]._reported_sic[query_id] == 0.999
        runtime.close()

    def test_migration_conserves_pane_sic_through_the_envelope(self):
        system = make_local_system(0.005)
        runtime = EventRuntime(system)
        runtime.run(2.1)
        fragment_id = next(iter(system.queries["q0"].fragments))
        fragment = system.queries["q0"].fragments[fragment_id]
        node = system.nodes["node-0"]
        before_sic = fragment.pending_sic() + sum(
            b.sic for b in node._input_buffer if b.query_id == "q0"
        )
        before_tuples = fragment.pending_tuples()
        report = runtime.migrate_fragment(fragment_id, "node-1")
        # The envelope accounts exactly what the fragment held...
        assert report.state_sic == before_sic
        assert report.state_tuples >= before_tuples
        # ...and the adopted fragment holds it again, bit for bit.
        after_sic = fragment.pending_sic() + sum(
            b.sic
            for b in system.nodes["node-1"]._input_buffer
            if b.query_id == "q0"
        )
        assert after_sic == before_sic
        runtime.close()


class TestMigrationUnderOverload:
    def build(self, budget=7.0):
        # rate 80 t/s (~20 tuples and ~12 cost units per interval) against a
        # 7-unit budget: permanently overloaded.
        return make_local_system(0.005, num_nodes=3, queries=3, budget=budget)

    def test_overloaded_migration_conserves_tuples(self):
        system = self.build()
        runtime = EventRuntime(system)
        runtime.run(4.0)
        fragment_id = next(iter(system.queries["q0"].fragments))
        runtime.migrate_fragment(fragment_id, "node-2")
        runtime.run(4.0)
        runtime.close()
        received = system.total_received_tuples()
        kept = sum(n.stats.kept_tuples for n in system.nodes.values())
        shed = system.total_shed_tuples()
        buffered = sum(n.input_buffer_size() for n in system.nodes.values())
        # Every received tuple was either processed, shed or is still
        # buffered — the migration neither lost nor duplicated any.
        assert received == kept + shed + buffered
        assert shed > 0
        sic = system.current_sic_per_query()
        assert all(value > 0.0 for value in sic.values())

    def test_remove_node_on_loaded_node_succeeds_via_migration(self):
        system = self.build()
        runtime = EventRuntime(system)
        runtime.run(4.0)
        hosted = sorted(system.nodes["node-0"].fragments)
        assert hosted  # the node is actually loaded
        removed = runtime.remove_node("node-0")
        assert not removed.fragments
        for fragment_id in hosted:
            assert system.placement[fragment_id] in ("node-1", "node-2")
        runtime.run(4.0)
        runtime.close()
        # The decommissioned node's queries keep producing results.
        sic = system.current_sic_per_query()
        assert all(value > 0.0 for value in sic.values())


class TestFailRejoinCycle:
    def test_rejoin_restores_from_coordinator_checkpoints(self):
        system = make_local_system(0.005)
        runtime = EventRuntime(system, checkpoint_interval=INTERVAL)
        runtime.run(4.0)
        steady = system.current_sic_per_query()
        assert steady["q1"] > 0.5
        runtime.fail_node("node-1")
        # One full STW after the failure, the lost query's SIC has decayed
        # to zero.
        runtime.run(5.0)
        assert system.current_sic_per_query()["q1"] == 0.0
        report = runtime.rejoin_node(make_node("node-1", seed=9))
        assert report.restored_fragments
        assert not report.fragments_without_checkpoint
        runtime.run(6.0)
        runtime.close()
        recovered = system.current_sic_per_query()
        # The lost query recovered to the same steady-state SIC the
        # untouched survivor reports at the same instant.
        assert recovered["q1"] > 0.5
        assert recovered["q1"] == pytest.approx(recovered["q0"], abs=0.05)

    def test_rejoin_without_checkpoints_restarts_empty_with_loss_accounting(self):
        system = make_local_system(0.005)
        runtime = EventRuntime(system)  # no periodic checkpoints
        runtime.run(4.0)
        lost_fragment = next(iter(system.queries["q1"].fragments))
        fragment = system.queries["q1"].fragments[lost_fragment]
        failed = runtime.fail_node("node-1")
        # Crash-time state: the fragment's window plus whatever the node
        # still had buffered for it — all of it is lost without checkpoints.
        crash_tuples = fragment.pending_tuples() + failed.input_buffer_size()
        report = runtime.rejoin_node(make_node("node-1", seed=9))
        assert report.fragments_without_checkpoint == [lost_fragment]
        assert report.restored_fragments == []
        assert report.lost_tuples == crash_tuples
        assert fragment.pending_tuples() == 0
        runtime.run(4.0)
        runtime.close()
        assert system.current_sic_per_query()["q1"] > 0.0


class TestCoordinatorFailover:
    def test_failover_restores_sic_dissemination(self):
        system = make_local_system(0.005)
        runtime = EventRuntime(system, checkpoint_interval=INTERVAL)
        runtime.run(4.0)
        before = system.coordinators.coordinator("q0")
        failed = runtime.fail_coordinator("q0")
        assert failed is before
        promoted = system.coordinators.coordinator("q0")
        assert promoted is not failed
        # The standby restored the tracker state and knows the hosting nodes.
        assert promoted.hosting_nodes == {"node-0"}
        assert promoted.result_tuples > 0
        runtime.run(4.0)
        runtime.close()
        assert system.current_sic_per_query()["q0"] > 0.5
        assert promoted.updates_sent > 0

    def test_double_failover_keeps_deduplicating_replays(self):
        """Two coordinator crashes with no checkpoint round in between both
        promote the checkpointed ledger, so replays it acknowledged dedup."""
        system = make_local_system(0.005)
        runtime = EventRuntime(system)  # checkpoint rounds taken by hand
        runtime.run(4.0)
        runtime.checkpoint_now()  # q0's root fragment envelope: seq S
        runtime.run(2.0)  # q0 emits past S; the coordinator acks it
        runtime.fail_node("node-0")
        runtime.run(0.5)  # in-flight results drain to the coordinator
        # Standby refreshed past S; node-0's envelope stays at S.
        runtime.checkpoint_now()
        runtime.fail_coordinator("q0")
        runtime.fail_coordinator("q0")
        before = system.result_accounting_report()
        report = runtime.rejoin_node(make_node("node-0"))
        assert report.restored_fragments
        runtime.run(4.0)  # the restored fragment replays seqs above S
        runtime.close()
        after = system.result_accounting_report()
        assert after["unaccounted_tuples"] == 0
        assert after["lane_problems"] == []
        assert after["deduped_tuples"] > before["deduped_tuples"]
        for coordinator in system.coordinators.all():
            assert all(0.0 <= sic <= 1.0 for _, sic in coordinator.tracker.history)

    def test_failover_without_standby_starts_blank(self):
        system = make_local_system(0.005)
        runtime = EventRuntime(system)  # no checkpoints -> no standby state
        runtime.run(2.0)
        failed = runtime.fail_coordinator("q0")
        promoted = system.coordinators.coordinator("q0")
        assert promoted.result_tuples == 0
        assert failed.result_tuples > 0
        # Hosting set still rebuilt from placement; the query recovers.
        assert promoted.hosting_nodes == {"node-0"}
        runtime.run(4.0)
        runtime.close()
        assert system.current_sic_per_query()["q0"] > 0.0
