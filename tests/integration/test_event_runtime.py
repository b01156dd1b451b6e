"""Differential tests: discrete-event runtime ≡ lockstep loop.

The acceptance bar for the event runtime is *result identity*: for equal
seeds and homogeneous shedding intervals, a run under
``SimulationConfig(runtime="event")`` must reproduce the lockstep run's
``RunResult`` — per-query SIC series, result payloads, shed/received
counters and network accounting — exactly, not approximately (the same
pattern as the PR 1/PR 2 ``_reference`` oracles).  Covered scenarios:

* the aggregate workload on a single overloaded node (LocalEngine);
* the complex workload (AVG-all tree, TOP-5 chain, COV) spread over a
  multi-node federation, LAN and WAN latency;
* a zero-latency network (exercises the runtime's end-of-instant delivery
  ordering for messages sent during node/coordinator rounds);
* a coordinator update interval that is not a multiple of the shedding
  interval (exercises the due-gated dissemination rounds).

Heterogeneous per-node intervals have no lockstep counterpart; the test here
asserts the semantic contract instead — a node shedding twice as often with
half the per-round budget sees every round, and the run completes.

The event runtime batches recurring streams into *cohorts* (one heap entry
per ``(priority, interval, instant)`` group).  The lifecycle scenarios at the
end pin the cohort join and leave order: each must reproduce the
sharded-inline runtime, which still schedules one event per stream, and the
lockstep loop wherever it supports the operation.  The trace contract the
benchmark's per-layer table relies on is checked here too.
"""

import pytest

from repro.core.shedding import make_shedder
from repro.core.stw import StwConfig
from repro.experiments.common import build_federation
from repro.faults import CoordinatorCrash, FaultInjector, FaultPlan, NodeCrash
from repro.federation.fsps import FederatedSystem
from repro.federation.network import Network, SicUpdateMessage, UniformLatency
from repro.federation.node import FspsNode
from repro.runtime import EventRuntime, FailureDetector, ShardedRuntime
from repro.runtime.scheduler import PRIORITY_FAULT
from repro.simulation.config import SimulationConfig
from repro.simulation.simulator import Simulator
from repro.streaming.engine import LocalEngine
from repro.workloads.aggregate import make_aggregate_query
from repro.workloads.generators import WorkloadSpec, generate_complex_workload


def assert_identical(event, lockstep):
    """Assert two RunResults are byte-for-byte the same run."""
    assert event.per_query_sic == lockstep.per_query_sic
    assert event.sic_time_series == lockstep.sic_time_series
    assert event.result_values == lockstep.result_values
    assert event.messages_sent == lockstep.messages_sent
    assert event.bytes_sent == lockstep.bytes_sent
    assert len(event.node_summaries) == len(lockstep.node_summaries)
    for e, s in zip(event.node_summaries, lockstep.node_summaries):
        assert e.node_id == s.node_id
        assert e.received_tuples == s.received_tuples
        assert e.kept_tuples == s.kept_tuples
        assert e.shed_tuples == s.shed_tuples
        assert e.overloaded_ticks == s.overloaded_ticks
        assert e.ticks == s.ticks


def run_local(runtime):
    config = SimulationConfig(
        duration_seconds=4.0,
        warmup_seconds=1.0,
        capacity_fraction=0.5,
        runtime=runtime,
        retain_result_values=True,
        seed=0,
    )
    engine = LocalEngine(config)
    kinds = ("avg", "max", "count")
    for i in range(9):
        engine.add_query(
            make_aggregate_query(kinds[i % 3], query_id=f"q{i}", rate=173.3, seed=i)
        )
    return engine.run()


def run_federated(runtime, latency=0.005, update_interval=None, shedder="balance-sic"):
    config = SimulationConfig(
        duration_seconds=6.0,
        warmup_seconds=2.0,
        stw_seconds=6.0,
        capacity_fraction=0.4,
        network_latency_seconds=latency,
        coordinator_update_interval=update_interval,
        shedder=shedder,
        runtime=runtime,
        retain_result_values=True,
        seed=3,
    )
    spec = WorkloadSpec(
        num_queries=6,
        fragments_per_query=(1, 2),
        kinds=("avg-all", "top5", "cov"),
        source_rate=40.0,
        seed=3,
    )
    queries = generate_complex_workload(spec)
    system = build_federation(queries, num_nodes=3, config=config)
    return Simulator(system, config).run()


class TestLocalEngineIdentity:
    def test_aggregate_workload_identical(self):
        assert_identical(run_local("event"), run_local("lockstep"))

    def test_some_shedding_actually_happened(self):
        result = run_local("event")
        assert any(s.shed_tuples > 0 for s in result.node_summaries)


class TestFederatedIdentity:
    def test_complex_workload_multinode_identical(self):
        event = run_federated("event")
        lockstep = run_federated("lockstep")
        assert_identical(event, lockstep)
        assert event.total_shed_tuples > 0

    def test_wan_latency_identical(self):
        assert_identical(
            run_federated("event", latency=0.05),
            run_federated("lockstep", latency=0.05),
        )

    def test_zero_latency_identical(self):
        # Zero-latency sends during node/coordinator rounds are the corner
        # the POST_DELIVERY priority exists for: the lockstep loop's delivery
        # phase has already passed, so the event runtime must not let a
        # same-instant round observe the freshly-sent message.
        assert_identical(
            run_federated("event", latency=0.0),
            run_federated("lockstep", latency=0.0),
        )

    def test_off_cadence_update_interval_identical(self):
        # 0.6 s updates against 0.25 s shedding rounds: the coordinator
        # rounds are polled at the global cadence and gated by due_for_update
        # under both drivers, so dissemination happens at the same instants.
        assert_identical(
            run_federated("event", update_interval=0.6),
            run_federated("lockstep", update_interval=0.6),
        )

    def test_random_shedder_identical(self):
        # The random shedder consumes its RNG once per invocation: identical
        # results prove the event runtime invokes the shedder at exactly the
        # lockstep instants, in the same node order.
        assert_identical(
            run_federated("event", shedder="random"),
            run_federated("lockstep", shedder="random"),
        )


class TestHeterogeneousIntervals:
    def test_per_node_interval_override_runs_more_rounds(self):
        def build(intervals):
            config = SimulationConfig(
                duration_seconds=4.0,
                warmup_seconds=1.0,
                stw_seconds=5.0,
                capacity_fraction=0.5,
                node_shedding_intervals=intervals,
                seed=1,
            )
            spec = WorkloadSpec(
                num_queries=4,
                fragments_per_query=1,
                kinds=("avg-all",),
                source_rate=40.0,
                seed=1,
            )
            queries = generate_complex_workload(spec)
            system = build_federation(queries, num_nodes=2, config=config)
            return Simulator(system, config).run()

        homogeneous = build({})
        fast_node = build({"node-0": 0.125})
        by_id = {s.node_id: s for s in fast_node.node_summaries}
        base = {s.node_id: s for s in homogeneous.node_summaries}
        # The overridden node runs (about) twice as many rounds in the same
        # simulated time; the untouched node keeps the global cadence.
        assert by_id["node-0"].ticks == 2 * base["node-0"].ticks
        assert by_id["node-1"].ticks == base["node-1"].ticks
        # All generated data still arrives somewhere.
        assert fast_node.total_received_tuples == homogeneous.total_received_tuples

    def test_config_rejects_non_positive_override(self):
        with pytest.raises(ValueError):
            SimulationConfig(node_shedding_intervals={"node-0": 0.0})


# --------------------------------------------------------------------------
# Cohort order under lifecycle operations, driven through the runtimes
# directly (the simulator has no mid-run lifecycle hooks).
# --------------------------------------------------------------------------

INTERVAL = 0.25
STW = StwConfig(stw_seconds=4.0, slide_seconds=INTERVAL)


def make_node(node_id, seed=0, budget=20.0):
    return FspsNode(
        node_id=node_id,
        shedder=make_shedder("balance-sic", seed=seed),
        budget_per_interval=budget,
        stw_config=STW,
    )


def make_system(num_nodes=3, num_queries=3):
    system = FederatedSystem(
        stw_config=STW,
        shedding_interval=INTERVAL,
        network=Network(UniformLatency(0.005)),
        retain_results=True,
    )
    for i in range(num_nodes):
        system.add_node(make_node(f"node-{i}", seed=i))
    for i in range(num_queries):
        deploy(system, f"q{i}", f"node-{i % 2}", seed=i)
    return system


def deploy(target, query_id, node_id, seed=0):
    """Deploy an aggregate query on ``node_id`` via a system or a runtime."""
    query = make_aggregate_query(
        ("avg", "count", "max")[seed % 3], query_id=query_id, rate=120.0, seed=seed
    )
    return target.deploy_query(
        query.query_id,
        query.fragments,
        query.sources,
        {fragment_id: node_id for fragment_id in query.fragments},
    )


def make_driver(system, kind, checkpoint_interval=None):
    if kind == "event":
        return EventRuntime(system, checkpoint_interval=checkpoint_interval)
    return ShardedRuntime(system, checkpoint_interval=checkpoint_interval, workers=2)


def observables(system):
    """Everything a RunResult reports, bit for bit, plus the wire ledger."""
    stats = system.network.stats
    return (
        {
            c.query_id: (
                [(t, value.hex()) for t, value in c.tracker.history],
                c.result_tuples,
                list(c.result_values),
            )
            for c in system.coordinators.all()
        },
        {
            node_id: (
                node.stats.received_tuples,
                node.stats.kept_tuples,
                node.stats.shed_tuples,
                node.stats.overloaded_ticks,
                node.stats.ticks,
            )
            for node_id, node in system.nodes.items()
        },
        system.network.sent_messages,
        system.network.bytes_sent,
        dict(stats.sent),
        dict(stats.delivered),
    )


def deploy_undeploy_run(kind):
    """Queries come and go between run() segments (a redeploy included)."""
    system = make_system()
    if kind == "lockstep":
        target, step = system, system.run
    else:
        target = make_driver(system, kind)
        step = target.run
    step(2.0)
    deploy(target, "q3", "node-1", seed=3)
    deploy(target, "q4", "node-0", seed=4)
    step(1.5)
    target.undeploy_query("q0")
    target.undeploy_query("q3")
    step(1.0)
    deploy(target, "q0", "node-2", seed=5)
    step(2.0)
    if kind != "lockstep":
        target.close()
    return observables(system)


def node_interval_run(kind):
    """Nodes joining mid-run at non-default cadences, two sharing one."""
    system = make_system(num_nodes=2, num_queries=2)
    runtime = make_driver(system, kind)
    runtime.run(1.0)
    runtime.add_node(make_node("node-fast", seed=5, budget=10.0), shedding_interval=0.125)
    deploy(runtime, "q-fast", "node-fast", seed=5)
    runtime.add_node(make_node("node-slow", seed=6, budget=40.0), shedding_interval=0.5)
    deploy(runtime, "q-slow", "node-slow", seed=6)
    runtime.run(1.0)
    runtime.add_node(make_node("node-fast2", seed=7, budget=10.0), shedding_interval=0.125)
    deploy(runtime, "q-fast2", "node-fast2", seed=7)
    runtime.run(3.0)
    runtime.close()
    assert system.nodes["node-fast"].stats.ticks == 32
    assert system.nodes["node-slow"].stats.ticks == 8
    return observables(system)


def fault_plan_run(kind):
    """Crash, detection, rejoin and failover, all at ``PRIORITY_FAULT``.

    Each lifecycle call runs before its instant's cohorts fire: the rejoined
    node and the promoted coordinator start streams of their own that fire
    ahead of the older cohorts from then on.  A deploy at ``PRIORITY_FAULT``
    followed by one at the end of the same instant puts two source cohorts
    on one instant; the second query must join the later of them.
    """
    system = make_system()
    runtime = make_driver(system, kind, checkpoint_interval=3 * INTERVAL)
    runtime.scheduler.schedule(
        3.0, PRIORITY_FAULT, lambda now: deploy(runtime, "q-a", "node-0", seed=6)
    )
    plan = FaultPlan(
        seed=3,
        episodes=(
            NodeCrash(at=2.0, node_id="node-1", repair_after=1.0),
            CoordinatorCrash(at=3.5, query_id="q0"),
            CoordinatorCrash(at=4.25, query_id="q2"),
        ),
    )
    injector = FaultInjector(runtime, plan)
    detector = FailureDetector(
        runtime,
        interval=INTERVAL,
        timeout_intervals=2,
        node_factory=lambda node_id: make_node(node_id, seed=9),
    )
    runtime.run(3.0)
    deploy(runtime, "q-b", "node-0", seed=7)
    runtime.run(4.0)
    summary = detector.summary()
    assert [d["node_id"] for d in summary["detections"]] == ["node-1"]
    assert [r["node_id"] for r in summary["recoveries"]] == ["node-1"]
    assert runtime.node_running("node-1")
    detector.close()
    injector.close()
    runtime.close()
    return observables(system), injector.summary()


class TestCohortOrderIdentity:
    def test_deploy_and_undeploy_between_runs(self):
        event = deploy_undeploy_run("event")
        assert event == deploy_undeploy_run("sharded")
        assert event == deploy_undeploy_run("lockstep")

    def test_add_node_with_non_default_interval(self):
        assert node_interval_run("event") == node_interval_run("sharded")

    def test_fault_plan_lifecycle_before_cohorts_fire(self):
        assert fault_plan_run("event") == fault_plan_run("sharded")


class TestTraceContract:
    """The benchmark's per-layer table counts calls of these entry points.

    Under the event runtime each interval runs every source route, node and
    coordinator exactly once, and every coordinator adds one history sample
    equal to the SIC its ``updateSIC`` messages carried that interval.
    """

    def test_one_call_per_component_per_interval(self, monkeypatch):
        calls = {"route": 0, "coordinator": 0, "node": 0}
        sent = []

        def counting(key, original):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            FederatedSystem,
            "generate_source_route",
            counting("route", FederatedSystem.generate_source_route),
        )
        monkeypatch.setattr(
            FederatedSystem,
            "run_coordinator_round",
            counting("coordinator", FederatedSystem.run_coordinator_round),
        )
        monkeypatch.setattr(
            FspsNode, "on_shed_round", counting("node", FspsNode.on_shed_round)
        )
        original_send = Network.send

        def recording_send(self, message, *args, **kwargs):
            if isinstance(message, SicUpdateMessage):
                sent.append((message.query_id, message.sent_at, message.sic_value))
            return original_send(self, message, *args, **kwargs)

        monkeypatch.setattr(Network, "send", recording_send)

        config = SimulationConfig(
            duration_seconds=3.0, stw_seconds=4.0, capacity_fraction=0.5, seed=2
        )
        spec = WorkloadSpec(
            num_queries=6,
            fragments_per_query=(1, 2),
            kinds=("avg-all", "top5", "cov"),
            source_rate=40.0,
            seed=2,
        )
        system = build_federation(generate_complex_workload(spec), num_nodes=3, config=config)
        routes = sum(len(q.source_plan) for q in system.queries.values())
        assert routes > len(system.queries)  # multi-route queries present
        runtime = EventRuntime(system)
        for interval in range(1, 13):
            before = dict(calls)
            history = {c.query_id: len(c.tracker.history) for c in system.coordinators.all()}
            del sent[:]
            runtime.run(ticks=1)
            assert calls["route"] - before["route"] == routes
            assert calls["coordinator"] - before["coordinator"] == len(system.coordinators)
            assert calls["node"] - before["node"] == len(system.nodes)
            for coordinator in system.coordinators.all():
                samples = coordinator.tracker.history
                assert len(samples) == history[coordinator.query_id] + 1
                now, value = samples[-1]
                carried = {
                    sic for query_id, at, sic in sent
                    if query_id == coordinator.query_id and at == now
                }
                assert carried == {value}
        runtime.close()
