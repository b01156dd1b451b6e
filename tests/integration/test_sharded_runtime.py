"""Differential tests: sharded runtime ≡ single-heap event runtime.

The acceptance bar for the sharded driver — per-site schedulers executed
sequentially window by window in this process — is bit-exact result
identity with ``runtime="event"`` for equal seeds.

The matrix covers LAN / WAN / zero-latency networks, bursty sources,
reliable delivery, explicit partition maps, two and three shards,
off-cadence coordinator updates, and the full lifecycle set (mid-run
migration, node fail/rejoin, coordinator failover, query deploy/undeploy,
node add/remove) on lookahead windows and on zero-latency phase-stepping —
each compared against the identical seeded run under the single-heap
runtime, field for field.

Fault-injection reproducibility rides along: the injector draws every
probabilistic decision from a per-link child RNG (seeded by a stable
SHA-256 hash, not the salted builtin ``hash()``), so the same plan + seed
injects the *same* faults under both drivers even though their global send
interleavings differ — asserted here end to end.
"""

import pytest

from repro.core.shedding import make_shedder
from repro.core.stw import StwConfig
from repro.experiments.common import build_federation
from repro.faults import FaultInjector, FaultPlan, LossEpisode, link_seed
from repro.federation.fsps import FederatedSystem
from repro.federation.network import Network, ReliabilityConfig, UniformLatency
from repro.federation.node import FspsNode
from repro.runtime import EventRuntime, ShardedRuntime
from repro.simulation.config import SimulationConfig
from repro.simulation.simulator import Simulator
from repro.workloads.aggregate import make_aggregate_query
from repro.workloads.generators import WorkloadSpec, generate_complex_workload

INTERVAL = 0.25
STW = StwConfig(stw_seconds=4.0, slide_seconds=INTERVAL)


def assert_identical(sharded, event):
    """Assert two RunResults are byte-for-byte the same run."""
    assert sharded.per_query_sic == event.per_query_sic
    assert sharded.sic_time_series == event.sic_time_series
    assert sharded.result_values == event.result_values
    assert sharded.messages_sent == event.messages_sent
    assert sharded.bytes_sent == event.bytes_sent
    assert len(sharded.node_summaries) == len(event.node_summaries)
    for s, e in zip(sharded.node_summaries, event.node_summaries):
        assert s.node_id == e.node_id
        assert s.received_tuples == e.received_tuples
        assert s.kept_tuples == e.kept_tuples
        assert s.shed_tuples == e.shed_tuples
        assert s.overloaded_ticks == e.overloaded_ticks
        assert s.ticks == e.ticks


def run_federated(
    runtime,
    latency=0.005,
    workers=2,
    partition=None,
    bursty=False,
    reliable=False,
    update_interval=None,
):
    config = SimulationConfig(
        duration_seconds=5.0,
        warmup_seconds=1.0,
        stw_seconds=5.0,
        capacity_fraction=0.4,
        network_latency_seconds=latency,
        coordinator_update_interval=update_interval,
        reliable_delivery=reliable,
        runtime=runtime,
        workers=workers,
        shard_partition=partition or {},
        retain_result_values=True,
        seed=3,
    )
    spec = WorkloadSpec(
        num_queries=5,
        fragments_per_query=(1, 2),
        kinds=("avg-all", "top5", "cov"),
        source_rate=40.0,
        bursty=bursty,
        seed=3,
    )
    queries = generate_complex_workload(spec)
    system = build_federation(queries, num_nodes=3, config=config)
    return Simulator(system, config).run()


# --------------------------------------------------------------------------
# Lifecycle scenarios, driven through the runtimes directly (the simulator
# has no mid-run lifecycle hooks).
# --------------------------------------------------------------------------


def make_node(node_id, budget=500.0, seed=0):
    return FspsNode(
        node_id=node_id,
        shedder=make_shedder("balance-sic", seed=seed),
        budget_per_interval=budget,
        stw_config=STW,
    )


def make_local_system(latency, num_nodes=3, queries=3, reliable=False):
    system = FederatedSystem(
        stw_config=STW,
        shedding_interval=INTERVAL,
        network=Network(
            UniformLatency(latency),
            reliability=ReliabilityConfig() if reliable else None,
        ),
        retain_results=True,
    )
    for i in range(num_nodes):
        system.add_node(make_node(f"node-{i}", seed=i))
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


def make_runtime(system, kind, workers=2, checkpoint_interval=None):
    if kind == "event":
        return EventRuntime(system, checkpoint_interval=checkpoint_interval)
    return ShardedRuntime(
        system, checkpoint_interval=checkpoint_interval, workers=workers
    )


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


def observables(system):
    stats = system.network.stats
    return (
        query_results(system),
        system.total_received_tuples(),
        dict(stats.sent),
        dict(stats.delivered),
        stats.bytes_wire,
    )


def deploy_late_query(runtime, node_id):
    query = make_aggregate_query("max", query_id="q-late", rate=80.0, seed=7)
    runtime.deploy_query(
        query.query_id,
        query.fragments,
        query.sources,
        {fid: node_id for fid in query.fragments},
    )


def run_scenario(
    kind,
    scenario,
    workers=2,
    latency=0.005,
    checkpoint_interval=None,
):
    system = make_local_system(latency)
    runtime = make_runtime(
        system, kind, workers=workers, checkpoint_interval=checkpoint_interval
    )
    runtime.run(4.0)
    if scenario == "migrate":
        fragment_id = next(iter(system.queries["q0"].fragments))
        report = runtime.migrate_fragment(fragment_id, "node-1")
        assert report.target_node == "node-1"
    elif scenario == "failrejoin":
        runtime.fail_node("node-1")
        runtime.run(1.0)
        runtime.rejoin_node(make_node("node-1", seed=9))
    elif scenario == "failcoord":
        runtime.fail_coordinator("q0")
    elif scenario == "deploy":
        deploy_late_query(runtime, "node-1")
    elif scenario == "undeploy":
        runtime.undeploy_query("q1")
    elif scenario == "addnode":
        runtime.add_node(make_node("node-3", seed=7))
        deploy_late_query(runtime, "node-3")
    elif scenario == "remove":
        runtime.remove_node("node-1")
        assert "node-1" not in system.nodes
    elif scenario != "plain":  # pragma: no cover - test bug guard
        raise ValueError(scenario)
    runtime.run(4.0)
    runtime.close()
    return observables(system)


class TestInlineShardedIdentity:
    @pytest.mark.parametrize(
        "latency", [0.005, 0.05, 0.0], ids=["lan", "wan", "zero"]
    )
    def test_latency_matrix_identical(self, latency):
        assert_identical(
            run_federated("sharded", latency=latency),
            run_federated("event", latency=latency),
        )

    def test_three_workers_identical(self):
        assert_identical(
            run_federated("sharded", workers=3), run_federated("event")
        )

    def test_explicit_partition_identical(self):
        # Pinning every site onto one shard skews the balance but must not
        # change a single result — placement only affects execution order
        # *within* windows, which the merge order makes irrelevant.
        partition = {"node-0": 1, "node-1": 1, "node-2": 1}
        assert_identical(
            run_federated("sharded", partition=partition),
            run_federated("event"),
        )

    def test_bursty_sources_identical(self):
        assert_identical(
            run_federated("sharded", bursty=True),
            run_federated("event", bursty=True),
        )

    def test_reliable_delivery_identical(self):
        assert_identical(
            run_federated("sharded", reliable=True),
            run_federated("event", reliable=True),
        )

    def test_off_cadence_update_interval_identical(self):
        assert_identical(
            run_federated("sharded", update_interval=0.6),
            run_federated("event", update_interval=0.6),
        )

    def test_some_shedding_actually_happened(self):
        result = run_federated("sharded")
        assert any(s.shed_tuples > 0 for s in result.node_summaries)


class TestInlineLifecycleIdentity:
    @pytest.mark.parametrize("latency", [0.005, 0.0], ids=["lan", "zero"])
    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize(
        "scenario",
        [
            "plain",
            "migrate",
            "failrejoin",
            "failcoord",
            "deploy",
            "undeploy",
            "addnode",
            "remove",
        ],
    )
    def test_scenario_identical(self, scenario, workers, latency):
        checkpoint = INTERVAL * 3 if scenario != "plain" else None
        assert run_scenario(
            "sharded",
            scenario,
            workers=workers,
            latency=latency,
            checkpoint_interval=checkpoint,
        ) == run_scenario(
            "event", scenario, latency=latency, checkpoint_interval=checkpoint
        )

    def test_migration_under_wan_identical(self):
        assert run_scenario("sharded", "migrate", latency=0.05) == run_scenario(
            "event", "migrate", latency=0.05
        )


class TestShardedChaosReproducibility:
    """Satellite: same seed ⇒ same faults under event and sharded drivers."""

    PLAN_SEED = 11

    def _plan(self):
        return FaultPlan(
            seed=self.PLAN_SEED,
            episodes=(
                LossEpisode(
                    start=1.0,
                    end=5.0,
                    drop_probability=0.2,
                    duplicate_probability=0.1,
                    jitter_seconds=0.02,
                ),
            ),
        )

    def _run(self, kind, workers=2):
        system = make_local_system(0.05, reliable=True)
        runtime = make_runtime(system, kind, workers=workers)
        injector = FaultInjector(runtime, self._plan())
        runtime.run(8.0)
        system.drain_network()
        summary = injector.summary()
        injector.close()
        runtime.close()
        return observables(system), summary

    def test_same_seed_same_faults_inline_sharded(self):
        event_obs, event_summary = self._run("event")
        sharded_obs, sharded_summary = self._run("sharded")
        # The exact same transmissions were dropped, duplicated and
        # jittered on every link, so the whole runs stay identical.
        assert sharded_summary == event_summary
        assert sharded_summary["drops_by_cause"]["loss"] > 0
        assert sharded_obs == event_obs

    def test_three_worker_partitioning_does_not_change_faults(self):
        two_obs, two_summary = self._run("sharded", workers=2)
        three_obs, three_summary = self._run("sharded", workers=3)
        assert two_summary == three_summary
        assert two_obs == three_obs

    def test_link_seed_is_stable_and_per_link(self):
        # Documented contract: derived from SHA-256, never the salted
        # builtin hash() — the value below must hold on every process,
        # every platform, every PYTHONHASHSEED.
        assert link_seed(0, "a", "b") == link_seed(0, "a", "b")
        assert link_seed(0, "a", "b") != link_seed(0, "b", "a")
        assert link_seed(0, "a", "b") != link_seed(1, "a", "b")
        import hashlib

        expected = int.from_bytes(
            hashlib.sha256(b"7:node-0:node-1").digest()[:8], "big"
        )
        assert link_seed(7, "node-0", "node-1") == expected
