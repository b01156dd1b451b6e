"""End-to-end differential tests: columnar tick pipeline ≡ per-tuple pipeline.

The acceptance bar for the columnar fast path is *result identity*: for
equal seeds a run with ``columnar=True`` must reproduce the per-tuple run's
``RunResult`` — per-query SIC values, result payloads, shed/kept counters
and network accounting — exactly, not approximately.  Covered scenarios:

* the aggregate workload on a single overloaded node (LocalEngine);
* the complex workload (AVG-all tree, TOP-5 chain, COV) spread over a
  multi-node federation, which exercises inter-fragment columnar routing,
  unions, joins, filters and the per-tuple fallbacks;
* bursty sources (the §7.4 burstiness model) with fractional rates.

Columnar v2 extends the oracle chain with the backend axis: for equal seeds
the NumPy-backed pipeline must reproduce the list-backed pipeline (and hence
the per-tuple pipeline) exactly — asserted across LAN/WAN/zero-latency
networks, bursty sources and a live mid-run fragment migration.
"""

import pytest

from repro.core.columns import use_backend
from repro.core.shedding import BalanceSicShedder, make_shedder
from repro.core.stw import StwConfig
from repro.federation.fsps import FederatedSystem
from repro.federation.network import Network, UniformLatency
from repro.federation.node import FspsNode
from repro.runtime import EventRuntime
from repro.simulation.config import SimulationConfig
from repro.streaming.engine import LocalEngine
from repro.workloads.aggregate import make_aggregate_query
from repro.workloads.complex import make_avg_all_query, make_cov_query, make_top5_query


def run_local(columnar, bursty=False):
    config = SimulationConfig(
        duration_seconds=4.0,
        warmup_seconds=1.0,
        capacity_fraction=0.5,
        columnar=columnar,
        retain_result_values=True,
        seed=0,
    )
    engine = LocalEngine(config)
    kinds = ("avg", "max", "count")
    for i in range(9):
        query = make_aggregate_query(
            kinds[i % 3], query_id=f"q{i}", rate=173.3, seed=i
        )
        if bursty:
            from repro.workloads.sources import BurstySource

            query.sources = [BurstySource(s, seed=i) for s in query.sources]
        engine.add_query(query)
    return engine.run()


def run_federated(columnar):
    config = SimulationConfig(columnar=columnar, seed=0)
    system = FederatedSystem(
        stw_config=config.stw_config(),
        shedding_interval=config.shedding_interval,
        network=Network(UniformLatency(0.005)),
        columnar=columnar,
    )
    for node_id in ("n0", "n1"):
        system.add_node(
            FspsNode(
                node_id=node_id,
                shedder=BalanceSicShedder(seed=0),
                budget_per_interval=600.0,
                stw_config=config.stw_config(),
            )
        )
    queries = [
        make_avg_all_query(query_id="avg-all", num_fragments=2, rate=80.0, seed=1),
        make_top5_query(query_id="top5", num_fragments=2, rate=25.0, seed=2),
        make_cov_query(query_id="cov", num_fragments=2, rate=40.0, seed=3),
    ]
    nodes = ("n0", "n1")
    for query in queries:
        placement = {
            fragment_id: nodes[i % 2]
            for i, fragment_id in enumerate(query.fragments)
        }
        system.deploy_query(
            query_id=query.query_id,
            fragments=query.fragments,
            sources=query.sources,
            placement=placement,
        )
    system.run(8.0)
    return system


class TestLocalEngineIdentity:
    def test_aggregate_workload_identical(self):
        columnar = run_local(True)
        reference = run_local(False)
        assert columnar.per_query_sic == reference.per_query_sic
        assert columnar.sic_time_series == reference.sic_time_series
        assert columnar.result_values == reference.result_values
        for c, r in zip(columnar.node_summaries, reference.node_summaries):
            assert c.received_tuples == r.received_tuples
            assert c.kept_tuples == r.kept_tuples
            assert c.shed_tuples == r.shed_tuples
            assert c.overloaded_ticks == r.overloaded_ticks
        assert columnar.messages_sent == reference.messages_sent
        assert columnar.bytes_sent == reference.bytes_sent

    def test_bursty_sources_identical(self):
        columnar = run_local(True, bursty=True)
        reference = run_local(False, bursty=True)
        assert columnar.per_query_sic == reference.per_query_sic
        assert columnar.result_values == reference.result_values

    def test_some_shedding_actually_happened(self):
        result = run_local(True)
        assert any(s.shed_tuples > 0 for s in result.node_summaries)


def run_local_backend(backend, latency=0.005, bursty=False):
    config = SimulationConfig(
        duration_seconds=4.0,
        warmup_seconds=1.0,
        capacity_fraction=0.5,
        columnar=True,
        network_latency_seconds=latency,
        retain_result_values=True,
        seed=0,
    )
    engine = LocalEngine(config)
    kinds = ("avg", "max", "count")
    for i in range(9):
        query = make_aggregate_query(
            kinds[i % 3], query_id=f"q{i}", rate=173.3, seed=i
        )
        if bursty:
            from repro.workloads.sources import BurstySource

            query.sources = [BurstySource(s, seed=i) for s in query.sources]
        engine.add_query(query)
    with use_backend(backend):
        return engine.run()


def assert_runs_identical(a, b):
    assert a.per_query_sic == b.per_query_sic
    assert a.sic_time_series == b.sic_time_series
    assert a.result_values == b.result_values
    for sa, sb in zip(a.node_summaries, b.node_summaries):
        assert sa.received_tuples == sb.received_tuples
        assert sa.kept_tuples == sb.kept_tuples
        assert sa.shed_tuples == sb.shed_tuples
        assert sa.overloaded_ticks == sb.overloaded_ticks
    assert a.messages_sent == b.messages_sent
    assert a.bytes_sent == b.bytes_sent


class TestBackendIdentity:
    """Columnar v2: numpy-backed runs ≡ list-backed runs, bit for bit."""

    @pytest.mark.parametrize(
        "latency", [0.005, 0.075, 0.0], ids=["lan", "wan", "zero"]
    )
    def test_aggregate_workload_identical_across_backends(self, latency):
        numpy_run = run_local_backend("numpy", latency=latency)
        list_run = run_local_backend("list", latency=latency)
        assert_runs_identical(numpy_run, list_run)

    def test_bursty_sources_identical_across_backends(self):
        numpy_run = run_local_backend("numpy", bursty=True)
        list_run = run_local_backend("list", bursty=True)
        assert numpy_run.per_query_sic == list_run.per_query_sic
        assert numpy_run.result_values == list_run.result_values

    def test_numpy_backend_matches_per_tuple_pipeline(self):
        """Oracle chain closes: numpy columnar ≡ seed per-tuple pipeline."""
        numpy_run = run_local_backend("numpy")
        reference = run_local(False)
        assert numpy_run.per_query_sic == reference.per_query_sic
        assert numpy_run.result_values == reference.result_values

    def test_complex_workload_identical_across_backends(self):
        with use_backend("numpy"):
            numpy_system = run_federated(True)
        with use_backend("list"):
            list_system = run_federated(True)
        assert (
            numpy_system.mean_sic_per_query() == list_system.mean_sic_per_query()
        )
        assert (
            numpy_system.total_received_tuples()
            == list_system.total_received_tuples()
        )
        assert (
            numpy_system.total_shed_tuples() == list_system.total_shed_tuples()
        )
        assert (
            numpy_system.network.bytes_sent == list_system.network.bytes_sent
        )


class TestBackendMigrationIdentity:
    """A live mid-run migration under the numpy backend stays invisible and
    matches the list backend run for run (array-backed window/estimator
    state travels through FragmentCheckpoint unchanged)."""

    INTERVAL = 0.25
    STW = StwConfig(stw_seconds=4.0, slide_seconds=INTERVAL)

    def build_system(self, latency=0.005):
        system = FederatedSystem(
            stw_config=self.STW,
            shedding_interval=self.INTERVAL,
            network=Network(UniformLatency(latency)),
            retain_results=True,
        )
        for i in range(2):
            system.add_node(
                FspsNode(
                    node_id=f"node-{i}",
                    shedder=make_shedder("balance-sic", seed=i),
                    budget_per_interval=500.0,
                    stw_config=self.STW,
                )
            )
        for i in range(2):
            query = make_aggregate_query(
                ("avg", "count")[i % 2], query_id=f"q{i}", rate=80.0, seed=i
            )
            system.deploy_query(
                query.query_id,
                query.fragments,
                query.sources,
                {fid: f"node-{i % 2}" for fid in query.fragments},
            )
        return system

    def run_with_migration(self, backend):
        with use_backend(backend):
            system = self.build_system()
            runtime = EventRuntime(system)
            runtime.run(4.0)
            fragment_id = next(iter(system.queries["q0"].fragments))
            runtime.migrate_fragment(fragment_id, "node-1")
            runtime.run(4.0)
            runtime.close()
            return {
                coordinator.query_id: (
                    list(coordinator.tracker.history),
                    coordinator.result_tuples,
                    list(coordinator.result_values),
                )
                for coordinator in system.coordinators.all()
            }

    def test_migration_mid_run_identical_across_backends(self):
        assert self.run_with_migration("numpy") == self.run_with_migration(
            "list"
        )


class TestFederatedIdentity:
    def test_complex_workload_multinode_identical(self):
        columnar = run_federated(True)
        reference = run_federated(False)
        assert columnar.mean_sic_per_query() == reference.mean_sic_per_query()
        assert (
            columnar.total_received_tuples() == reference.total_received_tuples()
        )
        assert columnar.total_shed_tuples() == reference.total_shed_tuples()
        assert (
            columnar.network.bytes_sent == reference.network.bytes_sent
        )
        # Sanity: the complex queries actually produced results.
        sic = columnar.mean_sic_per_query()
        assert set(sic) == {"avg-all", "top5", "cov"}
        assert all(value > 0 for value in sic.values())
