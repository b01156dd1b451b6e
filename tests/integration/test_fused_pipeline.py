"""End-to-end differential tests: fused fragment execution ≡ staged pipeline.

The acceptance bar for the fragment plan compiler is the same oracle pattern
as the columnar v2 work, extended with the execution axis: for equal seeds
the default (fused) numpy run must reproduce the staged v2 run's
``RunResult`` exactly — per-query SIC values, result payloads, shed/kept
counters and network accounting — which also closes the oracle chain through
the list backend and the seed per-tuple pipeline.  The staged reference comes
from the ``staged_execution`` fixture, and :class:`TestStagedReference`
proves it really is staged.  Covered scenarios:

* the aggregate workload (avg/max/count, including the Having-count) plus a
  Where-filtered average that exercises the fused mask ladder, across
  LAN/WAN/zero-latency networks;
* bursty sources (fractional rates through ``BurstySource``);
* a live mid-run ``migrate_fragment`` (fused state lives in the staged
  window layout, so checkpoints are representation-identical);
* a node failure with checkpointed rejoin, including conservation of the
  tuple ledger (nothing lost, nothing double-counted).
"""

import pytest

from repro.core.columns import use_backend
from repro.core.shedding import make_shedder
from repro.core.stw import StwConfig
from repro.federation.fsps import FederatedSystem
from repro.federation.network import Network, UniformLatency
from repro.federation.node import FspsNode
from repro.perf.microbench import run_end_to_end
from repro.runtime import EventRuntime
from repro.simulation.config import SimulationConfig
from repro.streaming.cql import compile_query
from repro.streaming.engine import LocalEngine
from repro.streaming.fused import FusedPlan
from repro.workloads.aggregate import make_aggregate_query
from repro.workloads.sources import BurstySource, StreamSource, ValueSource
from repro.workloads.spec import WorkloadQuery

FILTERED_STATEMENT = "Select Avg(t.v) From Src[Range 1 sec] Where t.v >= 20"


def make_filtered_query(query_id, rate=173.3, dataset="uniform", seed=0):
    """A Where-filtered average: compiles to a fused plan with a mask stage."""
    source_id = f"{query_id}/src"
    graph = compile_query(
        FILTERED_STATEMENT, query_id=query_id, sources={"Src": [source_id]}
    )
    fragments = {
        f.fragment_id: f
        for f in graph.partition({op: "f0" for op in graph.operators}).values()
    }
    return WorkloadQuery(
        query_id=query_id,
        kind="avg",
        fragments=fragments,
        sources=[ValueSource(source_id, rate=rate, dataset=dataset, seed=seed)],
    )


def run_local(latency=0.005, bursty=False, columnar=True):
    config = SimulationConfig(
        duration_seconds=4.0,
        warmup_seconds=1.0,
        capacity_fraction=0.5,
        columnar=columnar,
        network_latency_seconds=latency,
        retain_result_values=True,
        seed=0,
    )
    engine = LocalEngine(config)
    kinds = ("avg", "max", "count")
    for i in range(6):
        query = make_aggregate_query(
            kinds[i % 3], query_id=f"q{i}", rate=173.3, dataset="uniform", seed=i
        )
        if bursty:
            query.sources = [BurstySource(s, seed=i) for s in query.sources]
        engine.add_query(query)
    for i in range(3):
        query = make_filtered_query(f"fq{i}", seed=10 + i)
        if bursty:
            query.sources = [BurstySource(s, seed=10 + i) for s in query.sources]
        engine.add_query(query)
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


@pytest.fixture
def fused_calls(monkeypatch):
    """Count the fused entry points: plan prefixes and fused source blocks."""
    calls = {"run_prefix": 0, "generate_block_fused": 0}

    def spy(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    spy(FusedPlan, "run_prefix")
    spy(StreamSource, "generate_block_fused")
    return calls


class TestStagedReference:
    """The fixture's run really is staged.  Without this, a fused == staged
    differential could quietly compare fused with fused."""

    def test_default_numpy_run_takes_fused_paths(self, fused_calls):
        with use_backend("numpy"):
            run_local()
        assert fused_calls["run_prefix"] > 0
        assert fused_calls["generate_block_fused"] > 0

    def test_staged_execution_takes_no_fused_path(
        self, fused_calls, staged_execution
    ):
        with use_backend("numpy"), staged_execution():
            run_local()
        assert fused_calls == {"run_prefix": 0, "generate_block_fused": 0}

    def test_list_backend_run_takes_no_fused_path(self, fused_calls):
        # The simulator runs on whatever backend is active around it.
        with use_backend("list"):
            run_local()
        assert fused_calls == {"run_prefix": 0, "generate_block_fused": 0}


class TestFusedLocalIdentity:
    """Fused runs ≡ staged v2 runs, bit for bit, with real overload/shedding."""

    @pytest.mark.parametrize(
        "latency", [0.005, 0.075, 0.0], ids=["lan", "wan", "zero"]
    )
    def test_identical_across_networks(self, latency, staged_execution):
        fused = run_local(latency=latency)
        with staged_execution():
            staged = run_local(latency=latency)
        assert_runs_identical(fused, staged)

    def test_identical_with_bursty_sources(self, staged_execution):
        fused = run_local(bursty=True)
        with staged_execution():
            staged = run_local(bursty=True)
        assert_runs_identical(fused, staged)

    def test_fused_matches_list_backend_oracle(self):
        # The list backend always runs staged, closing the chain
        # fused ≡ staged-numpy ≡ staged-list.
        with use_backend("numpy"):
            fused = run_local()
        with use_backend("list"):
            list_run = run_local()
        assert_runs_identical(fused, list_run)

    def test_fused_matches_per_tuple_pipeline(self):
        fused = run_local()
        per_tuple = run_local(columnar=False)
        assert fused.per_query_sic == per_tuple.per_query_sic
        assert fused.result_values == per_tuple.result_values

    def test_fused_result_identical(self, staged_execution):
        """The microbench macro scenario (scaled down, numpy backend): the
        fused run reproduces the staged run exactly."""
        kwargs = dict(num_queries=10, rate=200.0, duration_seconds=3.0)
        with use_backend("numpy"):
            _, fused = run_end_to_end(**kwargs)
            with staged_execution():
                _, staged = run_end_to_end(**kwargs)
        assert fused.per_query_sic == staged.per_query_sic
        assert fused.result_values == staged.result_values

    def test_shedding_and_filtering_actually_happened(self):
        result = run_local()
        assert any(s.shed_tuples > 0 for s in result.node_summaries)
        # The Where-filtered queries produced results through the mask stage.
        assert any(q.startswith("fq") for q in result.per_query_sic)
        assert all(
            result.per_query_sic[q] > 0
            for q in result.per_query_sic
            if q.startswith("fq")
        )


INTERVAL = 0.25
STW = StwConfig(stw_seconds=4.0, slide_seconds=INTERVAL)


def make_node(node_id, budget=500.0, seed=0):
    return FspsNode(
        node_id=node_id,
        shedder=make_shedder("balance-sic", seed=seed),
        budget_per_interval=budget,
        stw_config=STW,
    )


def make_system(num_nodes=2, budget=500.0, latency=0.005):
    system = FederatedSystem(
        stw_config=STW,
        shedding_interval=INTERVAL,
        network=Network(UniformLatency(latency)),
        retain_results=True,
    )
    for i in range(num_nodes):
        system.add_node(make_node(f"node-{i}", budget=budget, seed=i))
    for i in range(2):
        query = make_aggregate_query(
            ("avg", "count")[i % 2], query_id=f"q{i}", rate=80.0, seed=i
        )
        system.deploy_query(
            query.query_id,
            query.fragments,
            query.sources,
            {fid: f"node-{i % num_nodes}" for fid in query.fragments},
        )
    filtered = make_filtered_query("fq0", rate=80.0, seed=7)
    system.deploy_query(
        filtered.query_id,
        filtered.fragments,
        filtered.sources,
        {fid: "node-0" for fid in filtered.fragments},
    )
    return system


def query_results(system):
    return {
        coordinator.query_id: (
            list(coordinator.tracker.history),
            coordinator.result_tuples,
            list(coordinator.result_values),
        )
        for coordinator in system.coordinators.all()
    }


class TestFusedMigrationIdentity:
    """A mid-run migration under fused execution stays invisible: the fused
    prefix keeps all state in the staged window layout, so the checkpoint
    envelope is representation-identical and the run matches staged."""

    def run_with_migration(self):
        system = make_system()
        runtime = EventRuntime(system)
        runtime.run(4.0)
        fragment_id = next(iter(system.queries["fq0"].fragments))
        runtime.migrate_fragment(fragment_id, "node-1")
        runtime.run(4.0)
        runtime.close()
        return query_results(system)

    def test_migration_mid_run_identical_fused_and_staged(self, staged_execution):
        fused = self.run_with_migration()
        with staged_execution():
            staged = self.run_with_migration()
        assert fused == staged
        assert all(results[1] > 0 for results in fused.values())


class TestFusedFailRejoinIdentity:
    """Crash + checkpointed rejoin behaves identically fused and staged, and
    the tuple ledger closes (nothing lost or double-counted) either way."""

    def run_with_fail_rejoin(self):
        system = make_system()
        runtime = EventRuntime(system, checkpoint_interval=INTERVAL)
        runtime.run(4.0)
        runtime.fail_node("node-1")
        runtime.run(2.0)
        report = runtime.rejoin_node(make_node("node-1", seed=9))
        assert report.restored_fragments
        assert not report.fragments_without_checkpoint
        runtime.run(4.0)
        runtime.close()
        received = system.total_received_tuples()
        kept = sum(n.stats.kept_tuples for n in system.nodes.values())
        shed = system.total_shed_tuples()
        buffered = sum(n.input_buffer_size() for n in system.nodes.values())
        return query_results(system), (received, kept, shed, buffered)

    def test_fail_rejoin_identical_fused_and_staged(self, staged_execution):
        fused, fused_ledger = self.run_with_fail_rejoin()
        with staged_execution():
            staged, staged_ledger = self.run_with_fail_rejoin()
        assert fused == staged
        assert fused_ledger == staged_ledger
