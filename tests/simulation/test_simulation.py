"""Unit tests for the simulation config, results and simulator."""

import pytest

from repro.core.stw import StwConfig
from repro.simulation.config import SimulationConfig
from repro.simulation.results import NodeSummary, RunResult
from repro.simulation.simulator import Simulator
from repro.streaming.engine import LocalEngine
from repro.workloads.complex import make_cov_query


class TestSimulationConfig:
    def test_defaults_are_valid(self):
        config = SimulationConfig()
        assert config.total_seconds == config.duration_seconds + config.warmup_seconds
        assert config.total_ticks == int(round(config.total_seconds / 0.25))
        assert isinstance(config.stw_config(), StwConfig)

    def test_warmup_ticks(self):
        config = SimulationConfig(warmup_seconds=5.0, shedding_interval=0.25)
        assert config.warmup_ticks == 20

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"duration_seconds": 0},
            {"warmup_seconds": -1},
            {"shedding_interval": 0},
            {"stw_seconds": 0.1, "shedding_interval": 0.25},
            {"capacity_fraction": 0},
            {"network_latency_seconds": -1},
        ],
    )
    def test_invalid_configurations_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SimulationConfig(**kwargs)


class TestRunResult:
    def _result(self):
        return RunResult(
            shedder="BalanceSicShedder",
            duration_seconds=10.0,
            per_query_sic={"q1": 0.4, "q2": 0.4, "q3": 0.2},
            node_summaries=[
                NodeSummary("n0", 1000, 600, 400, 30, 40, 30, 0.03),
                NodeSummary("n1", 500, 500, 0, 0, 40, 0, 0.0),
            ],
        )

    def test_fairness_metrics(self):
        result = self._result()
        assert 0.0 < result.jains_index <= 1.0
        assert result.mean_sic == pytest.approx(1.0 / 3)
        assert result.std_sic > 0.0
        assert result.fairness().count == 3

    def test_shed_totals(self):
        result = self._result()
        assert result.total_received_tuples == 1500
        assert result.total_shed_tuples == 400
        assert result.shed_fraction == pytest.approx(400 / 1500)

    def test_shedder_time(self):
        result = self._result()
        assert result.mean_shedder_time == pytest.approx(0.001)

    def test_summary_row_keys(self):
        row = self._result().summary_row()
        assert {"shedder", "queries", "mean_sic", "std_sic", "jains_index",
                "shed_fraction"} <= set(row)

    def test_node_summary_properties(self):
        summary = NodeSummary("n0", 100, 60, 40, 5, 10, 5, 0.01)
        assert summary.shed_fraction == pytest.approx(0.4)
        assert summary.mean_shedder_time == pytest.approx(0.002)
        assert NodeSummary("n1", 0, 0, 0, 0, 0, 0, 0.0).shed_fraction == 0.0


class TestSimulatorAndLocalEngine:
    def test_local_engine_end_to_end(self):
        config = SimulationConfig(
            duration_seconds=6.0, warmup_seconds=2.0, stw_seconds=4.0,
            capacity_fraction=0.5, seed=1,
        )
        engine = LocalEngine(config)
        engine.add_queries(
            make_cov_query(query_id=f"e2e-{i}", num_fragments=1, rate=60.0, seed=i)
            for i in range(3)
        )
        result = engine.run()
        assert len(result.per_query_sic) == 3
        assert 0.0 < result.mean_sic < 1.0
        assert result.shed_fraction > 0.0
        assert result.messages_sent > 0
        assert all(len(series) > 0 for series in result.sic_time_series.values())

    def test_fault_free_run_closes_the_result_ledger(self):
        config = SimulationConfig(
            duration_seconds=3.0, warmup_seconds=1.0, stw_seconds=2.0,
            capacity_fraction=0.5, seed=4,
        )
        engine = LocalEngine(config)
        engine.add_queries(
            make_cov_query(query_id=f"led-{i}", num_fragments=2, rate=60.0, seed=i)
            for i in range(2)
        )
        ledger = engine.run().ledger
        assert "enabled" not in ledger
        assert ledger["recorded_tuples"] > 0
        assert ledger["unaccounted_tuples"] == 0
        assert ledger["deduped_tuples"] == 0
        assert ledger["lost_to_crash_tuples"] == 0
        assert ledger["lane_problems"] == []

    def test_local_engine_requires_queries(self):
        with pytest.raises(ValueError):
            LocalEngine().run()

    def test_local_engine_validates_query_protocol(self):
        engine = LocalEngine()
        with pytest.raises(ValueError):
            engine.add_query(object())

    def test_simulator_collects_node_summaries(self):
        from repro.experiments.common import build_federation

        config = SimulationConfig(
            duration_seconds=4.0, warmup_seconds=2.0, stw_seconds=4.0,
            capacity_fraction=0.5, seed=2,
        )
        queries = [
            make_cov_query(query_id=f"sim-{i}", num_fragments=2, rate=40.0, seed=i)
            for i in range(2)
        ]
        system = build_federation(queries, num_nodes=2, config=config)
        result = Simulator(system, config).run()
        assert len(result.node_summaries) == 2
        assert result.duration_seconds == config.duration_seconds

    def test_simulator_records_perf_registry(self):
        from repro.experiments.common import build_federation
        from repro.perf import PerfRegistry

        config = SimulationConfig(
            duration_seconds=2.0, warmup_seconds=1.0, stw_seconds=2.0,
            capacity_fraction=0.5, runtime="lockstep", seed=3,
        )
        queries = [
            make_cov_query(query_id="perf-0", num_fragments=1, rate=40.0, seed=0)
        ]
        system = build_federation(queries, num_nodes=1, config=config)
        registry = PerfRegistry()
        Simulator(system, config, perf_registry=registry).run()
        # Per-tick timers exist on the lockstep driver only; the event
        # driver has no global tick to time.
        assert registry.timers["simulator.tick"].count == config.total_ticks
        assert registry.timers["simulator.run"].count == 1
        assert registry.counters["simulator.ticks"] == config.total_ticks
        assert (
            registry.timers["simulator.run"].total_seconds
            >= registry.timers["simulator.tick"].total_seconds * 0.5
        )

    def test_simulator_records_perf_registry_event_runtime(self):
        from repro.experiments.common import build_federation
        from repro.perf import PerfRegistry

        config = SimulationConfig(
            duration_seconds=2.0, warmup_seconds=1.0, stw_seconds=2.0,
            capacity_fraction=0.5, runtime="event", seed=3,
        )
        queries = [
            make_cov_query(query_id="perf-1", num_fragments=1, rate=40.0, seed=0)
        ]
        system = build_federation(queries, num_nodes=1, config=config)
        registry = PerfRegistry()
        Simulator(system, config, perf_registry=registry).run()
        assert registry.timers["simulator.run"].count == 1
        assert registry.counters["simulator.ticks"] == config.total_ticks
        assert "simulator.tick" not in registry.timers
