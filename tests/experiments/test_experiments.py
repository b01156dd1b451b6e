"""Tests for the experiment harness (tiny configurations for speed)."""

from dataclasses import fields

import pytest

from repro.experiments import cli
from repro.experiments.common import (
    ExperimentResult,
    asymmetric_latency_matrix,
    config_with,
    format_table,
)
from repro.experiments.testbeds import (
    EMULAB_TESTBED,
    LOCAL_TESTBED,
    scaled_config,
    workload_scale_factors,
)
from repro.simulation.config import SimulationConfig
from repro.experiments import (
    churn,
    migration,
    fig06_sic_correlation_aggregate as fig06,
    fig08_single_node_fairness as fig08,
    fig10_multinode_comparison as fig10,
    overhead,
    related_work_comparison as related,
)


class TestExperimentResult:
    def test_add_row_and_column(self):
        result = ExperimentResult("x", "demo")
        result.add_row(a=1, b=2.5)
        result.add_row(a=3, b=4.5)
        assert result.column("a") == [1, 3]
        assert "demo" in result.to_table()

    def test_format_table_aligns_columns(self):
        table = format_table([{"name": "q", "value": 0.123456}, {"name": "qq", "value": 1.0}])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "0.1235" in table

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_notes_rendered(self):
        result = ExperimentResult("x", "demo")
        result.add_row(a=1)
        result.add_note("scaled down")
        assert "note: scaled down" in result.to_table()


class TestTestbeds:
    def test_profiles_match_table2(self):
        assert LOCAL_TESTBED.source_rate == 400.0
        assert EMULAB_TESTBED.num_processing_nodes == 18
        assert EMULAB_TESTBED.source_rate == 150.0

    @pytest.mark.parametrize("scale", ["small", "medium", "paper"])
    def test_scaled_config_is_valid(self, scale):
        config = scaled_config(scale)
        assert config.duration_seconds > 0
        assert workload_scale_factors(scale)["queries"] > 0

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            scaled_config("huge")
        with pytest.raises(ValueError):
            workload_scale_factors("huge")

    def test_config_with_overrides_fields(self):
        config = scaled_config("small")
        other = config_with(config, capacity_fraction=0.123)
        assert other.capacity_fraction == 0.123
        assert other.duration_seconds == config.duration_seconds

    def test_config_with_keeps_every_field_and_shares_no_dict(self):
        common = dict(
            duration_seconds=7.0,
            warmup_seconds=2.0,
            shedding_interval=0.5,
            stw_seconds=6.0,
            shedder="random",
            capacity_fraction=0.3,
            network_latency_seconds=0.05,
            enable_sic_updates=False,
            coordinator_update_interval=1.0,
            columnar=False,
            workers=5,
            shard_partition={"node-0": 4},
            node_shedding_intervals={"node-0": 0.5},
            checkpoint_interval=2.0,
            reliable_delivery=True,
            heartbeat_timeout_intervals=5,
            max_ingress_tuples=100,
            ingress_high_fraction=0.9,
            ingress_low_fraction=0.4,
            retain_result_values=True,
            max_result_values=10,
            seed=5,
        )
        # Two drivers, so `runtime` is off its default under any
        # REPRO_RUNTIME; between them every field is off its default.
        configs = [
            SimulationConfig(runtime="sharded", **common),
            SimulationConfig(runtime="lockstep", heartbeat_interval=0.5, **common),
        ]
        defaults = SimulationConfig()
        for f in fields(SimulationConfig):
            assert any(
                getattr(c, f.name) != getattr(defaults, f.name) for c in configs
            ), f.name
        for config in configs:
            copy = config_with(config)
            for f in fields(SimulationConfig):
                value = getattr(config, f.name)
                assert getattr(copy, f.name) == value, f.name
                if isinstance(value, dict):
                    assert getattr(copy, f.name) is not value, f.name

    def test_asymmetric_latency_matrix_skews_per_direction(self):
        nodes = ["node-0", "node-1", "node-2"]
        matrix = asymmetric_latency_matrix(nodes, 0.05, spread=0.5)
        # Ordered pairs split into a slow and a fast direction whose mean is
        # the base latency.
        assert matrix.latency("node-0", "node-1") == pytest.approx(0.075)
        assert matrix.latency("node-1", "node-0") == pytest.approx(0.025)
        for a in nodes:
            for b in nodes:
                if a == b:
                    continue
                forward = matrix.latency(a, b)
                back = matrix.latency(b, a)
                assert forward != back
                assert (forward + back) / 2 == pytest.approx(0.05)
        # updateSIC paths are skewed too; source ingest keeps the default.
        assert matrix.latency("coordinator", "node-1") == pytest.approx(0.075)
        assert matrix.latency("coordinator", "node-0") == pytest.approx(0.025)
        assert matrix.latency("some-source", "node-0") == pytest.approx(0.05)
        with pytest.raises(ValueError):
            asymmetric_latency_matrix(nodes, 0.05, spread=1.5)


class TestExperimentRunners:
    def test_fig06_rows_show_anticorrelation(self):
        result = fig06.run(
            scale="small",
            kinds=("count",),
            datasets=("gaussian",),
            overload_fractions=(0.3, 0.8),
            rate=60.0,
        )
        rows = {row["capacity_fraction"]: row for row in result.rows}
        assert rows[0.3]["sic"] < rows[0.8]["sic"]
        assert rows[0.3]["error"] > rows[0.8]["error"]

    def test_fig08_mean_sic_decreases_with_queries(self):
        result = fig08.run(scale="small", query_counts=(4, 10), source_rate=8.0)
        first, second = result.rows
        assert second["mean_sic"] < first["mean_sic"]
        assert all(row["jains_index"] > 0.8 for row in result.rows)

    def test_fig10_balance_sic_at_least_as_fair_as_random(self):
        result = fig10.run(
            scale="small", cases=(2,), num_nodes=3, total_fragments=24
        )
        by_shedder = {row["shedder"]: row for row in result.rows}
        assert (
            by_shedder["balance-sic"]["jains_index"]
            >= by_shedder["random"]["jains_index"] - 0.02
        )
        improvements = fig10.improvement_summary(result)
        assert "2" in improvements

    def test_churn_reports_every_lifecycle_phase(self):
        result = churn.run(scale="small", phase_seconds=4.0)
        phases = [row["phase"] for row in result.rows]
        assert phases == ["steady", "arrivals", "departures", "node-failure"]
        by_phase = {row["phase"]: row for row in result.rows}
        # Population and cluster sizes follow the lifecycle changes.
        assert by_phase["steady"]["queries"] == churn.INITIAL_QUERIES
        assert (
            by_phase["arrivals"]["queries"]
            == churn.INITIAL_QUERIES + churn.ARRIVING_QUERIES
        )
        assert (
            by_phase["departures"]["queries"]
            == churn.INITIAL_QUERIES
            + churn.ARRIVING_QUERIES
            - churn.DEPARTING_QUERIES
        )
        assert by_phase["node-failure"]["nodes"] == churn.NUM_NODES - 1
        # The fixed budgets plus arrivals deepen the overload; the failure
        # hurts fairness (the failed node's queries collapse towards 0).
        assert (
            by_phase["arrivals"]["shed_fraction"]
            > by_phase["steady"]["shed_fraction"]
        )
        assert all(0.0 < row["jains_index"] <= 1.0 for row in result.rows)
        assert (
            by_phase["node-failure"]["jains_index"]
            < by_phase["steady"]["jains_index"]
        )

    def test_migration_reports_fairness_within_tolerance_of_static(self):
        result = migration.run(scale="small", phase_seconds=4.0)
        phases = [row["phase"] for row in result.rows]
        assert phases == list(migration.PHASES)
        by_phase = {row["phase"]: row for row in result.rows}
        # The cluster shrinks by one node at the decommission and again at
        # the failure; the rejoin brings the failed id back.
        assert by_phase["steady"]["nodes"] == migration.NUM_NODES
        assert by_phase["decommission"]["nodes"] == migration.NUM_NODES - 1
        assert by_phase["failure"]["nodes"] == migration.NUM_NODES - 2
        assert by_phase["recovered"]["nodes"] == migration.NUM_NODES - 1
        # Graceful migration keeps fairness within tolerance of static
        # placement; so does the recovered state after the fail-rejoin
        # cycle (the failure/rejoin phases show the honest transient).
        for phase in ("steady", "decommission", "recovered"):
            row = by_phase[phase]
            assert abs(row["jains_index"] - row["static_jains"]) < 0.1
        # The crash transient is visible, and recovery undoes it.
        assert by_phase["failure"]["jains_index"] < by_phase["steady"]["jains_index"]
        assert (
            by_phase["recovered"]["jains_index"]
            > by_phase["rejoin"]["jains_index"]
        )

    def test_related_work_fit_is_unfair(self):
        result = related.run(scale="small")
        by_key = {(row["setup"], row["approach"]): row for row in result.rows}
        fit = by_key[("simple", "FIT [34]")]
        themis = by_key[("simple", "BALANCE-SIC")]
        assert fit["jains_index"] < 0.7
        assert fit["starved"] > 0
        assert themis["jains_index"] > 0.9

    def test_overhead_reports_both_shedders(self):
        result = overhead.run(scale="small", num_queries=8, num_nodes=2)
        shedders = {row["shedder"] for row in result.rows}
        assert shedders == {"balance-sic", "random"}
        assert all(row["shedder_invocations"] > 0 for row in result.rows)


class TestCli:
    def test_list_mode(self, capsys):
        assert cli.main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig10" in out and "overhead" in out

    def test_unknown_experiment_raises(self):
        with pytest.raises(ValueError):
            cli.run_experiment("fig99")

    def test_registry_covers_every_figure(self):
        expected = {f"fig{n:02d}" for n in range(6, 15)}
        assert expected <= set(cli.EXPERIMENTS)
        assert {"related_work", "overhead"} <= set(cli.EXPERIMENTS)
