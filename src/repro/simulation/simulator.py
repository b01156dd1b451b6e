"""Simulation driver for a :class:`FederatedSystem`.

The simulator is a compatibility facade: it accepts a fully-constructed
federation plus a :class:`SimulationConfig` and executes the run under the
configured driver — the discrete-event runtime (:mod:`repro.runtime`, the
default) or the original lockstep tick loop (``runtime="lockstep"``, kept as
the equivalence oracle).  Either way it discards a warm-up period and returns
a :class:`RunResult` with the per-query result SIC values, fairness metrics
and node/network statistics that the experiment harness reports.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

from ..federation.fsps import FederatedSystem
from ..metrics.collectors import summarize_backpressure, summarize_network
from ..perf import PerfRegistry, Stopwatch
from ..runtime import EventRuntime, FailureDetector, ShardedRuntime
from .config import SimulationConfig
from .results import NodeSummary, RunResult

__all__ = ["Simulator"]


class Simulator:
    """Runs a federated deployment under a :class:`SimulationConfig`.

    Args:
        system: the fully-constructed federation to drive.
        config: timing configuration (duration, warm-up, interval, driver).
        measure_shedder_time: wall-clock the shedder invocations (§7.6).
        perf_registry: optional :class:`repro.perf.PerfRegistry`; when given,
            the simulator records the whole run under ``simulator.run`` (and,
            on the lockstep driver, per-tick wall time under
            ``simulator.tick``), so experiment drivers can report throughput
            without instrumenting the loop themselves.
    """

    def __init__(
        self,
        system: FederatedSystem,
        config: SimulationConfig,
        measure_shedder_time: bool = False,
        perf_registry: Optional[PerfRegistry] = None,
    ) -> None:
        self.system = system
        self.config = config
        self.measure_shedder_time = measure_shedder_time
        self.perf_registry = perf_registry

    def run(self) -> RunResult:
        """Execute warm-up plus measurement period and summarise the run."""
        timer: Optional[Callable[[], float]] = (
            time.perf_counter if self.measure_shedder_time else None
        )
        total_ticks = max(1, self.config.total_ticks)
        registry = self.perf_registry
        run_watch = Stopwatch().start() if registry is not None else None
        if self.config.runtime == "lockstep":
            for _ in range(total_ticks):
                if registry is not None:
                    with registry.time("simulator.tick"):
                        self.system.tick(timer=timer)
                else:
                    self.system.tick(timer=timer)
        else:
            # The runtime is scoped to this call and detached afterwards so
            # the system can be reused (e.g. under the lockstep driver).
            # Lifecycle experiments that keep driving a run build on
            # EventRuntime directly instead (see repro.experiments.churn).
            if self.config.runtime == "sharded":
                runtime = ShardedRuntime(
                    self.system,
                    node_intervals=self.config.node_shedding_intervals,
                    timer=timer,
                    checkpoint_interval=self.config.checkpoint_interval,
                    workers=self.config.workers,
                    partition=self.config.shard_partition,
                )
            else:
                runtime = EventRuntime(
                    self.system,
                    node_intervals=self.config.node_shedding_intervals,
                    timer=timer,
                    checkpoint_interval=self.config.checkpoint_interval,
                )
            # Detection-only failure detector (no node_factory): it declares
            # silent nodes dead and records latencies; automatic rejoin needs
            # a factory and is wired by the chaos experiment harness.
            detector = None
            if self.config.heartbeat_interval is not None:
                detector = FailureDetector(
                    runtime,
                    interval=self.config.heartbeat_interval,
                    timeout_intervals=self.config.heartbeat_timeout_intervals,
                )
            try:
                runtime.run(ticks=total_ticks)
            finally:
                if detector is not None:
                    detector.close()
                runtime.close()
        if registry is not None and run_watch is not None:
            registry.record("simulator.run", run_watch.stop())
            registry.incr("simulator.ticks", total_ticks)
        return self._collect()

    # ----------------------------------------------------------------- helpers
    def _collect(self) -> RunResult:
        warmup_ticks = self.config.warmup_ticks
        per_query_sic = self.system.mean_sic_per_query(skip_initial=warmup_ticks)
        time_series: Dict[str, List[float]] = {}
        result_values: Dict[str, List[Dict[str, object]]] = {}
        for coordinator in self.system.coordinators.all():
            series = [value for _, value in coordinator.tracker.history]
            time_series[coordinator.query_id] = series
            result_values[coordinator.query_id] = list(coordinator.result_values)

        node_summaries = [
            NodeSummary(
                node_id=node.node_id,
                received_tuples=node.stats.received_tuples,
                kept_tuples=node.stats.kept_tuples,
                shed_tuples=node.stats.shed_tuples,
                overloaded_ticks=node.stats.overloaded_ticks,
                ticks=node.stats.ticks,
                shedder_invocations=node.stats.shedder_invocations,
                shedder_time_seconds=node.stats.shedder_time_seconds,
            )
            for node in self.system.nodes.values()
        ]

        shedder_names = {
            type(node.shedder).__name__ for node in self.system.nodes.values()
        }
        shedder = next(iter(sorted(shedder_names)), "unknown")

        return RunResult(
            shedder=shedder,
            duration_seconds=self.config.duration_seconds,
            per_query_sic=per_query_sic,
            sic_time_series=time_series,
            node_summaries=node_summaries,
            messages_sent=self.system.network.sent_messages,
            bytes_sent=self.system.network.bytes_sent,
            result_values=result_values,
            network=summarize_network(self.system.network),
            backpressure=summarize_backpressure(self.system),
            ledger=self.system.result_accounting_report(),
        )
