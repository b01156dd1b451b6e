"""Single-node execution engine.

A thin convenience wrapper used by the SIC-correlation experiments, the
quickstart example and many tests: it deploys a set of queries on a *single*
THEMIS node (all fragments co-located), sizes the node's budget from a target
overload factor and runs the time-stepped simulation.

The engine accepts any objects that follow the workload-query protocol
(``query_id``, ``fragments`` mapping, ``sources`` list) — in practice the
:class:`~repro.workloads.spec.WorkloadQuery` objects produced by the workload
builders.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..core.shedding import Shedder, make_shedder
from ..federation.fsps import FederatedSystem
from ..federation.network import Network, UniformLatency
from ..federation.node import FspsNode
from ..simulation.config import SimulationConfig
from ..simulation.results import RunResult
from ..simulation.simulator import Simulator

__all__ = ["LocalEngine"]


class LocalEngine:
    """Runs queries on a single node under a configurable overload factor."""

    def __init__(
        self,
        config: Optional[SimulationConfig] = None,
        shedder: Optional[Shedder] = None,
        node_id: str = "node-0",
    ) -> None:
        self.config = config or SimulationConfig()
        self.shedder = shedder or make_shedder(self.config.shedder, seed=self.config.seed)
        self.node_id = node_id
        self._queries: List[object] = []

    def add_query(self, query: object) -> None:
        """Register a query (workload-query protocol) for execution."""
        if not getattr(query, "fragments", None):
            raise ValueError("query object must expose a non-empty 'fragments' mapping")
        if not getattr(query, "sources", None):
            raise ValueError("query object must expose a non-empty 'sources' list")
        self._queries.append(query)

    def add_queries(self, queries: Iterable[object]) -> None:
        for query in queries:
            self.add_query(query)

    def run(self, measure_shedder_time: bool = False) -> RunResult:
        """Build the single-node federation, run it and return the results."""
        if not self._queries:
            raise ValueError("no queries registered; call add_query() first")
        # Imported lazily to keep the streaming package importable on its own.
        from ..federation.deployment import Placement
        from ..workloads.generators import compute_node_budgets

        placement = Placement(
            assignments={
                fragment_id: self.node_id
                for query in self._queries
                for fragment_id in query.fragments
            }
        )
        budgets = compute_node_budgets(
            self._queries,
            placement,
            shedding_interval=self.config.shedding_interval,
            capacity_fraction=self.config.capacity_fraction,
            node_ids=[self.node_id],
        )

        system = FederatedSystem(
            stw_config=self.config.stw_config(),
            shedding_interval=self.config.shedding_interval,
            network=Network(
                UniformLatency(self.config.network_latency_seconds),
                reliability=self.config.reliability_config(),
            ),
            coordinator_update_interval=self.config.coordinator_update_interval,
            enable_sic_updates=self.config.enable_sic_updates,
            columnar=self.config.columnar,
            retain_results=self.config.retain_result_values,
            max_retained_results=self.config.max_result_values,
        )
        node = FspsNode(
            node_id=self.node_id,
            shedder=self.shedder,
            budget_per_interval=budgets[self.node_id],
            stw_config=self.config.stw_config(),
            max_ingress_tuples=self.config.max_ingress_tuples,
            ingress_high_fraction=self.config.ingress_high_fraction,
            ingress_low_fraction=self.config.ingress_low_fraction,
        )
        system.add_node(node)
        for query in self._queries:
            system.deploy_query(
                query_id=query.query_id,
                fragments=query.fragments,
                sources=query.sources,
                placement={fid: self.node_id for fid in query.fragments},
            )
        simulator = Simulator(
            system, self.config, measure_shedder_time=measure_shedder_time
        )
        return simulator.run()
