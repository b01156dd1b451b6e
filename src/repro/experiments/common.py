"""Shared experiment infrastructure.

Every experiment module builds one or more federated deployments, runs them
under a configured shedder and reports rows of a table that mirrors a figure
or table of the paper.  The helpers here cover the common steps: building a
federation from a list of workload queries, sizing node budgets from a target
overload factor, running the simulator, and formatting result tables.

Because query fragments are stateful, experiments always work with *builders*
(zero-argument callables returning a fresh list of
:class:`~repro.workloads.spec.WorkloadQuery`) so the same workload can be
deployed several times — once per shedder or parameter value — from identical
random seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from ..core.shedding import Shedder, make_shedder
from ..federation.deployment import PlacementStrategy, RoundRobinPlacement
from ..federation.fsps import FederatedSystem
from ..federation.network import (
    LatencyMatrix,
    LatencyModel,
    Network,
    UniformLatency,
)
from ..federation.node import FspsNode
from ..simulation.config import SimulationConfig
from ..simulation.results import RunResult
from ..simulation.simulator import Simulator
from ..workloads.generators import compute_node_budgets
from ..workloads.spec import WorkloadQuery

__all__ = [
    "ExperimentResult",
    "WorkloadBuilder",
    "asymmetric_latency_matrix",
    "build_federation",
    "run_workload",
    "format_table",
    "config_with",
]

WorkloadBuilder = Callable[[], List[WorkloadQuery]]


def config_with(config: SimulationConfig, **overrides: object) -> SimulationConfig:
    """Return a copy of ``config`` with the given fields replaced.

    Dict-valued fields are copied, so the result never aliases ``config``'s.
    """
    values = {
        name: dict(value)
        for name, value in vars(config).items()
        if isinstance(value, dict)
    }
    values.update(overrides)
    return replace(config, **values)


@dataclass
class ExperimentResult:
    """Tabular result of one experiment.

    Attributes:
        name: experiment identifier (e.g. ``"fig10"``).
        description: one-line description of what the experiment reproduces.
        rows: list of row dictionaries; all rows share the same keys.
        notes: free-form remarks (substitutions, scale used, caveats).
    """

    name: str
    description: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **values: object) -> None:
        self.rows.append(dict(values))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def column(self, key: str) -> List[object]:
        return [row.get(key) for row in self.rows]

    def to_table(self) -> str:
        header = f"== {self.name}: {self.description} =="
        body = format_table(self.rows)
        notes = "\n".join(f"note: {note}" for note in self.notes)
        parts = [header, body]
        if notes:
            parts.append(notes)
        return "\n".join(parts)


def format_table(rows: Sequence[Mapping[str, object]]) -> str:
    """Render rows of dictionaries as an aligned text table."""
    if not rows:
        return "(no rows)"
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)

    def fmt(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.4f}"
        return str(value)

    widths = {col: len(col) for col in columns}
    rendered: List[List[str]] = []
    for row in rows:
        cells = [fmt(row.get(col, "")) for col in columns]
        rendered.append(cells)
        for col, cell in zip(columns, cells):
            widths[col] = max(widths[col], len(cell))

    lines = [
        "  ".join(col.ljust(widths[col]) for col in columns),
        "  ".join("-" * widths[col] for col in columns),
    ]
    for cells in rendered:
        lines.append("  ".join(cell.ljust(widths[col]) for col, cell in zip(columns, cells)))
    return "\n".join(lines)


def asymmetric_latency_matrix(
    node_ids: Sequence[str],
    base_seconds: float,
    spread: float = 0.5,
    coordinator_endpoint: str = "coordinator",
) -> LatencyMatrix:
    """Wide-area latency matrix with asymmetric inter-site paths.

    Real federations cross administrative domains whose uplinks and
    downlinks differ; this helper models that with per-direction latencies
    around ``base_seconds``: for each ordered node pair ``(a, b)`` with
    ``a < b``, the a→b path takes ``base * (1 + spread)`` and the return
    path ``base * (1 - spread)`` (the pair's mean stays ``base``, so runs
    remain comparable with the uniform model).  The coordinator pushes its
    ``updateSIC`` messages over the same skewed long-haul paths: towards
    odd-indexed nodes at ``base * (1 + spread)``, towards the rest at
    ``base * (1 - spread)``.  Everything else (source → node ingest) keeps
    the ``base_seconds`` default.
    """
    if not 0.0 <= spread < 1.0:
        raise ValueError(f"spread must be in [0, 1), got {spread}")
    matrix = LatencyMatrix(default_seconds=base_seconds)
    slow = base_seconds * (1.0 + spread)
    fast = base_seconds * (1.0 - spread)
    ordered = list(node_ids)
    for i, a in enumerate(ordered):
        for b in ordered[i + 1:]:
            matrix.set_latency(a, b, slow, symmetric=False)
            matrix.set_latency(b, a, fast, symmetric=False)
    for index, node_id in enumerate(ordered):
        matrix.set_latency(
            coordinator_endpoint,
            node_id,
            slow if index % 2 else fast,
            symmetric=False,
        )
    return matrix


def build_federation(
    queries: Sequence[WorkloadQuery],
    num_nodes: int,
    config: SimulationConfig,
    shedder_name: Optional[str] = None,
    placement_strategy: Optional[PlacementStrategy] = None,
    node_budgets: Optional[Mapping[str, float]] = None,
    budget_mode: str = "proportional",
    latency_model: Optional[LatencyModel] = None,
) -> FederatedSystem:
    """Build a federation hosting ``queries`` on ``num_nodes`` nodes.

    Fragment placement defaults to round-robin; per-node budgets default to
    ``config.capacity_fraction`` times the load offered to the node
    (``budget_mode="proportional"``) or to a uniform share of the total
    offered load (``budget_mode="uniform"``, homogeneous hardware).  The
    network defaults to ``UniformLatency(config.network_latency_seconds)``;
    pass ``latency_model`` (e.g. :func:`asymmetric_latency_matrix`) for
    per-pair paths.
    """
    if num_nodes <= 0:
        raise ValueError(f"num_nodes must be positive, got {num_nodes}")
    node_ids = [f"node-{i}" for i in range(num_nodes)]
    strategy = placement_strategy or RoundRobinPlacement()
    fragments = [f for query in queries for f in query.fragment_list()]
    placement = strategy.place(fragments, node_ids)

    budgets = dict(node_budgets) if node_budgets else compute_node_budgets(
        queries,
        placement,
        shedding_interval=config.shedding_interval,
        capacity_fraction=config.capacity_fraction,
        node_ids=node_ids,
        mode=budget_mode,
    )

    system = FederatedSystem(
        stw_config=config.stw_config(),
        shedding_interval=config.shedding_interval,
        network=Network(
            latency_model
            or UniformLatency(config.network_latency_seconds),
            reliability=config.reliability_config(),
        ),
        coordinator_update_interval=config.coordinator_update_interval,
        enable_sic_updates=config.enable_sic_updates,
        columnar=config.columnar,
        retain_results=config.retain_result_values,
        max_retained_results=config.max_result_values,
    )
    shedder_kind = shedder_name or config.shedder
    for index, node_id in enumerate(node_ids):
        shedder: Shedder = make_shedder(shedder_kind, seed=config.seed + index)
        system.add_node(
            FspsNode(
                node_id=node_id,
                shedder=shedder,
                budget_per_interval=budgets[node_id],
                stw_config=config.stw_config(),
                max_ingress_tuples=config.max_ingress_tuples,
                ingress_high_fraction=config.ingress_high_fraction,
                ingress_low_fraction=config.ingress_low_fraction,
            )
        )
    for query in queries:
        system.deploy_query(
            query_id=query.query_id,
            fragments=query.fragments,
            sources=query.sources,
            placement={
                fragment_id: placement.node_for(fragment_id)
                for fragment_id in query.fragments
            },
            nominal_rates=query.nominal_rates(),
        )
    return system


def run_workload(
    builder: WorkloadBuilder,
    num_nodes: int,
    config: SimulationConfig,
    shedder_name: Optional[str] = None,
    placement_strategy: Optional[PlacementStrategy] = None,
    node_budgets: Optional[Mapping[str, float]] = None,
    budget_mode: str = "proportional",
    measure_shedder_time: bool = False,
    latency_model: Optional[LatencyModel] = None,
) -> RunResult:
    """Build a fresh workload with ``builder`` and run it end to end."""
    queries = builder()
    system = build_federation(
        queries,
        num_nodes=num_nodes,
        config=config,
        shedder_name=shedder_name,
        placement_strategy=placement_strategy,
        node_budgets=node_budgets,
        budget_mode=budget_mode,
        latency_model=latency_model,
    )
    simulator = Simulator(system, config, measure_shedder_time=measure_shedder_time)
    return simulator.run()
