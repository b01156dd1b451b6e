"""Query graphs and query fragments (§3, "Query graph" / "Query deployment").

A query is a directed acyclic graph of operators.  Certain operators are bound
to data sources; a single root operator emits the result stream.  For
deployment in the federated system the graph is partitioned into *fragments* —
disjoint sets of operators — and every fragment is placed on a different FSPS
node.  Fragments of the same query are connected: the exit operator of an
upstream fragment streams its derived tuples to an entry operator of the
downstream fragment.

:class:`QueryGraph` models the logical query; :class:`QueryFragment` is the
executable unit hosted by a node.  Fragments are self-contained: they route
delivered batches to the right entry operators, advance their operators in
topological order, account for the simulated processing cost, and hand back
batches destined either to a downstream fragment or to the query user.
"""

from __future__ import annotations

import itertools
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple as PyTuple

from ..core.columns import ColumnBlock
from ..core.tuples import Batch, Tuple
from ..state.checkpoint import CheckpointError
from . import fused
from .operators.base import Emitted, Operator

__all__ = ["Edge", "QueryGraph", "QueryFragment", "FragmentOutput"]

_fragment_ids = itertools.count()


@dataclass(frozen=True)
class Edge:
    """A directed stream between two operators.

    Attributes:
        source: operator id producing the tuples.
        target: operator id consuming them.
        port: input port of the target operator.
    """

    source: str
    target: str
    port: int = 0


class QueryGraph:
    """The logical DAG of operators of one query."""

    def __init__(self, query_id: str) -> None:
        self.query_id = query_id
        self.operators: Dict[str, Operator] = {}
        self.edges: List[Edge] = []
        self.source_bindings: Dict[str, PyTuple[str, int]] = {}
        self.root_operator_id: Optional[str] = None

    # ---------------------------------------------------------------- building
    def add_operator(self, operator: Operator) -> Operator:
        if operator.operator_id in self.operators:
            raise ValueError(f"operator {operator.operator_id} already in query")
        self.operators[operator.operator_id] = operator
        return operator

    def connect(self, source: Operator, target: Operator, port: int = 0) -> None:
        """Add a stream from ``source`` to ``target`` (input ``port``)."""
        for op in (source, target):
            if op.operator_id not in self.operators:
                raise ValueError(f"operator {op.name!r} is not part of this query")
        self.edges.append(Edge(source.operator_id, target.operator_id, port))

    def bind_source(self, source_id: str, operator: Operator, port: int = 0) -> None:
        """Declare that ``source_id`` feeds ``operator`` directly."""
        if operator.operator_id not in self.operators:
            raise ValueError(f"operator {operator.name!r} is not part of this query")
        if source_id in self.source_bindings:
            raise ValueError(f"source {source_id!r} is already bound")
        self.source_bindings[source_id] = (operator.operator_id, port)

    def set_root(self, operator: Operator) -> None:
        if operator.operator_id not in self.operators:
            raise ValueError(f"operator {operator.name!r} is not part of this query")
        self.root_operator_id = operator.operator_id

    # -------------------------------------------------------------- inspection
    @property
    def num_sources(self) -> int:
        return len(self.source_bindings)

    @property
    def num_operators(self) -> int:
        return len(self.operators)

    def source_ids(self) -> List[str]:
        return list(self.source_bindings)

    def downstream_of(self, operator_id: str) -> List[Edge]:
        return [e for e in self.edges if e.source == operator_id]

    def upstream_of(self, operator_id: str) -> List[Edge]:
        return [e for e in self.edges if e.target == operator_id]

    def topological_order(self) -> List[str]:
        """Kahn topological sort of the operator ids; raises on cycles."""
        indegree: Dict[str, int] = {op_id: 0 for op_id in self.operators}
        adjacency: Dict[str, List[str]] = defaultdict(list)
        for edge in self.edges:
            adjacency[edge.source].append(edge.target)
            indegree[edge.target] += 1
        queue = deque(sorted(op_id for op_id, deg in indegree.items() if deg == 0))
        order: List[str] = []
        while queue:
            op_id = queue.popleft()
            order.append(op_id)
            for succ in adjacency[op_id]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    queue.append(succ)
        if len(order) != len(self.operators):
            raise ValueError(f"query {self.query_id!r} contains a cycle")
        return order

    def validate(self) -> None:
        """Check structural well-formedness; raises ``ValueError`` if broken."""
        if not self.operators:
            raise ValueError(f"query {self.query_id!r} has no operators")
        if self.root_operator_id is None:
            raise ValueError(f"query {self.query_id!r} has no root operator")
        if not self.source_bindings:
            raise ValueError(f"query {self.query_id!r} has no sources")
        self.topological_order()
        if self.downstream_of(self.root_operator_id):
            raise ValueError("the root operator must not have downstream operators")

    # ------------------------------------------------------------ partitioning
    def partition(
        self, assignment: Mapping[str, str]
    ) -> Dict[str, "QueryFragment"]:
        """Split the graph into fragments according to ``assignment``.

        Args:
            assignment: maps operator id → fragment name.  All operators must
                be assigned.  Edges between operators in different fragments
                become fragment-to-fragment links.

        Returns:
            Mapping from fragment name to the built :class:`QueryFragment`,
            fully wired (source bindings, upstream bindings, downstream link).
        """
        missing = set(self.operators) - set(assignment)
        if missing:
            raise ValueError(f"operators without fragment assignment: {sorted(missing)}")
        self.validate()

        fragments: Dict[str, QueryFragment] = {}
        for name in dict.fromkeys(assignment.values()):
            fragments[name] = QueryFragment(query_id=self.query_id, name=name)
        for op_id, name in assignment.items():
            fragments[name].add_operator(self.operators[op_id])

        cross_edges: List[Edge] = []
        for edge in self.edges:
            src_frag = assignment[edge.source]
            dst_frag = assignment[edge.target]
            if src_frag == dst_frag:
                fragments[src_frag].add_edge(edge)
            else:
                cross_edges.append(edge)

        for source_id, (op_id, port) in self.source_bindings.items():
            fragments[assignment[op_id]].bind_source(source_id, op_id, port)

        for edge in cross_edges:
            upstream = fragments[assignment[edge.source]]
            downstream = fragments[assignment[edge.target]]
            upstream.set_exit(edge.source)
            upstream.set_downstream(downstream.fragment_id)
            downstream.bind_upstream(upstream.fragment_id, edge.target, edge.port)

        root_fragment = fragments[assignment[self.root_operator_id]]
        root_fragment.set_exit(self.root_operator_id)
        for fragment in fragments.values():
            fragment.finalize()
        return fragments


@dataclass
class FragmentOutput:
    """Result of one fragment processing round.

    Attributes:
        downstream: batches destined to the downstream fragment.
        results: result batches (only produced by the query's root fragment).
        processing_cost: simulated cost incurred by this round.
        processed_tuples: number of tuples ingested by operators this round.
    """

    downstream: List[Batch] = field(default_factory=list)
    results: List[Batch] = field(default_factory=list)
    processing_cost: float = 0.0
    processed_tuples: int = 0


class QueryFragment:
    """An executable partition of a query graph hosted by one FSPS node."""

    def __init__(self, query_id: str, name: Optional[str] = None) -> None:
        self.query_id = query_id
        self.name = name or f"fragment-{next(_fragment_ids)}"
        self.fragment_id = f"{query_id}/{self.name}"
        self.operators: Dict[str, Operator] = {}
        self.internal_edges: List[Edge] = []
        self.source_bindings: Dict[str, PyTuple[str, int]] = {}
        self.upstream_bindings: Dict[str, PyTuple[str, int]] = {}
        self.exit_operator_id: Optional[str] = None
        self.downstream_fragment_id: Optional[str] = None
        self._order: List[str] = []
        self._adjacency: Dict[str, List[PyTuple[str, int]]] = defaultdict(list)
        self._pending_cost = 0.0
        self._pending_tuples = 0
        # Exactly-once output watermark (root fragments only).  ``seq``
        # counts emitted result batches within the current epoch and rolls
        # back with the rest of the state on checkpoint restore, so crash
        # replay re-stamps the original sequence numbers; ``epoch`` bumps
        # only on a *blank* restart (``reset_state``), opening a fresh
        # dedup lane at the coordinator.
        self._output_epoch = 0
        self._output_seq = 0
        # Fused execution plan (compiled lazily on first process() while the
        # numpy backend is active; structural, so compiled once per wiring).
        self._fused_plan_cache: Optional[object] = None
        self._fused_checked = False

    # ---------------------------------------------------------------- building
    def add_operator(self, operator: Operator) -> Operator:
        self.operators[operator.operator_id] = operator
        return operator

    def add_edge(self, edge: Edge) -> None:
        if edge.source not in self.operators or edge.target not in self.operators:
            raise ValueError("both endpoints of an internal edge must be in the fragment")
        self.internal_edges.append(edge)

    def connect(self, source: Operator, target: Operator, port: int = 0) -> None:
        self.add_edge(Edge(source.operator_id, target.operator_id, port))

    def bind_source(self, source_id: str, operator_id: str, port: int = 0) -> None:
        if operator_id not in self.operators:
            raise ValueError(f"operator {operator_id} is not part of fragment {self.name}")
        self.source_bindings[source_id] = (operator_id, port)

    def bind_upstream(
        self, upstream_fragment_id: str, operator_id: str, port: int = 0
    ) -> None:
        if operator_id not in self.operators:
            raise ValueError(f"operator {operator_id} is not part of fragment {self.name}")
        self.upstream_bindings[upstream_fragment_id] = (operator_id, port)

    def set_exit(self, operator_id: str) -> None:
        if operator_id not in self.operators:
            raise ValueError(f"operator {operator_id} is not part of fragment {self.name}")
        self.exit_operator_id = operator_id

    def set_downstream(self, fragment_id: Optional[str]) -> None:
        self.downstream_fragment_id = fragment_id

    def finalize(self) -> None:
        """Precompute the topological order and adjacency; call after wiring."""
        if self.exit_operator_id is None:
            raise ValueError(f"fragment {self.name} has no exit operator")
        indegree = {op_id: 0 for op_id in self.operators}
        adjacency: Dict[str, List[PyTuple[str, int]]] = defaultdict(list)
        for edge in self.internal_edges:
            adjacency[edge.source].append((edge.target, edge.port))
            indegree[edge.target] += 1
        queue = deque(sorted(op_id for op_id, deg in indegree.items() if deg == 0))
        order: List[str] = []
        while queue:
            op_id = queue.popleft()
            order.append(op_id)
            for succ, _ in adjacency[op_id]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    queue.append(succ)
        if len(order) != len(self.operators):
            raise ValueError(f"fragment {self.name} contains a cycle")
        self._order = order
        self._adjacency = adjacency
        # Rewiring invalidates any compiled fused plan.
        self._fused_plan_cache = None
        self._fused_checked = False

    # --------------------------------------------------------------- execution
    @property
    def is_root(self) -> bool:
        """True when this fragment emits result tuples to the query user."""
        return self.downstream_fragment_id is None

    @property
    def num_operators(self) -> int:
        return len(self.operators)

    def deliver(self, batch: Batch, origin_fragment_id: Optional[str] = None) -> None:
        """Route an arriving batch's tuples to the right entry operator.

        Source batches (``origin_fragment_id is None``) are routed per source
        binding; inter-fragment batches per upstream binding.  Columnar
        batches route their column block as one unit (source blocks are
        single-source by construction) without materializing tuples.
        """
        view = batch.block_view()
        if origin_fragment_id is not None:
            binding = self.upstream_bindings.get(origin_fragment_id)
            if binding is None:
                raise ValueError(
                    f"fragment {self.fragment_id} has no upstream binding for "
                    f"{origin_fragment_id}"
                )
            op_id, port = binding
            if view is not None:
                self._ingest_view(op_id, view, port)
            else:
                self._ingest(op_id, list(batch.tuples), port)
            return
        if view is not None and view[0].source_id is not None:
            binding = self.source_bindings.get(view[0].source_id)
            if binding is None:
                # Unknown source: ignore (defensive, mirrors the tuple path).
                return
            op_id, port = binding
            self._ingest_view(op_id, view, port)
            return
        # Source batch: group tuples per originating source.
        per_source: Dict[Optional[str], List[Tuple]] = defaultdict(list)
        for t in batch.tuples:
            per_source[t.source_id].append(t)
        for source_id, tuples in per_source.items():
            binding = self.source_bindings.get(source_id or "")
            if binding is None:
                # Unknown source: ignore (defensive; should not happen when the
                # workload wiring is correct).
                continue
            op_id, port = binding
            self._ingest(op_id, tuples, port)

    def process(self, now: float) -> FragmentOutput:
        """Advance all operators to ``now`` and collect outputs.

        When fused execution is active and this fragment compiles to a
        :class:`~repro.streaming.fused.FusedPlan`, the receiver→filters→
        aggregate-ingest prefix runs as one columnar pass and only the
        windowed suffix advances through the staged loop; otherwise (or when
        the plan declines a non-fusible tick) the full staged loop runs.
        """
        if not self._order:
            self.finalize()
        plan = self._fused_plan()
        if plan is not None and plan.run_prefix(self, now):
            return self._advance(plan.suffix_ids, now)
        return self._advance(self._order, now)

    def _fused_plan(self):
        """The fragment's compiled fused plan, or ``None`` (staged only)."""
        if not fused.fused_execution_active():
            return None
        if not self._fused_checked:
            self._fused_plan_cache = fused.compile_fused_plan(self)
            self._fused_checked = True
        return self._fused_plan_cache

    def _advance(self, order: Sequence[str], now: float) -> FragmentOutput:
        """Advance ``order``'s operators in sequence and collect outputs."""
        output = FragmentOutput()
        exit_items: List[Emitted] = []
        for op_id in order:
            operator = self.operators[op_id]
            produced = operator.advance_items(now)
            if not produced:
                continue
            count = 0
            for item in produced:
                count += len(item) if isinstance(item, ColumnBlock) else 1
            if op_id == self.exit_operator_id:
                exit_items.extend(produced)
            for target_id, port in self._adjacency.get(op_id, ()):  # internal routing
                self._route_items(target_id, produced, port, count)
        output.processing_cost = self._pending_cost
        output.processed_tuples = self._pending_tuples
        self._pending_cost = 0.0
        self._pending_tuples = 0
        if exit_items:
            batch = self._exit_batch(exit_items, now)
            if self.is_root:
                output.results.append(batch)
            else:
                output.downstream.append(batch)
        return output

    @property
    def output_watermark(self) -> PyTuple[int, int]:
        """The ``(epoch, seq)`` stamp of the most recently emitted result."""
        return self._output_epoch, self._output_seq

    def pending_tuples(self) -> int:
        """Tuples buffered inside the fragment's operator windows."""
        return sum(op.pending_tuples() for op in self.operators.values())

    def pending_sic(self) -> float:
        """Summed SIC buffered inside the fragment's operator windows."""
        return sum(op.pending_sic() for op in self.operators.values())

    # ---------------------------------------------------- checkpoint/restore
    def snapshot(self) -> Dict[str, object]:
        """Serialise the fragment's executable state (operator windows)."""
        return {
            "fragment_id": self.fragment_id,
            "query_id": self.query_id,
            "operators": {
                op_id: op.snapshot() for op_id, op in self.operators.items()
            },
            "pending_cost": self._pending_cost,
            "pending_tuples": self._pending_tuples,
            "output_watermark": {
                "epoch": self._output_epoch,
                "seq": self._output_seq,
            },
        }

    def restore(self, state: Dict[str, object]) -> None:
        """Rebuild the fragment's state from :meth:`snapshot` output.

        The fragment *structure* (operators, wiring) is the deployment
        plan's responsibility; only state is restored, and the checkpoint
        must name exactly this fragment's operators.
        """
        if (
            state.get("fragment_id") != self.fragment_id
            or state.get("query_id") != self.query_id
        ):
            raise CheckpointError(
                f"fragment checkpoint for {state.get('query_id')}/"
                f"{state.get('fragment_id')} does not match {self.fragment_id}"
            )
        operator_states = state["operators"]
        if set(operator_states) != set(self.operators):
            raise CheckpointError(
                f"fragment {self.fragment_id} checkpoint operators "
                f"{sorted(operator_states)} do not match "
                f"{sorted(self.operators)}"
            )
        for op_id, op_state in operator_states.items():
            self.operators[op_id].restore(op_state)
        self._pending_cost = state["pending_cost"]
        self._pending_tuples = state["pending_tuples"]
        watermark = state.get("output_watermark")
        if watermark is not None:  # pre-watermark checkpoints leave it as-is
            self._output_epoch = int(watermark["epoch"])
            self._output_seq = int(watermark["seq"])

    def reset_state(self) -> None:
        """Discard all buffered operator state (crash loss, no checkpoint)."""
        for operator in self.operators.values():
            operator.reset_state()
        self._pending_cost = 0.0
        self._pending_tuples = 0
        # Blank restart: previously emitted output can never be re-emitted,
        # so open a fresh watermark epoch instead of colliding with the
        # sequence numbers the lost incarnation already used.
        self._output_epoch += 1
        self._output_seq = 0

    # ----------------------------------------------------------------- helpers
    def _ingest(self, operator_id: str, tuples: Sequence[Tuple], port: int) -> None:
        operator = self.operators[operator_id]
        operator.ingest(tuples, port=port)
        self._pending_cost += operator.cost_per_tuple * len(tuples)
        self._pending_tuples += len(tuples)

    def _ingest_block(self, operator_id: str, block: ColumnBlock, port: int) -> None:
        operator = self.operators[operator_id]
        operator.ingest_block(block, port=port)
        self._pending_cost += operator.cost_per_tuple * len(block)
        self._pending_tuples += len(block)

    def _ingest_view(self, operator_id: str, view, port: int) -> None:
        """Ingest a ``(block, lo, hi)`` range without copying columns."""
        block, lo, hi = view
        operator = self.operators[operator_id]
        operator.ingest_block(block, port=port, lo=lo, hi=hi)
        count = hi - lo
        self._pending_cost += operator.cost_per_tuple * count
        self._pending_tuples += count

    def _route_items(
        self, operator_id: str, items: Sequence[Emitted], port: int, count: int
    ) -> None:
        """Feed one producer's outputs to one target operator.

        Consecutive tuples are delivered in single ``ingest`` calls and
        blocks via ``ingest_block``, preserving the producer's emission
        order; the cost-model accounting is updated once with the total tuple
        count — the same granularity (one update per producer→target link)
        as the per-tuple path.
        """
        operator = self.operators[operator_id]
        run: List[Tuple] = []
        for item in items:
            if isinstance(item, ColumnBlock):
                if run:
                    operator.ingest(run, port=port)
                    run = []
                operator.ingest_block(item, port=port)
            else:
                run.append(item)
        if run:
            operator.ingest(run, port=port)
        self._pending_cost += operator.cost_per_tuple * count
        self._pending_tuples += count

    def _exit_batch(self, items: List[Emitted], now: float) -> Batch:
        """Build the exit batch, staying columnar when every item is a block."""
        fragment_id = self.downstream_fragment_id or self.fragment_id
        if all(isinstance(item, ColumnBlock) for item in items):
            block = (
                items[0]
                if len(items) == 1
                else ColumnBlock.concat(items)  # type: ignore[arg-type]
            )
            batch = Batch.from_block(
                self.query_id,
                block,
                created_at=now,
                fragment_id=fragment_id,
                origin_fragment_id=self.fragment_id,
            )
        else:
            tuples: List[Tuple] = []
            for item in items:
                if isinstance(item, ColumnBlock):
                    tuples.extend(item.to_tuples())
                else:
                    tuples.append(item)
            batch = Batch(
                self.query_id,
                tuples,
                created_at=now,
                fragment_id=fragment_id,
                origin_fragment_id=self.fragment_id,
            )
        if self.is_root:
            self._output_seq += 1
            batch.origin_epoch = self._output_epoch
            batch.origin_seq = self._output_seq
        return batch

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QueryFragment(id={self.fragment_id!r}, operators={len(self.operators)}, "
            f"sources={len(self.source_bindings)}, root={self.is_root})"
        )
