"""The federated stream processing system (FSPS).

This module ties together the federation substrate: autonomous nodes hosting
query fragments (:mod:`repro.federation.node`), the inter-site network
(:mod:`repro.federation.network`) and the per-query coordinators
(:mod:`repro.federation.coordinator`).  A :class:`FederatedSystem` owns the
deployment state — which fragment runs where, which sources feed which query —
and exposes the per-component event handlers that advance it:

* :meth:`FederatedSystem.generate_query_sources` — one source-generation
  round for one query: tuples for the elapsed interval are generated, the SIC
  assigner stamps them (Equation 1) and the batches are sent towards the
  nodes hosting the fragments bound to those sources;
* :meth:`FederatedSystem.deliver_messages` / :meth:`FederatedSystem.dispatch`
  — due network messages enter node input buffers (data), refresh the nodes'
  view of query result SIC values (``updateSIC``), or reach the coordinators
  (results);
* :meth:`FederatedSystem.run_node_round` — one overload-detector / tuple
  shedder / fragment-processing round for one node (Algorithm 1 when the
  BALANCE-SIC shedder is configured), forwarding the outputs;
* :meth:`FederatedSystem.run_coordinator_round` — one ``updateSIC``
  dissemination round for one coordinator.

Two drivers exist.  The *lockstep* driver is :meth:`FederatedSystem.tick`,
which runs every handler for every component once per shedding interval in a
fixed phase order — it is the reproduction's original execution model and is
preserved as the equivalence oracle.  The *discrete-event* driver
(:mod:`repro.runtime`) schedules each component's rounds as independent
recurring streams, which allows heterogeneous per-node shedding intervals and the
mid-run lifecycle operations (:meth:`deploy_query` / :meth:`undeploy_query` /
:meth:`add_node` / :meth:`remove_node` / :meth:`fail_node`).

The FSPS is deliberately decentralised: nodes only ever see their own input
buffer and the coordinator updates, mirroring the paper's site-autonomy
constraint (C3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
)

from ..core.fairness import FairnessSummary, summarize_fairness
from ..core.sic import SicAssigner
from ..core.stw import StwConfig
from ..core.tuples import Batch, Tuple
from ..streaming import fused
from ..streaming.query import QueryFragment
from .coordinator import CoordinatorRegistry, QueryCoordinator
from .network import (
    DataMessage,
    HeartbeatMessage,
    Message,
    Network,
    ResultMessage,
    SicUpdateMessage,
    UniformLatency,
)
from .node import FspsNode, NodeTickResult

__all__ = [
    "DeployedQuery",
    "SourceRoute",
    "MigrationReport",
    "RejoinReport",
    "FederatedSystem",
]

# Endpoint name used by coordinators when exchanging messages with nodes.
COORDINATOR_ENDPOINT = "coordinator"


@dataclass
class SourceRoute:
    """Precomputed routing of one source: where its batches are sent.

    Built at deploy time so the per-round generation loop does no
    getattr/placement-dict chains.  ``fragment_id``/``node_id`` are mutable:
    a node failure unroutes the sources feeding its fragments (the source
    keeps generating — advancing its RNG/carry state and feeding the rate
    estimator — but the data is lost, like tuples sent into a dead site).
    """

    __slots__ = (
        "source_id",
        "fragment_id",
        "node_id",
        "generate",
        "generate_block",
        "generate_fused",
    )

    source_id: str
    fragment_id: Optional[str]
    node_id: Optional[str]
    generate: Callable[[float, float], List[Tuple]]
    generate_block: Optional[Callable[[float, float], object]]
    generate_fused: Optional[Callable[[float, float], object]]


@dataclass
class DeployedQuery:
    """A query deployed on the FSPS.

    Attributes:
        query_id: query identifier.
        fragments: the query's fragments, keyed by fragment id.
        sources: the source objects feeding the query.  A source must expose a
            ``source_id`` attribute, a ``rate`` attribute (tuples/second) and a
            ``generate(start, end)`` method returning payload tuples.
        sic_assigner: stamps the query's source tuples with SIC values.
        source_fragment: maps source id → fragment id of the fragment whose
            receiver is bound to that source.
        source_plan: per-source :class:`SourceRoute` entries, in source order.
        deployed_at: simulation time the query was deployed.
    """

    query_id: str
    fragments: Dict[str, QueryFragment]
    sources: List[object]
    sic_assigner: SicAssigner
    source_fragment: Dict[str, str] = field(default_factory=dict)
    source_plan: List[SourceRoute] = field(default_factory=list)
    deployed_at: float = 0.0

    @property
    def num_fragments(self) -> int:
        return len(self.fragments)


@dataclass
class MigrationReport:
    """Accounting of one live fragment migration.

    Attributes:
        fragment_id / query_id: what moved.
        source_node / target_node: from where to where.
        state_tuples / state_sic: tuples and SIC carried in the checkpoint
            (operator-window state plus drained input-buffer batches).
        replayed_batches: input-buffer batches replayed on the target.
    """

    fragment_id: str
    query_id: str
    source_node: str
    target_node: str
    state_tuples: int = 0
    state_sic: float = 0.0
    replayed_batches: int = 0


@dataclass
class RejoinReport:
    """Accounting of one node rejoin after a crash failure.

    ``restored_fragments`` were restored from a coordinator-held checkpoint;
    ``fragments_without_checkpoint`` restarted empty (disjoint sets, both
    re-placed on the rejoining node).  ``lost_tuples`` / ``lost_sic``
    quantify the state the crash destroyed: the difference between what the
    fragments held at crash time — window state plus the input-buffer
    batches that died with the node — and what the checkpoints restored
    (everything, for fragments without one).
    """

    node_id: str
    restored_fragments: List[str] = field(default_factory=list)
    skipped_fragments: List[str] = field(default_factory=list)
    fragments_without_checkpoint: List[str] = field(default_factory=list)
    lost_tuples: int = 0
    lost_sic: float = 0.0


class FederatedSystem:
    """A multi-site federated stream processing deployment."""

    def __init__(
        self,
        stw_config: Optional[StwConfig] = None,
        shedding_interval: float = 0.25,
        network: Optional[Network] = None,
        coordinator_update_interval: Optional[float] = None,
        enable_sic_updates: bool = True,
        columnar: bool = True,
        retain_results: bool = False,
        max_retained_results: Optional[int] = None,
    ) -> None:
        if shedding_interval <= 0:
            raise ValueError(
                f"shedding_interval must be positive, got {shedding_interval}"
            )
        self.stw_config = stw_config or StwConfig(slide_seconds=shedding_interval)
        self.shedding_interval = float(shedding_interval)
        self.network = network or Network(UniformLatency())
        self.enable_sic_updates = enable_sic_updates
        # Columnar fast path: sources emit column blocks that flow through
        # SIC assignment, shedding and windowing without materializing Tuple
        # objects.  Result-identical to the per-tuple path for equal seeds;
        # disable to time (or differentially test against) the tuple path.
        self.columnar = columnar
        update_interval = coordinator_update_interval or shedding_interval
        self.coordinators = CoordinatorRegistry(
            self.stw_config,
            update_interval=update_interval,
            retain_results=retain_results,
            max_retained_results=max_retained_results,
        )
        self.nodes: Dict[str, FspsNode] = {}
        self.queries: Dict[str, DeployedQuery] = {}
        # fragment id -> node id
        self.placement: Dict[str, str] = {}
        # node id -> {fragment id -> lost-fragment record} of crash-failed
        # nodes: the query id plus the input-buffer tuples/SIC the crash
        # destroyed with the node, kept so a rejoining node knows which
        # fragments to restore and what the crash cost.
        self._lost_placement: Dict[str, Dict[str, Dict[str, object]]] = {}
        # Data batches delivered to a node that no longer hosts their target
        # fragment and forwarded to its current host (the migration pointer
        # the old host leaves behind).
        self.forwarded_batches = 0
        # Messages the dispatcher dropped because their component departed
        # (failed node, undeployed query, stale incarnation).  Closes the
        # exactly-once ledger: a transport-delivered message either reached
        # a component handler or is counted here.
        self.dispatch_dropped = 0
        # Heartbeat sink (see repro.runtime.heartbeat.FailureDetector);
        # heartbeats are dropped when no detector is attached.
        self.failure_detector = None
        # Exactly-once result accounting (tuple-level closure terms; see
        # :meth:`result_accounting_report`).  Every result tuple that reaches
        # dispatch is counted in ``result_tuples_arrived`` and ends up in
        # exactly one of: a live coordinator's recorded/deduplicated
        # counters, ``dropped_result_tuples`` (departed component),
        # ``result_tuples_lost_to_crash`` (coordinator failover rollback) or
        # ``result_tuples_retired`` (query undeployed) — so the identity
        # closes at *any* instant, not only after a drain.
        self.result_tuples_arrived = 0
        self.dropped_result_tuples = 0
        self.result_tuples_lost_to_crash = 0
        self.result_tuples_retired = 0
        # (query_id, fragment_id, epoch) -> final emitted seq of a watermark
        # epoch closed by a blank restart; the report folds the undelivered
        # tail into lost_to_crash without perturbing live dedup lanes.
        self._epoch_tails: Dict[tuple, int] = {}
        self.now = 0.0
        self.ticks = 0

    # ------------------------------------------------------------------ set-up
    def add_node(self, node: FspsNode) -> FspsNode:
        """Register a node (valid before the run and mid-run)."""
        if node.node_id in self.nodes:
            raise ValueError(f"node {node.node_id!r} already exists")
        node.set_coordinator_updates(self.enable_sic_updates)
        self.nodes[node.node_id] = node
        return node

    def node_ids(self) -> List[str]:
        return list(self.nodes)

    def deploy_query(
        self,
        query_id: str,
        fragments: Mapping[str, QueryFragment],
        sources: Sequence[object],
        placement: Mapping[str, str],
        nominal_rates: Optional[Dict[str, float]] = None,
    ) -> DeployedQuery:
        """Deploy a fragmented query (valid before the run and mid-run).

        Args:
            query_id: the query identifier.
            fragments: fragment id → fragment.
            sources: source objects feeding the query (see
                :class:`DeployedQuery` for the expected protocol).
            placement: fragment id → node id; every fragment must be placed on
                an existing node.
            nominal_rates: optional source id → tuples/second seed for the SIC
                assigner's rate estimator.
        """
        if query_id in self.queries:
            raise ValueError(f"query {query_id!r} already deployed")
        if not fragments:
            raise ValueError("a query needs at least one fragment")
        if not sources:
            raise ValueError("a query needs at least one source")

        rates = dict(nominal_rates or {})
        for source in sources:
            rate = getattr(source, "rate", None)
            source_id = getattr(source, "source_id")
            if rate and source_id not in rates:
                rates[source_id] = float(rate)

        assigner = SicAssigner(
            query_id=query_id,
            num_sources=len(sources),
            stw_seconds=self.stw_config.stw_seconds,
            nominal_rates=rates,
        )

        source_fragment: Dict[str, str] = {}
        for fragment_id, fragment in fragments.items():
            for source_id in fragment.source_bindings:
                source_fragment[source_id] = fragment_id

        deployed = DeployedQuery(
            query_id=query_id,
            fragments=dict(fragments),
            sources=list(sources),
            sic_assigner=assigner,
            source_fragment=source_fragment,
            deployed_at=self.now,
        )

        coordinator = self.coordinators.coordinator(query_id)
        for fragment_id, fragment in fragments.items():
            node_id = placement.get(fragment_id)
            if node_id is None:
                raise ValueError(f"fragment {fragment_id!r} has no placement")
            node = self.nodes.get(node_id)
            if node is None:
                raise ValueError(f"placement targets unknown node {node_id!r}")
            node.host_fragment(fragment)
            self.placement[fragment_id] = node_id
            coordinator.register_hosting_node(node_id)

        # Precompute source -> (fragment, node) routing so the per-round
        # generation loop touches no placement dicts or getattr chains.
        # Sources without a fragment binding stay in the plan with a None
        # route: they still generate (advancing their RNG/carry state) and
        # feed the rate estimator, exactly like the unrouted tuple path.
        for source in deployed.sources:
            source_id = getattr(source, "source_id")
            fragment_id = source_fragment.get(source_id)
            node_id = self.placement.get(fragment_id) if fragment_id else None
            deployed.source_plan.append(
                SourceRoute(
                    source_id=source_id,
                    fragment_id=fragment_id,
                    node_id=node_id,
                    generate=source.generate,
                    generate_block=getattr(source, "generate_block", None),
                    generate_fused=getattr(source, "generate_block_fused", None),
                )
            )

        self.queries[query_id] = deployed
        return deployed

    def query_ids(self) -> List[str]:
        return list(self.queries)

    # --------------------------------------------------------------- lifecycle
    def undeploy_query(self, query_id: str) -> QueryCoordinator:
        """Remove a query mid-run: unhost fragments, tear down its coordinator.

        Source generation for the query stops (its source plan leaves with
        it); result or data batches still in flight are dropped on delivery.
        Returns the torn-down coordinator so callers can keep its result-SIC
        history for reporting.
        """
        query = self.queries.pop(query_id, None)
        if query is None:
            raise ValueError(f"query {query_id!r} is not deployed")
        for fragment_id in query.fragments:
            node_id = self.placement.pop(fragment_id, None)
            node = self.nodes.get(node_id) if node_id else None
            if node is not None and fragment_id in node.fragments:
                node.unhost_fragment(fragment_id)
        # A crash-failed node awaiting rejoin must not restore fragments of
        # a query that was undeployed in the meantime; node ids left with
        # nothing to restore become plain fresh ids again.
        for node_id in list(self._lost_placement):
            lost = self._lost_placement[node_id]
            for fragment_id in [
                fid
                for fid, record in lost.items()
                if record["query_id"] == query_id
            ]:
                del lost[fragment_id]
            if not lost:
                del self._lost_placement[node_id]
        coordinator = self.coordinators.get(query_id)
        if coordinator is not None:
            # The coordinator's counters leave the live sum with it; keep
            # the tuple-closure identity balanced by retiring them.
            self.result_tuples_retired += coordinator.accounted_tuples()
        self._epoch_tails = {
            key: seq for key, seq in self._epoch_tails.items()
            if key[0] != query_id
        }
        return self.coordinators.remove(query_id)

    def migrate_fragment(
        self, fragment_id: str, target_node_id: str
    ) -> MigrationReport:
        """Live-migrate a fragment: drain → checkpoint → reroute → resume.

        1. **drain + checkpoint** — the source node captures the fragment's
           operator-window state *and* the input-buffer batches waiting for
           it into a :class:`~repro.state.FragmentCheckpoint`, and the
           fragment leaves the node (``checkpoint_fragment(detach=True)``).
        2. **reroute** — the placement table and the query's source plan are
           repointed at the target, so every batch sent from this instant on
           travels to the new host.  Batches already in flight towards the
           old host are *replayed on the target* by the dispatcher: delivery
           events keep their original ``(time, priority, seq)`` order and
           :meth:`dispatch` forwards them along the placement table, so no
           tuple is lost or reordered.
        3. **resume** — the target adopts the fragment, rebuilding its state
           exclusively from the envelope's serialised form (no live
           structure is shared with the old host) and replaying the drained
           buffer batches.

        The whole protocol runs atomically at one simulation instant, which
        is what makes a seeded run with a graceful migration result-identical
        to the same run without it (``tests/integration/test_migration.py``).
        """
        source_id = self.placement.get(fragment_id)
        if source_id is None:
            raise ValueError(f"fragment {fragment_id!r} is not placed")
        if target_node_id == source_id:
            raise ValueError(
                f"fragment {fragment_id!r} is already on {target_node_id!r}"
            )
        if target_node_id not in self.nodes:
            raise ValueError(f"target node {target_node_id!r} does not exist")
        source = self.nodes[source_id]
        fragment = source.fragments.get(fragment_id)
        if fragment is None:
            raise ValueError(
                f"fragment {fragment_id!r} is not hosted on {source_id!r}"
            )
        if fragment.query_id not in self.queries:
            raise ValueError(
                f"fragment {fragment_id!r} belongs to undeployed query "
                f"{fragment.query_id!r}"
            )
        # 1. drain + checkpoint: state and buffered batches leave the source.
        checkpoint = source.checkpoint_fragment(
            fragment_id, now=self.now, detach=True
        )
        target = self.nodes[target_node_id]
        query = self.queries[fragment.query_id]
        # 2. reroute: new sends (sources and upstream fragments) target B;
        #    in-flight messages follow the placement table on delivery.
        self.placement[fragment_id] = target_node_id
        for route in query.source_plan:
            if route.fragment_id == fragment_id:
                route.node_id = target_node_id
        # 3. resume: adopt from the envelope and replay the drained buffer.
        replayed = target.adopt_fragment(fragment, checkpoint)
        coordinator = self.coordinators.get(query.query_id)
        if coordinator is not None:
            coordinator.register_hosting_node(target_node_id)
            if not any(
                f.query_id == query.query_id for f in source.fragments.values()
            ):
                coordinator.unregister_hosting_node(source_id)
        return MigrationReport(
            fragment_id=fragment_id,
            query_id=query.query_id,
            source_node=source_id,
            target_node=target_node_id,
            state_tuples=checkpoint.pending_tuples,
            state_sic=checkpoint.pending_sic,
            replayed_batches=replayed,
        )

    def remove_node(
        self,
        node_id: str,
        migrate_to: Optional[Sequence[str]] = None,
    ) -> FspsNode:
        """Gracefully decommission a node, migrating its fragments away.

        Hosted fragments are live-migrated (checkpoint/restore, in-flight
        replay — see :meth:`migrate_fragment`) to the nodes in
        ``migrate_to`` round-robin (default: every other node, in id order).
        Refuses only when fragments are hosted and no other node exists to
        take them.
        """
        node = self.nodes.get(node_id)
        if node is None:
            raise ValueError(f"node {node_id!r} does not exist")
        if node.fragments:
            targets = list(migrate_to) if migrate_to else sorted(
                other for other in self.nodes if other != node_id
            )
            targets = [t for t in targets if t != node_id]
            if not targets:
                raise ValueError(
                    f"node {node_id!r} still hosts fragments "
                    f"{sorted(node.fragments)} and no other node exists to "
                    f"migrate them to"
                )
            # Validate every target up front so the decommission is
            # all-or-nothing: a bad id mid-list must not leave the node
            # half-drained.
            unknown = [t for t in targets if t not in self.nodes]
            if unknown:
                raise ValueError(
                    f"cannot decommission {node_id!r}: migration targets "
                    f"{unknown} do not exist"
                )
            for index, fragment_id in enumerate(sorted(node.fragments)):
                self.migrate_fragment(
                    fragment_id, targets[index % len(targets)]
                )
        return self.nodes.pop(node_id)

    def fail_node(self, node_id: str) -> FspsNode:
        """Model an abrupt node failure.

        The node disappears with its buffered data and hosted fragments;
        in-flight messages towards it are blackholed on delivery.  Sources
        feeding the lost fragments are unrouted — they keep generating (and
        keep feeding their query's rate estimator) but the data is lost, so
        the affected queries' result SIC degrades instead of the simulation
        erroring out.  Coordinators forget the node.

        What was hosted where is remembered, so the node id can later
        :meth:`rejoin_node` and restore its fragments from the last
        coordinator-held checkpoints.
        """
        node = self.nodes.pop(node_id, None)
        if node is None:
            raise ValueError(f"node {node_id!r} does not exist")
        # Record, per lost fragment, the input-buffer tuples/SIC destroyed
        # with the node: rejoin's loss accounting needs the crash-time total
        # (window + buffer) to compare like for like against the checkpoint
        # totals, and the buffer dies with this node object.
        lost: Dict[str, Dict[str, object]] = {}
        for fragment_id, fragment in node.fragments.items():
            buffered = node._buffered_for(fragment)
            lost[fragment_id] = {
                "query_id": fragment.query_id,
                "buffered_tuples": sum(len(b) for b in buffered),
                "buffered_sic": sum(b.sic for b in buffered),
            }
        for fragment_id in lost:
            self.placement.pop(fragment_id, None)
        if lost:
            self._lost_placement[node_id] = lost
        for query in self.queries.values():
            for route in query.source_plan:
                if route.node_id == node_id:
                    route.node_id = None
        for coordinator in self.coordinators.all():
            coordinator.unregister_hosting_node(node_id)
        return node

    def awaiting_rejoin(self, node_id: str) -> bool:
        """True if ``node_id`` crash-failed with hosted fragments to restore.

        Recovery managers use this to pick between :meth:`rejoin_node`
        (restore from checkpoints) and plain :meth:`add_node` — a failed
        node that hosted nothing has no lost placement to rejoin, and
        ``rejoin_node`` rejects it.
        """
        return node_id in self._lost_placement

    def rejoin_node(self, node: FspsNode) -> RejoinReport:
        """Rejoin a crash-failed node id with a fresh node instance.

        The fragments the failed node hosted are re-placed on the rejoining
        node and their state is restored from the **last coordinator-held
        checkpoint** (:meth:`checkpoint_node` / the runtime's periodic
        checkpoint rounds).  Fragments without a checkpoint restart empty —
        the crash destroyed their state.  Recovery is *at-least-once*: pane
        output emitted between the last checkpoint and the crash is re-emitted
        after the rejoin, so the result SIC can transiently overshoot by up
        to one checkpoint interval's worth of results.

        The returned :class:`RejoinReport` carries the explicit loss
        accounting: buffered tuples/SIC held at crash time that no checkpoint
        preserved.
        """
        lost = self._lost_placement.pop(node.node_id, None)
        if lost is None:
            raise ValueError(
                f"node {node.node_id!r} is not a failed node awaiting rejoin"
            )
        self.add_node(node)
        report = RejoinReport(node_id=node.node_id)
        for fragment_id in sorted(lost):
            record = lost[fragment_id]
            query = self.queries.get(record["query_id"])
            if query is None or fragment_id not in query.fragments:
                report.skipped_fragments.append(fragment_id)
                continue
            fragment = query.fragments[fragment_id]
            # Crash-time state = the fragment's window state (the object was
            # untouched while the node was down) plus the input-buffer
            # batches that died with the crashed node (recorded at failure
            # time) — the same window+buffer accounting the checkpoint's
            # pending totals use, so the subtraction is like for like.
            crash_tuples = (
                fragment.pending_tuples() + record["buffered_tuples"]
            )
            crash_sic = fragment.pending_sic() + record["buffered_sic"]
            checkpoint = self.coordinators.checkpoint_for(fragment_id)
            if checkpoint is not None:
                node.adopt_fragment(fragment, checkpoint)
                report.lost_tuples += max(
                    0, crash_tuples - checkpoint.pending_tuples
                )
                report.lost_sic += max(
                    0.0, crash_sic - checkpoint.pending_sic
                )
                report.restored_fragments.append(fragment_id)
                # The envelope is consumed: its state is live again, so the
                # held copy is stale from this instant (the next checkpoint
                # round stores a fresh one).  Dropping it keeps the store
                # bounded by the number of *currently checkpointed*
                # fragments instead of accumulating superseded snapshots.
                self.coordinators.discard_checkpoint(fragment_id)
            else:
                if fragment.is_root:
                    # Close the watermark epoch the blank restart abandons:
                    # emissions past the coordinator's acknowledged seq can
                    # only be in flight or crash-lost, and the report folds
                    # the residual into lost_to_crash once the run drains.
                    epoch, seq = fragment.output_watermark
                    if seq > 0:
                        self._epoch_tails[
                            (query.query_id, fragment.fragment_id, epoch)
                        ] = seq
                fragment.reset_state()
                node.host_fragment(fragment)
                report.fragments_without_checkpoint.append(fragment_id)
                report.lost_tuples += crash_tuples
                report.lost_sic += crash_sic
            self.placement[fragment_id] = node.node_id
            for route in query.source_plan:
                if route.fragment_id == fragment_id:
                    route.node_id = node.node_id
            coordinator = self.coordinators.get(query.query_id)
            if coordinator is not None:
                coordinator.register_hosting_node(node.node_id)
        return report

    # ------------------------------------------------------------- checkpoints
    def checkpoint_node(self, node_id: str, now: Optional[float] = None) -> int:
        """Checkpoint every fragment hosted on ``node_id`` to the coordinators.

        Pure snapshot — the node is untouched.  Returns the number of
        envelopes stored.
        """
        node = self.nodes.get(node_id)
        if node is None:
            raise ValueError(f"node {node_id!r} does not exist")
        stamp = self.now if now is None else now
        stored = 0
        for fragment_id in sorted(node.fragments):
            self.coordinators.store_checkpoint(
                node.checkpoint_fragment(fragment_id, now=stamp)
            )
            stored += 1
        return stored

    def checkpoint_all(self, now: Optional[float] = None) -> int:
        """One federation-wide checkpoint round: every node, every coordinator.

        Fragment envelopes land in the coordinator-held store (node rejoin
        restores from them); each live coordinator's standby state is
        refreshed (coordinator failover promotes from it).
        """
        stamp = self.now if now is None else now
        stored = 0
        for node_id in sorted(self.nodes):
            stored += self.checkpoint_node(node_id, now=stamp)
        for query_id in self.coordinators.query_ids():
            self.coordinators.checkpoint_coordinator(query_id, stamp)
        return stored

    def fail_coordinator(self, query_id: str) -> QueryCoordinator:
        """Crash-fail a query's coordinator and promote a standby.

        The standby restores from the last checkpointed coordinator state
        (:meth:`checkpoint_all`) — or starts blank — and its hosting-node set
        is rebuilt from the authoritative placement table, so ``updateSIC``
        dissemination resumes towards the nodes that *currently* host the
        query's fragments.  The failed coordinator is returned for loss
        accounting (e.g. result tuples recorded since the last checkpoint).
        """
        query = self.queries.get(query_id)
        if query is None:
            raise ValueError(f"query {query_id!r} is not deployed")
        failed, promoted = self.coordinators.fail_over(query_id)
        # Result tuples the failed coordinator accounted beyond the promoted
        # standby's restored state died with it — the ledger books them as
        # crash loss so the tuple-closure identity keeps holding against the
        # rolled-back live counters.
        self.result_tuples_lost_to_crash += max(
            0, failed.accounted_tuples() - promoted.accounted_tuples()
        )
        promoted.hosting_nodes = {
            self.placement[fragment_id]
            for fragment_id in query.fragments
            if fragment_id in self.placement
        }
        return failed

    # --------------------------------------------------------------- main loop
    def tick(self, timer: Optional[Callable[[], float]] = None) -> None:
        """Advance the federation one shedding interval, in lockstep.

        This is the reproduction's original execution model — every
        component's handler runs once per tick in a fixed phase order — and
        the equivalence oracle for the discrete-event runtime
        (:mod:`repro.runtime`), which drives the same handlers from a heap of
        independently scheduled events.
        """
        start = self.now
        self.now = start + self.shedding_interval
        self.ticks += 1

        for query in self.queries.values():
            self.generate_query_sources(query, start, self.now)
        self.deliver_messages(self.now)
        for node in self.nodes.values():
            self.run_node_round(node, self.now, timer=timer)
        coordinators = self.coordinators.all()
        sics = [
            self.run_coordinator_round(coordinator, self.now)
            for coordinator in coordinators
        ]
        # Record a snapshot of every query's result SIC for the run summary.
        for coordinator, sic in zip(coordinators, sics):
            coordinator.snapshot(self.now, sic)

    def run(
        self,
        duration_seconds: float,
        timer: Optional[Callable[[], float]] = None,
    ) -> None:
        """Run the lockstep loop for ``duration_seconds`` of simulated time."""
        if duration_seconds <= 0:
            raise ValueError(f"duration must be positive, got {duration_seconds}")
        ticks = int(round(duration_seconds / self.shedding_interval))
        for _ in range(max(1, ticks)):
            self.tick(timer=timer)

    # ----------------------------------------------------------------- results
    def mean_sic_per_query(self, skip_initial: int = 0) -> Dict[str, float]:
        return self.coordinators.mean_sic_per_query(skip_initial=skip_initial)

    def current_sic_per_query(self) -> Dict[str, float]:
        return self.coordinators.current_sic_values(self.now)

    def fairness_summary(self, skip_initial: int = 0) -> FairnessSummary:
        return summarize_fairness(self.mean_sic_per_query(skip_initial=skip_initial))

    def total_shed_tuples(self) -> int:
        return sum(node.stats.shed_tuples for node in self.nodes.values())

    def total_received_tuples(self) -> int:
        return sum(node.stats.received_tuples for node in self.nodes.values())

    def total_paced_tuples(self) -> int:
        """Tuples held back at the sources by ingress backpressure."""
        return sum(node.stats.paced_tuples for node in self.nodes.values())

    def epoch_tail_count(self) -> int:
        """Closed-epoch tail records currently held (memwatch probe)."""
        return len(self._epoch_tails)

    def result_accounting_report(self) -> Dict[str, object]:
        """Close the exactly-once result ledger across the whole federation.

        Tuple-level identity (holds at any instant)::

            arrived == recorded + deduped + dropped + lost_to_crash + retired

        plus the batch-level watermark algebra per dedup lane.  The
        ``unaccounted_tuples`` entry is the identity residual and must be
        zero; ``watermark_residual_batches`` counts current-epoch emissions
        not yet acknowledged (in flight during a run, crash-lost or
        transport-expired after a drain).
        """
        recorded = 0
        deduped = 0
        lost_gap_batches = 0
        lane_problems: List[str] = []
        for coordinator in self.coordinators.all():
            recorded += coordinator.result_tuples
            ledger = coordinator.ledger
            deduped += ledger.deduped_tuples
            lost_gap_batches += ledger.lost_batches
            lane_problems.extend(ledger.check_closure())
        # Tail residuals: emissions of epochs closed by a blank restart that
        # never reached (and can no longer reach) the coordinator...
        tail_batches = 0
        for (query_id, fragment_id, epoch), seq in self._epoch_tails.items():
            coordinator = self.coordinators.get(query_id)
            acked = (
                coordinator.ledger.acked(fragment_id, epoch)
                if coordinator is not None
                else 0
            )
            tail_batches += max(0, seq - acked)
        # ...and of the epochs still live on root fragments (in flight while
        # running; zero after a loss-free drain).
        residual = 0
        for query in self.queries.values():
            coordinator = self.coordinators.get(query.query_id)
            if coordinator is None:
                continue
            for fragment in query.fragments.values():
                if not fragment.is_root:
                    continue
                epoch, seq = fragment.output_watermark
                residual += max(
                    0, seq - coordinator.ledger.acked(fragment.fragment_id, epoch)
                )
        arrived = self.result_tuples_arrived
        unaccounted = (
            arrived
            - recorded
            - deduped
            - self.dropped_result_tuples
            - self.result_tuples_lost_to_crash
            - self.result_tuples_retired
        )
        return {
            "arrived_tuples": arrived,
            "recorded_tuples": recorded,
            "deduped_tuples": deduped,
            "dropped_tuples": self.dropped_result_tuples,
            "lost_to_crash_tuples": self.result_tuples_lost_to_crash,
            "retired_tuples": self.result_tuples_retired,
            "unaccounted_tuples": unaccounted,
            "lost_to_crash_batches": lost_gap_batches + tail_batches,
            "watermark_residual_batches": residual,
            "lane_problems": lane_problems,
        }

    # ---------------------------------------------------------- event handlers
    def generate_query_sources(
        self, query: DeployedQuery, start: float, end: float
    ) -> None:
        """One source-generation round for ``query`` over ``(start, end]``."""
        for route in query.source_plan:
            self.generate_source_route(query, route, start, end)

    def generate_source_route(
        self, query: DeployedQuery, route: SourceRoute, start: float, end: float
    ) -> None:
        """One generation round of a single source route over ``(start, end]``.

        The unit the sharded runtime schedules independently: each route's
        recurring source event lives on the shard of the node it feeds, which
        is safe because the rate estimator keeps per-source-id windows (routes
        never share estimator state) and every route feeding one node runs on
        that node's shard in ``(query rank, route index)`` order — the same
        relative order the single-heap runtime produces.
        """
        columnar = self.columnar
        # Fused source generation (generate → SIC assignment → pacing in one
        # columnar pass per source) rides the same predicate as fused
        # fragment execution, read through the module so one substitution
        # yields the staged pipeline end to end.  The emitted stream is
        # bit-identical either way.
        assigner = query.sic_assigner
        query_id = query.query_id
        generate_block = route.generate_block
        if columnar and generate_block is not None:
            if route.generate_fused is not None and fused.fused_execution_active():
                block = route.generate_fused(start, end)
            else:
                block = generate_block(start, end)
            if not block:
                return
            assigner.assign_block(block)
            if route.node_id is None:
                return
            batch = Batch.from_block(
                query_id,
                block,
                created_at=end,
                fragment_id=route.fragment_id,
                origin_fragment_id=None,
            )
        else:
            payload_tuples: List[Tuple] = route.generate(start, end)
            if not payload_tuples:
                return
            assigner.assign(payload_tuples)
            if route.node_id is None:
                return
            batch = Batch(
                query_id,
                payload_tuples,
                created_at=end,
                fragment_id=route.fragment_id,
                origin_fragment_id=None,
            )
        node = self.nodes.get(route.node_id)
        if node is not None and node.max_ingress_tuples is not None:
            # Overload backpressure: a bounded-ingress node pushes back
            # on its sources *before* memory grows.  Pacing happens
            # after SIC assignment, so the generator RNG and the rate
            # estimator advance exactly as in the unpaced run; tuples
            # beyond the node's current credit are held back at the
            # source and accounted as paced (source-side shedding — the
            # degradation ladder's first rung).
            credit = node.ingress_credit()
            size = len(batch)
            if credit <= 0:
                node.note_paced(size)
                return
            if size > credit:
                batch, excess = batch.split(credit)
                node.note_paced(len(excess))
            node.reserve_ingress(len(batch))
        message = DataMessage(
            destination=route.node_id,
            batch=batch,
            target_fragment_id=route.fragment_id,
        )
        self.network.send(message, sent_at=end, source=route.source_id)

    def deliver_messages(self, now: float) -> None:
        """Deliver and dispatch every message due at ``now``."""
        for message in self.network.deliver_due(now):
            self.dispatch(message, now)

    def drain_network(self, deadline: Optional[float] = None) -> float:
        """Pump the network to quiescence without advancing the federation.

        Sources, shedding rounds and coordinator rounds stay frozen; only
        in-flight deliveries (and the reliable channel's ack/retransmission
        machinery they trigger) are processed, in delivery order, until the
        queue is empty or the next delivery lies beyond ``deadline``.  This
        is how the exactly-once ledger is closed at the end of a run: after
        a drain every reliable message ever sent is delivered, a counted
        duplicate, or a counted expiry — nothing is silently in flight.
        Returns the time of the last processed delivery (at least ``now``).
        """
        now = self.now
        while True:
            next_time = self.network.next_delivery_time()
            if next_time is None:
                break
            if deadline is not None and next_time > deadline:
                break
            now = max(now, next_time)
            self.deliver_messages(now)
        return now

    def dispatch(self, message: Message, now: float) -> None:
        """Route one delivered message to its component handler.

        Messages towards departed components — a failed node, the coordinator
        of an undeployed query — are dropped, like packets to a dead host.
        So are messages from a *previous incarnation* of a query id: a batch
        created — or an ``updateSIC`` sent — at or before the current
        deployment's ``deployed_at`` was in flight when its query was
        undeployed and must not leak into a query redeployed under the same
        id (no live deployment can emit at its own deploy instant — its
        first round fires an interval later).

        Data batches whose target fragment has *moved* since the send (a
        live migration or a node rejoin re-placed it) are forwarded to the
        fragment's current host: the old host's forwarding pointer is the
        placement table, and because forwarding happens inside the delivery
        event, the replayed batches keep the deterministic
        ``(time, priority, seq)`` order of the original deliveries.
        """
        if isinstance(message, DataMessage):
            destination = message.destination
            target_fragment = message.target_fragment_id
            placed = (
                self.placement.get(target_fragment) if target_fragment else None
            )
            if placed is not None and placed != destination:
                destination = placed
                self.forwarded_batches += 1
            node = self.nodes.get(destination)
            if node is None:
                self.dispatch_dropped += 1
                return
            query = self.queries.get(message.batch.query_id)
            if query is None or message.batch.created_at <= query.deployed_at:
                self.dispatch_dropped += 1
                return
            node.on_batch(message.batch)
        elif isinstance(message, ResultMessage):
            batch = message.batch
            self.result_tuples_arrived += len(batch)
            query = self.queries.get(batch.query_id)
            if query is None or batch.created_at <= query.deployed_at:
                self.dispatch_dropped += 1
                self.dropped_result_tuples += len(batch)
                return
            coordinator = self.coordinators.get(batch.query_id)
            if coordinator is not None:
                coordinator.on_result(batch, now)
            else:
                self.dropped_result_tuples += len(batch)
        elif isinstance(message, SicUpdateMessage):
            node = self.nodes.get(message.destination)
            if node is None:
                self.dispatch_dropped += 1
                return
            query = self.queries.get(message.query_id)
            if query is None or message.sent_at <= query.deployed_at:
                self.dispatch_dropped += 1
                return
            node.on_sic_update(message.query_id, message.sic_value)
        elif isinstance(message, HeartbeatMessage):
            detector = self.failure_detector
            if detector is None:
                self.dispatch_dropped += 1
                return
            detector.on_heartbeat(message.node_id, now)

    def run_node_round(
        self,
        node: FspsNode,
        now: float,
        timer: Optional[Callable[[], float]] = None,
    ) -> NodeTickResult:
        """One shedding round on ``node``, forwarding its output batches."""
        result = node.on_shed_round(now, timer=timer)
        for batch in result.downstream:
            target_fragment = batch.fragment_id
            target_node = self.placement.get(target_fragment)
            if target_node is None:
                continue
            self.network.send(
                DataMessage(
                    destination=target_node,
                    batch=batch,
                    target_fragment_id=target_fragment,
                ),
                sent_at=now,
                source=node.node_id,
            )
        for batch in result.results:
            self.network.send(
                ResultMessage(destination=COORDINATOR_ENDPOINT, batch=batch),
                sent_at=now,
                source=node.node_id,
            )
        return result

    def run_coordinator_round(
        self, coordinator: QueryCoordinator, now: float
    ) -> float:
        """One ``updateSIC`` dissemination round for ``coordinator`` (if due).

        Returns the coordinator's result SIC at ``now``, read once: it is the
        value every update of the round carries, and — since sending changes
        no tracker — the value the round's history snapshot records.
        """
        sic = coordinator.current_sic(now)
        if not self.enable_sic_updates:
            return sic
        query_id = coordinator.query_id
        send = self.network.send
        for node_id in coordinator.update_targets(now):
            send(
                SicUpdateMessage(
                    destination=node_id,
                    query_id=query_id,
                    sic_value=sic,
                    sent_at=now,
                ),
                sent_at=now,
                source=COORDINATOR_ENDPOINT,
            )
        return sic
