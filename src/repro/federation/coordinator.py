"""Query coordinators (§6, "SIC maintenance").

Every query has a logically-centralised coordinator, instantiated when the
query is deployed.  The coordinator receives the query's result batches,
maintains the result SIC over the sliding STW and, at regular intervals
(matching the shedding interval in the paper's evaluation), disseminates the
current result SIC value to every node hosting one of the query's fragments —
the ``updateSIC`` step of Algorithm 1 that lets autonomous nodes converge to
globally fair shedding.

Coordinators are event-driven components: :meth:`QueryCoordinator.on_result`
handles an arriving result batch and :meth:`QueryCoordinator.update_targets`
opens one dissemination round.  The lockstep loop and the discrete-event
runtime (:mod:`repro.runtime`) both reach exactly these two handlers through
the same ``FederatedSystem`` handlers (``dispatch``,
``run_coordinator_round``), which is what keeps their executions
result-identical.  Coordinators are torn down when
their query is undeployed (:meth:`CoordinatorRegistry.remove`).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple as PyTuple

from ..core.stw import ResultSicTracker, StwConfig
from ..core.tuples import Batch
from ..state.checkpoint import CheckpointError, FragmentCheckpoint
from ..state.ledger import DEDUPLICATE, ResultLedger

__all__ = ["QueryCoordinator", "CoordinatorRegistry"]


class QueryCoordinator:
    """Coordinator of a single query.

    Args:
        query_id: the query this coordinator manages.
        stw_config: STW configuration for result-SIC accounting.
        update_interval: how often (seconds) SIC updates are disseminated.
        home_node: identifier of the endpoint where the coordinator runs; used
            as the network source of its update messages.
        retain_results: keep the payload of every result tuple.  Off by
            default — unbounded retention of result dicts leaks memory on long
            runs; the SIC-correlation experiments (fig06/fig07) opt in via
            ``SimulationConfig.retain_result_values``.
        max_retained_results: cap on retained result payloads per query; when
            the cap is reached the oldest payloads are discarded.  ``None``
            keeps every payload (the pre-bounding behaviour).

    Arriving result batches always run through the exactly-once
    :class:`~repro.state.ledger.ResultLedger`: crash replay below the
    acknowledged ``(fragment, epoch, seq)`` watermark is deduplicated before
    it reaches the tracker, and watermark gaps are accounted as lost to the
    crash.
    """

    def __init__(
        self,
        query_id: str,
        stw_config: StwConfig,
        update_interval: float = 0.25,
        home_node: str = "coordinator",
        retain_results: bool = False,
        max_retained_results: Optional[int] = None,
    ) -> None:
        if update_interval <= 0:
            raise ValueError(f"update_interval must be positive, got {update_interval}")
        if max_retained_results is not None and max_retained_results <= 0:
            raise ValueError(
                f"max_retained_results must be positive, got {max_retained_results}"
            )
        self.query_id = query_id
        self.update_interval = float(update_interval)
        self.home_node = home_node
        self.tracker = ResultSicTracker(query_id, stw_config)
        self.hosting_nodes: Set[str] = set()
        self.result_tuples = 0
        self.retain_results = retain_results
        self.result_values: Deque[Dict[str, object]] = deque(
            maxlen=max_retained_results
        )
        self.ledger = ResultLedger()
        self.updates_sent = 0
        self._last_update_time: Optional[float] = None

    def register_hosting_node(self, node_id: str) -> None:
        """Record that ``node_id`` hosts a fragment of this query."""
        self.hosting_nodes.add(node_id)

    def unregister_hosting_node(self, node_id: str) -> None:
        """Forget ``node_id`` (it stopped hosting fragments, or failed)."""
        self.hosting_nodes.discard(node_id)

    def on_result(self, batch: Batch, now: float) -> None:
        """Handle a result batch received from the query's root fragment."""
        if self.ledger.observe(
            batch.origin_fragment_id,
            batch.origin_epoch,
            batch.origin_seq,
            len(batch),
        ) == DEDUPLICATE:
            # Crash-replayed output: the original delivery already counted.
            return
        retain = self.retain_results
        for t in batch:
            self.tracker.record_result(t.timestamp, t.sic)
            self.result_tuples += 1
            if retain:
                # Result values are kept (with their logical timestamp) so the
                # SIC-correlation experiments can align degraded and perfect
                # runs.
                values = dict(t.values)
                values["_ts"] = t.timestamp
                self.result_values.append(values)

    # Seed-era name, kept as the compatibility surface.
    record_result = on_result

    def accounted_tuples(self) -> int:
        """Recorded plus deduplicated result tuples (the loss-audit total)."""
        return self.result_tuples + self.ledger.deduped_tuples

    def current_sic(self, now: float) -> float:
        return self.tracker.current_sic(now)

    def snapshot(self, now: float, sic: Optional[float] = None) -> float:
        """Record the result SIC at ``now`` in the history (see
        :meth:`ResultSicTracker.snapshot` for ``sic``)."""
        return self.tracker.snapshot(now, sic)

    def due_for_update(self, now: float) -> bool:
        """Whether an ``updateSIC`` dissemination round is due at ``now``."""
        if self._last_update_time is None:
            return True
        return now - self._last_update_time >= self.update_interval - 1e-9

    def update_targets(self, now: float) -> List[str]:
        """Open a dissemination round if one is due at ``now``.

        Returns the hosting nodes to send ``updateSIC`` to, in sorted order
        (empty when no round is due), and counts them as sent.  The caller
        (``FederatedSystem.run_coordinator_round``) wraps the current result
        SIC into one network message per node, so the coordinator itself
        stays transport-agnostic.
        """
        if not self.due_for_update(now):
            return []
        self._last_update_time = now
        targets = sorted(self.hosting_nodes)
        self.updates_sent += len(targets)
        return targets

    # ------------------------------------------------------ checkpoint/restore
    def snapshot_state(self, now: float = 0.0) -> Dict[str, object]:
        """Serialise the coordinator's state for failover.

        Captures the result-SIC tracker (events, history), the hosting-node
        set, the dissemination cadence anchor and the counters.  Retained
        result payloads (``result_values``) are deliberately *not* part of
        the failover state: they are an experiment-reporting convenience,
        not operational state a standby needs.
        """
        return {
            "query_id": self.query_id,
            "update_interval": self.update_interval,
            "created_at": now,
            "hosting_nodes": sorted(self.hosting_nodes),
            "result_tuples": self.result_tuples,
            "updates_sent": self.updates_sent,
            "last_update_time": self._last_update_time,
            "tracker": self.tracker.snapshot_state(),
            "ledger": self.ledger.snapshot_state(),
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Rebuild the coordinator from :meth:`snapshot_state` output."""
        if state["query_id"] != self.query_id:
            raise CheckpointError(
                f"coordinator checkpoint for query {state['query_id']!r} does "
                f"not match {self.query_id!r}"
            )
        if state["update_interval"] != self.update_interval:
            raise CheckpointError(
                f"coordinator checkpoint update_interval "
                f"{state['update_interval']} does not match "
                f"{self.update_interval}"
            )
        self.hosting_nodes = set(state["hosting_nodes"])
        self.result_tuples = state["result_tuples"]
        self.updates_sent = state["updates_sent"]
        self._last_update_time = state["last_update_time"]
        self.tracker.restore_state(state["tracker"])
        # Rolls back in sympathy with the tracker: arrivals the failed
        # coordinator saw after this snapshot re-deliver (or surface as lost)
        # against the restored watermarks.
        self.ledger.restore_state(state["ledger"])


class CoordinatorRegistry:
    """All coordinators of a federated deployment."""

    def __init__(
        self,
        stw_config: StwConfig,
        update_interval: float = 0.25,
        retain_results: bool = False,
        max_retained_results: Optional[int] = None,
    ) -> None:
        self.stw_config = stw_config
        self.update_interval = update_interval
        self.retain_results = retain_results
        self.max_retained_results = max_retained_results
        self._coordinators: Dict[str, QueryCoordinator] = {}
        # Coordinator-layer durable stores: the latest fragment checkpoints
        # (fragment id -> envelope; node rejoin restores from these) and the
        # standby coordinator states (query id -> snapshot; failover promotes
        # from these).  Held at the registry so they survive the failure of
        # an individual coordinator.  Envelopes reference the fragments'
        # frozen column arrays rather than copying them, so the store costs
        # metadata, not rows (see repro.state.checkpoint).  The standby
        # store holds at most one snapshot per live query.
        self._fragment_checkpoints: Dict[str, FragmentCheckpoint] = {}
        self._standby_states: Dict[str, Dict[str, object]] = {}

    def coordinator(self, query_id: str) -> QueryCoordinator:
        if query_id not in self._coordinators:
            self._coordinators[query_id] = QueryCoordinator(
                query_id,
                self.stw_config,
                update_interval=self.update_interval,
                retain_results=self.retain_results,
                max_retained_results=self.max_retained_results,
            )
        return self._coordinators[query_id]

    def get(self, query_id: str) -> Optional[QueryCoordinator]:
        """The coordinator for ``query_id``, or ``None`` when torn down.

        Unlike :meth:`coordinator` this never creates one — the message
        dispatch path uses it so a result batch arriving after its query was
        undeployed does not resurrect the coordinator.
        """
        return self._coordinators.get(query_id)

    def remove(self, query_id: str) -> QueryCoordinator:
        """Tear down and return the coordinator of an undeployed query.

        The query's durable stores (fragment checkpoints, standby state) are
        purged with it — state of an undeployed query must not leak into a
        later deployment under the same id.
        """
        try:
            coordinator = self._coordinators.pop(query_id)
        except KeyError:
            raise KeyError(f"no coordinator for query {query_id!r}") from None
        self._standby_states.pop(query_id, None)
        for fragment_id in [
            fid
            for fid, cp in self._fragment_checkpoints.items()
            if cp.query_id == query_id
        ]:
            del self._fragment_checkpoints[fragment_id]
        return coordinator

    # ------------------------------------------------------- durable stores
    def store_checkpoint(self, checkpoint: FragmentCheckpoint) -> None:
        """Persist the latest checkpoint of a fragment (validated first)."""
        self._fragment_checkpoints[
            checkpoint.validate().fragment_id
        ] = checkpoint

    def checkpoint_for(self, fragment_id: str) -> Optional[FragmentCheckpoint]:
        """The last stored checkpoint of ``fragment_id``, or ``None``."""
        return self._fragment_checkpoints.get(fragment_id)

    def discard_checkpoint(self, fragment_id: str) -> bool:
        """Drop a consumed fragment checkpoint (e.g. after a successful
        rejoin restore).  The envelope is stale the moment its state is live
        again — the next checkpoint round records a fresh one — so keeping
        it only grows the store.  Returns whether an envelope was held."""
        return self._fragment_checkpoints.pop(fragment_id, None) is not None

    def checkpoint_store_size(self) -> int:
        """Number of fragment envelopes currently held (memwatch input)."""
        return len(self._fragment_checkpoints)

    def standby_store_size(self) -> int:
        """Number of standby coordinator snapshots held (memwatch input)."""
        return len(self._standby_states)

    def checkpoint_coordinator(self, query_id: str, now: float) -> None:
        """Refresh the standby state of a live coordinator."""
        coordinator = self._coordinators.get(query_id)
        if coordinator is None:
            raise KeyError(f"no coordinator for query {query_id!r}")
        self._standby_states[query_id] = coordinator.snapshot_state(now)

    def fail_over(
        self, query_id: str
    ) -> PyTuple[QueryCoordinator, QueryCoordinator]:
        """Crash-fail a coordinator and promote a standby in its place.

        The failed coordinator's live state (unpersisted result-SIC events,
        retained payloads) is lost; the standby restores from the last
        :meth:`checkpoint_coordinator` state, or starts blank when none was
        ever taken.  The standby snapshot stays stored after the promotion:
        a second failover before the next checkpoint round promotes the same
        checkpointed ledger again, so replays the first standby had already
        acknowledged are still deduplicated.  Returns ``(failed, promoted)``
        so callers can account the loss (e.g. ``failed.result_tuples -
        promoted.result_tuples``).
        """
        try:
            failed = self._coordinators.pop(query_id)
        except KeyError:
            raise KeyError(f"no coordinator for query {query_id!r}") from None
        promoted = QueryCoordinator(
            query_id,
            self.stw_config,
            update_interval=self.update_interval,
            retain_results=self.retain_results,
            max_retained_results=self.max_retained_results,
        )
        # The standby is kept, not consumed: restore_state copies out of it,
        # so the snapshot is still the last checkpointed state, and the
        # store stays bounded at one entry per live query.
        standby = self._standby_states.get(query_id)
        if standby is not None:
            promoted.restore_state(standby)
        self._coordinators[query_id] = promoted
        return failed, promoted

    def all(self) -> List[QueryCoordinator]:
        return list(self._coordinators.values())

    def query_ids(self) -> List[str]:
        return list(self._coordinators)

    def current_sic_values(self, now: float) -> Dict[str, float]:
        return {qid: c.current_sic(now) for qid, c in self._coordinators.items()}

    def mean_sic_per_query(self, skip_initial: int = 0) -> Dict[str, float]:
        return {
            qid: c.tracker.mean_sic(skip_initial=skip_initial)
            for qid, c in self._coordinators.items()
        }

    def __len__(self) -> int:
        return len(self._coordinators)

    def __contains__(self, query_id: str) -> bool:
        return query_id in self._coordinators
