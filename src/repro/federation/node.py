"""A THEMIS node (Figure 5 of the paper).

Each node hosts query fragments and owns the components of Figure 5: an input
buffer where incoming batches wait, an overload detector that compares the
buffer occupancy against the capacity estimated by the cost model, and a tuple
shedder that is invoked when the node is overloaded.  Kept batches are routed
to their fragments, which process them and emit derived batches for downstream
fragments or result batches for the query user.

Nodes are autonomous: the only global information they receive are the result
SIC values disseminated by the query coordinators (``updateSIC``).  When those
updates are disabled (the Figure 4 ablation) a node falls back to a purely
local estimate of each hosted query's result SIC.

Nodes are event-driven components with three handlers — :meth:`FspsNode.on_batch`
(a data batch arrives), :meth:`FspsNode.on_sic_update` (an ``updateSIC``
message arrives) and :meth:`FspsNode.on_shed_round` (one overload-detection /
shedding / processing round).  The lockstep ``FederatedSystem.tick()`` loop
and the discrete-event runtime (:mod:`repro.runtime`) drive exactly the same
handlers; under the event runtime each node additionally owns its cadence via
the optional ``shedding_interval`` attribute (heterogeneous per-node rounds).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple as PyTuple

from ..core.cost_model import CostModel, CostModelConfig
from ..core.shedding import Shedder
from ..core.stw import ResultSicTracker, StwConfig
from ..core.tuples import Batch
from ..state.checkpoint import (
    CheckpointError,
    FragmentCheckpoint,
    batch_from_state,
    batch_to_state,
)
from ..streaming.query import FragmentOutput, QueryFragment

__all__ = ["NodeStats", "NodeTickResult", "FspsNode"]


@dataclass
class NodeStats:
    """Cumulative per-node statistics over a run."""

    ticks: int = 0
    overloaded_ticks: int = 0
    received_tuples: int = 0
    kept_tuples: int = 0
    shed_tuples: int = 0
    processed_cost: float = 0.0
    shedder_invocations: int = 0
    shedder_time_seconds: float = 0.0
    # Overload-backpressure counters (bounded ingress only).  ``paced``
    # tuples were held back at the sources while the node was above its
    # high watermark (the graceful rung of the degradation ladder);
    # ``overflow`` tuples hit the hard cap itself — with sources pacing
    # correctly this stays zero, which the soak harness asserts.
    paced_tuples: int = 0
    ingress_overflow_tuples: int = 0
    backpressure_engagements: int = 0

    @property
    def shed_fraction(self) -> float:
        if self.received_tuples == 0:
            return 0.0
        return self.shed_tuples / self.received_tuples


@dataclass
class NodeTickResult:
    """Output of one node tick: batches to forward plus bookkeeping."""

    downstream: List[Batch] = field(default_factory=list)
    results: List[Batch] = field(default_factory=list)
    kept_tuples: int = 0
    shed_tuples: int = 0
    capacity: int = 0
    overloaded: bool = False


class FspsNode:
    """A single FSPS node hosting query fragments.

    Args:
        node_id: unique node identifier (also used as the network endpoint).
        shedder: the tuple shedder invoked under overload.
        budget_per_interval: processing budget (cost units) available per
            shedding interval; together with the cost model this yields the
            input-buffer threshold ``c``.
        stw_config: STW configuration used for the node's local result-SIC
            estimates.
        site: name of the administrative site the node belongs to.
        cost_model_config: optional cost-model tuning.
        shedding_interval: the node's preferred shedding-round cadence in
            seconds, honoured by the discrete-event runtime (``None`` means
            "use the federation default").  ``budget_per_interval`` is per
            *round*, so a node halving its interval should also halve its
            budget.  The lockstep loop ignores this attribute — it runs every
            node at the global interval by construction.
        max_ingress_tuples: bound on the input buffer (tuples).  ``None``
            (the default) keeps the pre-backpressure unbounded buffer.  When
            set, sources consult :meth:`ingress_credit` before sending and
            pace their generation against it; the cap itself is enforced in
            :meth:`on_batch` as the last line of defence (overflow is
            counted and dropped instead of growing memory).
        ingress_high_fraction / ingress_low_fraction: hysteresis watermarks
            as fractions of ``max_ingress_tuples`` — backpressure engages at
            the high watermark and releases once occupancy falls back to the
            low one, so sources do not flap every batch.
    """

    def __init__(
        self,
        node_id: str,
        shedder: Shedder,
        budget_per_interval: float,
        stw_config: Optional[StwConfig] = None,
        site: Optional[str] = None,
        cost_model_config: Optional[CostModelConfig] = None,
        shedding_interval: Optional[float] = None,
        max_ingress_tuples: Optional[int] = None,
        ingress_high_fraction: float = 0.8,
        ingress_low_fraction: float = 0.5,
    ) -> None:
        if budget_per_interval <= 0:
            raise ValueError(
                f"budget_per_interval must be positive, got {budget_per_interval}"
            )
        if shedding_interval is not None and shedding_interval <= 0:
            raise ValueError(
                f"shedding_interval must be positive, got {shedding_interval}"
            )
        if max_ingress_tuples is not None and max_ingress_tuples <= 0:
            raise ValueError(
                f"max_ingress_tuples must be positive, got {max_ingress_tuples}"
            )
        if not 0.0 < ingress_low_fraction <= ingress_high_fraction <= 1.0:
            raise ValueError(
                "ingress watermarks must satisfy 0 < low <= high <= 1, got "
                f"low={ingress_low_fraction}, high={ingress_high_fraction}"
            )
        self.node_id = node_id
        self.site = site or node_id
        self.shedder = shedder
        self.shedding_interval = shedding_interval
        self.budget_per_interval = float(budget_per_interval)
        self.stw_config = stw_config or StwConfig()
        self.cost_model = CostModel(cost_model_config)
        self.fragments: Dict[str, QueryFragment] = {}
        self.stats = NodeStats()
        self._input_buffer: List[Batch] = []
        # Tuple count of the input buffer, tracked incrementally so overload
        # detection never re-scans the buffer (`sum(len(b) for b in ...)`).
        self._input_buffer_tuples: int = 0
        # Result SIC per query as last reported by the query coordinators.
        self._reported_sic: Dict[str, float] = {}
        self._use_coordinator_updates = True
        # Purely local estimates, used when coordinator updates are disabled.
        self._local_trackers: Dict[str, ResultSicTracker] = {}
        # query id -> fallback fragment for batches without a (known)
        # fragment id; built lazily and invalidated when hosting changes, so
        # routing never rebuilds a candidate list per batch.
        self._query_fragment_cache: Dict[str, Optional[QueryFragment]] = {}
        # Sorted ids of the hosted queries, read every round by the SIC view;
        # built lazily and invalidated together with the cache above.
        self._hosted_queries: Optional[List[str]] = None
        # Bounded-ingress backpressure state (inactive when the cap is None).
        self.max_ingress_tuples = max_ingress_tuples
        if max_ingress_tuples is not None:
            self._ingress_high = max(
                1, int(max_ingress_tuples * ingress_high_fraction)
            )
            self._ingress_low = max(
                0, int(max_ingress_tuples * ingress_low_fraction)
            )
        else:
            self._ingress_high = self._ingress_low = 0
        self._backpressured = False
        # Tuples promised to in-flight sends (sources reserved credit for
        # them); counted as occupancy so several sources pacing within the
        # same round cannot jointly overshoot the cap.
        self._ingress_reserved = 0

    # ------------------------------------------------------------------ wiring
    def host_fragment(self, fragment: QueryFragment) -> None:
        """Deploy ``fragment`` on this node."""
        if fragment.fragment_id in self.fragments:
            raise ValueError(
                f"fragment {fragment.fragment_id} already hosted on {self.node_id}"
            )
        self.fragments[fragment.fragment_id] = fragment
        self._hosting_changed()
        self._local_trackers.setdefault(
            fragment.query_id, ResultSicTracker(fragment.query_id, self.stw_config)
        )

    def unhost_fragment(self, fragment_id: str) -> QueryFragment:
        """Remove a hosted fragment (query undeploy / node decommission).

        The fragment's buffered window state leaves with it.  When the last
        fragment of a query departs, the node also drops its local SIC
        tracker and the coordinator-reported SIC for that query, so the
        shedder no longer balances a query the node does not host.
        """
        try:
            fragment = self.fragments.pop(fragment_id)
        except KeyError:
            raise ValueError(
                f"fragment {fragment_id!r} is not hosted on {self.node_id}"
            ) from None
        self._hosting_changed()
        query_id = fragment.query_id
        if not any(f.query_id == query_id for f in self.fragments.values()):
            self._local_trackers.pop(query_id, None)
            self._reported_sic.pop(query_id, None)
        return fragment

    def _hosting_changed(self) -> None:
        self._query_fragment_cache.clear()
        self._hosted_queries = None

    def hosted_queries(self) -> List[str]:
        """Identifiers of queries with at least one fragment on this node."""
        if self._hosted_queries is None:
            self._hosted_queries = sorted(
                {f.query_id for f in self.fragments.values()}
            )
        return list(self._hosted_queries)

    # ------------------------------------------------------ checkpoint/restore
    def _buffered_for(self, fragment: QueryFragment) -> List[Batch]:
        """Input-buffer batches that would be routed to ``fragment``."""
        fragment_id = fragment.fragment_id
        query_id = fragment.query_id
        return [
            b
            for b in self._input_buffer
            if b.fragment_id == fragment_id
            or (b.fragment_id is None and b.query_id == query_id)
        ]

    def checkpoint_fragment(
        self, fragment_id: str, now: float = 0.0, detach: bool = False
    ) -> FragmentCheckpoint:
        """Capture a hosted fragment's full state into a checkpoint envelope.

        The envelope carries the fragment's operator-window state, the
        input-buffer batches waiting for the fragment (delivered but not yet
        processed), and the node-side per-query context that should travel
        with the fragment (coordinator-reported SIC, local SIC tracker).

        Args:
            fragment_id: the hosted fragment to checkpoint.
            now: simulation time stamped on the envelope.
            detach: when true, the checkpointed state *leaves* this node —
                the buffered batches are drained from the input buffer and
                the fragment is unhosted (the migration path).  When false
                the node is untouched (the periodic-checkpoint path) — its
                column arrays are referenced by the envelope and marked
                read-only, which changes no value.
        """
        fragment = self.fragments.get(fragment_id)
        if fragment is None:
            raise ValueError(
                f"fragment {fragment_id!r} is not hosted on {self.node_id}"
            )
        buffered = self._buffered_for(fragment)
        query_id = fragment.query_id
        host_context: Dict[str, object] = {}
        if query_id in self._reported_sic:
            host_context["reported_sic"] = self._reported_sic[query_id]
        tracker = self._local_trackers.get(query_id)
        if tracker is not None:
            host_context["local_tracker"] = tracker.snapshot_state()
        checkpoint = FragmentCheckpoint(
            fragment_id=fragment_id,
            query_id=query_id,
            created_at=now,
            fragment_state=fragment.snapshot(),
            buffered_batches=[batch_to_state(b) for b in buffered],
            host_context=host_context,
            pending_tuples=fragment.pending_tuples()
            + sum(len(b) for b in buffered),
            pending_sic=fragment.pending_sic() + sum(b.sic for b in buffered),
        )
        if detach:
            if buffered:
                drained = set(id(b) for b in buffered)
                self._input_buffer = [
                    b for b in self._input_buffer if id(b) not in drained
                ]
                self._input_buffer_tuples -= sum(len(b) for b in buffered)
            self.unhost_fragment(fragment_id)
        return checkpoint

    def adopt_fragment(
        self, fragment: QueryFragment, checkpoint: FragmentCheckpoint
    ) -> int:
        """Host ``fragment`` and restore its state from ``checkpoint``.

        The fragment's operator state is rebuilt entirely from the envelope's
        serialised form — its column arrays are shared read-only with the
        envelope (and so with the previous host), everything mutable is
        fresh — the host context is applied, and the checkpointed
        input-buffer batches are replayed into this node's buffer in their
        original order.
        Replayed batches do **not** count as newly received — the federation
        already counted them on first delivery.

        The host context (reported SIC, local tracker) is applied only when
        this node does not already host another fragment of the same query:
        an established host's own view of the query is at least as fresh as
        the envelope's, and its local tracker history must not be clobbered
        by the departing host's.

        Returns the number of replayed batches.
        """
        checkpoint.validate()
        if checkpoint.fragment_id != fragment.fragment_id:
            raise CheckpointError(
                f"checkpoint for fragment {checkpoint.fragment_id!r} does not "
                f"match {fragment.fragment_id!r}"
            )
        query_id = fragment.query_id
        query_already_hosted = any(
            f.query_id == query_id for f in self.fragments.values()
        )
        self.host_fragment(fragment)
        fragment.restore(checkpoint.fragment_state)
        context = checkpoint.host_context
        if not query_already_hosted:
            if "reported_sic" in context:
                self._reported_sic[query_id] = context["reported_sic"]
            if "local_tracker" in context:
                tracker = self._local_trackers.get(query_id)
                if tracker is not None:
                    tracker.restore_state(context["local_tracker"])
        replayed = [batch_from_state(s) for s in checkpoint.buffered_batches]
        for batch in replayed:
            self._input_buffer.append(batch)
            self._input_buffer_tuples += len(batch)
        return len(replayed)

    def set_coordinator_updates(self, enabled: bool) -> None:
        """Enable or disable the use of coordinator SIC updates (Figure 4 ablation)."""
        self._use_coordinator_updates = enabled

    # --------------------------------------------------------------- messaging
    def on_batch(self, batch: Batch) -> None:
        """Handle an incoming data batch: append it to the input buffer.

        With a bounded ingress queue the cap is enforced here as the last
        line of defence: tuples beyond it are dropped and counted as
        overflow instead of growing memory.  Sources that consult
        :meth:`ingress_credit` (the intended protocol) never trip it —
        backpressure engages at the high watermark first.
        """
        size = len(batch)
        self.stats.received_tuples += size
        self._ingress_reserved = max(0, self._ingress_reserved - size)
        cap = self.max_ingress_tuples
        if cap is not None:
            room = cap - self._input_buffer_tuples
            if room <= 0:
                self.stats.ingress_overflow_tuples += size
                self._update_backpressure()
                return
            if size > room:
                batch, overflow = batch.split(room)
                self.stats.ingress_overflow_tuples += len(overflow)
                size = room
        self._input_buffer.append(batch)
        self._input_buffer_tuples += size
        if cap is not None:
            self._update_backpressure()

    # Seed-era name, kept as the compatibility surface.
    enqueue = on_batch

    # ----------------------------------------------------- ingress backpressure
    def ingress_credit(self) -> int:
        """Tuples this node currently accepts from its sources.

        Zero while backpressured (occupancy crossed the high watermark and
        has not yet fallen back to the low one); otherwise the remaining
        room under the hard cap, net of credit already reserved by other
        sources this round.  Unbounded nodes never push back.
        """
        cap = self.max_ingress_tuples
        if cap is None:
            return 2**62
        self._update_backpressure()
        if self._backpressured:
            return 0
        return max(0, cap - self._input_buffer_tuples - self._ingress_reserved)

    def reserve_ingress(self, num_tuples: int) -> None:
        """Promise buffer room to an in-flight send (released on arrival)."""
        self._ingress_reserved += num_tuples
        self._update_backpressure()

    def note_paced(self, num_tuples: int) -> None:
        """Account tuples a source held back under backpressure."""
        self.stats.paced_tuples += num_tuples

    @property
    def backpressured(self) -> bool:
        return self._backpressured

    def _update_backpressure(self) -> None:
        occupancy = self._input_buffer_tuples + self._ingress_reserved
        if self._backpressured:
            if occupancy <= self._ingress_low:
                self._backpressured = False
        elif occupancy >= self._ingress_high:
            self._backpressured = True
            self.stats.backpressure_engagements += 1

    def on_sic_update(self, query_id: str, sic_value: float) -> None:
        """Handle an ``updateSIC`` message from a query coordinator."""
        self._reported_sic[query_id] = float(sic_value)

    # Seed-era name, kept as the compatibility surface.
    receive_sic_update = on_sic_update

    def input_buffer_size(self) -> int:
        """Number of tuples currently waiting in the input buffer."""
        return self._input_buffer_tuples

    def tracker_footprint(self) -> "PyTuple[int, int]":
        """(window events, history samples) over the node's local result-SIC
        trackers — the memwatch probes for this node's tracker state."""
        events = sum(t.window_event_count() for t in self._local_trackers.values())
        history = sum(t.history_size() for t in self._local_trackers.values())
        return events, history

    # --------------------------------------------------------------- main loop
    def on_shed_round(
        self, now: float, timer: Optional[Callable[[], float]] = None
    ) -> NodeTickResult:
        """Run one shedding round: detect overload, shed, process.

        Args:
            now: current simulation time (end of the round's interval).
            timer: optional callable returning wall-clock seconds, used to
                measure the shedder's execution time for the §7.6 experiment.
        """
        result = NodeTickResult()
        self.stats.ticks += 1
        capacity = self.cost_model.capacity(self.budget_per_interval)
        result.capacity = capacity

        buffered = self._input_buffer
        buffered_tuples = self._input_buffer_tuples
        self._input_buffer = []
        self._input_buffer_tuples = 0
        if self.max_ingress_tuples is not None:
            # Draining the buffer is what releases backpressure (hysteresis:
            # occupancy must fall to the low watermark, not merely below
            # the high one).
            self._update_backpressure()
        overloaded = buffered_tuples > capacity
        result.overloaded = overloaded
        if overloaded:
            self.stats.overloaded_ticks += 1
            self.stats.shedder_invocations += 1
            # Only the shedder reads the SIC view, so it is built here.
            reported = self._current_sic_view(now)
            start = timer() if timer else None
            decision = self.shedder.shed(
                buffered, capacity, reported, total_tuples=buffered_tuples
            )
            if timer and start is not None:
                self.stats.shedder_time_seconds += timer() - start
            kept = decision.kept
            result.shed_tuples = decision.shed_tuples
            self.stats.shed_tuples += decision.shed_tuples
            result.kept_tuples = decision.kept_tuples
        else:
            kept = buffered
            result.kept_tuples = buffered_tuples
        self.stats.kept_tuples += result.kept_tuples

        # Keep the local tracker windows flat even when coordinator updates
        # shadow them (their lazy expiry in current_sic() never runs then).
        for tracker in self._local_trackers.values():
            tracker.expire(now)

        # Route kept batches to their fragments and record the kept SIC in the
        # node's local estimate of each query's result SIC.
        for batch in kept:
            fragment = self._resolve_fragment(batch)
            if fragment is None:
                continue
            fragment.deliver(batch, origin_fragment_id=batch.origin_fragment_id)
            tracker = self._local_trackers.get(batch.query_id)
            if tracker is not None:
                tracker.record_result(now, batch.sic)

        # Process every hosted fragment.
        total_cost = 0.0
        for fragment in self.fragments.values():
            output: FragmentOutput = fragment.process(now)
            total_cost += output.processing_cost
            result.downstream.extend(output.downstream)
            result.results.extend(output.results)
        if result.kept_tuples:
            # The capacity threshold counts input-buffer tuples, so the cost
            # model is fed the per-IB-tuple cost (the fragment-internal fan-out
            # is folded into the cost, not into the tuple count).
            self.cost_model.observe(result.kept_tuples, total_cost)
            self.stats.processed_cost += total_cost
        return result

    # Seed-era name, kept as the compatibility surface.
    tick = on_shed_round

    # ----------------------------------------------------------------- helpers
    def _current_sic_view(self, now: float) -> Dict[str, float]:
        """The per-query result SIC values the shedder should balance."""
        view: Dict[str, float] = {}
        for query_id in self.hosted_queries():
            if self._use_coordinator_updates and query_id in self._reported_sic:
                view[query_id] = self._reported_sic[query_id]
            else:
                tracker = self._local_trackers.get(query_id)
                view[query_id] = tracker.current_sic(now) if tracker else 0.0
        return view

    def _resolve_fragment(self, batch: Batch) -> Optional[QueryFragment]:
        fragment_id = batch.fragment_id
        if fragment_id:
            fragment = self.fragments.get(fragment_id)
            if fragment is not None:
                return fragment
        # Fall back to the only hosted fragment of the batch's query, if any;
        # the per-query answer is cached so the candidate scan runs once per
        # query, not once per batch.
        query_id = batch.query_id
        cache = self._query_fragment_cache
        if query_id in cache:
            return cache[query_id]
        candidates = [
            f for f in self.fragments.values() if f.query_id == query_id
        ]
        resolved = candidates[0] if len(candidates) == 1 else None
        cache[query_id] = resolved
        return resolved

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FspsNode(id={self.node_id!r}, fragments={len(self.fragments)}, "
            f"budget={self.budget_per_interval})"
        )
