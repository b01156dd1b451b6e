"""Discrete-event driver of a :class:`~repro.federation.fsps.FederatedSystem`.

Where the lockstep ``FederatedSystem.tick()`` advances every component once
per global shedding interval, the :class:`EventRuntime` drives each
component's rounds as independent recurring streams on a deterministic heap
(:mod:`repro.runtime.scheduler`):

* one **source-generation** stream per deployed query (window
  ``(previous fire, now]``, cadence = the federation's shedding interval);
* one **shedding-round** stream per node, at the *node's own* cadence —
  ``SimulationConfig.node_shedding_intervals`` / ``FspsNode.shedding_interval``
  override the federation default, so sites in different administrative
  domains can shed at different rates (site autonomy, C3);
* one **coordinator** stream per query (dissemination round gated by the
  coordinator's ``update_interval``, followed by the result-SIC snapshot);
* one **delivery** event per distinct network delivery instant.

Recurring streams are grouped into **cohorts**: members that share
``(priority, interval, next instant)`` ride on one heap entry, which fires
the live members in join order and reschedules once.  A stream joins the
cohort most recently scheduled at its first ``(instant, priority,
interval)``, or starts a new one.  Since a stream scheduled one-per-event
would take the next ``seq`` — after everything already queued at that
instant — joining the latest cohort there reproduces the single-heap
``(time, priority, seq)`` pop order exactly: 300 queries cost one source
event, one coordinator event and one node event per round, not 601.  (This
relies on the runtime's own priorities — SOURCE, NODE, COORDINATOR —
carrying only cohorts; fault and detector events use ``PRIORITY_FAULT``.)

For homogeneous intervals a seeded event-driven run is *result-identical* to
the lockstep loop — same per-query SIC series, same shed/received counts,
same bytes on the wire (asserted by
``tests/integration/test_event_runtime.py``).  The equal-time phase ordering
that makes this hold is encoded in the scheduler's event priorities; see
:mod:`repro.runtime.scheduler`.

On top of the scheduler the runtime exposes the mid-run **lifecycle API**:
queries can be deployed and undeployed and nodes added, decommissioned or
crash-failed while the simulation is running — each operation atomically
mutates the federation state (source re-routing, coordinator teardown) and
starts or cancels the affected streams.  Cancelling a stream marks it; a
cohort left with no live member cancels its heap entry.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple as PyTuple

from ..federation.coordinator import QueryCoordinator
from ..federation.fsps import (
    DeployedQuery,
    FederatedSystem,
    MigrationReport,
    RejoinReport,
)
from ..federation.node import FspsNode
from .scheduler import (
    PRIORITY_COORDINATOR,
    PRIORITY_DELIVERY,
    PRIORITY_NODE,
    PRIORITY_POST_DELIVERY,
    PRIORITY_SOURCE,
    EventScheduler,
    ScheduledEvent,
)

__all__ = ["EventRuntime"]

# Join key of a cohort: (next instant, priority, interval).
_CohortKey = PyTuple[float, int, float]


class _Stream:
    """One recurring round (a cohort member); also its cancel handle.

    Subclasses implement ``fire(now)``, the round itself.
    """

    __slots__ = ("system", "cohort", "cancelled")

    def __init__(self, system: FederatedSystem) -> None:
        self.system = system
        self.cohort: Optional[_Cohort] = None
        self.cancelled = False

    def cancel(self) -> None:
        """Stop the stream; an emptied cohort leaves the heap."""
        if not self.cancelled:
            self.cancelled = True
            self.cohort.member_cancelled()


class _NodeRound(_Stream):
    __slots__ = ("node", "timer")

    def __init__(self, system: FederatedSystem, node: FspsNode, timer) -> None:
        super().__init__(system)
        self.node = node
        self.timer = timer

    def fire(self, now: float) -> None:
        self.system.run_node_round(self.node, now, timer=self.timer)


class _SourceRound(_Stream):
    __slots__ = ("query", "start")

    def __init__(self, system: FederatedSystem, query: DeployedQuery, start: float) -> None:
        super().__init__(system)
        self.query = query
        # The generation window opens where the previous one closed, so no
        # simulated time is double-generated or skipped.
        self.start = start

    def fire(self, now: float) -> None:
        self.system.generate_query_sources(self.query, self.start, now)
        self.start = now


class _CoordinatorRound(_Stream):
    __slots__ = ("coordinator",)

    def __init__(self, system: FederatedSystem, coordinator: QueryCoordinator) -> None:
        super().__init__(system)
        self.coordinator = coordinator

    def fire(self, now: float) -> None:
        # The round's one SIC read feeds both the updateSIC messages and the
        # per-interval history sample.
        sic = self.system.run_coordinator_round(self.coordinator, now)
        self.coordinator.snapshot(now, sic)


class _CheckpointRound(_Stream):
    __slots__ = ()

    def fire(self, now: float) -> None:
        self.system.checkpoint_all(now)


class _Cohort:
    """Streams sharing ``(priority, interval, next instant)``; one heap entry.

    ``index`` is the runtime's join table (key → the cohort most recently
    scheduled there); the cohort keeps its own entry in it current.  Rounds
    may cancel streams but never start one (lifecycle calls come from
    between ``run()`` segments or from fault and detector events), so no
    stream joins or is scheduled beside a cohort while it fires.
    """

    __slots__ = ("scheduler", "index", "priority", "interval", "key", "members", "live", "event")

    def __init__(
        self,
        scheduler: EventScheduler,
        index: Dict[_CohortKey, "_Cohort"],
        priority: int,
        interval: float,
    ) -> None:
        self.scheduler = scheduler
        self.index = index
        self.priority = priority
        self.interval = interval
        self.key: Optional[_CohortKey] = None
        self.members: List[_Stream] = []
        self.live = 0
        self.event: Optional[ScheduledEvent] = None

    def schedule(self, time: float) -> None:
        self.key = key = (time, self.priority, self.interval)
        self.event = self.scheduler.schedule(time, self.priority, self.fire)
        self.index[key] = self

    def _unindex(self) -> None:
        if self.index.get(self.key) is self:
            del self.index[self.key]

    def fire(self, now: float) -> None:
        self.event = None
        self._unindex()
        members = self.members
        if self.live < len(members):
            members = self.members = [m for m in members if not m.cancelled]
        for member in members:
            # A member may be cancelled by an earlier member's round.
            if not member.cancelled:
                member.fire(now)
        if self.live:
            self.schedule(now + self.interval)

    def member_cancelled(self) -> None:
        self.live -= 1
        if not self.live and self.event is not None:
            self.event.cancel()
            self.event = None
            self._unindex()


class EventRuntime:
    """Drives a federated deployment from a discrete-event scheduler.

    Args:
        system: the federation to drive.  Components already present (nodes,
            queries, coordinators) get their event streams scheduled
            immediately; later lifecycle calls must go through the runtime so
            event streams stay in sync with the deployment state.
        node_intervals: per-node shedding-interval overrides (node id →
            seconds).  Falls back to ``FspsNode.shedding_interval`` and then
            to the federation's global interval.
        timer: optional wall-clock callable forwarded to the nodes' shedding
            rounds (the §7.6 shedder-overhead measurement).
        checkpoint_interval: cadence (seconds) of the federation-wide
            checkpoint round (``FederatedSystem.checkpoint_all``) that keeps
            the coordinator-held fragment checkpoints and coordinator standby
            states fresh — the recovery points for :meth:`rejoin_node` and
            :meth:`fail_coordinator`.  ``None`` (default) disables periodic
            checkpointing; checkpoints never mutate state, so enabling them
            does not change a run's results.
    """

    def __init__(
        self,
        system: FederatedSystem,
        node_intervals: Optional[Mapping[str, float]] = None,
        timer: Optional[Callable[[], float]] = None,
        checkpoint_interval: Optional[float] = None,
    ) -> None:
        if checkpoint_interval is not None and checkpoint_interval <= 0:
            raise ValueError(
                f"checkpoint_interval must be positive, got {checkpoint_interval}"
            )
        self.system = system
        self.timer = timer
        self.checkpoint_interval = checkpoint_interval
        self.default_interval = system.shedding_interval
        self.scheduler = EventScheduler(start=system.now)
        self._node_intervals: Dict[str, float] = dict(node_intervals or {})
        # (kind, id) -> recurring-stream handle, so lifecycle ops can cancel.
        self._events: Dict[PyTuple[str, str], _Stream] = {}
        # Join table: (next instant, priority, interval) -> the cohort most
        # recently scheduled there.
        self._cohorts: Dict[_CohortKey, _Cohort] = {}
        # Delivery instants already covered by a scheduled event; one event
        # per distinct (time, priority) drains every message due then.
        self._pending_deliveries: Set[PyTuple[float, int]] = set()
        # The run horizon advances by whole default intervals, accumulated
        # with the same float additions the recurring events use, so the
        # final round of a run is never missed to rounding.
        self._horizon = system.now
        if system.network.send_listener is not None:
            raise ValueError(
                "the system's network already has a send listener; "
                "is another runtime attached?"
            )
        # Bound once so close() can compare identity when detaching.
        self._send_hook = self._on_send
        system.network.send_listener = self._send_hook
        for node in system.nodes.values():
            self._schedule_node(node)
        for query in system.queries.values():
            self._schedule_query_sources(query)
        for coordinator in system.coordinators.all():
            self._schedule_coordinator(coordinator)
        if checkpoint_interval is not None:
            self._schedule_checkpoints(checkpoint_interval)

    # ----------------------------------------------------------------- running
    @property
    def now(self) -> float:
        return self.scheduler.now

    def run(
        self,
        duration_seconds: Optional[float] = None,
        ticks: Optional[int] = None,
    ) -> None:
        """Advance the simulation by ``duration_seconds`` (or ``ticks``).

        The duration is quantized to whole default shedding intervals (like
        the lockstep driver, which can only advance tick by tick); lifecycle
        methods may be called between ``run`` calls — or from within event
        callbacks — to change the deployment mid-run.
        """
        if ticks is None:
            if duration_seconds is None or duration_seconds <= 0:
                raise ValueError(
                    f"duration must be positive, got {duration_seconds}"
                )
            ticks = max(1, int(round(duration_seconds / self.default_interval)))
        elif ticks < 1:
            raise ValueError(f"ticks must be at least 1, got {ticks}")
        for _ in range(ticks):
            self._horizon += self.default_interval
        self.scheduler.run_until(self._horizon)
        self.system.now = self._horizon
        self.system.ticks += ticks

    def close(self) -> None:
        """Detach from the system's network (for reuse of the system)."""
        if self.system.network.send_listener is self._send_hook:
            self.system.network.send_listener = None

    # --------------------------------------------------------------- lifecycle
    def _sync_system_clock(self) -> None:
        """Advance ``system.now`` to the scheduler's current instant.

        ``run()`` syncs it at the horizon, but lifecycle methods may also be
        called from *within* event callbacks, where only the scheduler knows
        the current time — and ``deploy_query`` stamps ``deployed_at`` (the
        anchor of the stale-message drop guard in ``dispatch``) from
        ``system.now``.
        """
        if self.scheduler.now > self.system.now:
            self.system.now = self.scheduler.now

    def deploy_query(
        self,
        query_id: str,
        fragments: Mapping[str, object],
        sources: Sequence[object],
        placement: Mapping[str, str],
        nominal_rates: Optional[Dict[str, float]] = None,
    ) -> DeployedQuery:
        """Deploy a query mid-run and start its event streams.

        Source generation begins with the window opening at the current
        time; the query's coordinator round joins the global cadence.
        """
        self._sync_system_clock()
        deployed = self.system.deploy_query(
            query_id, fragments, sources, placement, nominal_rates=nominal_rates
        )
        self._schedule_query_sources(deployed)
        self._schedule_coordinator(self.system.coordinators.coordinator(query_id))
        return deployed

    def undeploy_query(self, query_id: str) -> QueryCoordinator:
        """Stop a query's event streams and remove it from the federation."""
        coordinator = self.system.undeploy_query(query_id)
        self._cancel("source", query_id)
        self._cancel("coordinator", query_id)
        return coordinator

    def add_node(
        self, node: FspsNode, shedding_interval: Optional[float] = None
    ) -> FspsNode:
        """Add a node mid-run; its first shedding round is one interval out."""
        self.system.add_node(node)
        if shedding_interval is not None:
            self._node_intervals[node.node_id] = float(shedding_interval)
        self._schedule_node(node)
        return node

    def migrate_fragment(
        self, fragment_id: str, target_node_id: str
    ) -> MigrationReport:
        """Live-migrate a fragment mid-run (drain → checkpoint → reroute →
        resume; see :meth:`FederatedSystem.migrate_fragment`).

        The protocol is atomic at the current scheduler instant: new sends
        are rerouted immediately, in-flight deliveries are replayed on the
        target in their original ``(time, priority, seq)`` order, and no
        stream needs rescheduling (source-generation streams are
        per-query and node rounds are per-node — neither follows the
        fragment).
        """
        self._sync_system_clock()
        return self.system.migrate_fragment(fragment_id, target_node_id)

    def remove_node(
        self, node_id: str, migrate_to: Optional[Sequence[str]] = None
    ) -> FspsNode:
        """Gracefully decommission a node mid-run and stop its rounds.

        Hosted fragments are live-migrated to the remaining nodes (or the
        explicit ``migrate_to`` targets) before the node leaves — see
        :meth:`FederatedSystem.remove_node`.
        """
        self._sync_system_clock()
        node = self.system.remove_node(node_id, migrate_to=migrate_to)
        self._cancel("node", node_id)
        # A node later re-added under the same id must not inherit the
        # departed node's cadence override.
        self._node_intervals.pop(node_id, None)
        return node

    def fail_node(self, node_id: str) -> FspsNode:
        """Crash-fail a node mid-run: rounds stop, state handled by the FSPS."""
        self._sync_system_clock()
        node = self.system.fail_node(node_id)
        self._cancel("node", node_id)
        self._node_intervals.pop(node_id, None)
        return node

    def crash_node_silently(self, node_id: str) -> None:
        """Kill a node the way a real machine dies: without telling anyone.

        The node's shedding rounds stop and its network endpoint goes dead
        (inbound and outbound transmissions are discarded), but the
        federation's control plane is *not* informed — the node stays in
        ``system.nodes``, sources keep routing to it, and no lost-placement
        record is taken.  Detecting the silence and driving the
        :meth:`fail_node` → :meth:`rejoin_node` recovery is the failure
        detector's job (:mod:`repro.runtime.heartbeat`); fault plans use this
        entry point for planned crashes (:mod:`repro.faults`).
        """
        if node_id not in self.system.nodes:
            raise ValueError(f"node {node_id!r} does not exist")
        self._cancel("node", node_id)
        self.system.network.dead_endpoints.add(node_id)

    def repair_node(self, node_id: str) -> None:
        """Bring a silently-crashed endpoint back online (machine reboot).

        Only the network endpoint is revived; the process state is gone.  If
        the crash was detected in the meantime, the failure detector's next
        sweep rebuilds the node and rejoins it from checkpoints.  If it was
        *not* detected yet, the node cannot simply resume — its rounds were
        cancelled and its in-memory state is stale — so the endpoint repair
        also leaves recovery to the detector.
        """
        self.system.network.dead_endpoints.discard(node_id)

    def node_running(self, node_id: str) -> bool:
        """True if the node's shedding-round stream is scheduled.

        Distinguishes a live node from a silently-crashed one still present
        in ``system.nodes``: only a running process emits heartbeats, so the
        failure detector keys its beacons off this rather than membership.
        """
        return ("node", node_id) in self._events

    def rejoin_node(
        self, node: FspsNode, shedding_interval: Optional[float] = None
    ) -> RejoinReport:
        """Rejoin a crash-failed node id mid-run with a fresh node instance.

        Fragments are restored from the last coordinator-held checkpoints
        (see :meth:`FederatedSystem.rejoin_node`); the node's shedding
        rounds restart one interval out, like :meth:`add_node`.
        """
        self._sync_system_clock()
        report = self.system.rejoin_node(node)
        if shedding_interval is not None:
            self._node_intervals[node.node_id] = float(shedding_interval)
        self._schedule_node(node)
        return report

    def fail_coordinator(self, query_id: str) -> QueryCoordinator:
        """Crash-fail a query's coordinator mid-run and promote a standby.

        The failed coordinator's event stream is cancelled and the promoted
        standby's stream starts one interval out (the failover gap); the
        failed coordinator is returned for loss accounting.
        """
        self._sync_system_clock()
        self._cancel("coordinator", query_id)
        failed = self.system.fail_coordinator(query_id)
        self._schedule_coordinator(
            self.system.coordinators.coordinator(query_id)
        )
        return failed

    def checkpoint_now(self) -> int:
        """Take one federation-wide checkpoint round at the current instant."""
        self._sync_system_clock()
        return self.system.checkpoint_all(self.system.now)

    # ------------------------------------------------------- stream scheduling
    def _cancel(self, kind: str, key: str) -> None:
        handle = self._events.pop((kind, key), None)
        if handle is not None:
            handle.cancel()

    def _start(
        self, key: PyTuple[str, str], stream: _Stream, interval: float, priority: int
    ) -> None:
        """Start ``stream`` one ``interval`` from now, in its cohort.

        It joins the cohort most recently scheduled at that ``(instant,
        priority, interval)``: as a stream of its own it would take the next
        ``seq`` and fire after everything already queued there.  Without such
        a cohort — e.g. a standby promoted at ``PRIORITY_FAULT`` before the
        instant's coordinator cohort has fired and moved on — it starts a new
        one, which keeps firing ahead of the older cohort, as its own event
        would have.
        """
        time = self.scheduler.now + interval
        cohort = self._cohorts.get((time, priority, interval))
        if cohort is None:
            cohort = _Cohort(self.scheduler, self._cohorts, priority, interval)
            cohort.schedule(time)
        stream.cohort = cohort
        cohort.members.append(stream)
        cohort.live += 1
        self._events[key] = stream

    def _node_interval(self, node: FspsNode) -> float:
        override = self._node_intervals.get(node.node_id)
        if override is not None:
            return override
        if node.shedding_interval is not None:
            return node.shedding_interval
        return self.default_interval

    def _schedule_node(self, node: FspsNode) -> None:
        self._start(
            ("node", node.node_id),
            _NodeRound(self.system, node, self.timer),
            self._node_interval(node),
            PRIORITY_NODE,
        )

    def _schedule_query_sources(self, query: DeployedQuery) -> None:
        self._start(
            ("source", query.query_id),
            _SourceRound(self.system, query, self.scheduler.now),
            self.default_interval,
            PRIORITY_SOURCE,
        )

    def _schedule_coordinator(self, coordinator: QueryCoordinator) -> None:
        # The coordinator round is *polled* at the global cadence and gated by
        # the coordinator's own update_interval (exactly like the lockstep
        # loop) — so sweeping coordinator_update_interval behaves identically
        # under both drivers.  The poll also takes the per-interval result-SIC
        # snapshot that feeds the reported time series.
        self._start(
            ("coordinator", coordinator.query_id),
            _CoordinatorRound(self.system, coordinator),
            self.default_interval,
            PRIORITY_COORDINATOR,
        )

    def _schedule_checkpoints(self, interval: float) -> None:
        """Recurring federation-wide checkpoint round.

        One stream covers every node and coordinator alive at fire time, so
        lifecycle changes need no checkpoint-stream bookkeeping.  Runs at
        coordinator priority (after the instant's node rounds), so an
        envelope captures the post-round state of its fragment.  Checkpoint
        rounds never mutate federation state — enabling them cannot change a
        run's results.
        """
        self._start(
            ("checkpoint", "__all__"),
            _CheckpointRound(self.system),
            interval,
            PRIORITY_COORDINATOR,
        )

    # --------------------------------------------------------------- messaging
    def _on_send(self, message: object, deliver_at: float) -> None:
        """Network send hook: make sure a delivery event covers ``deliver_at``.

        Zero-latency messages sent from a node or coordinator round are
        delivered at the *end* of the current instant (POST_DELIVERY): the
        lockstep loop's delivery phase has already passed at that point, and
        every same-instant round must observe the pre-send state for the two
        drivers to stay result-identical.
        """
        scheduler = self.scheduler
        priority = PRIORITY_DELIVERY
        if deliver_at <= scheduler.now:
            current = scheduler.current_priority
            if current is not None and current >= PRIORITY_DELIVERY:
                priority = PRIORITY_POST_DELIVERY
        key = (deliver_at, priority)
        pending = self._pending_deliveries
        if key in pending:
            return
        pending.add(key)

        def fire(now: float) -> None:
            self._pending_deliveries.discard(key)
            self.system.deliver_messages(now)

        scheduler.schedule(deliver_at, priority, fire)
