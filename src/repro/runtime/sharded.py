"""Sharded federation driver.

The single-heap :class:`~repro.runtime.runtime.EventRuntime` drives every
site from one scheduler.  This module partitions the federation **by
site**: each shard owns a subset of the nodes (and the fragments, shedders
and estimators they host), runs them on its own
:class:`~repro.runtime.scheduler.EventScheduler`, and synchronises with the
other shards only where the paper's sites themselves interact — the
network.

Every shard scheduler lives in this process and the run loop executes them
sequentially window by window.  Nothing is serialized and every lifecycle
feature works (fault injection, heartbeat detection, mid-run deploys); the
driver makes the windowed schedule and its deterministic merge order
debuggable and differentially testable against ``runtime="event"``.

Conservative time-windowing
---------------------------
All shards repeatedly execute the same half-open window ``[T, T+L)`` where
``L = latency_model.min_latency()`` is the minimum latency between distinct
endpoints.  A message sent inside the window is delivered at
``send_time + latency >= T + L``, i.e. never inside the window itself, so
shards cannot influence each other mid-window and may run in any order.
Window ends that carry *global* events (fault injections, failure-detector
sweeps, federation-wide checkpoint rounds, the run horizon) are **barrier instants**: the instant is phase-stepped across all
shards priority by priority (FAULT → SOURCE → DELIVERY → NODE →
COORDINATOR → POST_DELIVERY fixpoint), which reproduces exactly the
``(time, priority, seq)`` pop order of the single heap.  A zero-latency
model degenerates to phase-stepping every instant.

Deterministic boundary merge
----------------------------
The single-heap runtime orders same-instant deliveries by the network's
global transmit counter — a number that depends on which shard happened to
transmit first, so it cannot survive sharding.  Instead every transmit is
stamped with an **action token** ``(time, ctx_priority, ctx_rank, k)``:

* ``time`` — the sending context's instant;
* ``ctx_priority`` — the phase priority of the executing event (source,
  delivery, node, coordinator, post-delivery, fault);
* ``ctx_rank`` — the executing event's own rank: for a delivery event the
  ``(deliver_at, token)`` of the in-flight entry being processed, for a
  stream event (node round, source route, coordinator round, sweep) the
  lineage of the *schedule call that created it*, stored flat as
  ``(tp_levels, root, k_path)`` (see :meth:`ShardedRuntime._extend_rank`)
  — comparison-equivalent to nesting the creating call's full token, but
  bounded-cost to compare however deep a recurring chain grows;
* ``k`` — the ordinal of this action within its context.

Tokens are totally ordered, identical no matter how shards interleave, and
— by construction — sort same-instant transmissions exactly the way the
single global counter did (``tests/properties/test_merge_order.py``).  The
network's per-link FIFO heaps order boundary messages by
``(deliver_at, token)``; this is the ``(time, priority, site_id, seq)``
total order of the merge.
"""

from __future__ import annotations

import heapq
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
    PRIORITY_FAULT,
    PRIORITY_NODE,
    PRIORITY_POST_DELIVERY,
    PRIORITY_SOURCE,
    EventScheduler,
)

__all__ = ["ShardedRuntime", "ShardPlan"]

# Context priority of actions performed outside any scheduled event:
# construction-time spawns and between-run lifecycle calls.  Construction
# precedes every event (-2 < PRIORITY_FAULT); ambient mid-run actions at the
# frontier instant come after everything that executed there.
_CTX_INIT = -2
_CTX_AMBIENT = 5

# Barrier-instant phases, in single-heap pop order.
_PHASES = (
    PRIORITY_FAULT,
    PRIORITY_SOURCE,
    PRIORITY_DELIVERY,
    PRIORITY_NODE,
    PRIORITY_COORDINATOR,
)


class ShardPlan:
    """Site → shard partition plus endpoint routing for boundary traffic.

    Nodes are assigned round-robin in creation order (deterministic and
    balanced for the homogeneous fleets of the paper's experiments); hosted
    fragments follow their node implicitly.  Source endpoints stick to the
    shard of the node their route first fed — the recurring generation event
    (and the generator's RNG closure) lives there for the rest of the run.
    Queries are homed on the shard of their first routed node: the query's
    coordinator state, result stream and coordinator rounds live there.
    """

    def __init__(self, num_shards: int) -> None:
        if num_shards <= 0:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        self.num_shards = num_shards
        self.node_shard: Dict[str, int] = {}
        self.source_shard: Dict[str, int] = {}
        self.query_shard: Dict[str, int] = {}
        self._next = 0

    def assign_node(self, node_id: str) -> int:
        shard = self.node_shard.get(node_id)
        if shard is None:
            shard = self._next % self.num_shards
            self._next += 1
            self.node_shard[node_id] = shard
        return shard

    def endpoint_shard(self, endpoint: str) -> int:
        shard = self.node_shard.get(endpoint)
        if shard is not None:
            return shard
        return self.source_shard.get(endpoint, 0)


class _SchedulerFacade:
    """The ``runtime.scheduler`` surface for fault/heartbeat subsystems.

    :class:`~repro.faults.injector.FaultInjector` and
    :class:`~repro.runtime.heartbeat.FailureDetector` schedule their global
    events through ``runtime.scheduler.schedule``.  The facade routes them
    onto the control-lane scheduler — their fire times become window
    barriers — and wraps the callbacks so actions they perform (heartbeat
    sends, lifecycle spawns, their own reschedules) carry correctly ranked
    tokens.
    """

    def __init__(self, runtime: "ShardedRuntime") -> None:
        self._runtime = runtime

    @property
    def now(self) -> float:
        return self._runtime._control.now

    @property
    def current_priority(self) -> Optional[int]:
        return self._runtime._control.current_priority

    def schedule(self, time: float, priority: int, fn: Callable[[float], None]):
        return self._runtime._spawn(self._runtime._control, time, priority, fn)


class ShardedRuntime:
    """Drives a federation from per-site shard schedulers (see module doc).

    Mirrors the :class:`EventRuntime` constructor and lifecycle API so the
    simulator, the failure detector and the fault injector can use either
    interchangeably.  ``workers`` is the number of shards.
    """

    def __init__(
        self,
        system: FederatedSystem,
        node_intervals: Optional[Mapping[str, float]] = None,
        timer: Optional[Callable[[], float]] = None,
        checkpoint_interval: Optional[float] = None,
        workers: int = 2,
        partition: Optional[Mapping[str, int]] = None,
    ) -> None:
        if checkpoint_interval is not None and checkpoint_interval <= 0:
            raise ValueError(
                f"checkpoint_interval must be positive, got {checkpoint_interval}"
            )
        self.system = system
        self.timer = timer
        self.checkpoint_interval = checkpoint_interval
        self.default_interval = system.shedding_interval
        self._plan = ShardPlan(workers)
        for node_id, shard in (partition or {}).items():
            if not (0 <= shard < workers):
                raise ValueError(
                    f"partition[{node_id!r}] must be in [0, {workers}), got {shard}"
                )
            self._plan.node_shard[node_id] = int(shard)
        self._node_intervals: Dict[str, float] = dict(node_intervals or {})
        self._started = False
        start = system.now
        self._frontier = start
        self._horizon = start
        self._shards: List[EventScheduler] = [
            EventScheduler(start=start) for _ in range(workers)
        ]
        # Global control lane: fault injections, failure-detector sweeps and
        # federation-wide checkpoint rounds.  Its event times are the window
        # barriers, so these globally-visible events run phase-interleaved
        # with every shard at a consistent instant.
        self._control = EventScheduler(start=start)
        self.scheduler = _SchedulerFacade(self)
        self._events: Dict[PyTuple[str, ...], object] = {}
        self._pending: Set[PyTuple[int, float, int]] = set()
        # Action-token state (see module docstring).
        self._active: Optional[EventScheduler] = None
        self._ctx: Optional[PyTuple[int, tuple]] = None
        self._intra_key: Optional[tuple] = None
        self._intra = 0
        # Interns lineage tp_levels tuples (see _extend_rank) so same-grid
        # chains share one object and compare by identity.
        self._tp_intern: Dict[tuple, tuple] = {}
        network = system.network
        if network.send_listener is not None:
            raise ValueError(
                "the system's network already has a send listener; "
                "is another runtime attached?"
            )
        if network.sequence_hook is not None:
            raise ValueError("the system's network already has a sequence hook")
        # Claim the network like EventRuntime does (double-attach guard); the
        # per-shard delivery events hang off the enqueue listener instead.
        self._send_hook = lambda message, deliver_at: None
        network.send_listener = self._send_hook
        network.sequence_hook = self._action_token
        network.attach_shards(workers, self._route_entry)
        network.enqueue_listener = self._on_enqueue
        self.network = network
        # Spawn order mirrors EventRuntime.__init__ exactly — construction
        # ranks seed the whole lineage order.
        for node in system.nodes.values():
            self._plan.assign_node(node.node_id)
        for node in system.nodes.values():
            self._schedule_node(node)
        for query in system.queries.values():
            self._home_query(query)
            self._schedule_query_sources(query)
        for coordinator in system.coordinators.all():
            self._schedule_coordinator(coordinator)
        if checkpoint_interval is not None:
            self._schedule_checkpoints(checkpoint_interval)

    # ------------------------------------------------------------- action tokens
    def _action_token(self) -> tuple:
        """Rank of the next action in the currently executing context."""
        dctx = self.network.delivery_context
        sched = self._active
        if dctx is not None:
            if sched is not None and sched.current_priority is not None:
                pri = sched.current_priority
                now = sched.now
            else:
                # Ambient drain (drain_network at collect time): logical time
                # is the entry's own delivery time.
                pri = PRIORITY_DELIVERY
                now = dctx[0]
            rank: tuple = dctx
        elif self._ctx is not None:
            pri, rank = self._ctx
            now = sched.now
        else:
            pri, rank = (_CTX_INIT if not self._started else _CTX_AMBIENT), ()
            now = self._frontier
        key = (now, pri, rank)
        if key != self._intra_key:
            self._intra_key = key
            self._intra = 0
        k = self._intra
        self._intra += 1
        return (now, pri, rank, k)

    # ------------------------------------------------------------------ routing
    def _route_entry(self, entry) -> int:
        control = entry.control
        if control is not None:
            # Retransmission timer: fires on the sender's shard, which is
            # also where the link's ack consumes the unacked record — one
            # shard owns each link's sender-side state.
            return self._plan.endpoint_shard(control[1][0])
        message = entry.message
        kind = message.kind
        if kind == "result":
            # The coordinator endpoint is shared; the owning shard is the
            # query's home (the batch knows its query).
            return self._plan.query_shard.get(message.batch.query_id, 0)
        if kind == "ack":
            return self._plan.endpoint_shard(message.link[0])
        if kind == "heartbeat":
            # Failure detector state lives with the control lane; its
            # deliveries drain on shard 0.
            return 0
        return self._plan.endpoint_shard(message.destination)

    def _on_enqueue(self, entry, shard: int) -> None:
        deliver_at = entry.deliver_at
        active = self._active
        priority = PRIORITY_DELIVERY
        if (
            active is not None
            and active.current_priority is not None
            and deliver_at <= active.now
            and active.current_priority >= PRIORITY_DELIVERY
        ):
            priority = PRIORITY_POST_DELIVERY
        key = (shard, deliver_at, priority)
        if key in self._pending:
            return
        self._pending.add(key)
        sched = self._shards[shard]

        def fire(now: float) -> None:
            self._pending.discard(key)
            prev_active, prev_ctx = self._active, self._ctx
            self._active, self._ctx = sched, None
            try:
                for message in self.network.deliver_due_shard(shard, now):
                    self.system.dispatch(message, now)
            finally:
                self._active, self._ctx = prev_active, prev_ctx

        sched.schedule(deliver_at, priority, fire)

    # ----------------------------------------------------------- event spawning
    def _extend_rank(self, token: tuple) -> tuple:
        """Lineage rank of the event created by the schedule call ``token``.

        The natural lineage — each event's rank nesting the full token of
        the schedule call that created it — is order-correct but unbounded:
        a recurring round reschedules itself from inside its own context,
        so the chain deepens by one level per round, and same-grid chains
        (which tie on every ``(time, priority)`` level and differ only at
        the very root) cost O(depth^2) per comparison.  The rank is instead
        stored pre-linearized, in exactly the order the nested comparison
        would visit its parts, as a flat triple ``(tp_levels, root,
        k_path)``:

        * ``tp_levels`` — the chain's ``(time, priority)`` pairs, newest
          first: the prefix every nested comparison walks top-down;
        * ``root`` — the originating context, reached only when every level
          ties: ``()`` for construction/ambient chains, the ``(deliver_at,
          token)`` delivery context for delivery-spawned chains;
        * ``k_path`` — the per-level intra-context ordinals, oldest first:
          the nested comparison unwinds them root-to-leaf after the levels
          tie, so same-grid chains diverge right at ``k_path[0]``.

        The triple orders exactly like the nested form.  Mixed root shapes
        could only meet under a tied level priority, and root-context
        priorities ({-2, 5} ambient, {1, 4} delivery) are disjoint from the
        chain phases (-1, 0, 2, 3) — the same shape-compatibility argument
        the nested encoding relied on.  ``tp_levels`` is interned, so the
        same-grid chains that made the nested form quadratic now share one
        tuple object and compare with a single identity check.
        """
        now, pri, parent, k = token
        if len(parent) == 3:
            tp, root, ks = parent
        else:  # () construction/ambient, or a (deliver_at, token) delivery ctx
            tp, root, ks = (), parent, ()
        tp = ((now, pri),) + tp
        intern = self._tp_intern
        if len(intern) > 8192:
            # Bound the table on long runs.  Interning is a pure comparison
            # fast-path — order never depends on identity — and chains
            # re-converge on a shared object at their next extension.
            intern.clear()
        tp = intern.setdefault(tp, tp)
        return (tp, root, ks + (k,))

    def _spawn(
        self,
        sched: EventScheduler,
        time: float,
        priority: int,
        fn: Callable[[float], None],
    ):
        """Schedule ``fn`` ranked by the lineage of this schedule call."""
        rank = self._extend_rank(self._action_token())

        def fire(now: float) -> None:
            prev_active, prev_ctx = self._active, self._ctx
            self._active, self._ctx = sched, (priority, rank)
            try:
                fn(now)
            finally:
                self._active, self._ctx = prev_active, prev_ctx

        event = sched.schedule(time, priority, fire)
        # The rank doubles as cross-scheduler order: barrier instants merge
        # shard and control events of one phase by it (it reproduces the
        # single heap's schedule order, which local per-lane seqs cannot).
        event.rank = rank
        return event

    def _cancel(self, *key: str) -> None:
        handle = self._events.pop(key, None)
        if handle is not None:
            handle.cancel()

    def _node_interval(self, node: FspsNode) -> float:
        override = self._node_intervals.get(node.node_id)
        if override is not None:
            return override
        if node.shedding_interval is not None:
            return node.shedding_interval
        return self.default_interval

    def _schedule_node(self, node: FspsNode) -> None:
        interval = self._node_interval(node)
        shard = self._plan.assign_node(node.node_id)
        sched = self._shards[shard]
        key = ("node", node.node_id)

        def fire(now: float) -> None:
            self.system.run_node_round(node, now, timer=self.timer)
            self._events[key] = self._spawn(sched, now + interval, PRIORITY_NODE, fire)

        self._events[key] = self._spawn(
            sched, sched.now + interval, PRIORITY_NODE, fire
        )

    def _home_query(self, query: DeployedQuery) -> None:
        shard = 0
        for route in query.source_plan:
            if route.node_id is not None:
                shard = self._plan.assign_node(route.node_id)
                break
        self._plan.query_shard[query.query_id] = shard

    def _schedule_query_sources(self, query: DeployedQuery) -> None:
        interval = self.default_interval
        for index, route in enumerate(query.source_plan):
            if route.node_id is not None:
                shard = self._plan.assign_node(route.node_id)
            else:
                shard = self._plan.query_shard.get(query.query_id, 0)
            self._plan.source_shard.setdefault(route.source_id, shard)
            sched = self._shards[shard]
            key = ("source", query.query_id, str(index))
            self._schedule_route(query, route, sched, key, interval)

    def _schedule_route(self, query, route, sched, key, interval) -> None:
        # The generation window opens where the previous one closed, so no
        # simulated time is double-generated or skipped.
        state = {"start": sched.now}

        def fire(now: float) -> None:
            self.system.generate_source_route(query, route, state["start"], now)
            state["start"] = now
            self._events[key] = self._spawn(
                sched, now + interval, PRIORITY_SOURCE, fire
            )

        self._events[key] = self._spawn(
            sched, sched.now + interval, PRIORITY_SOURCE, fire
        )

    def _schedule_coordinator(self, coordinator: QueryCoordinator) -> None:
        interval = self.default_interval
        shard = self._plan.query_shard.get(coordinator.query_id, 0)
        sched = self._shards[shard]
        key = ("coordinator", coordinator.query_id)

        def fire(now: float) -> None:
            self.system.run_coordinator_round(coordinator, now)
            coordinator.snapshot(now)
            self._events[key] = self._spawn(
                sched, now + interval, PRIORITY_COORDINATOR, fire
            )

        self._events[key] = self._spawn(
            sched, sched.now + interval, PRIORITY_COORDINATOR, fire
        )

    def _schedule_checkpoints(self, interval: float) -> None:
        key = ("checkpoint", "__all__")

        def fire(now: float) -> None:
            self.system.checkpoint_all(now)
            self._events[key] = self._spawn(
                self._control, now + interval, PRIORITY_COORDINATOR, fire
            )

        self._events[key] = self._spawn(
            self._control, self._control.now + interval, PRIORITY_COORDINATOR, fire
        )

    # ----------------------------------------------------------------- running
    @property
    def now(self) -> float:
        return self._frontier

    def run(
        self,
        duration_seconds: Optional[float] = None,
        ticks: Optional[int] = None,
    ) -> None:
        """Advance by ``duration_seconds``/``ticks`` (EventRuntime semantics)."""
        if ticks is None:
            if duration_seconds is None or duration_seconds <= 0:
                raise ValueError(f"duration must be positive, got {duration_seconds}")
            ticks = max(1, int(round(duration_seconds / self.default_interval)))
        elif ticks < 1:
            raise ValueError(f"ticks must be at least 1, got {ticks}")
        self._started = True
        for _ in range(ticks):
            self._horizon += self.default_interval
        self._run_to(self._horizon)
        self.system.now = self._horizon
        self.system.ticks += ticks

    def _run_to(self, horizon: float) -> None:
        lookahead = self.network.latency_model.min_latency()
        while True:
            if lookahead <= 0:
                t = self._next_instant()
                if t is None or t > horizon:
                    break
                self._frontier = t
                self._run_barrier_instant(t)
                if t == horizon:
                    break
            else:
                frontier = self._frontier
                if frontier >= horizon:
                    break
                end = min(horizon, frontier + lookahead)
                barrier = self._control.next_event_time()
                if barrier is not None and barrier < end:
                    end = barrier
                for sched in self._shards:
                    self._run_shard_window(sched, end)
                self._frontier = end
                if barrier is not None and barrier == end and end < horizon:
                    self._run_barrier_instant(end)
        if lookahead > 0:
            # The horizon instant itself (events at exactly t == horizon,
            # plus any control events due then) runs as a barrier.
            self._run_barrier_instant(horizon)
        self._frontier = horizon
        for sched in self._shards:
            if horizon > sched.now:
                sched.now = horizon
        if horizon > self._control.now:
            self._control.now = horizon

    def _next_instant(self) -> Optional[float]:
        times = [
            t
            for t in (
                *(sched.next_event_time() for sched in self._shards),
                self._control.next_event_time(),
            )
            if t is not None
        ]
        if not times:
            return None
        return min(times)

    def _run_shard_window(self, sched: EventScheduler, end: float) -> None:
        prev = self._active
        self._active = sched
        try:
            sched.run_window(end)
        finally:
            self._active = prev
        if sched.now < end:
            sched.now = end

    def _run_barrier_instant(self, t: float) -> None:
        """Phase-step instant ``t`` across every shard plus the control lane.

        Fault-priority control events (crash injections, detector sweeps)
        run before any shard phase by priority.  The coordinator phase — the
        only one shard and control lanes share (checkpoint rounds) — is
        rank-merged so its interleave matches the single heap's schedule
        order; every other phase runs lane by lane, shards before control.
        """
        schedulers = list(self._shards) + [self._control]
        for priority in _PHASES:
            if priority == PRIORITY_COORDINATOR:
                # The control lane shares this phase with the shard lanes
                # (checkpoint rounds vs per-query coordinator rounds), and a
                # federation-wide checkpoint reads state every shard writes:
                # the interleave must follow the single-heap schedule order,
                # which the spawn ranks carry.
                self._run_merged_instant(schedulers, t, priority)
                continue
            for sched in self._shards:
                self._run_instant(sched, t, priority)
            self._run_instant(self._control, t, priority)
        # POST_DELIVERY fixpoint: a zero-latency delivery can trigger sends
        # that land new post-delivery events on other shards at the same
        # instant; repeat until the instant is globally quiescent.
        progress = True
        while progress:
            progress = False
            for sched in schedulers:
                if sched.has_events_at(t, PRIORITY_POST_DELIVERY):
                    self._run_instant(sched, t, PRIORITY_POST_DELIVERY)
                    progress = True

    def _run_instant(self, sched: EventScheduler, t: float, priority: int) -> None:
        prev = self._active
        self._active = sched
        try:
            sched.run_instant(t, priority)
        finally:
            self._active = prev

    def _run_merged_instant(
        self, lanes: Sequence[EventScheduler], t: float, priority: int
    ) -> None:
        """Execute one barrier phase across ``lanes`` in spawn-rank order.

        Same-phase events on *different shards* commute (their sends cannot
        land before the next window), so ordinarily each lane runs its whole
        phase in turn.  Control-lane events do not commute with shard events
        — a checkpoint round captures coordinator and fragment state that
        the same instant's coordinator rounds are mutating — so when lanes
        share a phase, events are popped one at a time in the global order
        the spawn ranks record.  Every event at a shared phase comes from
        :meth:`_spawn` (deliveries never share a phase with the control
        lane), so a rank is always present.
        """
        while True:
            best: Optional[EventScheduler] = None
            best_rank = None
            for sched in lanes:
                event = sched.peek_instant(t, priority)
                if event is None:
                    continue
                if best is None or event.rank < best_rank:
                    best, best_rank = sched, event.rank
            if best is None:
                break
            prev = self._active
            self._active = best
            try:
                best.run_one(t, priority)
            finally:
                self._active = prev
        for sched in lanes:
            if t > sched.now:
                sched.now = t

    def close(self) -> None:
        """Detach from the network."""
        network = self.network
        if network.send_listener is self._send_hook:
            network.send_listener = None
        if getattr(network, "enqueue_listener", None) is self._on_enqueue:
            network.enqueue_listener = None
        network.detach_shards()
        # sequence_hook stays installed: the in-flight queue already holds
        # token-ordered entries, and collect-time drains (acks!) must keep
        # producing comparable tokens rather than plain ints.

    # --------------------------------------------------------------- lifecycle
    def _sync_system_clock(self) -> None:
        now = self._active.now if self._active is not None else self._frontier
        if now > self.system.now:
            self.system.now = now

    def deploy_query(
        self,
        query_id: str,
        fragments: Mapping[str, object],
        sources: Sequence[object],
        placement: Mapping[str, str],
        nominal_rates: Optional[Dict[str, float]] = None,
    ) -> DeployedQuery:
        self._sync_system_clock()
        deployed = self.system.deploy_query(
            query_id, fragments, sources, placement, nominal_rates=nominal_rates
        )
        self._home_query(deployed)
        self._schedule_query_sources(deployed)
        self._schedule_coordinator(self.system.coordinators.coordinator(query_id))
        return deployed

    def undeploy_query(self, query_id: str) -> QueryCoordinator:
        query = self.system.queries.get(query_id)
        coordinator = self.system.undeploy_query(query_id)
        if query is not None:
            for index in range(len(query.source_plan)):
                self._cancel("source", query_id, str(index))
        self._cancel("coordinator", query_id)
        return coordinator

    def add_node(
        self, node: FspsNode, shedding_interval: Optional[float] = None
    ) -> FspsNode:
        self.system.add_node(node)
        if shedding_interval is not None:
            self._node_intervals[node.node_id] = float(shedding_interval)
        self._schedule_node(node)
        return node

    def migrate_fragment(
        self, fragment_id: str, target_node_id: str
    ) -> MigrationReport:
        self._sync_system_clock()
        source_id = self.system.placement.get(fragment_id)
        report = self.system.migrate_fragment(fragment_id, target_node_id)
        self._rehome_inflight(fragment_id, source_id, target_node_id)
        return report

    def _rehome_inflight(
        self, fragment_id: str, source_id: Optional[str], target_node_id: str
    ) -> None:
        """Move a migrated fragment's in-flight batches to the new host shard.

        Batches already travelling towards the old host follow the placement
        table on delivery (:meth:`FederatedSystem.dispatch` forwards them),
        so their queue entries must drain on the shard that owns the *new*
        host — otherwise the forwarded processing would mutate the target
        node from the source node's shard, breaking the one-shard-per-node
        state ownership the windows rely on.  Entries keep their tokens:
        they merge into the new shard's heap exactly where the global order
        puts them.
        """
        if source_id is None:
            return
        src = self._plan.endpoint_shard(source_id)
        dst = self._plan.endpoint_shard(target_node_id)
        if src == dst:
            return
        queues = self.network._shard_queues
        queue = queues[src]
        moved = [
            entry
            for entry in queue
            if entry.message is not None
            and entry.message.kind == "data"
            and entry.message.target_fragment_id == fragment_id
        ]
        if not moved:
            return
        gone = {id(entry) for entry in moved}
        queue[:] = [entry for entry in queue if id(entry) not in gone]
        heapq.heapify(queue)
        for entry in moved:
            heapq.heappush(queues[dst], entry)
            self._on_enqueue(entry, dst)

    def remove_node(
        self, node_id: str, migrate_to: Optional[Sequence[str]] = None
    ) -> FspsNode:
        self._sync_system_clock()
        hosting = self.system.nodes.get(node_id)
        hosted = list(hosting.fragments) if hosting is not None else []
        node = self.system.remove_node(node_id, migrate_to=migrate_to)
        for fragment_id in hosted:
            self._rehome_inflight(
                fragment_id, node_id, self.system.placement[fragment_id]
            )
        self._cancel("node", node_id)
        self._node_intervals.pop(node_id, None)
        return node

    def fail_node(self, node_id: str) -> FspsNode:
        self._sync_system_clock()
        node = self.system.fail_node(node_id)
        self._cancel("node", node_id)
        self._node_intervals.pop(node_id, None)
        return node

    def crash_node_silently(self, node_id: str) -> None:
        if node_id not in self.system.nodes:
            raise ValueError(f"node {node_id!r} does not exist")
        self._cancel("node", node_id)
        self.system.network.dead_endpoints.add(node_id)

    def repair_node(self, node_id: str) -> None:
        self.system.network.dead_endpoints.discard(node_id)

    def node_running(self, node_id: str) -> bool:
        return ("node", node_id) in self._events

    def rejoin_node(
        self, node: FspsNode, shedding_interval: Optional[float] = None
    ) -> RejoinReport:
        self._sync_system_clock()
        report = self.system.rejoin_node(node)
        if shedding_interval is not None:
            self._node_intervals[node.node_id] = float(shedding_interval)
        self._schedule_node(node)
        return report

    def fail_coordinator(self, query_id: str) -> QueryCoordinator:
        self._sync_system_clock()
        self._cancel("coordinator", query_id)
        failed = self.system.fail_coordinator(query_id)
        self._schedule_coordinator(self.system.coordinators.coordinator(query_id))
        return failed

    def checkpoint_now(self) -> int:
        self._sync_system_clock()
        return self.system.checkpoint_all(self.system.now)
