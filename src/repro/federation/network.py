"""Inter-site network model.

FSPS sites belong to different administrative domains and are connected by a
network whose latencies matter for two things: the delivery of data batches
between fragments placed on different nodes, and the delivery of the query
coordinators' result-SIC updates (``updateSIC``).  The paper evaluates a LAN
setting (5 ms between Emulab nodes) and an emulated wide-area setting (50 ms,
§7.4); this module provides the corresponding latency models and an in-flight
message queue with deterministic delivery order.

On top of the latency model the network optionally runs a **reliable delivery
channel** for data and result messages (``ReliabilityConfig``): per-link
sequence numbers, receiver-side in-order dedup, acks travelling back through
the same lossy network, and timeout-based retransmission with exponential
backoff from a bounded per-link buffer.  ``updateSIC`` and heartbeat messages
stay best-effort fire-and-forget, matching the paper's 30-byte ``updateSIC``
semantics — under a partition nodes simply shed with stale SIC until
dissemination resumes.

Faults are injected through two transport hooks kept deliberately narrow so
the fault subsystem (:mod:`repro.faults`) stays decoupled:

* ``fault_policy(message, source, destination, sent_at, latency)`` returns
  the list of delivery times for one physical transmission — empty to drop
  it, more than one entry to duplicate it, jittered values to delay it.
* ``dead_endpoints`` — endpoints whose inbound and outbound transmissions
  are discarded (crashed processes); retransmission keeps retrying into the
  void, so a repaired endpoint receives the backlog exactly once.

With both hooks unset and reliability disabled the behaviour is identical to
the latency-only network.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple as PyTuple,
)

from ..core.tuples import Batch

__all__ = [
    "Message",
    "DataMessage",
    "SicUpdateMessage",
    "ResultMessage",
    "HeartbeatMessage",
    "AckMessage",
    "LatencyModel",
    "UniformLatency",
    "LatencyMatrix",
    "ReliabilityConfig",
    "NetworkStats",
    "Network",
    "LAN_LATENCY_SECONDS",
    "WAN_LATENCY_SECONDS",
]

LAN_LATENCY_SECONDS = 0.005
WAN_LATENCY_SECONDS = 0.050

# A link is a directed (source endpoint, destination endpoint) pair; the
# reliable channel keeps its sequence numbers, retransmit buffers and
# receiver-side dedup state per link.
Link = PyTuple[str, str]

FaultPolicy = Callable[["Message", str, str, float, float], Sequence[float]]


@dataclass
class Message:
    """Base class of all network messages."""

    destination: str

    #: Counter key used by the per-message-type accounting.
    kind = "message"

    def size_bytes(self) -> int:
        return 0


@dataclass
class DataMessage(Message):
    """A batch of tuples travelling towards the node hosting a fragment."""

    batch: Batch = None  # type: ignore[assignment]
    target_fragment_id: str = ""

    kind = "data"

    def size_bytes(self) -> int:
        # payload_bytes is O(1) for columnar batches (uniform schema) and
        # equals the per-tuple sum(len(t.values) * 8) accounting exactly.
        return self.batch.payload_bytes() + self.batch.meta_data_bytes()


@dataclass
class ResultMessage(Message):
    """Result batch travelling from a root fragment to its query coordinator."""

    batch: Batch = None  # type: ignore[assignment]

    kind = "result"

    def size_bytes(self) -> int:
        return self.batch.payload_bytes() + self.batch.meta_data_bytes()


@dataclass
class SicUpdateMessage(Message):
    """``updateSIC`` message from a query coordinator to a hosting node.

    The prototype uses 30-byte messages sent every shedding interval (§7.6).
    ``sent_at`` records the dissemination instant so the dispatcher can drop
    updates from a torn-down coordinator whose query id was since reused.
    """

    query_id: str = ""
    sic_value: float = 0.0
    sent_at: float = 0.0

    kind = "sic_update"

    def size_bytes(self) -> int:
        return 30


@dataclass
class HeartbeatMessage(Message):
    """Liveness beacon a node sends to the failure detector's endpoint.

    Best-effort like ``updateSIC``: a lost heartbeat is exactly what makes
    the failure detector suspect a node, so heartbeats must be subject to
    the same loss, delay and partition faults as everything else.
    """

    node_id: str = ""
    sent_at: float = 0.0

    kind = "heartbeat"

    def size_bytes(self) -> int:
        return 16


@dataclass
class AckMessage(Message):
    """Transport-level acknowledgement of one reliable-channel sequence number.

    Consumed by the :class:`Network` itself on delivery — never dispatched to
    the application — but it crosses the same lossy network as the payload it
    acknowledges, so a lost ack produces a retransmission the receiver must
    deduplicate.
    """

    link: Link = ("", "")
    seq: int = -1

    kind = "ack"

    def size_bytes(self) -> int:
        return 20


class LatencyModel:
    """Interface of latency models between named endpoints."""

    def latency(self, source: str, destination: str) -> float:
        raise NotImplementedError

    def min_latency(self) -> float:
        """Lower bound on the latency between any pair of *distinct* endpoints.

        The sharded runtime's conservative lookahead horizon: a shard may
        safely run ``min_latency`` seconds past the last cross-shard barrier
        because no boundary message can arrive sooner.  Same-endpoint
        traffic (latency 0) never crosses shards, so it does not bound the
        window.
        """
        raise NotImplementedError


class UniformLatency(LatencyModel):
    """A single latency between every pair of distinct endpoints."""

    def __init__(self, seconds: float = LAN_LATENCY_SECONDS) -> None:
        if seconds < 0:
            raise ValueError(f"latency must be non-negative, got {seconds}")
        self.seconds = float(seconds)

    def latency(self, source: str, destination: str) -> float:
        if source == destination:
            return 0.0
        return self.seconds

    def min_latency(self) -> float:
        return self.seconds


class LatencyMatrix(LatencyModel):
    """Per-pair latencies with a default for unspecified pairs."""

    def __init__(
        self,
        default_seconds: float = LAN_LATENCY_SECONDS,
        pairs: Optional[Dict[PyTuple[str, str], float]] = None,
    ) -> None:
        self.default_seconds = float(default_seconds)
        self._pairs: Dict[PyTuple[str, str], float] = dict(pairs or {})

    def set_latency(
        self,
        source: str,
        destination: str,
        seconds: float,
        symmetric: bool = True,
    ) -> None:
        """Set the latency of a pair; ``symmetric=False`` sets one direction.

        Asymmetric pairs model real federations where the administrative
        domains' uplinks and downlinks differ (e.g. a site behind a
        long-haul uplink replying over a local peering).
        """
        self._pairs[(source, destination)] = float(seconds)
        if symmetric:
            self._pairs[(destination, source)] = float(seconds)

    def latency(self, source: str, destination: str) -> float:
        if source == destination:
            return 0.0
        return self._pairs.get((source, destination), self.default_seconds)

    def min_latency(self) -> float:
        if not self._pairs:
            return self.default_seconds
        return min(self.default_seconds, min(self._pairs.values()))


@dataclass
class ReliabilityConfig:
    """Tuning of the reliable delivery channel for data/result messages.

    The retransmission timeout of a message is
    ``max(min_rto_seconds, rto_rtt_multiplier * rtt)`` where ``rtt`` is the
    round-trip latency of its link at send time; with the multiplier above 1
    and no faults the ack always lands before the first timeout, so a
    fault-free run performs zero retransmissions.  Each retry multiplies the
    timeout by ``backoff_factor`` up to ``max_rto_seconds``; after
    ``max_retries`` unacknowledged attempts the message is *expired* —
    counted in :class:`NetworkStats`, never silently discarded.  The per-link
    retransmit buffer holds at most ``window`` unacknowledged messages;
    sends beyond it are likewise expired with accounting, so memory stays
    bounded no matter the loss rate.
    """

    window: int = 512
    min_rto_seconds: float = 0.05
    rto_rtt_multiplier: float = 2.0
    backoff_factor: float = 2.0
    max_rto_seconds: float = 2.0
    max_retries: int = 16

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ValueError(f"window must be positive, got {self.window}")
        if self.min_rto_seconds <= 0:
            raise ValueError(
                f"min_rto_seconds must be positive, got {self.min_rto_seconds}"
            )
        if self.rto_rtt_multiplier <= 1.0:
            raise ValueError(
                "rto_rtt_multiplier must exceed 1.0 so fault-free acks beat "
                f"the first timeout, got {self.rto_rtt_multiplier}"
            )
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be at least 1.0, got {self.backoff_factor}"
            )
        if self.max_rto_seconds < self.min_rto_seconds:
            raise ValueError("max_rto_seconds must be at least min_rto_seconds")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be non-negative, got {self.max_retries}")


class NetworkStats:
    """Per-message-type transport accounting.

    Every physical and logical event on the network increments exactly one
    counter, which is what makes the exactly-once ledger auditable: a sent
    message is eventually *delivered*, still *pending* (unacked or in
    flight), or *expired* — never silently lost.  Keys are message kinds
    (``"data"``, ``"result"``, ``"sic_update"``, ``"heartbeat"``, ``"ack"``).
    """

    def __init__(self) -> None:
        #: logical sends (one per ``Network.send`` call)
        self.sent: Dict[str, int] = {}
        #: unique messages handed to the application dispatcher
        self.delivered: Dict[str, int] = {}
        #: physical transmissions discarded by faults or dead endpoints
        self.dropped: Dict[str, int] = {}
        #: received copies suppressed by the reliable channel's dedup
        self.duplicates: Dict[str, int] = {}
        #: retransmission attempts performed by the reliable channel
        self.retransmits: Dict[str, int] = {}
        #: reliable messages abandoned (retries exhausted / window overflow)
        self.expired: Dict[str, int] = {}
        #: batch-tuple counts mirroring sent/delivered/expired for payloads
        self.tuples_sent: Dict[str, int] = {}
        self.tuples_delivered: Dict[str, int] = {}
        self.tuples_expired: Dict[str, int] = {}
        #: physical bytes put on the wire (includes retransmits, dups, acks)
        self.bytes_wire = 0
        #: acks emitted by receivers
        self.acks_sent = 0

    @staticmethod
    def _bump(counter: Dict[str, int], kind: str, amount: int = 1) -> None:
        counter[kind] = counter.get(kind, 0) + amount

    @staticmethod
    def _total(counter: Dict[str, int]) -> int:
        return sum(counter.values())

    def as_dict(self) -> Dict[str, object]:
        """A plain-dict summary for experiment reports and ``RunResult``."""
        return {
            "sent": dict(self.sent),
            "delivered": dict(self.delivered),
            "dropped": dict(self.dropped),
            "duplicates": dict(self.duplicates),
            "retransmits": dict(self.retransmits),
            "expired": dict(self.expired),
            "tuples_sent": dict(self.tuples_sent),
            "tuples_delivered": dict(self.tuples_delivered),
            "tuples_expired": dict(self.tuples_expired),
            "bytes_wire": self.bytes_wire,
            "acks_sent": self.acks_sent,
        }


class _PendingSend:
    """One unacknowledged reliable message in a sender's retransmit buffer."""

    __slots__ = ("message", "source", "attempts", "rto")

    def __init__(self, message: Message, source: str, rto: float) -> None:
        self.message = message
        self.source = source
        self.attempts = 0
        self.rto = rto


class _InFlight(NamedTuple):
    """One in-flight queue entry, ordered by ``(deliver_at, sequence)``.

    A plain tuple so the heaps order entries by C tuple comparison.
    ``sequence`` is unique per network, so a comparison is always decided
    within the first two elements and never reaches the message.
    """

    deliver_at: float
    # Tie-break for equal delivery times.  A plain int from the network's
    # monotonic counter by default (global transmit order); when a
    # ``sequence_hook`` is installed this is whatever the hook returns —
    # the sharded runtime supplies ``(send time, phase priority, sender
    # context rank, intra-context index)`` tuples, which encode the same
    # transmit order without depending on which shard transmitted first in
    # wall-clock terms.  A run uses one shape throughout, so comparisons
    # never mix int with tuple.
    sequence: object
    message: Optional[Message]
    # Reliable-channel routing of a payload copy (None for best-effort).
    link: Optional[Link] = None
    seq: Optional[int] = None
    # Internal control entry (retransmission timer); message is None.
    control: Optional[PyTuple[str, Link, int]] = None
    # ``message.size_bytes()``, computed once at send time (0 for control).
    size: int = 0


# ``_new_entry(_InFlight, fields)`` builds an entry from all seven fields
# without the Python-level frame of the named tuple's ``__new__``.
_new_entry = tuple.__new__


class Network:
    """In-flight message queue with latency-based delivery times.

    Delivery is deterministic: messages are delivered ordered by delivery time
    and, for equal times, by send order.  The tie-break counter is
    per-instance, so back-to-back simulations in one process see identical
    orders regardless of how many runs executed before them.

    With ``reliability`` set, data and result messages travel over the
    reliable channel (sequence numbers, acks, retransmission, in-order
    receiver dedup); everything else stays fire-and-forget.
    """

    #: message kinds carried by the reliable channel when it is enabled
    RELIABLE_KINDS = ("data", "result")

    def __init__(
        self,
        latency_model: Optional[LatencyModel] = None,
        reliability: Optional[ReliabilityConfig] = None,
    ) -> None:
        self.latency_model = latency_model or UniformLatency()
        self.reliability = reliability
        self._queue: List[_InFlight] = []
        self._message_ids = itertools.count()
        self.sent_messages = 0
        self.delivered_messages = 0
        # Logical application payload bytes (excludes retransmissions,
        # duplicates and acks — see ``stats.bytes_wire`` for physical bytes).
        self.bytes_sent = 0
        self.bytes_delivered = 0
        self.stats = NetworkStats()
        # Optional hook invoked as ``send_listener(message, deliver_at)`` on
        # every transmission (``message`` is None for internal control
        # timers).  The discrete-event runtime uses it to schedule a delivery
        # event; the lockstep loop leaves it unset (it polls ``deliver_due``
        # at every tick instead).
        self.send_listener = None
        # Optional hook returning the ordering element used in place of the
        # monotonic transmit counter (see ``_InFlight.sequence``).  Installed
        # by the sharded runtime, which needs equal-time delivery order to be
        # a property of *what* was sent rather than of shard interleaving.
        self.sequence_hook: Optional[Callable[[], object]] = None
        # Shard-partitioned in-flight queues (see ``attach_shards``); None
        # when the network runs single-queue.
        self._shard_queues: Optional[List[List[_InFlight]]] = None
        self._shard_router: Optional[Callable[[_InFlight], int]] = None
        # Invoked as ``enqueue_listener(entry, shard)`` after an entry lands
        # on a shard queue; the sharded runtime schedules the matching
        # delivery event on the owning shard's scheduler from here.
        self.enqueue_listener: Optional[Callable[[_InFlight, int], None]] = None
        # ``(deliver_at, sequence)`` of the in-flight entry currently being
        # processed by the delivery path, or None.  Sends performed while
        # processing a delivery (acks, placement forwards, retransmits) use
        # it as their ordering context under the sharded runtime; it is only
        # maintained while a ``sequence_hook`` (its one reader) is installed.
        self.delivery_context: Optional[PyTuple[float, object]] = None
        # Fault hooks (see module docstring); both unset by default.
        self.fault_policy: Optional[FaultPolicy] = None
        self.dead_endpoints: Set[str] = set()
        # Reliable-channel state, all keyed per directed link.
        self._next_seq: Dict[Link, int] = {}
        self._unacked: Dict[Link, Dict[int, _PendingSend]] = {}
        self._recv_next: Dict[Link, int] = {}
        self._recv_buffer: Dict[Link, Dict[int, Message]] = {}

    # ------------------------------------------------------------------ sending
    def send(self, message: Message, sent_at: float, source: str) -> float:
        """Enqueue ``message`` and return its nominal delivery time."""
        kind = message.kind
        size = message.size_bytes()
        self.sent_messages += 1
        self.bytes_sent += size
        self.stats._bump(self.stats.sent, kind)
        batch = getattr(message, "batch", None)
        if batch is not None:
            self.stats._bump(self.stats.tuples_sent, kind, len(batch))
        destination = message.destination
        latency = self.latency_model.latency(source, destination)
        deliver_at = sent_at + latency
        reliability = self.reliability
        if reliability is None or kind not in self.RELIABLE_KINDS:
            self._transmit(message, source, sent_at, latency, size)
            return deliver_at
        if kind == "result":
            # Results from every query a node hosts share the coordinator
            # endpoint; giving each query its own reliable lane keeps a
            # link's in-order receive state on a single shard (deliveries of
            # result traffic drain on the query's home shard).  The real
            # endpoint names still drive latency, ack routing and
            # dead-endpoint checks.
            link = (source, destination, message.batch.query_id)
        else:
            link = (source, destination)
        pending = self._unacked.get(link)
        if pending is None:
            pending = self._unacked[link] = {}
        elif len(pending) >= reliability.window:
            # Bounded retransmit buffer: refuse the send with accounting —
            # a silent drop would defeat the exactly-once ledger.
            self._expire(message)
            return deliver_at
        seq = self._next_seq.get(link, 0)
        self._next_seq[link] = seq + 1
        rtt = latency + self.latency_model.latency(destination, source)
        rto = max(reliability.min_rto_seconds, rtt * reliability.rto_rtt_multiplier)
        pending[seq] = _PendingSend(message, source, rto)
        self._transmit(message, source, sent_at, latency, size, link, seq)
        self._put(sent_at + rto, None, None, None, ("rtx", link, seq), 0)
        return deliver_at

    def _transmit(
        self,
        message: Message,
        source: str,
        sent_at: float,
        latency: float,
        size: int,
        link: Optional[Link] = None,
        seq: Optional[int] = None,
    ) -> None:
        """Put one physical copy of ``message`` on the wire (or drop it).

        ``latency`` and ``size`` are the link latency from ``source`` to the
        message's destination and ``message.size_bytes()``; callers look them
        up once and every copy reuses them.
        """
        destination = message.destination
        dead = self.dead_endpoints
        if dead and (source in dead or destination in dead):
            self.stats._bump(self.stats.dropped, message.kind)
            return
        if self.fault_policy is None:
            self.stats.bytes_wire += size
            self._put(sent_at + latency, message, link, seq, None, size)
            return
        times = self.fault_policy(message, source, destination, sent_at, latency)
        if not times:
            self.stats._bump(self.stats.dropped, message.kind)
            return
        for deliver_at in times:
            self.stats.bytes_wire += size
            self._put(deliver_at, message, link, seq, None, size)

    def _put(
        self,
        deliver_at: float,
        message: Optional[Message],
        link: Optional[Link],
        seq: Optional[int],
        control: Optional[PyTuple[str, Link, int]],
        size: int,
    ) -> None:
        """Queue one in-flight entry and notify the send listener.

        The single enqueue point of payload copies and retransmission timers
        (``message`` None, ``control`` set) alike; it runs once or more per
        reliable message, so it builds the entry tuple directly rather than
        through the named tuple's keyword constructor.
        """
        hook = self.sequence_hook
        sequence = next(self._message_ids) if hook is None else hook()
        entry = _new_entry(
            _InFlight, (deliver_at, sequence, message, link, seq, control, size)
        )
        if self._shard_queues is None:
            heapq.heappush(self._queue, entry)
        else:
            shard = self._shard_router(entry)
            heapq.heappush(self._shard_queues[shard], entry)
            if self.enqueue_listener is not None:
                self.enqueue_listener(entry, shard)
        if self.send_listener is not None:
            self.send_listener(message, deliver_at)

    def _send_ack(self, link: Link, seq: int, now: float) -> None:
        # The ack crosses the network in the reverse direction and is subject
        # to the same faults as any other transmission.
        self.stats.acks_sent += 1
        source, destination = link[1], link[0]
        ack = AckMessage(destination, link, seq)
        latency = self.latency_model.latency(source, destination)
        self._transmit(ack, source, now, latency, ack.size_bytes())

    def _expire(self, message: Message) -> None:
        self.stats._bump(self.stats.expired, message.kind)
        batch = getattr(message, "batch", None)
        if batch is not None:
            self.stats._bump(self.stats.tuples_expired, message.kind, len(batch))

    # ------------------------------------------------------------------ sharding
    def attach_shards(
        self, num_shards: int, router: Callable[[_InFlight], int]
    ) -> None:
        """Partition the in-flight queue into per-shard FIFO heaps.

        ``router`` maps an in-flight entry to the shard that owns its
        *destination* (delivery side), so each shard drains exactly the
        traffic bound for its own endpoints via :meth:`deliver_due_shard`.
        Existing in-flight entries are re-routed into the shard queues.
        """
        if self._shard_queues is not None:
            raise RuntimeError("network already sharded")
        if num_shards <= 0:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        self._shard_router = router
        queues: List[List[_InFlight]] = [[] for _ in range(num_shards)]
        self._shard_queues = queues
        pending, self._queue = self._queue, []
        for entry in pending:
            heapq.heappush(queues[router(entry)], entry)

    def detach_shards(self) -> None:
        """Merge the shard queues back into the single global queue."""
        if self._shard_queues is None:
            return
        for queue in self._shard_queues:
            for entry in queue:
                heapq.heappush(self._queue, entry)
        self._shard_queues = None
        self._shard_router = None

    # ----------------------------------------------------------------- delivery
    def deliver_due(self, now: float) -> List[Message]:
        """Pop every entry due ``<= now``; return application-bound messages.

        Transport-internal traffic — acks, retransmission timers, duplicate
        and out-of-order copies — is consumed here and never reaches the
        dispatcher.  When the network is sharded this merges all shard
        queues back into the global ``(deliver_at, sequence)`` order (used
        by ``drain_network`` at collect time; the sharded run loop itself
        drains per shard).
        """
        due: List[Message] = []
        if self._shard_queues is None:
            self._drain_heap(self._queue, now, due)
        else:
            # Gather every due entry across shards, then process in the
            # global total order so the reliable channel and accounting see
            # the same sequence a single queue would have produced.
            ready: List[_InFlight] = []
            for queue in self._shard_queues:
                while queue and queue[0][0] <= now:
                    ready.append(heapq.heappop(queue))
            ready.sort()
            process = self._entry_processor()
            for entry in ready:
                process(entry, now, due)
        self.delivered_messages += len(due)
        return due

    def deliver_due_shard(self, shard: int, now: float) -> List[Message]:
        """Pop one shard's entries due ``<= now`` in ``(time, sequence)`` order.

        Only meaningful after :meth:`attach_shards`; sends triggered while
        processing (acks, retransmits) are routed back through ``_put`` and
        may land on other shards' queues.
        """
        due: List[Message] = []
        self._drain_heap(self._shard_queues[shard], now, due)
        self.delivered_messages += len(due)
        return due

    def _drain_heap(
        self, queue: List[_InFlight], now: float, due: List[Message]
    ) -> None:
        pop = heapq.heappop
        process = self._entry_processor()
        while queue and queue[0][0] <= now:
            process(pop(queue), now, due)

    def _entry_processor(self) -> Callable[[_InFlight, float, List[Message]], None]:
        """How to process one due entry: in its delivery context only when a
        sequence hook — the context's one reader — is installed."""
        if self.sequence_hook is None:
            return self._process_entry
        return self._process_in_context

    def _process_in_context(
        self, entry: _InFlight, now: float, due: List[Message]
    ) -> None:
        prev_ctx = self.delivery_context
        self.delivery_context = (entry.deliver_at, entry.sequence)
        try:
            self._process_entry(entry, now, due)
        finally:
            self.delivery_context = prev_ctx

    def _process_entry(self, entry: _InFlight, now: float, due: List[Message]) -> None:
        _, _, message, link, seq, control, size = entry
        if control is not None:
            _, link, seq = control
            pending = self._unacked.get(link)
            if pending is not None:
                pending = pending.get(seq)
            # None: acked in the meantime, the timer is stale.
            if pending is not None:
                self._retransmit(link, seq, pending, now)
            return
        dead = self.dead_endpoints
        if dead and message.destination in dead:
            self.stats._bump(self.stats.dropped, message.kind)
            return
        if isinstance(message, AckMessage):
            pending = self._unacked.get(message.link)
            if pending is not None:
                pending.pop(message.seq, None)
            return
        if link is None:
            due.append(message)
            self._count_delivered(message, size)
            return
        self._receive_reliable(message, link, seq, size, now, due)

    def _receive_reliable(
        self,
        message: Message,
        link: Link,
        seq: int,
        size: int,
        now: float,
        due: List[Message],
    ) -> None:
        """Ack, deduplicate and in-order-release one reliable payload copy."""
        expected = self._recv_next.get(link, 0)
        # Always ack what arrived — a duplicate usually means the previous
        # ack was lost, so the sender still needs one.
        self._send_ack(link, seq, now)
        if seq < expected:
            self.stats._bump(self.stats.duplicates, message.kind)
            return
        if seq > expected:
            buffer = self._recv_buffer.setdefault(link, {})
            if seq in buffer:
                self.stats._bump(self.stats.duplicates, message.kind)
            else:
                buffer[seq] = message
            return
        # seq == expected: release it plus any contiguous buffered run.
        due.append(message)
        self._count_delivered(message, size)
        nxt = expected + 1
        buffer = self._recv_buffer.get(link)
        if buffer:
            while nxt in buffer:
                held = buffer.pop(nxt)
                due.append(held)
                self._count_delivered(held, held.size_bytes())
                nxt += 1
        self._recv_next[link] = nxt

    def _retransmit(
        self, link: Link, seq: int, pending: _PendingSend, now: float
    ) -> None:
        """A live retransmission timer fired: resend ``pending`` or expire it."""
        assert self.reliability is not None
        pending.attempts += 1
        if pending.attempts > self.reliability.max_retries:
            del self._unacked[link][seq]
            self._expire(pending.message)
            return
        self.stats._bump(self.stats.retransmits, pending.message.kind)
        message = pending.message
        latency = self.latency_model.latency(pending.source, message.destination)
        self._transmit(
            message, pending.source, now, latency, message.size_bytes(), link, seq
        )
        pending.rto = min(
            self.reliability.max_rto_seconds,
            pending.rto * self.reliability.backoff_factor,
        )
        self._put(now + pending.rto, None, None, None, ("rtx", link, seq), 0)

    def _count_delivered(self, message: Message, size: int) -> None:
        kind = message.kind
        self.stats._bump(self.stats.delivered, kind)
        self.bytes_delivered += size
        batch = getattr(message, "batch", None)
        if batch is not None:
            self.stats._bump(self.stats.tuples_delivered, kind, len(batch))

    # -------------------------------------------------------------- inspection
    def in_flight(self) -> int:
        total = len(self._queue)
        if self._shard_queues is not None:
            total += sum(len(queue) for queue in self._shard_queues)
        return total

    def next_delivery_time(self) -> Optional[float]:
        times = []
        if self._queue:
            times.append(self._queue[0][0])
        if self._shard_queues is not None:
            times.extend(q[0][0] for q in self._shard_queues if q)
        if not times:
            return None
        return min(times)

    def reliable_pending(self) -> int:
        """Unacknowledged reliable messages across all sender buffers."""
        return sum(len(pending) for pending in self._unacked.values())

    def reorder_buffered(self) -> int:
        """Out-of-order messages held back by receivers awaiting a gap fill."""
        return sum(len(buffer) for buffer in self._recv_buffer.values())
