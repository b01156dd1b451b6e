"""Unit tests for the inter-site network model."""

import pytest

from repro.core.tuples import Batch, Tuple
from repro.federation.network import (
    DataMessage,
    HeartbeatMessage,
    LatencyMatrix,
    Network,
    ReliabilityConfig,
    ResultMessage,
    SicUpdateMessage,
    UniformLatency,
)


def batch(query="q", n=3):
    return Batch(query, [Tuple(0.1 * i, 0.1, {"v": i}) for i in range(n)])


class TestLatencyModels:
    def test_uniform_latency_zero_for_same_endpoint(self):
        model = UniformLatency(0.005)
        assert model.latency("a", "a") == 0.0
        assert model.latency("a", "b") == 0.005

    def test_uniform_latency_rejects_negative(self):
        with pytest.raises(ValueError):
            UniformLatency(-1.0)

    def test_latency_matrix_uses_pairs_and_default(self):
        model = LatencyMatrix(default_seconds=0.005)
        model.set_latency("a", "b", 0.05)
        assert model.latency("a", "b") == 0.05
        assert model.latency("b", "a") == 0.05
        assert model.latency("a", "c") == 0.005
        assert model.latency("c", "c") == 0.0

    def test_latency_matrix_asymmetric_pairs_via_constructor(self):
        model = LatencyMatrix(
            default_seconds=0.005,
            pairs={("a", "b"): 0.05, ("b", "a"): 0.01},
        )
        assert model.latency("a", "b") == 0.05
        assert model.latency("b", "a") == 0.01

    def test_latency_matrix_one_way_set_latency(self):
        model = LatencyMatrix(default_seconds=0.005)
        model.set_latency("a", "b", 0.08, symmetric=False)
        assert model.latency("a", "b") == 0.08
        # The reverse direction keeps the default until set explicitly.
        assert model.latency("b", "a") == 0.005
        model.set_latency("b", "a", 0.02, symmetric=False)
        assert model.latency("a", "b") == 0.08
        assert model.latency("b", "a") == 0.02


class TestMessages:
    def test_data_message_size_includes_metadata(self):
        message = DataMessage(destination="n0", batch=batch(), target_fragment_id="f")
        assert message.size_bytes() > batch().meta_data_bytes() - 1

    def test_sic_update_message_is_30_bytes(self):
        message = SicUpdateMessage(destination="n0", query_id="q", sic_value=0.5)
        assert message.size_bytes() == 30


class TestNetwork:
    def test_delivery_after_latency(self):
        network = Network(UniformLatency(0.05))
        message = DataMessage(destination="n1", batch=batch(), target_fragment_id="f")
        deliver_at = network.send(message, sent_at=1.0, source="n0")
        assert deliver_at == pytest.approx(1.05)
        assert network.deliver_due(1.04) == []
        assert network.deliver_due(1.05) == [message]
        assert network.in_flight() == 0

    def test_delivery_order_is_by_time_then_send_order(self):
        network = Network(UniformLatency(0.0))
        first = SicUpdateMessage(destination="n1", query_id="a", sic_value=0.1)
        second = SicUpdateMessage(destination="n1", query_id="b", sic_value=0.2)
        network.send(first, sent_at=1.0, source="c")
        network.send(second, sent_at=1.0, source="c")
        delivered = network.deliver_due(2.0)
        assert [m.query_id for m in delivered] == ["a", "b"]

    def test_counters_and_bytes(self):
        network = Network(UniformLatency(0.0))
        network.send(ResultMessage(destination="coord", batch=batch()), 0.0, "n0")
        network.send(
            SicUpdateMessage(destination="n0", query_id="q", sic_value=0.1), 0.0, "c"
        )
        assert network.sent_messages == 2
        assert network.bytes_sent > 30
        network.deliver_due(10.0)
        assert network.delivered_messages == 2

    def test_next_delivery_time(self):
        network = Network(UniformLatency(0.1))
        assert network.next_delivery_time() is None
        network.send(ResultMessage(destination="c", batch=batch()), 1.0, "n0")
        assert network.next_delivery_time() == pytest.approx(1.1)

    def test_per_pair_fifo_with_latency_matrix(self):
        # Each endpoint pair has a constant latency, so messages on the same
        # pair can never overtake each other — delivery is FIFO per pair even
        # when pairs with very different latencies interleave.
        model = LatencyMatrix(default_seconds=0.005)
        model.set_latency("a", "dst", 0.05)
        model.set_latency("b", "dst", 0.002)
        network = Network(model)
        order = []
        for i in range(3):
            sent_at = i * 0.01
            network.send(
                SicUpdateMessage(destination="dst", query_id=f"a{i}", sic_value=0.1),
                sent_at,
                "a",
            )
            order.append(f"a{i}")
            network.send(
                SicUpdateMessage(destination="dst", query_id=f"b{i}", sic_value=0.1),
                sent_at,
                "b",
            )
            order.append(f"b{i}")
        delivered = [m.query_id for m in network.deliver_due(10.0)]
        # Per-pair FIFO: each source's messages arrive in send order.
        assert [q for q in delivered if q.startswith("a")] == ["a0", "a1", "a2"]
        assert [q for q in delivered if q.startswith("b")] == ["b0", "b1", "b2"]
        # Global order follows delivery times: the fast pair's burst lands
        # before the slow pair's first message.
        assert delivered == ["b0", "b1", "b2", "a0", "a1", "a2"]
        assert delivered != order

    def test_same_delivery_time_across_pairs_keeps_send_order(self):
        # Two pairs tuned so messages sent at different times collide at the
        # same delivery instant: the tie-break is send order, deterministic.
        model = LatencyMatrix(default_seconds=0.005)
        model.set_latency("slow", "dst", 0.1)
        model.set_latency("fast", "dst", 0.05)
        network = Network(model)
        network.send(
            SicUpdateMessage(destination="dst", query_id="s", sic_value=0.1),
            0.0,
            "slow",
        )
        network.send(
            SicUpdateMessage(destination="dst", query_id="f", sic_value=0.1),
            0.05,
            "fast",
        )
        delivered = [m.query_id for m in network.deliver_due(0.1)]
        assert delivered == ["s", "f"]

    def test_message_id_counter_is_per_instance(self):
        # Back-to-back simulations in one process must see identical
        # tie-break orders: a fresh network's delivery order cannot depend on
        # how many messages earlier networks sent.
        def run_sequence():
            network = Network(UniformLatency(0.0))
            for qid in ("a", "b", "c"):
                network.send(
                    SicUpdateMessage(destination="dst", query_id=qid, sic_value=0.1),
                    0.0,
                    "src",
                )
            return [m.query_id for m in network.deliver_due(1.0)]

        first = run_sequence()
        # Burn counter state on an unrelated instance in between.
        other = Network(UniformLatency(0.0))
        for _ in range(100):
            other.send(
                SicUpdateMessage(destination="x", query_id="noise", sic_value=0.0),
                0.0,
                "y",
            )
        assert run_sequence() == first


def pump(network):
    delivered = []
    while network.in_flight():
        delivered.extend(network.deliver_due(network.next_delivery_time()))
    return delivered


class TestFaultHooks:
    def test_fault_policy_can_drop_duplicate_and_delay(self):
        network = Network(UniformLatency(0.01))
        calls = []

        def policy(message, source, destination, sent_at, latency):
            calls.append((message.kind, source, destination))
            if message.kind == "sic_update":
                return ()  # drop
            return (sent_at + latency, sent_at + latency + 0.5)  # duplicate

        network.fault_policy = policy
        network.send(
            SicUpdateMessage(destination="n0", query_id="q", sic_value=0.1), 0.0, "c"
        )
        network.send(HeartbeatMessage(destination="c", node_id="n0"), 0.0, "n0")
        assert network.stats.dropped == {"sic_update": 1}
        # Best-effort duplication without the reliable channel reaches the
        # application twice — dedup is the reliable channel's job.
        delivered = pump(network)
        assert [m.kind for m in delivered] == ["heartbeat", "heartbeat"]
        assert calls[0] == ("sic_update", "c", "n0")

    def test_dead_endpoint_drops_at_send_and_at_delivery(self):
        network = Network(UniformLatency(0.01))
        network.send(HeartbeatMessage(destination="c", node_id="n0"), 0.0, "n0")
        network.dead_endpoints.add("c")  # dies while the beacon is in flight
        assert network.deliver_due(1.0) == []
        assert network.stats.dropped == {"heartbeat": 1}
        network.send(HeartbeatMessage(destination="c", node_id="n1"), 1.0, "n1")
        assert network.in_flight() == 0  # never put on the wire
        assert network.stats.dropped == {"heartbeat": 2}


class TestReliabilityConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ReliabilityConfig(window=0)
        with pytest.raises(ValueError):
            ReliabilityConfig(min_rto_seconds=0.0)
        with pytest.raises(ValueError):
            ReliabilityConfig(rto_rtt_multiplier=1.0)
        with pytest.raises(ValueError):
            ReliabilityConfig(backoff_factor=0.9)
        with pytest.raises(ValueError):
            ReliabilityConfig(min_rto_seconds=1.0, max_rto_seconds=0.5)
        with pytest.raises(ValueError):
            ReliabilityConfig(max_retries=-1)


class TestReliableChannel:
    def test_dropped_copy_is_retransmitted_and_delivered_once(self):
        network = Network(UniformLatency(0.01), reliability=ReliabilityConfig())
        attempts = []

        def policy(message, source, destination, sent_at, latency):
            if message.kind == "data":
                attempts.append(sent_at)
                if len(attempts) == 1:
                    return ()  # eat the first copy
            return (sent_at + latency,)

        network.fault_policy = policy
        message = DataMessage(destination="n1", batch=batch(), target_fragment_id="f")
        network.send(message, sent_at=0.0, source="n0")
        delivered = pump(network)
        assert delivered == [message]
        assert network.stats.retransmits == {"data": 1}
        assert network.stats.delivered == {"data": 1}
        assert network.reliable_pending() == 0
        # The retransmission happened one RTO after the original send.
        assert attempts[1] == pytest.approx(0.05)

    def test_lost_ack_causes_duplicate_which_is_suppressed(self):
        network = Network(UniformLatency(0.01), reliability=ReliabilityConfig())
        acks_seen = []

        def policy(message, source, destination, sent_at, latency):
            if message.kind == "ack":
                acks_seen.append(sent_at)
                if len(acks_seen) == 1:
                    return ()  # lose the first ack
            return (sent_at + latency,)

        network.fault_policy = policy
        message = DataMessage(destination="n1", batch=batch(), target_fragment_id="f")
        network.send(message, sent_at=0.0, source="n0")
        delivered = pump(network)
        # Delivered to the application exactly once despite the retransmit
        # the lost ack provoked; the duplicate copy was counted, and the
        # duplicate's re-ack finally cleared the sender's buffer.
        assert delivered == [message]
        assert network.stats.duplicates == {"data": 1}
        assert network.stats.retransmits == {"data": 1}
        assert len(acks_seen) == 2
        assert network.reliable_pending() == 0

    def test_retries_exhausted_expires_with_accounting(self):
        config = ReliabilityConfig(max_retries=3)
        network = Network(UniformLatency(0.01), reliability=config)
        network.fault_policy = lambda *a: ()  # total blackout
        message = DataMessage(destination="n1", batch=batch(n=4), target_fragment_id="f")
        network.send(message, sent_at=0.0, source="n0")
        pump(network)
        assert network.stats.expired == {"data": 1}
        assert network.stats.tuples_expired == {"data": 4}
        assert network.stats.retransmits == {"data": 3}
        assert network.reliable_pending() == 0

    def test_dead_destination_receives_backlog_exactly_once_after_repair(self):
        network = Network(UniformLatency(0.01), reliability=ReliabilityConfig())
        network.dead_endpoints.add("n1")
        message = DataMessage(destination="n1", batch=batch(), target_fragment_id="f")
        network.send(message, sent_at=0.0, source="n0")
        # While the endpoint is down the channel keeps retrying into the void.
        for _ in range(3):
            network.deliver_due(network.next_delivery_time())
        assert network.reliable_pending() == 1
        network.dead_endpoints.discard("n1")  # machine reboots
        delivered = pump(network)
        assert delivered == [message]
        assert network.stats.delivered == {"data": 1}
        assert network.reliable_pending() == 0

    def test_best_effort_kinds_bypass_the_reliable_channel(self):
        network = Network(UniformLatency(0.01), reliability=ReliabilityConfig())
        network.send(
            SicUpdateMessage(destination="n0", query_id="q", sic_value=0.1), 0.0, "c"
        )
        network.send(HeartbeatMessage(destination="c", node_id="n0"), 0.0, "n0")
        pump(network)
        assert network.reliable_pending() == 0
        assert network.stats.acks_sent == 0

    def test_bytes_delivered_and_wire_accounting(self):
        network = Network(UniformLatency(0.01), reliability=ReliabilityConfig())
        message = ResultMessage(destination="coord", batch=batch())
        network.send(message, sent_at=0.0, source="n0")
        pump(network)
        size = message.size_bytes()
        assert network.bytes_sent == size
        assert network.bytes_delivered == size
        # Physical bytes include the ack the receiver sent back.
        assert network.stats.bytes_wire == size + 20
        assert network.stats.acks_sent == 1


class TestPerMessageAccounting:
    """Size and link latency are looked up once per message and passed down."""

    @staticmethod
    def counting(message_cls):
        calls = []

        class Counting(message_cls):
            def size_bytes(self):
                calls.append(self)
                return super().size_bytes()

        return Counting, calls

    @pytest.mark.parametrize("reliable", [False, True])
    def test_fault_free_message_is_sized_once(self, reliable):
        Counting, calls = self.counting(DataMessage)
        network = Network(
            UniformLatency(0.01),
            reliability=ReliabilityConfig() if reliable else None,
        )
        messages = [
            Counting(destination="n1", batch=batch(n=n), target_fragment_id="f")
            for n in (1, 4, 2)
        ]
        for message in messages:
            network.send(message, sent_at=0.0, source="n0")
        assert pump(network) == messages
        assert len(calls) == len(messages)
        total = sum(DataMessage.size_bytes(m) for m in messages)
        assert network.bytes_sent == network.bytes_delivered == total
        assert network.stats.bytes_wire == total + 20 * network.stats.acks_sent
        assert network.stats.acks_sent == (len(messages) if reliable else 0)

    def test_reliable_send_looks_each_direction_up_once(self):
        class CountingLatency(LatencyMatrix):
            def __init__(self):
                super().__init__(0.02, {("n0", "n1"): 0.01, ("n1", "n0"): 0.03})
                self.lookups = []

            def latency(self, source, destination):
                self.lookups.append((source, destination))
                return super().latency(source, destination)

        model = CountingLatency()
        network = Network(model, reliability=ReliabilityConfig())
        message = DataMessage(destination="n1", batch=batch(), target_fragment_id="f")
        assert network.send(message, sent_at=0.0, source="n0") == 0.01
        # Forward for the delivery time, reverse for the RTT — nothing else.
        assert model.lookups == [("n0", "n1"), ("n1", "n0")]
        assert pump(network) == [message]
        assert model.lookups == [("n0", "n1"), ("n1", "n0"), ("n1", "n0")]  # + the ack

    def test_counters_under_loss_duplication_and_retransmission_are_pinned(self):
        # Every NetworkStats counter and the three byte totals of a seeded
        # lossy scenario (drops, duplicates, lost acks, a dead endpoint,
        # window overflow, retry exhaustion), recorded before sizes and
        # latencies were passed down instead of recomputed per copy.
        latency = LatencyMatrix(0.02, {("n0", "n1"): 0.01, ("n1", "n0"): 0.03})
        network = Network(
            latency, reliability=ReliabilityConfig(max_retries=3, window=6)
        )
        transmissions = [0]

        def policy(message, source, destination, sent_at, lat):
            transmissions[0] += 1
            k = transmissions[0]
            if k % 5 == 0:
                return ()
            if k % 7 == 0:
                return (sent_at + lat, sent_at + lat + 0.004)
            if message.kind == "ack" and k % 3 == 0:
                return ()
            return (sent_at + lat,)

        network.fault_policy = policy
        delivered = []
        for i in range(60):
            now = i * 0.01
            if i == 20:
                network.dead_endpoints.add("n1")
            if i == 30:
                network.dead_endpoints.discard("n1")
            src, dst = ("n0", "n1") if i % 3 else ("n1", "n0")
            data = Batch(
                f"q{i % 4}",
                [
                    Tuple(now, 0.1, {"v": float(j), "w": float(i)})
                    for j in range(1 + i % 6)
                ],
            )
            network.send(
                DataMessage(destination=dst, batch=data, target_fragment_id=f"f{i}"),
                now,
                src,
            )
            if i % 4 == 0:
                result = Batch(
                    f"q{i % 4}", [Tuple(now, 0.2, {"r": float(i)})] * (1 + i % 3)
                )
                network.send(ResultMessage(destination="coord", batch=result), now, src)
            if i % 5 == 0:
                network.send(
                    SicUpdateMessage(
                        destination=dst, query_id="q0", sic_value=0.5, sent_at=now
                    ),
                    now,
                    "coord",
                )
                network.send(
                    HeartbeatMessage(destination="coord", node_id=src, sent_at=now),
                    now,
                    src,
                )
            delivered.extend(network.deliver_due(now))
        delivered.extend(pump(network))

        assert transmissions[0] == 180
        assert network.sent_messages == 99
        assert network.delivered_messages == len(delivered) == 67
        assert network.bytes_sent == 6702
        assert network.bytes_delivered == 4096
        assert network.bytes_delivered == sum(m.size_bytes() for m in delivered)
        assert network.stats.as_dict() == {
            "sent": {"data": 60, "result": 15, "sic_update": 12, "heartbeat": 12},
            "delivered": {"data": 30, "result": 15, "sic_update": 13, "heartbeat": 9},
            "dropped": {
                "data": 26, "result": 2, "sic_update": 4, "heartbeat": 4, "ack": 35,
            },
            "duplicates": {"data": 21, "result": 9},
            "retransmits": {"data": 42, "result": 10},
            "expired": {"data": 34, "result": 1},
            "tuples_sent": {"data": 210, "result": 30},
            "tuples_delivered": {"data": 112, "result": 30},
            "tuples_expired": {"data": 107, "result": 3},
            "bytes_wire": 7594,
            "acks_sent": 75,
        }


class TestInFlightQueueOrder:
    """Queue entries are tuples ordered by ``(deliver_at, sequence)`` in C."""

    @staticmethod
    def uncomparable_heartbeat(tag):
        class Uncomparable(HeartbeatMessage):
            def _refuse(self, other):
                raise AssertionError("queue comparison reached a Message")

            __lt__ = __le__ = __gt__ = __ge__ = __eq__ = _refuse
            __hash__ = object.__hash__

        return Uncomparable(destination="c", node_id=tag)

    def test_int_sequences_pop_by_time_then_send_order(self):
        import random

        rng = random.Random(3)
        network = Network(LatencyMatrix(0.02, {("a", "c"): 0.01}))
        sends = []
        for index in range(120):
            source = rng.choice(("a", "b"))
            sent_at = rng.choice((0.0, 0.01, 0.01, 0.02))
            message = self.uncomparable_heartbeat(f"m{index}")
            sends.append((network.send(message, sent_at, source), index))
        entries = list(network._queue)
        assert all(isinstance(entry, tuple) for entry in entries)
        # Equal keys cannot occur: sequences are unique, so every comparison
        # is decided by (deliver_at, sequence) and never reaches the message.
        assert sorted(entry.sequence for entry in entries) == list(range(120))
        delivered = pump(network)
        assert [m.node_id for m in delivered] == [f"m{i}" for _, i in sorted(sends)]

    def test_action_token_sequences_pop_by_time_then_token(self):
        import itertools
        import random

        # Sharded-runtime shaped tokens: (send time, phase priority, sender
        # context rank, intra-context index), unique but issued out of order.
        rng = random.Random(8)
        tokens = [
            (round(0.25 * (k % 3), 2), k % 4, ((0.0, -2), (k % 5,)), k)
            for k in range(200)
        ]
        rng.shuffle(tokens)
        issued = []
        feed = iter(tokens)

        def hook():
            token = next(feed)
            issued.append(token)
            return token

        network = Network(LatencyMatrix(0.02, {("a", "c"): 0.01}))
        network.sequence_hook = hook
        sends = []
        for index, (source, sent_at) in enumerate(
            itertools.islice(
                itertools.cycle([("a", 0.0), ("b", 0.0), ("a", 0.01), ("b", 0.01)]), 120
            )
        ):
            message = self.uncomparable_heartbeat(f"m{index}")
            deliver_at = network.send(message, sent_at, source)
            sends.append((deliver_at, issued[-1], f"m{index}"))
        assert len(set(issued)) == len(issued)
        delivered = pump(network)
        assert [m.node_id for m in delivered] == [tag for _, _, tag in sorted(sends)]
