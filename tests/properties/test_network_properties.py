"""Property-based tests for the reliable delivery channel.

Three transport invariants, checked over randomized fault behaviours:

* **Per-link FIFO** — whatever delay jitter reorders the physical copies,
  the application receives each link's messages in send order (the receiver
  holds out-of-order arrivals until the gap fills).
* **Dedup idempotence** — arbitrary duplication of physical copies never
  produces a second application delivery; every extra copy is counted.
* **Bounded retransmit buffer** — sender-side memory is capped by the
  configured window no matter the loss rate; overflow and retry exhaustion
  are expired *with accounting*, so the ledger still closes.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tuples import Batch, Tuple
from repro.federation.network import (
    DataMessage,
    Network,
    ReliabilityConfig,
    UniformLatency,
)


def data_message(label, destination="dst"):
    batch = Batch("q", [Tuple(0.0, 0.1, {"v": 1})])
    return DataMessage(destination=destination, batch=batch, target_fragment_id=label)


def pump(network):
    """Deliver everything until the network is fully quiescent."""
    delivered = []
    while network.in_flight():
        delivered.extend(network.deliver_due(network.next_delivery_time()))
    return delivered


class TestFifoUnderJitter:
    @given(
        seed=st.integers(0, 10_000),
        jitter=st.floats(min_value=0.0, max_value=0.2),
        count=st.integers(1, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_per_link_order_is_send_order(self, seed, jitter, count):
        rng = random.Random(seed)
        network = Network(UniformLatency(0.005), reliability=ReliabilityConfig())

        def policy(message, source, destination, sent_at, latency):
            return (sent_at + latency + rng.random() * jitter,)

        network.fault_policy = policy
        labels = [f"m{i}" for i in range(count)]
        for i, label in enumerate(labels):
            network.send(data_message(label), sent_at=i * 0.001, source="src")
        delivered = [m.target_fragment_id for m in pump(network)]
        assert delivered == labels
        # The jitter genuinely reordered or delayed copies is irrelevant to
        # the ledger: everything sent was delivered exactly once.
        assert network.stats.sent["data"] == network.stats.delivered["data"]
        assert network.reorder_buffered() == 0
        assert network.reliable_pending() == 0

    @given(
        seed=st.integers(0, 10_000),
        count=st.integers(2, 20),
    )
    @settings(max_examples=40, deadline=None)
    def test_independent_links_do_not_block_each_other(self, seed, count):
        rng = random.Random(seed)
        network = Network(UniformLatency(0.005), reliability=ReliabilityConfig())

        def policy(message, source, destination, sent_at, latency):
            return (sent_at + latency + rng.random() * 0.05,)

        network.fault_policy = policy
        for i in range(count):
            network.send(data_message(f"a{i}", "dst-a"), sent_at=i * 0.001, source="src")
            network.send(data_message(f"b{i}", "dst-b"), sent_at=i * 0.001, source="src")
        delivered = [m.target_fragment_id for m in pump(network)]
        assert [label for label in delivered if label.startswith("a")] == [f"a{i}" for i in range(count)]
        assert [label for label in delivered if label.startswith("b")] == [f"b{i}" for i in range(count)]


class TestDedupIdempotence:
    @given(
        copies=st.integers(1, 5),
        count=st.integers(1, 25),
        spacing=st.floats(min_value=0.0, max_value=0.01),
    )
    @settings(max_examples=60, deadline=None)
    def test_each_message_delivered_exactly_once(self, copies, count, spacing):
        network = Network(UniformLatency(0.005), reliability=ReliabilityConfig())

        def policy(message, source, destination, sent_at, latency):
            base = sent_at + latency
            if message.kind == "data":
                return tuple(base + j * spacing for j in range(copies))
            return (base,)

        network.fault_policy = policy
        labels = [f"m{i}" for i in range(count)]
        for i, label in enumerate(labels):
            network.send(data_message(label), sent_at=i * 0.001, source="src")
        delivered = [m.target_fragment_id for m in pump(network)]
        assert delivered == labels
        # Every extra physical copy was received and suppressed, visibly.
        assert network.stats.delivered["data"] == count
        assert network.stats.duplicates.get("data", 0) == (copies - 1) * count
        # Duplicates re-trigger acks (the copy may mean a lost ack), but
        # never a second application delivery.
        assert network.stats.acks_sent >= count


class TestBoundedRetransmitBuffer:
    @given(
        window=st.integers(1, 16),
        overflow=st.integers(0, 20),
        max_retries=st.integers(0, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_memory_bounded_and_overflow_accounted(self, window, overflow, max_retries):
        # A link whose data transmissions are all eaten: unacked state must
        # never exceed the window, and every send beyond it — plus every
        # message whose retries run out — must be expired with accounting.
        config = ReliabilityConfig(window=window, max_retries=max_retries)
        network = Network(UniformLatency(0.005), reliability=config)

        def policy(message, source, destination, sent_at, latency):
            if message.kind == "data":
                return ()  # total blackout for payloads
            return (sent_at + latency,)

        network.fault_policy = policy
        total = window + overflow
        for i in range(total):
            network.send(data_message(f"m{i}"), sent_at=i * 0.001, source="src")
            assert network.reliable_pending() <= window
        assert network.reliable_pending() == window
        # Overflowing sends were refused up front, with accounting.
        assert network.stats.expired.get("data", 0) == overflow
        pump(network)
        # Retries exhausted: the whole window expired too; ledger closes at
        # sent == delivered (0) + expired (all), nothing silently lost.
        stats = network.stats
        assert network.reliable_pending() == 0
        assert stats.expired["data"] == total
        assert stats.sent["data"] == stats.delivered.get("data", 0) + stats.expired["data"]
        assert stats.retransmits.get("data", 0) == window * max_retries

    @given(
        seed=st.integers(0, 10_000),
        max_drops=st.integers(0, 8),
        count=st.integers(1, 30),
    )
    @settings(max_examples=40, deadline=None)
    def test_ledger_closes_under_per_message_loss(self, seed, max_drops, count):
        # Each message's first n transmission attempts are eaten, n drawn per
        # message up to max_drops < max_retries, so eventual delivery is
        # guaranteed (not merely probable): everything arrives, in order,
        # exactly once, and the ledger closes exactly.
        rng = random.Random(seed)
        network = Network(UniformLatency(0.005), reliability=ReliabilityConfig())
        drops_for = {}
        attempts = {}

        def policy(message, source, destination, sent_at, latency):
            if message.kind != "data":
                return (sent_at + latency,)
            key = id(message)
            planned = drops_for.setdefault(key, rng.randint(0, max_drops))
            attempts[key] = attempts.get(key, 0) + 1
            if attempts[key] <= planned:
                return ()
            return (sent_at + latency,)

        network.fault_policy = policy
        labels = [f"m{i}" for i in range(count)]
        for i, label in enumerate(labels):
            network.send(data_message(label), sent_at=i * 0.001, source="src")
        delivered = [m.target_fragment_id for m in pump(network)]
        stats = network.stats
        assert delivered == labels
        assert stats.sent["data"] == stats.delivered["data"]
        assert stats.expired.get("data", 0) == 0
        assert stats.retransmits.get("data", 0) == sum(drops_for.values())
        assert network.reliable_pending() == 0
        assert network.reorder_buffered() == 0
