"""Wire-format round trips: the multiprocess boundary must be invisible.

The sharded runtime's worker pool ships boundary messages between forked
replicas through :mod:`repro.state.wire`.  The contract mirrors the
checkpoint envelope's: columns are copied (never aliased), batch header SIC
travels verbatim (a ``split`` prefix header is not re-summable), storage
survives on both columnar backends, and the nested action tokens that *are*
the deterministic merge order pass through untouched.
"""

import pytest

from repro.core.columns import ColumnBlock, use_backend
from repro.core.tuples import Batch, Tuple
from repro.federation.network import (
    AckMessage,
    DataMessage,
    HeartbeatMessage,
    ResultMessage,
    SicUpdateMessage,
    _InFlight,
    _PendingSend,
)
from repro.state.wire import (
    entry_from_wire,
    entry_to_wire,
    message_from_wire,
    message_to_wire,
    pending_send_from_wire,
    pending_send_to_wire,
)

np = pytest.importorskip("numpy")


def make_block(n=6, source_id="src-0", objects=False):
    timestamps = [0.1 * i for i in range(n)]
    sics = [0.5 + 0.01 * i for i in range(n)]
    if objects:
        values = {"host": [f"machine-{i % 3}" for i in range(n)]}
    else:
        values = {"v": [float(i) * 1.5 for i in range(n)]}
    return ColumnBlock(timestamps, sics, values, source_id=source_id)


def assert_batches_equal(restored, original):
    assert restored.header.query_id == original.header.query_id
    assert restored.header.sic == original.header.sic
    assert restored.header.created_at == original.header.created_at
    assert restored.header.fragment_id == original.header.fragment_id
    assert restored.tuples == original.tuples


class TestMessageRoundTrip:
    @pytest.mark.parametrize("backend", ["numpy", "list"])
    @pytest.mark.parametrize("objects", [False, True], ids=["float", "object"])
    def test_data_message_round_trip(self, backend, objects):
        with use_backend(backend):
            batch = Batch.from_block(
                "q0", make_block(objects=objects), created_at=1.25,
                fragment_id="f0",
            )
            message = DataMessage(
                destination="node-1", batch=batch, target_fragment_id="f0"
            )
            restored = message_from_wire(message_to_wire(message))
        assert restored.kind == "data"
        assert restored.destination == "node-1"
        assert restored.target_fragment_id == "f0"
        assert_batches_equal(restored.batch, batch)

    def test_split_view_headers_travel_verbatim(self):
        # A split's prefix-derived header SIC cannot be recomputed from the
        # tuples (it came from the shared cumulative-SIC prefix); the wire
        # must carry it bit for bit, for both halves.
        batch = Batch.from_block("q0", make_block(n=8), created_at=0.5)
        head, tail = batch.split(3)
        for part in (head, tail):
            restored = message_from_wire(
                message_to_wire(DataMessage("node-0", part, "f1"))
            )
            assert_batches_equal(restored.batch, part)
        assert head.header.sic + tail.header.sic == pytest.approx(
            batch.header.sic
        )

    def test_round_trip_copies_instead_of_aliasing(self):
        block = make_block()
        batch = Batch.from_block("q0", block, created_at=0.0)
        restored = message_from_wire(
            message_to_wire(DataMessage("node-0", batch, "f0"))
        ).batch
        before = list(restored.tuples)
        # Mutating the sender's live columns must not reach the restored copy.
        block.timestamps[0] = 999.0
        block.values["v"][0] = -1.0
        assert list(restored.tuples) == before
        assert restored.tuples[0].timestamp != 999.0

    def test_cross_backend_restore_renormalizes(self):
        # Serialised under numpy, restored in a process running the list
        # backend (and vice versa): values identical either way.
        with use_backend("numpy"):
            batch = Batch.from_block("q0", make_block(), created_at=0.0)
            state = message_to_wire(ResultMessage("coord", batch))
            expected = list(batch.tuples)
        with use_backend("list"):
            restored = message_from_wire(state)
            assert list(restored.batch.tuples) == expected

    def test_control_message_round_trips(self):
        for message in (
            SicUpdateMessage("node-0", query_id="q1", sic_value=0.75, sent_at=2.0),
            HeartbeatMessage("detector", node_id="node-2", sent_at=3.5),
            AckMessage("node-1", link=("node-0", "node-1"), seq=17),
        ):
            restored = message_from_wire(message_to_wire(message))
            assert restored == message

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown message kind"):
            message_from_wire({"kind": "gossip", "destination": "x"})


class TestEntryRoundTrip:
    def test_action_token_passes_verbatim(self):
        # Lineage token: (time, ctx_priority, ctx_rank, k) where the rank
        # is a flattened chain (tp_levels, root, k_path) — the
        # deterministic merge order.
        token = (1.25, 1, (((1.2, 2), (0.0, -2)), (), (3, 0)), 4)
        batch = Batch("q0", [Tuple(1.0, 0.5, {"v": 1.0})])
        entry = _InFlight(
            1.3,
            token,
            DataMessage("node-1", batch, "f0"),
            link=("node-0", "node-1"),
            seq=9,
        )
        restored = entry_from_wire(entry_to_wire(entry))
        assert restored.deliver_at == entry.deliver_at
        assert restored.sequence == token
        assert restored.link == ("node-0", "node-1")
        assert restored.seq == 9
        assert restored.message.destination == "node-1"
        assert restored.message.batch.tuples == batch.tuples

    def test_control_entry_round_trips(self):
        entry = _InFlight(2.0, (2.0, 3, (), 0), None, control=("retransmit", 5))
        restored = entry_from_wire(entry_to_wire(entry))
        assert restored.message is None
        assert restored.control == ("retransmit", 5)
        assert restored.sequence == entry.sequence


    def test_restored_entry_is_the_tuple_type_and_sorts_where_the_original_did(self):
        import heapq

        batch = Batch("q0", [Tuple(1.0, 0.5, {"v": 1.0})])
        message = DataMessage("node-1", batch, "f0")
        entries = [
            _InFlight(2.0, (2.0, 1, (), 1), None, control=("rtx", ("a", "b"), 3)),
            _InFlight(
                2.0, (2.0, 1, (), 0), message, ("a", "b"), 4, None, message.size_bytes()
            ),
            _InFlight(1.5, (1.5, 2, ((0.0, -2),), 7), message, size=message.size_bytes()),
        ]
        restored = [entry_from_wire(entry_to_wire(entry)) for entry in entries]
        for before, after in zip(entries, restored):
            assert type(after) is _InFlight and isinstance(after, tuple)
            assert after[:2] == before[:2] == (after.deliver_at, after.sequence)
            assert after.link == before.link and after.seq == before.seq
            assert after.control == before.control
            assert after.size == before.size
            assert (after.message is None) == (before.message is None)
        # Same heap order as the sender's entries; deciding it never needs
        # more than (deliver_at, sequence), so no Message is ever compared.
        heap = []
        for entry in restored:
            heapq.heappush(heap, entry)
        popped = [heapq.heappop(heap)[:2] for _ in range(len(restored))]
        assert popped == sorted(entry[:2] for entry in entries)


class TestPendingSendRoundTrip:
    def test_retransmit_state_survives(self):
        batch = Batch("q0", [Tuple(1.0, 0.5, {"v": 2.0})])
        pending = _PendingSend(
            DataMessage("node-1", batch, "f0"), "node-0", rto=0.2
        )
        pending.attempts = 3
        restored = pending_send_from_wire(pending_send_to_wire(pending))
        assert restored.source == "node-0"
        assert restored.attempts == 3
        assert restored.rto == 0.2
        assert restored.message.batch.tuples == batch.tuples
