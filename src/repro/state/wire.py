"""Cross-process wire format for in-flight network traffic.

The sharded runtime's multiprocess mode (:mod:`repro.runtime.workers`) ships
boundary messages — traffic whose destination shard lives in another worker
process — between forked replicas.  This module turns network messages and
their in-flight queue entries into plain-data dictionaries and back, reusing
the checkpoint serialisers (:mod:`repro.state.checkpoint`) for the payload
batches so the exactness guarantees carry over verbatim:

* columns are **copied**, never aliased — a wire entry shares no mutable
  structure with the sender's live state, exactly like a checkpoint;
* batch header SIC values travel verbatim (a ``Batch.split`` prefix header
  is not re-summable), so a round-trip is bit-identical;
* ``ColumnBlock`` storage keeps its container kind (ndarray or list) and is
  re-normalised to the receiving process's active backend on restore.

Wire states are plain dicts of Python scalars, tuples, lists and (for the
numpy backend) ``float64`` arrays — everything ``multiprocessing``'s pickle
transport handles natively.  Action tokens (the sharded runtime's
deterministic merge order, nested tuples of scalars) pass through untouched.
"""

from __future__ import annotations

from typing import Any, Dict

from ..federation.network import (
    AckMessage,
    DataMessage,
    HeartbeatMessage,
    Message,
    ResultMessage,
    SicUpdateMessage,
    _InFlight,
    _PendingSend,
)
from .checkpoint import batch_from_state, batch_to_state

__all__ = [
    "message_to_wire",
    "message_from_wire",
    "entry_to_wire",
    "entry_from_wire",
    "pending_send_to_wire",
    "pending_send_from_wire",
]


# ------------------------------------------------------------------ messages
def message_to_wire(message: Message) -> Dict[str, Any]:
    """Serialise one network message as a kind-tagged plain dictionary."""
    kind = message.kind
    state: Dict[str, Any] = {"kind": kind, "destination": message.destination}
    if kind == "data":
        state["batch"] = batch_to_state(message.batch)
        state["target_fragment_id"] = message.target_fragment_id
    elif kind == "result":
        state["batch"] = batch_to_state(message.batch)
    elif kind == "sic_update":
        state["query_id"] = message.query_id
        state["sic_value"] = message.sic_value
        state["sent_at"] = message.sent_at
    elif kind == "heartbeat":
        state["node_id"] = message.node_id
        state["sent_at"] = message.sent_at
    elif kind == "ack":
        state["link"] = tuple(message.link)
        state["seq"] = message.seq
    else:
        raise ValueError(f"unknown message kind {kind!r}")
    return state


def message_from_wire(state: Dict[str, Any]) -> Message:
    kind = state["kind"]
    destination = state["destination"]
    if kind == "data":
        return DataMessage(
            destination=destination,
            batch=batch_from_state(state["batch"]),
            target_fragment_id=state["target_fragment_id"],
        )
    if kind == "result":
        return ResultMessage(
            destination=destination, batch=batch_from_state(state["batch"])
        )
    if kind == "sic_update":
        return SicUpdateMessage(
            destination=destination,
            query_id=state["query_id"],
            sic_value=state["sic_value"],
            sent_at=state["sent_at"],
        )
    if kind == "heartbeat":
        return HeartbeatMessage(
            destination=destination,
            node_id=state["node_id"],
            sent_at=state["sent_at"],
        )
    if kind == "ack":
        return AckMessage(
            destination=destination,
            link=tuple(state["link"]),
            seq=state["seq"],
        )
    raise ValueError(f"unknown message kind {kind!r}")


# ----------------------------------------------------------- in-flight entry
def entry_to_wire(entry: _InFlight) -> Dict[str, Any]:
    """Serialise one in-flight queue entry (message or control timer).

    The ``sequence`` element — the sharded runtime's action token, a nested
    tuple of scalars — is carried verbatim: it *is* the deterministic merge
    order, so the receiving process's heap sorts the injected entry exactly
    where the sender's heap would have.
    """
    return {
        "deliver_at": entry.deliver_at,
        "sequence": entry.sequence,
        "message": None if entry.message is None else message_to_wire(entry.message),
        "link": None if entry.link is None else tuple(entry.link),
        "seq": entry.seq,
        "control": entry.control,
        "size": entry.size,
    }


def entry_from_wire(state: Dict[str, Any]) -> _InFlight:
    message = state["message"]
    link = state["link"]
    return _InFlight(
        state["deliver_at"],
        state["sequence"],
        None if message is None else message_from_wire(message),
        link=None if link is None else tuple(link),
        seq=state["seq"],
        control=state["control"],
        size=state["size"],
    )


# --------------------------------------------------- reliable retransmit state
def pending_send_to_wire(
    pending: _PendingSend,
) -> Dict[str, Any]:
    """Serialise one unacknowledged reliable-channel send."""
    return {
        "message": message_to_wire(pending.message),
        "source": pending.source,
        "attempts": pending.attempts,
        "rto": pending.rto,
    }


def pending_send_from_wire(state: Dict[str, Any]) -> _PendingSend:
    pending = _PendingSend(
        message_from_wire(state["message"]), state["source"], state["rto"]
    )
    pending.attempts = state["attempts"]
    return pending
