"""Exactly-once result accounting: the coordinator-side output ledger.

PR 6 made the *transport* exactly-once per link (``sent == delivered +
expired``), but node rejoin remained at-least-once at the *state* level:
a fragment restored from a coordinator-held checkpoint replays the buffered
batches packaged in the envelope, so results it had already emitted between
the checkpoint round and the crash are emitted a second time — and results
whose inputs died in the node's buffer are never emitted at all.

This module closes that gap with an epoch-aligned output watermark:

* Every root fragment stamps the result batches it emits with a
  monotonically increasing ``(epoch, seq)`` pair.  ``seq`` counts emissions
  within an epoch; ``epoch`` bumps only when the fragment restarts *blank*
  (``reset_state`` — a rejoin without a covering checkpoint), so a restore
  from a checkpoint rolls ``seq`` back with the rest of the fragment state
  and replayed output reuses the original sequence numbers.
* The coordinator keeps one :class:`_Lane` per ``(fragment_id, epoch)``.
  Arrivals at or below the lane's acknowledged watermark are *deduplicated*
  (dropped before they reach the ``ResultSicTracker``); an arrival that
  jumps the watermark by more than one accounts the skipped sequence
  numbers as ``lost_to_crash`` — per-link FIFO release (PR 6) guarantees a
  later seq overtakes an earlier one only when the earlier emission died
  with the crash, never in transit.

The lane algebra closes at any instant: per lane,
``acked == delivered_batches + lost_batches`` and every arrival is either
delivered or deduplicated — the ``emitted == delivered + deduped +
lost_to_crash`` ledger of the tentpole, in units of stamped batches.  The
tuple-level closure (``arrived == recorded + deduped + dropped + lost``)
is kept by :class:`repro.federation.fsps.FederatedSystem`, which owns the
terms the coordinator cannot see (dispatch drops, failover losses).

The ledger itself snapshots/restores with the coordinator so failover rolls
it back in sympathy with the tracker state it guards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = ["DEDUPLICATE", "DELIVER", "ResultLedger"]

# Verdicts returned by ResultLedger.observe().
DELIVER = "deliver"
DEDUPLICATE = "deduplicate"


@dataclass
class _Lane:
    """Per-``(fragment_id, epoch)`` watermark and counters."""

    acked_seq: int = 0
    delivered_batches: int = 0
    delivered_tuples: int = 0
    deduped_batches: int = 0
    deduped_tuples: int = 0
    lost_batches: int = 0

    def to_state(self) -> Dict[str, int]:
        return {
            "acked_seq": self.acked_seq,
            "delivered_batches": self.delivered_batches,
            "delivered_tuples": self.delivered_tuples,
            "deduped_batches": self.deduped_batches,
            "deduped_tuples": self.deduped_tuples,
            "lost_batches": self.lost_batches,
        }

    @classmethod
    def from_state(cls, state: Dict[str, int]) -> "_Lane":
        return cls(**{k: int(v) for k, v in state.items()})


class ResultLedger:
    """Deduplicating output ledger for one query's result stream."""

    def __init__(self) -> None:
        self._lanes: Dict[Tuple[str, int], _Lane] = {}

    # -- hot path --------------------------------------------------------------
    def observe(
        self, fragment_id: Optional[str], epoch: Optional[int],
        seq: Optional[int], num_tuples: int,
    ) -> str:
        """Account one arriving result batch; return ``DELIVER``/``DEDUPLICATE``.

        Unstamped batches (any coordinate ``None``) bypass the ledger and are
        always delivered — the pre-watermark compatibility path.
        """
        if fragment_id is None or epoch is None or seq is None:
            return DELIVER
        lane = self._lanes.get((fragment_id, epoch))
        if lane is None:
            lane = _Lane()
            self._lanes[(fragment_id, epoch)] = lane
        if seq <= lane.acked_seq:
            # Crash-replayed output below the acknowledged watermark: the
            # original delivery is already in the tracker.
            lane.deduped_batches += 1
            lane.deduped_tuples += num_tuples
            return DEDUPLICATE
        if seq > lane.acked_seq + 1:
            # FIFO links: the skipped emissions died with a crash.
            lane.lost_batches += seq - lane.acked_seq - 1
        lane.acked_seq = seq
        lane.delivered_batches += 1
        lane.delivered_tuples += num_tuples
        return DELIVER

    # -- watermark queries -----------------------------------------------------
    def acked(self, fragment_id: str, epoch: int) -> int:
        lane = self._lanes.get((fragment_id, epoch))
        return lane.acked_seq if lane is not None else 0

    @property
    def lane_count(self) -> int:
        return len(self._lanes)

    def watermarks(self) -> Dict[Tuple[str, int], int]:
        """Acknowledged watermark per ``(fragment_id, epoch)`` lane.

        A point-in-time view for monitoring and tests: within one
        coordinator incarnation each lane's watermark only ever advances
        (a coordinator failover restores an older ledger snapshot, rolling
        watermarks back together with the tracker state they guard).
        """
        return {key: lane.acked_seq for key, lane in self._lanes.items()}

    @property
    def deduped_tuples(self) -> int:
        return sum(lane.deduped_tuples for lane in self._lanes.values())

    @property
    def deduped_batches(self) -> int:
        return sum(lane.deduped_batches for lane in self._lanes.values())

    @property
    def delivered_tuples(self) -> int:
        return sum(lane.delivered_tuples for lane in self._lanes.values())

    @property
    def lost_batches(self) -> int:
        return sum(lane.lost_batches for lane in self._lanes.values())

    def account_tail_loss(self, fragment_id: str, epoch: int,
                          emitted_seq: int) -> int:
        """Close a lane's tail against the emitter's final counter.

        Called when a fragment restarts blank (epoch bump): emissions beyond
        the acknowledged watermark that are no longer in flight can never
        arrive, so they are folded into ``lost_batches`` now instead of being
        discovered by a later gap (there will be no later arrival in this
        epoch).  Returns the number of newly accounted batches.
        """
        lane = self._lanes.get((fragment_id, epoch))
        if lane is None:
            if emitted_seq <= 0:
                return 0
            lane = _Lane()
            self._lanes[(fragment_id, epoch)] = lane
        missing = emitted_seq - lane.acked_seq
        if missing <= 0:
            return 0
        lane.lost_batches += missing
        lane.acked_seq = emitted_seq
        return missing

    # -- invariants & reporting ------------------------------------------------
    def check_closure(self) -> List[str]:
        """Return human-readable violations of the lane algebra (empty = ok)."""
        problems = []
        for (fragment_id, epoch), lane in sorted(self._lanes.items()):
            if lane.acked_seq != lane.delivered_batches + lane.lost_batches:
                problems.append(
                    f"{fragment_id}@e{epoch}: acked {lane.acked_seq} != "
                    f"delivered {lane.delivered_batches} + lost {lane.lost_batches}"
                )
        return problems

    def summary(self) -> Dict[str, int]:
        return {
            "lanes": len(self._lanes),
            "emitted_high_watermark": sum(
                lane.acked_seq for lane in self._lanes.values()
            ),
            "delivered_batches": sum(
                lane.delivered_batches for lane in self._lanes.values()
            ),
            "delivered_tuples": self.delivered_tuples,
            "deduped_batches": self.deduped_batches,
            "deduped_tuples": self.deduped_tuples,
            "lost_to_crash_batches": self.lost_batches,
        }

    # -- checkpoint/restore ----------------------------------------------------
    def snapshot_state(self) -> Dict:
        return {
            "lanes": [
                {"fragment_id": fid, "epoch": epoch, **lane.to_state()}
                for (fid, epoch), lane in sorted(self._lanes.items())
            ]
        }

    def restore_state(self, state: Dict) -> None:
        self._lanes = {}
        for entry in state.get("lanes", []):
            entry = dict(entry)
            fid = entry.pop("fragment_id")
            epoch = int(entry.pop("epoch"))
            self._lanes[(fid, epoch)] = _Lane.from_state(entry)
