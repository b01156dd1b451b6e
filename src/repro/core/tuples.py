"""Tuple and batch data model.

THEMIS associates every stream data item with *source information content*
(SIC) meta-data.  A tuple is the triple ``(timestamp, sic, values)`` (§3 of the
paper) and operators exchange *batches*: groups of tuples emitted atomically,
preceded by a header carrying the SIC value, the query identifier and the
creation timestamp (§6, "SIC maintenance").
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence

try:  # Guarded so the per-tuple data model works without NumPy installed.
    import numpy as np
except ImportError:  # pragma: no cover - exercised only on stripped installs
    np = None

__all__ = [
    "Tuple",
    "Batch",
    "BatchHeader",
    "merge_batches",
    "total_tuples",
    "seq_sum",
    "SMALL_COLUMN",
]


# Below this length the ufunc dispatch overhead exceeds a C-level fold over
# ``tolist()`` — both give bit-identical results, so the cut-over is a pure
# perf knob (window panes and small queries' batches are often a few dozen
# rows).
# Canonical home of the sequential-sum primitive (re-exported by
# repro.core.columns, which imports this module).
SMALL_COLUMN = 64


def seq_sum(column, initial: float = 0.0) -> float:
    """Sequential left-to-right sum of ``column`` (an array, a list or any
    iterable of floats) starting from ``initial``.

    Bit-equal to ``total = initial; for v in column: total += v`` — on array
    columns the fold is ``np.add.accumulate``'s last element (accumulation is
    strictly left to right), *never* ``np.sum`` (pairwise summation rounds
    differently); short arrays and plain lists fold through
    ``reduce(operator.add, ...)``, *never* the builtin ``sum`` (CPython 3.12
    and later compensate float sums, which rounds differently again).  This
    is the one reduction primitive every columnar kernel must use so numpy-,
    list- and tuple-backed runs stay result-identical on every interpreter.
    """
    if np is not None and isinstance(column, np.ndarray):
        n = len(column)
        if n == 0:
            return float(initial)
        if n > SMALL_COLUMN:
            if initial == 0.0:
                # ``0.0 + v0 == v0`` exactly: the leading fold is elidable.
                return float(np.add.accumulate(column)[-1])
            return float(
                np.add.accumulate(
                    np.concatenate((np.asarray([initial]), column))
                )[-1]
            )
        column = column.tolist()
    return float(functools.reduce(operator.add, column, initial))

_batch_ids = itertools.count()


@dataclass
class Tuple:
    """A single stream tuple.

    Attributes:
        timestamp: logical creation time in seconds (source time for source
            tuples, generation time for derived tuples).
        sic: the source information content carried by this tuple.
        values: payload values keyed by field name.
        source_id: identifier of the originating source for source tuples,
            ``None`` for derived tuples.
    """

    timestamp: float
    sic: float
    values: Dict[str, Any] = field(default_factory=dict)
    source_id: Optional[str] = None

    def value(self, name: str, default: Any = None) -> Any:
        """Return a payload field, or ``default`` when absent."""
        return self.values.get(name, default)

    def with_sic(self, sic: float) -> "Tuple":
        """Return a copy of this tuple carrying a different SIC value."""
        return Tuple(
            timestamp=self.timestamp,
            sic=sic,
            values=dict(self.values),
            source_id=self.source_id,
        )

    def copy(self) -> "Tuple":
        """Return a shallow copy (payload dict is copied)."""
        return Tuple(
            timestamp=self.timestamp,
            sic=self.sic,
            values=dict(self.values),
            source_id=self.source_id,
        )


@dataclass
class BatchHeader:
    """Header prepended to every batch (§6).

    Attributes:
        query_id: identifier of the query the tuples belong to.
        sic: aggregate SIC value of the batch (sum over its tuples).
        created_at: creation timestamp of the batch.
        fragment_id: identifier of the fragment that produced or will consume
            the batch; used by nodes to route tuples to the right fragment.
    """

    query_id: str
    sic: float
    created_at: float
    fragment_id: Optional[str] = None


class Batch:
    """A sequence of tuples emitted atomically, with a SIC header.

    Batches are the unit of transfer between sources, operators, fragments and
    nodes, and the unit of shedding at a node's input buffer.

    A batch is backed either by a list of :class:`Tuple` objects (the seed
    representation) or, on the columnar fast path, by a
    :class:`repro.core.columns.ColumnBlock` of parallel arrays
    (:meth:`from_block`).  The per-tuple view stays the compatibility
    surface: accessing :attr:`tuples` on a columnar batch materializes the
    tuple objects lazily (and exactly — same timestamps, SIC values and
    payload dicts the per-tuple path would have produced).  The shedding hot
    paths only need ``len``, ``header.sic`` and :meth:`split`, all of which
    work directly on the columns without materializing anything.
    """

    __slots__ = (
        "batch_id",
        "header",
        "origin_fragment_id",
        "origin_epoch",
        "origin_seq",
        "_tuples",
        "_block",
        "_block_start",
        "_block_stop",
        "_sic_prefix",
        "_prefix_start",
    )

    def __init__(
        self,
        query_id: str,
        tuples: Sequence[Tuple],
        created_at: Optional[float] = None,
        fragment_id: Optional[str] = None,
        origin_fragment_id: Optional[str] = None,
    ) -> None:
        self.batch_id: int = next(_batch_ids)
        self._tuples: Optional[List[Tuple]] = list(tuples)
        self._block = None
        self._block_start = 0
        self._block_stop = 0
        # Which fragment produced this batch (None for source batches); nodes
        # use it to route the batch to the right entry operator downstream.
        self.origin_fragment_id = origin_fragment_id
        # Exactly-once output watermark: root fragments stamp their emitted
        # result batches with their (epoch, seq) counters so the coordinator
        # can deduplicate crash-replayed output.  ``None`` everywhere else.
        self.origin_epoch: Optional[int] = None
        self.origin_seq: Optional[int] = None
        # Cumulative-SIC prefix array, shared with batches produced by
        # ``split`` so repeated splitting never re-sums tuple SIC values.
        self._sic_prefix: Optional[List[float]] = None
        self._prefix_start: int = 0
        sic = seq_sum(t.sic for t in self._tuples)
        if created_at is None:
            created_at = min((t.timestamp for t in self._tuples), default=0.0)
        self.header = BatchHeader(
            query_id=query_id,
            sic=sic,
            created_at=created_at,
            fragment_id=fragment_id,
        )

    @classmethod
    def from_block(
        cls,
        query_id: str,
        block,
        created_at: Optional[float] = None,
        fragment_id: Optional[str] = None,
        origin_fragment_id: Optional[str] = None,
    ) -> "Batch":
        """Build a columnar batch around a ``ColumnBlock`` (no Tuple objects).

        The header SIC is the left-to-right sum over the block's SIC column —
        the exact arithmetic ``__init__`` performs over tuple objects.
        """
        batch = cls.__new__(cls)
        batch.batch_id = next(_batch_ids)
        batch._tuples = None
        batch._block = block
        batch._block_start = 0
        batch._block_stop = len(block)
        batch.origin_fragment_id = origin_fragment_id
        batch.origin_epoch = None
        batch.origin_seq = None
        batch._sic_prefix = None
        batch._prefix_start = 0
        sic = seq_sum(block.sics)
        if created_at is None:
            timestamps = block.timestamps
            if np is not None and isinstance(timestamps, np.ndarray):
                created_at = float(timestamps.min()) if len(timestamps) else 0.0
            else:
                created_at = min(timestamps, default=0.0)
        batch.header = BatchHeader(
            query_id=query_id,
            sic=sic,
            created_at=created_at,
            fragment_id=fragment_id,
        )
        return batch

    # -- representation access -------------------------------------------------
    @property
    def tuples(self) -> List[Tuple]:
        """Per-tuple view; materializes (and caches) for columnar batches."""
        if self._tuples is None:
            # Materialize straight from the (possibly shared) block's
            # sub-range — one copy, no intermediate sliced block.  Fresh
            # tuples (cache bypassed): this property hands out *mutable*
            # tuples, which must not alias the block's memoized read-only
            # materialization shared with window panes and sibling batches.
            self._tuples = self._block.to_tuples(
                self._block_start, self._block_stop, fresh=True
            )
            # The materialized tuples become the single source of truth:
            # callers may mutate them (e.g. SIC rewrites), which the columns
            # would not reflect.
            self._block = None
        return self._tuples

    @tuples.setter
    def tuples(self, value: Sequence[Tuple]) -> None:
        self._tuples = list(value)
        self._block = None
        self._sic_prefix = None
        self._prefix_start = 0

    @property
    def block(self):
        """The backing ``ColumnBlock``, or ``None`` once materialized.

        Batches produced by :meth:`split` reference a sub-range of their
        parent's block (splitting is O(1) — pure offset bookkeeping); the
        range is materialized into its own block on first access here, so
        shed batches that nobody reads again never pay for column copies.
        """
        block = self._block
        if block is None:
            return None
        start = self._block_start
        stop = self._block_stop
        if start != 0 or stop != len(block):
            block = block.slice(start, stop)
            self._block = block
            self._block_start = 0
            self._block_stop = stop - start
        return block

    def block_view(self):
        """``(block, start, stop)`` without materializing a sub-range block.

        ``None`` when the batch is tuple-backed.  Consumers that can work on
        ranges (window bucketing) use this to defer column copies all the way
        to pane close; ``block`` materializes instead.
        """
        if self._block is None:
            return None
        return self._block, self._block_start, self._block_stop

    @property
    def is_columnar(self) -> bool:
        return self._tuples is None

    # -- convenience accessors -------------------------------------------------
    @property
    def query_id(self) -> str:
        return self.header.query_id

    @property
    def fragment_id(self) -> Optional[str]:
        return self.header.fragment_id

    @property
    def sic(self) -> float:
        return self.header.sic

    @property
    def created_at(self) -> float:
        return self.header.created_at

    def __len__(self) -> int:
        if self._tuples is None:
            return self._block_stop - self._block_start
        return len(self._tuples)

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self.tuples)

    def __bool__(self) -> bool:
        return len(self) > 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Batch(id={self.batch_id}, query={self.query_id!r}, "
            f"tuples={len(self)}, sic={self.sic:.6f})"
        )

    def refresh_sic(self) -> float:
        """Recompute the header SIC from the tuples and return it."""
        # Tuple SIC values may have been rewritten in place, so any cached
        # prefix array is stale and must be rebuilt on the next split.
        self._sic_prefix = None
        self._prefix_start = 0
        if self._tuples is None:
            self.header.sic = seq_sum(
                self._block.sics[self._block_start:self._block_stop]
            )
        else:
            self.header.sic = seq_sum(t.sic for t in self._tuples)
        return self.header.sic

    def payload_bytes(self, bytes_per_field: int = 8) -> int:
        """Payload size accounting (fields × ``bytes_per_field``).

        Equals ``sum(len(t.values) * bytes_per_field for t in batch.tuples)``
        but is O(1) for columnar batches (uniform schema by construction).
        """
        if self._tuples is None:
            return len(self) * self._block.num_fields * bytes_per_field
        return sum(len(t.values) * bytes_per_field for t in self._tuples)

    # -- fast splitting --------------------------------------------------------
    def sic_prefix(self) -> List[float]:
        """Cumulative SIC sums over this batch's tuples (length ``len + 1``).

        The array is computed lazily on first use and shared with the batches
        produced by :meth:`split`, so a chain of splits performs a single O(n)
        pass over the tuples no matter how many times the pieces are re-split.
        ``sic_prefix()[i] - sic_prefix()[j]`` is the summed SIC of tuples
        ``j..i-1`` relative to ``_prefix_start``.
        """
        if self._sic_prefix is None:
            if self._tuples is None:
                sics = self._block.sics[self._block_start:self._block_stop]
            else:
                sics = [t.sic for t in self._tuples]
            if np is not None and isinstance(sics, np.ndarray):
                if len(sics) > SMALL_COLUMN:
                    # One vectorized pass; accumulate folds left to right, so
                    # every prefix entry matches the Python loop bit for bit.
                    prefix = np.empty(len(sics) + 1)
                    prefix[0] = 0.0
                    np.add.accumulate(sics, out=prefix[1:])
                    self._sic_prefix = prefix
                    self._prefix_start = 0
                    return prefix
                sics = sics.tolist()
            prefix = [0.0] * (len(sics) + 1)
            running = 0.0
            for i, s in enumerate(sics):
                running += s
                prefix[i + 1] = running
            self._sic_prefix = prefix
            self._prefix_start = 0
        return self._sic_prefix

    def checked_sic_prefix(self) -> "PyTuple[List[float], int]":
        """``(prefix, start)``: the cumulative-SIC array and this batch's
        offset into it, guarded against a stale shared array.

        Tuple ``i`` of this batch contributes ``prefix[start + i + 1] -
        prefix[start + i]``.  If the shared array no longer matches this
        batch's header — a sibling's tuples were mutated and refreshed
        through another batch — the batch rebuilds its own prefix from its
        own tuples first.
        """
        prefix = self.sic_prefix()
        start = self._prefix_start
        if prefix[start + len(self)] - prefix[start] != self.header.sic:
            self._sic_prefix = None
            self._prefix_start = 0
            prefix = self.sic_prefix()
            start = 0
        return prefix, start

    def split(self, keep_tuples: int) -> "PyTuple[Batch, Batch]":
        """Split into a head of ``keep_tuples`` tuples and the remaining tail.

        Both halves keep this batch's header fields (query, creation time,
        fragment routing) and their ``header.sic`` is derived incrementally
        from the shared cumulative-SIC prefix array — no tuple re-summing.

        Raises:
            ValueError: unless ``0 < keep_tuples < len(self)``.
        """
        n = len(self)
        if not 0 < keep_tuples < n:
            raise ValueError(
                f"keep_tuples must be in (0, {n}), got {keep_tuples}"
            )
        prefix, start = self.checked_sic_prefix()
        cut = start + keep_tuples
        # float() keeps headers Python scalars even off an ndarray prefix.
        head_sic = float(prefix[cut] - prefix[start])
        tail_sic = float(prefix[start + n] - prefix[cut])
        if self._tuples is None:
            # Columnar split is O(1): both pieces reference sub-ranges of the
            # shared block; columns are only copied if a piece's block is
            # actually read again (see the ``block`` property).
            block_start = self._block_start
            head = self._derived(
                None,
                block_start,
                block_start + keep_tuples,
                head_sic,
                prefix,
                start,
            )
            tail = self._derived(
                None,
                block_start + keep_tuples,
                block_start + n,
                tail_sic,
                prefix,
                cut,
            )
        else:
            head = self._derived(
                self._tuples[:keep_tuples], 0, 0, head_sic, prefix, start
            )
            tail = self._derived(
                self._tuples[keep_tuples:], 0, 0, tail_sic, prefix, cut
            )
        return head, tail

    def _derived(
        self,
        tuples: Optional[List[Tuple]],
        block_start: int,
        block_stop: int,
        sic: float,
        prefix: List[float],
        prefix_start: int,
    ) -> "Batch":
        """Build a split piece without re-summing tuple SIC values."""
        piece = Batch.__new__(Batch)
        piece.batch_id = next(_batch_ids)
        piece._tuples = tuples
        piece._block = self._block if tuples is None else None
        piece._block_start = block_start
        piece._block_stop = block_stop
        piece.origin_fragment_id = self.origin_fragment_id
        # Split pieces never inherit the output watermark: a stamp names one
        # emitted batch exactly, and two halves sharing it would double-count.
        piece.origin_epoch = None
        piece.origin_seq = None
        piece._sic_prefix = prefix
        piece._prefix_start = prefix_start
        piece.header = BatchHeader(
            query_id=self.header.query_id,
            sic=sic,
            created_at=self.header.created_at,
            fragment_id=self.header.fragment_id,
        )
        return piece

    def meta_data_bytes(self) -> int:
        """Size of the SIC meta-data attached to this batch.

        The prototype in the paper stores 10 bytes for the SIC value plus a
        query identifier and a timestamp per batch header (§7.6).  We report
        the same accounting so the overhead experiment can reproduce the
        "meta-data bytes" figure.
        """
        sic_bytes = 10
        query_id_bytes = 16
        timestamp_bytes = 8
        return sic_bytes + query_id_bytes + timestamp_bytes


def total_tuples(batches: Iterable[Batch]) -> int:
    """Total tuple count across ``batches`` (one pass over batch lengths)."""
    return sum(len(b) for b in batches)


def merge_batches(batches: Iterable[Batch]) -> Dict[str, List[Batch]]:
    """Group batches by query identifier, preserving arrival order."""
    grouped: Dict[str, List[Batch]] = {}
    for batch in batches:
        grouped.setdefault(batch.query_id, []).append(batch)
    return grouped
