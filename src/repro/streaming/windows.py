"""Time- and count-based windows.

Every operator in the THEMIS model consumes its input through a window that
emits tuples *atomically* (§3): the SIC propagation rule (Equation 3) is
defined over the set of tuples a window hands to the operator in one go.

Two window families are provided:

* :class:`TimeWindow` — tumbling or sliding windows over tuple timestamps
  (``[Range n sec]`` / ``[Range n sec Slide m sec]`` in CQL terms).
* :class:`CountWindow` — tumbling windows over tuple counts.

A window buffer collects tuples and, when asked to ``advance`` to the current
time, returns the closed panes in order.  For sliding time windows a tuple can
belong to several panes; following §6 ("we also provide a practical way to
divide the SIC value of an input tuple across all its derived tuples per
slide"), the tuple's SIC is divided equally across the panes it participates
in, so no information content is double-counted.

Columnar fast path
------------------

Windows accept input either tuple-at-a-time (:meth:`WindowBuffer.insert`) or
as :class:`~repro.core.columns.ColumnBlock` column groups
(:meth:`WindowBuffer.insert_block`).  Tumbling time windows bucket-assign a
block by *runs*: the pane index is monotonic in the timestamp, so run
boundaries are found by binary search over the timestamp column and each run
is stored as a column slice — no ``Tuple`` objects, no per-tuple routing.
Every pane's SIC is maintained incrementally at insert time (element-wise, in
insertion order — the exact additions the per-tuple path performs), so
closing a pane never re-sums its tuples.

The seed (pre-optimisation) implementations are preserved in
:mod:`repro.streaming._reference` as the equivalence oracle and the
perf-regression baseline.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence

from ..core.columns import (
    SMALL_COLUMN,
    ColumnAppender,
    ColumnBlock,
    seq_sum,
    take_rows,
)
from ..core.tuples import Tuple

try:  # Guarded: the list columnar backend works without NumPy.
    import numpy as np
except ImportError:  # pragma: no cover - exercised only on stripped installs
    np = None
from ..state.checkpoint import (
    CheckpointError,
    block_from_state,
    block_to_state,
    tuple_from_state,
    tuple_to_state,
)

__all__ = ["WindowPane", "WindowBuffer", "TimeWindow", "CountWindow", "ImmediateWindow"]


class WindowPane:
    """A closed window pane handed atomically to an operator.

    Attributes:
        start: pane start time (inclusive) — or first tuple index for count
            windows.
        end: pane end time (exclusive).
        sic: summed SIC of the pane, maintained incrementally by the window
            buffer as tuples are inserted (never re-summed on access).

    A pane is backed either by a list of tuples (per-tuple path) or by the
    column slices routed into it (columnar path).  ``tuples`` materializes
    lazily on the columnar path; vectorized operators read the columns
    directly through :meth:`values_column` / :meth:`timestamps_column`.
    """

    __slots__ = (
        "start",
        "end",
        "sic",
        "_tuples",
        "_ranges",
        "_count",
        "_sort_tuples",
        "_merged",
        "_order",
    )

    def __init__(
        self,
        start: float,
        end: float,
        tuples: Optional[List[Tuple]] = None,
        sic: Optional[float] = None,
        ranges: Optional[List["tuple[ColumnBlock, int, int]"]] = None,
        count: Optional[int] = None,
        sort_tuples: bool = False,
    ) -> None:
        self.start = start
        self.end = end
        self._tuples = tuples
        self._ranges = ranges
        self._sort_tuples = sort_tuples
        self._merged: Optional[ColumnBlock] = None
        self._order: Optional[List[int]] = None
        if tuples is not None:
            self._count = len(tuples)
            self.sic = seq_sum(t.sic for t in tuples) if sic is None else sic
        elif ranges is not None:
            self._count = (
                count
                if count is not None
                else sum(hi - lo for _, lo, hi in ranges)
            )
            if sic is None:
                sic = 0.0
                for block, lo, hi in ranges:
                    sic += seq_sum(block.sics[lo:hi])
            self.sic = sic
        else:
            self._count = 0
            self.sic = 0.0 if sic is None else sic

    # ------------------------------------------------------------- inspection
    @property
    def total_sic(self) -> float:
        """Seed-compatible alias of :attr:`sic`."""
        return self.sic

    def __len__(self) -> int:
        return self._count

    @property
    def is_columnar(self) -> bool:
        """True while the pane is column-backed and unmaterialized."""
        return self._tuples is None and self._ranges is not None

    # ----------------------------------------------------------- tuple access
    @property
    def tuples(self) -> List[Tuple]:
        """Per-tuple view; materialized (and cached) for columnar panes.

        Materialization reproduces the per-tuple path exactly: column ranges
        expand in insertion order and, for time panes, the result is stably
        sorted by timestamp — the same ordering the seed applied at pane
        close.
        """
        if self._tuples is None:
            tuples: List[Tuple] = []
            for block, lo, hi in self._ranges or ():
                tuples.extend(block.to_tuples(lo, hi))
            if self._sort_tuples:
                tuples.sort(key=lambda t: t.timestamp)
            self._tuples = tuples
            # The tuple list is now the source of truth; drop the column
            # ranges (and any merged copy) so the pane does not retain every
            # source block for the rest of its lifetime.
            self._ranges = None
            self._merged = None
            self._order = None
        return self._tuples

    # ---------------------------------------------------------- column access
    def _ensure_merged(self) -> Optional[ColumnBlock]:
        """Concatenate the pane's ranges and compute the timestamp ordering."""
        if not self.is_columnar:
            return None
        if self._merged is None:
            ranges = self._ranges
            appender = ColumnAppender()
            if all(appender.append_range(b, lo, hi) for b, lo, hi in ranges):
                # Uniform array-backed ranges (the ubiquitous case): one
                # in-order pass into preallocated grow-by-doubling buffers,
                # trimmed to views — element-identical to the concat_ranges
                # merge, without the per-column slice lists it builds.
                merged = appender.build()
            else:
                first_fields = list(ranges[0][0].values)
                if any(
                    list(block.values) != first_fields
                    for block, _, _ in ranges[1:]
                ):
                    # Heterogeneous payload schemas in one pane (several
                    # sources with different fields bound to the same port):
                    # there is no meaningful merged column view, so
                    # materialize the tuples — every caller then takes the
                    # per-tuple path, which tolerates mixed payload dicts
                    # exactly like the seed did.
                    self.tuples
                    return None
                # List-backed blocks (or a dtype change mid-pane): the
                # legacy merge handles what the appender refused.
                merged = ColumnBlock.concat_ranges(ranges)
            self._merged = merged
            if self._sort_tuples:
                self._order = merged.stable_time_order()
        return self._merged

    def timestamps_column(self) -> Optional[List[float]]:
        """Timestamp column in pane order, or ``None`` when not columnar."""
        merged = self._ensure_merged()
        if merged is None:
            return None
        if self._order is None:
            return merged.timestamps
        return take_rows(merged.timestamps, self._order)

    def as_block(self) -> Optional[ColumnBlock]:
        """The whole pane as one column group in pane order, or ``None``.

        Returns ``None`` when the pane is not columnar.  The result shares
        the underlying column lists when no reordering is needed; callers
        must treat them as read-only.
        """
        merged = self._ensure_merged()
        if merged is None:
            return None
        if self._order is None:
            return merged
        return merged.take(self._order)

    def columns(self, *fields: str) -> Optional[List[Optional[List[Any]]]]:
        """Payload columns for ``fields`` in pane order, or ``None``.

        This is the one place encoding the columnar-or-tuples contract for
        operators: a ``None`` return means "this pane has no column view —
        iterate ``pane.tuples``" (either the pane was built per-tuple, or
        its blocks had heterogeneous schemas, in which case the tuples were
        just materialized and are ready to use).  A non-``None`` return is a
        per-field list of columns, where an individual entry is ``None``
        when that field is absent from the pane's uniform schema (i.e. *no*
        row carries it — there is nothing to fall back to).
        """
        merged = self._ensure_merged()
        if merged is None:
            return None
        return [self.values_column(field) for field in fields]

    def values_column(self, field: str) -> Optional[List[Any]]:
        """Payload column for ``field`` in pane order.

        Returns ``None`` when the pane is not columnar *or* the field is not
        part of the block schema — callers fall back to the per-tuple path in
        both cases (absent fields behave like per-tuple ``values.get``
        returning ``None`` for every row, which vectorized consumers handle
        by skipping the column entirely).
        """
        merged = self._ensure_merged()
        if merged is None:
            return None
        column = merged.values.get(field)
        if column is None:
            return None
        if self._order is None:
            return column
        return take_rows(column, self._order)


class _PaneAcc:
    """Per-pane accumulator: pending items plus incrementally-maintained SIC.

    ``items`` holds, in insertion order, either :class:`Tuple` objects
    (per-tuple path) or ``(block, lo, hi)`` column ranges (columnar path) —
    plain 3-tuples, so the type test against the ``Tuple`` dataclass is
    unambiguous.  Ranges defer all column copying to the pane's *merge*
    (``WindowPane.column()`` / the fused drain): most panes only ever have
    their incrementally-maintained SIC read, so copying rows at insert time
    would be pure waste on the hot bucketing path.
    """

    __slots__ = ("items", "sic", "count")

    def __init__(self) -> None:
        self.items: List[Any] = []
        self.sic = 0.0
        self.count = 0

    def add_tuple(self, t: Tuple) -> None:
        self.items.append(t)
        self.sic += t.sic
        self.count += 1

    def add_tuples(self, tuples: Sequence[Tuple]) -> None:
        sic = self.sic
        for t in tuples:
            sic += t.sic
        self.sic = sic
        self.count += len(tuples)
        self.items.extend(tuples)

    def add_range(self, block: ColumnBlock, lo: int, hi: int) -> None:
        """Add rows ``lo:hi`` of a block, accumulating SIC element-wise (the
        identical additions the per-tuple path performs, for bit equality —
        array columns fold through ``seq_sum``'s sequential cumsum)."""
        self.items.append((block, lo, hi))
        sics = block.sics
        if np is not None and isinstance(sics, np.ndarray):
            if hi - lo > SMALL_COLUMN:
                self.sic = seq_sum(sics[lo:hi], initial=self.sic)
                self.count += hi - lo
                return
            sics = sics[lo:hi].tolist()
            lo, hi = 0, len(sics)
        sic = self.sic
        for s in sics[lo:hi]:
            sic += s
        self.sic = sic
        self.count += hi - lo

    def to_state(self) -> Dict[str, Any]:
        """Serialise the accumulator: items in insertion order, recorded SIC.

        Column ranges are recorded as standalone blocks of read-only views
        of the live columns (frozen, not copied: a range held open across
        several checkpoint rounds costs no rows per round); the running SIC
        and count are recorded verbatim (never re-summed on restore) so the
        incrementally-maintained pane SIC survives the round-trip bit for
        bit.
        """
        items: List[Dict[str, Any]] = []
        for item in self.items:
            if type(item) is tuple:
                block, lo, hi = item
                items.append({"block": block_to_state(block, lo, hi)})
            else:
                items.append({"tuple": tuple_to_state(item)})
        return {"sic": self.sic, "count": self.count, "items": items}

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "_PaneAcc":
        acc = cls()
        for item in state["items"]:
            if "block" in item:
                block = block_from_state(item["block"])
                acc.items.append((block, 0, len(block)))
            else:
                acc.items.append(tuple_from_state(item["tuple"]))
        acc.sic = state["sic"]
        acc.count = state["count"]
        return acc

    def close(self, start: float, end: float, sort_tuples: bool) -> WindowPane:
        items = self.items
        if items and all(type(item) is tuple for item in items):
            return WindowPane(
                start=start,
                end=end,
                ranges=items,
                sic=self.sic,
                count=self.count,
                sort_tuples=sort_tuples,
            )
        tuples: List[Tuple] = []
        for item in items:
            if type(item) is tuple:
                block, lo, hi = item
                tuples.extend(block.to_tuples(lo, hi))
            else:
                tuples.append(item)
        if sort_tuples:
            tuples.sort(key=lambda t: t.timestamp)
        return WindowPane(start=start, end=end, tuples=tuples, sic=self.sic)


class WindowBuffer:
    """Interface of all window buffers."""

    def insert(self, tuples: Sequence[Tuple]) -> None:
        raise NotImplementedError

    def insert_block(
        self, block: ColumnBlock, lo: int = 0, hi: Optional[int] = None
    ) -> None:
        """Insert rows ``lo:hi`` of a column group; default materializes."""
        self.insert(block.to_tuples(lo, hi))

    def advance(self, now: float) -> List[WindowPane]:
        """Close and return all panes whose end time is ``<= now``."""
        raise NotImplementedError

    def pending_count(self) -> int:
        """Number of buffered tuples not yet emitted in a pane."""
        raise NotImplementedError

    def pending_sic(self) -> float:
        """Summed SIC of the buffered (not yet emitted) tuples."""
        raise NotImplementedError

    def snapshot(self) -> Dict[str, Any]:
        """Serialise the buffered state into plain data (see repro.state)."""
        raise NotImplementedError

    def restore(self, state: Dict[str, Any]) -> None:
        """Replace the buffered state with ``state``; schema-checked."""
        raise NotImplementedError

    def clear(self) -> None:
        """Discard all buffered state (crash recovery without a checkpoint)."""
        raise NotImplementedError

    def _check_kind(self, state: Dict[str, Any], kind: str) -> None:
        got = state.get("kind")
        if got != kind:
            raise CheckpointError(
                f"window checkpoint kind {got!r} does not match {kind!r}"
            )


class ImmediateWindow(WindowBuffer):
    """Degenerate window that releases tuples as soon as they arrive.

    Used by stateless operators (filters, projections, receivers, unions)
    whose semantics do not require buffering.  Each ``advance`` call emits a
    single pane with everything inserted since the previous call, in
    insertion order (no sorting — matching the seed behaviour).
    """

    def __init__(self) -> None:
        self._acc = _PaneAcc()

    def insert(self, tuples: Sequence[Tuple]) -> None:
        self._acc.add_tuples(tuples)

    def insert_block(
        self, block: ColumnBlock, lo: int = 0, hi: Optional[int] = None
    ) -> None:
        if hi is None:
            hi = len(block)
        if hi <= lo:
            return
        self._acc.add_range(block, lo, hi)

    def advance(self, now: float) -> List[WindowPane]:
        acc = self._acc
        if not acc.items:
            return []
        self._acc = _PaneAcc()
        return [acc.close(start=float("-inf"), end=now, sort_tuples=False)]

    def pending_count(self) -> int:
        return self._acc.count

    def pending_sic(self) -> float:
        return self._acc.sic

    def snapshot(self) -> Dict[str, Any]:
        return {"kind": "immediate", "acc": self._acc.to_state()}

    def restore(self, state: Dict[str, Any]) -> None:
        self._check_kind(state, "immediate")
        self._acc = _PaneAcc.from_state(state["acc"])

    def clear(self) -> None:
        self._acc = _PaneAcc()


class TimeWindow(WindowBuffer):
    """Tumbling or sliding time window over tuple timestamps.

    Args:
        size_seconds: window range.
        slide_seconds: slide; defaults to ``size_seconds`` (tumbling).
        allowed_lateness: how long after a pane's end time the pane stays open.
            Tuples routinely arrive slightly after their pane's logical end
            (network latency plus one shedding interval of batching), so panes
            are closed once ``now >= end + allowed_lateness``; tuples that
            arrive after their pane has closed are dropped and their SIC is
            lost, like any late tuple in a real system.
    """

    DEFAULT_ALLOWED_LATENESS = 0.5

    def __init__(
        self,
        size_seconds: float,
        slide_seconds: Optional[float] = None,
        allowed_lateness: Optional[float] = None,
    ) -> None:
        if size_seconds <= 0:
            raise ValueError(f"size_seconds must be positive, got {size_seconds}")
        slide = slide_seconds if slide_seconds is not None else size_seconds
        if slide <= 0:
            raise ValueError(f"slide_seconds must be positive, got {slide}")
        if slide > size_seconds:
            raise ValueError("slide_seconds cannot exceed size_seconds")
        self.size = float(size_seconds)
        self.slide = float(slide)
        if allowed_lateness is None:
            allowed_lateness = self.DEFAULT_ALLOWED_LATENESS
        if allowed_lateness < 0:
            raise ValueError(
                f"allowed_lateness must be non-negative, got {allowed_lateness}"
            )
        self.allowed_lateness = float(allowed_lateness)
        self._panes: Dict[int, _PaneAcc] = {}
        self._last_closed_end: float = float("-inf")

    @property
    def is_sliding(self) -> bool:
        return self.slide < self.size

    def _index_pair(self, timestamp: float) -> "tuple[int, int]":
        """(first, last) index of the panes ``timestamp`` belongs to.

        Pane ``i`` covers ``[i * slide, i * slide + size)``, so a tuple
        belongs to every pane with ``floor((t - size) / slide) + 1 <= i <=
        floor(t / slide)``.  Both bounds are nondecreasing in the timestamp,
        which is what makes the run search in :meth:`insert_block` a valid
        binary search.
        """
        last = int(math.floor(timestamp / self.slide))
        first = int(math.floor((timestamp - self.size) / self.slide)) + 1
        return first, last

    def _acc(self, index: int) -> _PaneAcc:
        acc = self._panes.get(index)
        if acc is None:
            acc = _PaneAcc()
            self._panes[index] = acc
        return acc

    def insert(self, tuples: Sequence[Tuple]) -> None:
        """Bucket-assign ``tuples`` one by one (the exact reference path).

        A tuple in exactly one pane (every tumbling-window tuple, bar ulp
        rounding) joins the current same-pane *run*, handed to the pane in
        one ``add_tuples`` call — the SIC additions of a pane stay in
        insertion order.  A tuple in several panes (sliding windows) has its
        SIC divided equally over the panes still open, so the total
        information content is conserved; its share of already-closed panes
        is lost.
        """
        size = self.size
        slide = self.slide
        last_closed = self._last_closed_end
        index_pair = self._index_pair
        run: List[Tuple] = []
        run_index = 0
        for t in tuples:
            first, last = index_pair(t.timestamp)
            if first == last and run and last == run_index:
                run.append(t)
                continue
            if run:
                self._acc(run_index).add_tuples(run)
                run = []
            if first == last:
                if last * slide + size > last_closed:
                    run_index = last
                    run.append(t)
                continue
            indices = [
                i for i in range(first, last + 1) if i * slide + size > last_closed
            ]
            if len(indices) == 1:
                self._acc(indices[0]).add_tuple(t)
            elif indices:
                share = t.sic / len(indices)
                for idx in indices:
                    self._acc(idx).add_tuple(t.with_sic(share))
        if run:
            self._acc(run_index).add_tuples(run)

    def insert_block(
        self, block: ColumnBlock, lo: int = 0, hi: Optional[int] = None
    ) -> None:
        """Bucket-assign rows ``lo:hi`` of a column group by timestamp
        arithmetic.

        Tumbling windows with a nondecreasing timestamp column take the fast
        path: the pane index pair is monotonic in the timestamp, so maximal
        same-pane runs are found by binary search and stored as ``(block,
        i, j)`` ranges — columns are not copied until the pane closes.  Each
        run's SIC joins the pane total element-wise in insertion order — the
        identical additions :meth:`insert` performs — so both paths stay
        bit-for-bit equivalent.  Sliding windows (per-pane SIC shares) and
        unsorted inputs fall back to the exact per-tuple path.
        """
        if hi is None:
            hi = len(block)
        if hi <= lo:
            return
        timestamps = block.timestamps
        if np is not None and isinstance(timestamps, np.ndarray):
            if hi - lo > 32:
                self._insert_block_array(block, timestamps, lo, hi)
                return
            # Short ranges (low-rate queries, short kept heads): the scalar
            # run loop below beats the ufunc dispatch; np.float64 scalars go
            # through the identical index arithmetic.
            timestamps = timestamps[lo:hi].tolist()
            offset = lo
            lo, hi = 0, len(timestamps)
        else:
            offset = 0
        if self.is_sliding or any(
            timestamps[i] > timestamps[i + 1] for i in range(lo, hi - 1)
        ):
            self.insert(block.to_tuples(lo + offset, hi + offset))
            return
        index_pair = self._index_pair
        slide = self.slide
        size = self.size
        last_closed = self._last_closed_end
        i = lo
        while i < hi:
            pair = index_pair(timestamps[i])
            run_lo, run_hi = i + 1, hi
            while run_lo < run_hi:
                mid = (run_lo + run_hi) // 2
                if index_pair(timestamps[mid]) == pair:
                    run_lo = mid + 1
                else:
                    run_hi = mid
            j = run_lo
            first, last = pair
            if first == last:
                if last * slide + size > last_closed:
                    self._acc(last).add_range(block, i + offset, j + offset)
            else:
                # A tumbling run that straddles pane intervals can only come
                # from ulp-level rounding in the index arithmetic; route it
                # through the exact per-tuple path (SIC shares included).
                self.insert(block.to_tuples(i + offset, j + offset))
            i = j

    def _insert_block_array(self, block: ColumnBlock, timestamps, lo, hi) -> None:
        """Columnar v2 bucket assignment over a ``float64`` timestamp array.

        Pane indices are computed element-wise (``np.floor`` performs the
        identical per-element divisions and floors as :meth:`_index_pair`, so
        every row lands in exactly the pane the scalar path would pick) and
        maximal same-pane runs fall out of one change-point scan instead of
        per-run binary searches.  Each run joins its pane as a zero-copy
        ``(block, i, j)`` range in row order — the same insertion order and
        the same element-wise SIC additions as the per-tuple path, whether or
        not the timestamps arrive sorted.  Runs that straddle pane intervals
        and sliding windows fall back to the exact per-tuple path, exactly
        like the list-backed implementation.
        """
        if self.is_sliding:
            self.insert(block.to_tuples(lo, hi))
            return
        segment = (
            timestamps if lo == 0 and hi == len(timestamps)
            else timestamps[lo:hi]
        )
        slide = self.slide
        size = self.size
        # Kept as float64: the floor values are exact small integers, and
        # skipping the int64 casts saves two ufunc dispatches per block.
        last_f = np.floor(segment / slide)
        first_f = np.floor((segment - size) / slide)
        last_closed = self._last_closed_end
        change = (last_f[1:] != last_f[:-1]) | (first_f[1:] != first_f[:-1])
        if not change.any():
            # Whole segment in one pane — the common case for source blocks.
            first = int(first_f[0]) + 1
            last = int(last_f[0])
            if first == last:
                if last * slide + size > last_closed:
                    self._acc(last).add_range(block, lo, hi)
            else:
                # Straddling run (ulp-level rounding): exact per-tuple path.
                self.insert(block.to_tuples(lo, hi))
            return
        bounds = (np.flatnonzero(change) + 1).tolist()
        starts = [0] + bounds
        stops = bounds + [len(segment)]
        first_list = first_f[starts].tolist()
        last_list = last_f[starts].tolist()
        for s, e, first, last in zip(starts, stops, first_list, last_list):
            first = int(first) + 1
            last = int(last)
            if first == last:
                if last * slide + size > last_closed:
                    self._acc(last).add_range(block, lo + s, lo + e)
            else:
                # Straddling run (ulp-level rounding): exact per-tuple path.
                self.insert(block.to_tuples(lo + s, lo + e))

    def advance(self, now: float) -> List[WindowPane]:
        closed: List[WindowPane] = []
        for idx in sorted(self._panes):
            start = idx * self.slide
            end = start + self.size
            if end + self.allowed_lateness <= now:
                acc = self._panes.pop(idx)
                closed.append(acc.close(start=start, end=end, sort_tuples=True))
                self._last_closed_end = max(self._last_closed_end, end)
        return closed

    def pending_count(self) -> int:
        return sum(acc.count for acc in self._panes.values())

    def pending_sic(self) -> float:
        return seq_sum(self._panes[idx].sic for idx in sorted(self._panes))

    def snapshot(self) -> Dict[str, Any]:
        return {
            "kind": "time",
            "size": self.size,
            "slide": self.slide,
            "allowed_lateness": self.allowed_lateness,
            "last_closed_end": self._last_closed_end,
            "panes": [
                [idx, self._panes[idx].to_state()] for idx in sorted(self._panes)
            ],
        }

    def restore(self, state: Dict[str, Any]) -> None:
        self._check_kind(state, "time")
        if (
            state["size"] != self.size
            or state["slide"] != self.slide
            or state["allowed_lateness"] != self.allowed_lateness
        ):
            raise CheckpointError(
                f"time-window checkpoint (size={state['size']}, "
                f"slide={state['slide']}, lateness={state['allowed_lateness']}) "
                f"does not match window (size={self.size}, slide={self.slide}, "
                f"lateness={self.allowed_lateness})"
            )
        self._panes = {
            int(idx): _PaneAcc.from_state(acc) for idx, acc in state["panes"]
        }
        self._last_closed_end = state["last_closed_end"]

    def clear(self) -> None:
        # _last_closed_end survives a clear: panes that already closed must
        # not reopen for late tuples after a crash-restart.
        self._panes = {}


class CountWindow(WindowBuffer):
    """Tumbling count-based window: emits a pane every ``count`` tuples."""

    def __init__(self, count: int) -> None:
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        self.count = int(count)
        self._buffer: List[Tuple] = []

    def insert(self, tuples: Sequence[Tuple]) -> None:
        self._buffer.extend(tuples)

    def advance(self, now: float) -> List[WindowPane]:
        panes: List[WindowPane] = []
        while len(self._buffer) >= self.count:
            chunk = self._buffer[: self.count]
            self._buffer = self._buffer[self.count:]
            start = chunk[0].timestamp
            end = chunk[-1].timestamp
            panes.append(WindowPane(start=start, end=end, tuples=chunk))
        return panes

    def pending_count(self) -> int:
        return len(self._buffer)

    def pending_sic(self) -> float:
        return seq_sum(t.sic for t in self._buffer)

    def snapshot(self) -> Dict[str, Any]:
        return {
            "kind": "count",
            "count": self.count,
            "tuples": [tuple_to_state(t) for t in self._buffer],
        }

    def restore(self, state: Dict[str, Any]) -> None:
        self._check_kind(state, "count")
        if state["count"] != self.count:
            raise CheckpointError(
                f"count-window checkpoint (count={state['count']}) does not "
                f"match window (count={self.count})"
            )
        self._buffer = [tuple_from_state(s) for s in state["tuples"]]

    def clear(self) -> None:
        self._buffer = []
