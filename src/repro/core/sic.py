"""Source information content (SIC) assignment and propagation (§4).

The SIC metric quantifies, in a query-independent way, how much of the source
data actually contributed to a query result:

* Equation (1): a source tuple from source ``s`` is worth
  ``1 / (|T_s^S| * |S|)`` where ``|T_s^S|`` is the number of tuples the source
  produces during a source time window (STW) and ``|S|`` is the number of
  sources feeding the query.
* Equation (3): an operator that atomically consumes a set of input tuples and
  emits ``k`` output tuples divides the summed input SIC equally across the
  ``k`` outputs.
* Equations (2)/(4): the query result SIC over a STW is the sum of the SIC
  values of the result tuples emitted during that STW; it is 1 for perfect
  processing and falls towards 0 as tuples are shed.

Source rates are generally unknown and time-varying, so THEMIS estimates
``|T_s^S|`` online from the observed arrivals over a sliding STW
(Assumption 2, §6).  :class:`SourceRateEstimator` implements that estimation
and :class:`SicAssigner` stamps source tuples accordingly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Sequence

from .tuples import Tuple

try:  # Guarded: the SIC model works without NumPy (list columnar backend).
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only on stripped installs
    _np = None

__all__ = [
    "source_tuple_sic",
    "propagate_sic",
    "query_result_sic",
    "SourceRateEstimator",
    "SicAssigner",
]


def source_tuple_sic(tuples_per_stw: float, num_sources: int) -> float:
    """Return the SIC value of one source tuple (Equation 1).

    Args:
        tuples_per_stw: number of tuples the source emits during one STW
            (``|T_s^S|``).  Fractional values are accepted because the online
            estimator works with average rates.
        num_sources: number of sources feeding the query (``|S|``).

    Raises:
        ValueError: if either argument is not positive.
    """
    if tuples_per_stw <= 0:
        raise ValueError(f"tuples_per_stw must be positive, got {tuples_per_stw}")
    if num_sources <= 0:
        raise ValueError(f"num_sources must be positive, got {num_sources}")
    return 1.0 / (tuples_per_stw * num_sources)


def propagate_sic(input_sics: Sequence[float], num_outputs: int) -> List[float]:
    """Distribute input SIC across operator outputs (Equation 3).

    The summed SIC of the atomically-processed input set is divided equally
    over the ``num_outputs`` derived tuples.  When an operator emits no tuples
    (e.g. a filter discarding its whole window) the SIC is lost, exactly as in
    the paper's model, and an empty list is returned.
    """
    if num_outputs < 0:
        raise ValueError(f"num_outputs must be non-negative, got {num_outputs}")
    if num_outputs == 0:
        return []
    total = float(sum(input_sics))
    share = total / num_outputs
    return [share] * num_outputs


def query_result_sic(result_tuple_sics: Iterable[float]) -> float:
    """Return the query result SIC over one STW (Equation 4)."""
    return float(sum(result_tuple_sics))


class _RunBucket:
    """A nondecreasing run of single-tuple arrivals, held as one array.

    Equivalent to the ``[t, 1]`` pair buckets rows ``lo:hi`` of
    ``timestamps`` would expand to — the estimate reads only the window
    edges and the total, and expiry advances ``lo`` (one ``np.searchsorted``
    instead of per-pair pops).  The array is the source block's timestamp
    column, shared zero-copy: columns are rebind-only, so holding the
    reference is safe.
    """

    __slots__ = ("timestamps", "lo", "hi")

    def __init__(self, timestamps, lo: int, hi: int) -> None:
        self.timestamps = timestamps
        self.lo = lo
        self.hi = hi


@dataclass
class _SourceWindow:
    """Arrival bookkeeping for one source over a sliding STW.

    Arrivals are aggregated into ``[timestamp, count]`` buckets (one bucket
    per distinct timestamp) instead of one deque entry per tuple, with the
    total count maintained alongside, so recording ``count=k`` arrivals and
    expiring old ones are O(1) amortized regardless of ``k``.  Array-backed
    runs enter as :class:`_RunBucket` entries — one deque slot per source
    block instead of one per tuple.
    """

    buckets: Deque[object]
    total: int
    last_estimate: float
    seeded: Optional[float] = None


class SourceRateEstimator:
    """Online estimator of per-source tuple counts over a sliding STW.

    THEMIS does not assume source rates are known a-priori; it observes
    arrivals and estimates ``|T_s^S|`` per source over the last STW seconds.
    Until a full STW of history has accumulated, the observed count is scaled
    up by ``STW / observed-span`` so the estimate converges to the true
    per-STW count from the very first batches (otherwise early tuples would be
    grossly over-valued and the result SIC would transiently exceed 1).  The
    estimator can also be *seeded* with a nominal rate, used while no arrivals
    at all have been observed.

    The estimate only depends on the arrival count and the first/last
    timestamps inside the window, both of which the aggregated buckets
    preserve exactly, so the bucketed bookkeeping returns bit-identical
    estimates to the per-tuple deque of
    :class:`repro.core._reference.ReferenceSourceRateEstimator`.
    """

    def __init__(self, stw_seconds: float, min_count: float = 1.0) -> None:
        if stw_seconds <= 0:
            raise ValueError(f"stw_seconds must be positive, got {stw_seconds}")
        self.stw_seconds = float(stw_seconds)
        self.min_count = float(min_count)
        self._windows: Dict[str, _SourceWindow] = {}

    def _window(self, source_id: str) -> _SourceWindow:
        window = self._windows.get(source_id)
        if window is None:
            window = _SourceWindow(
                buckets=deque(), total=0, last_estimate=self.min_count
            )
            self._windows[source_id] = window
        return window

    def seed_rate(self, source_id: str, tuples_per_second: float) -> None:
        """Seed the estimate for a source from a nominal per-second rate."""
        estimate = max(self.min_count, tuples_per_second * self.stw_seconds)
        window = self._window(source_id)
        window.last_estimate = estimate
        window.seeded = estimate

    def observe(self, source_id: str, timestamp: float, count: int = 1) -> None:
        """Record ``count`` arrivals from ``source_id`` at ``timestamp``.

        O(1) amortized in ``count``: arrivals sharing a timestamp merge into
        one bucket, expiry pops whole buckets (advancing run buckets in
        place), and the estimate refresh reads only the running total and the
        window edges — this is the hottest per-arrival path in the system.
        """
        window = self._windows.get(source_id)
        if window is None:
            window = _SourceWindow(
                buckets=deque(), total=0, last_estimate=self.min_count
            )
            self._windows[source_id] = window
        if count <= 0:
            # Nothing arrives, but (matching the reference estimator) the
            # window still expires against this timestamp and the estimate
            # refreshes; no bucket may be appended or the phantom timestamp
            # would stretch the observed span.
            self._expire_horizon(window, timestamp - self.stw_seconds)
            window.last_estimate = self._estimate(window)
            return
        buckets = window.buckets
        tail = buckets[-1] if buckets else None
        if tail is not None and type(tail) is list and tail[0] == timestamp:
            # Run buckets never merge: a same-timestamp arrival lands in its
            # own pair bucket, which (see observe_run) changes neither the
            # total nor the window edges nor any future expiry.
            tail[1] += count
        else:
            buckets.append([timestamp, count])
        total = window.total + count
        horizon = timestamp - self.stw_seconds
        head = buckets[0]
        if type(head) is not list:
            # Array-backed run buckets in the window: the general expiry
            # advances their cursors; off the inlined hot path.
            window.total = total
            self._expire_horizon(window, horizon)
            window.last_estimate = self._estimate(window)
            return
        # The bucket just touched carries `timestamp`, so the deque can never
        # empty inside this loop.
        while head[0] < horizon:
            total -= head[1]
            buckets.popleft()
            head = buckets[0]
            if type(head) is not list:
                window.total = total
                self._expire_horizon(window, horizon)
                window.last_estimate = self._estimate(window)
                return
        window.total = total

        # Estimate arithmetic inlined from :meth:`_estimate` — this is the
        # hottest per-arrival path in the system (head and the just-touched
        # tail are both pair buckets here).
        observed = float(total)
        span = buckets[-1][0] - head[0]
        if observed >= 2.0 and span > 0:
            stw = self.stw_seconds
            scale = stw / min(stw, span * observed / (observed - 1.0))
            estimate = observed * (scale if scale > 1.0 else 1.0)
        elif window.seeded is not None:
            estimate = window.seeded
        else:
            estimate = observed
        min_count = self.min_count
        window.last_estimate = estimate if estimate > min_count else min_count

    def observe_run(self, source_id: str, timestamps: Sequence[float]) -> None:
        """Record a *nondecreasing* run of single-tuple arrivals in one shot.

        Produces the same estimates as :meth:`observe_many` — now and on
        every future call — but appends the whole run with one ``extend``
        and expires the window once against the final horizon:

        * expiring per arrival (``observe_many``) pops only buckets below
          ``ts_i - stw``; with nondecreasing timestamps every intermediate
          horizon is ``<=`` the final one, so the surviving buckets and the
          running total after the run are identical either way;
        * equal consecutive timestamps end up in separate ``[t, 1]`` buckets
          instead of one merged ``[t, k]`` bucket, which changes neither the
          total nor the window edges (the only inputs to ``_estimate``) nor
          any future expiry (whole-bucket pops keyed on the timestamp).

        Array-backed runs (the columnar v2 fast path) are O(1): the run
        enters the window as one :class:`_RunBucket` sharing the block's
        timestamp array zero-copy — behaviourally identical to the expanded
        ``[t, 1]`` pairs, which only ever influence the estimate through the
        total and the window edges — with elements already past the run's own
        horizon trimmed up front by one ``np.searchsorted`` (they would be
        appended and immediately popped by the expiry loop).

        This is the source-batch fast path: generated timestamps are strictly
        increasing within a batch and across batches of one source.
        """
        if _np is not None and isinstance(timestamps, _np.ndarray):
            n = len(timestamps)
            if n == 0:
                return
            window = self._window(source_id)
            # ``item`` reads Python floats, so the horizon and the estimate
            # below are plain float arithmetic (same IEEE doubles as the
            # NumPy scalars, without their per-operation dispatch).
            horizon = timestamps.item(n - 1) - self.stw_seconds
            if timestamps.item(0) >= horizon:
                keep_from = 0  # the usual case: a block is far shorter than the STW
            else:
                keep_from = int(_np.searchsorted(timestamps, horizon, side="left"))
            window.buckets.append(_RunBucket(timestamps, keep_from, n))
            window.total += n - keep_from
            self._expire_horizon(window, horizon)
            window.last_estimate = self._estimate(window)
            return
        if not timestamps:
            return
        window = self._window(source_id)
        window.buckets.extend([t, 1] for t in timestamps)
        window.total += len(timestamps)
        self._expire_horizon(window, timestamps[-1] - self.stw_seconds)
        window.last_estimate = self._estimate(window)

    def observe_many(self, source_id: str, timestamps: Iterable[float]) -> None:
        """Record one arrival per timestamp, re-estimating once at the end.

        Equivalent to calling :meth:`observe` for each timestamp in order —
        buckets are appended and expired per arrival so out-of-order
        timestamps behave identically — but with the per-call overhead
        (window lookup, estimate refresh) paid once per batch.
        """
        window = self._window(source_id)
        buckets = window.buckets
        horizon_gap = self.stw_seconds
        for timestamp in timestamps:
            tail = buckets[-1] if buckets else None
            if tail is not None and type(tail) is list and tail[0] == timestamp:
                tail[1] += 1
            else:
                buckets.append([timestamp, 1])
            window.total += 1
            self._expire_horizon(window, timestamp - horizon_gap)
        window.last_estimate = self._estimate(window)

    def _estimate(self, window: _SourceWindow) -> float:
        observed = float(window.total)
        if observed == 0:
            if window.seeded is not None:
                return window.seeded
            return self.min_count
        buckets = window.buckets
        head = buckets[0]
        tail = buckets[-1]
        head_t = head.timestamps.item(head.lo) if type(head) is _RunBucket else head[0]
        tail_t = (
            tail.timestamps.item(tail.hi - 1) if type(tail) is _RunBucket else tail[0]
        )
        span = tail_t - head_t
        if observed >= 2 and span > 0:
            # Scale the partially observed window up to a full STW; once a
            # full STW of history exists the scale factor tends to 1.
            scale = self.stw_seconds / min(self.stw_seconds, span * observed / (observed - 1))
            estimate = observed * max(1.0, scale)
        elif window.seeded is not None:
            estimate = window.seeded
        else:
            estimate = observed
        return float(max(self.min_count, estimate))

    def tuples_per_stw(self, source_id: str) -> float:
        """Return the current estimate of ``|T_s^S|`` for ``source_id``."""
        window = self._windows.get(source_id)
        if window is None:
            return self.min_count
        return window.last_estimate

    # ------------------------------------------------------ checkpoint/restore
    def snapshot(self) -> Dict[str, object]:
        """Serialise the per-source arrival windows and estimates.

        The bucket contents, running totals and last estimates are recorded
        verbatim, so a restored estimator returns bit-identical estimates —
        now and after any future arrivals — to the original.  Run buckets
        expand into the ``[t, 1]`` pairs they stand for (the two forms are
        behaviourally identical), keeping the checkpoint layout stable.
        """
        return {
            "stw_seconds": self.stw_seconds,
            "min_count": self.min_count,
            "windows": {
                source_id: {
                    "buckets": [
                        pair
                        for bucket in window.buckets
                        for pair in (
                            [
                                [t, 1]
                                for t in bucket.timestamps[
                                    bucket.lo:bucket.hi
                                ].tolist()
                            ]
                            if type(bucket) is _RunBucket
                            else [list(bucket)]
                        )
                    ],
                    "total": window.total,
                    "last_estimate": window.last_estimate,
                    "seeded": window.seeded,
                }
                for source_id, window in self._windows.items()
            },
        }

    def restore(self, state: Dict[str, object]) -> None:
        """Rebuild the estimator from :meth:`snapshot` output."""
        if (
            state["stw_seconds"] != self.stw_seconds
            or state["min_count"] != self.min_count
        ):
            raise ValueError(
                f"estimator checkpoint (stw={state['stw_seconds']}, "
                f"min={state['min_count']}) does not match estimator "
                f"(stw={self.stw_seconds}, min={self.min_count})"
            )
        self._windows = {
            source_id: _SourceWindow(
                buckets=deque([t, c] for t, c in window["buckets"]),
                total=window["total"],
                last_estimate=window["last_estimate"],
                seeded=window["seeded"],
            )
            for source_id, window in state["windows"].items()
        }

    def known_sources(self) -> List[str]:
        return list(self._windows)

    def _expire(self, window: _SourceWindow, now: float) -> None:
        self._expire_horizon(window, now - self.stw_seconds)

    @staticmethod
    def _expire_horizon(window: _SourceWindow, horizon: float) -> None:
        """Drop every arrival strictly below ``horizon`` from the front.

        Pair buckets pop whole; run buckets advance their ``lo`` cursor with
        one binary search — both remove exactly the arrivals the expanded
        per-pair deque would, in the same front-to-back order.
        """
        buckets = window.buckets
        while buckets:
            head = buckets[0]
            if type(head) is _RunBucket:
                timestamps = head.timestamps
                if timestamps.item(head.hi - 1) < horizon:
                    window.total -= head.hi - head.lo
                    buckets.popleft()
                    continue
                if timestamps.item(head.lo) < horizon:
                    new_lo = head.lo + int(
                        _np.searchsorted(
                            timestamps[head.lo:head.hi], horizon, side="left"
                        )
                    )
                    window.total -= new_lo - head.lo
                    head.lo = new_lo
                break
            if head[0] < horizon:
                window.total -= head[1]
                buckets.popleft()
                continue
            break


class SicAssigner:
    """Stamps source tuples with SIC values for one query.

    The assigner knows how many sources feed the query (``|S|`` is fixed per
    query, §6) and uses a :class:`SourceRateEstimator` to track per-source
    arrival counts over the sliding STW.
    """

    def __init__(
        self,
        query_id: str,
        num_sources: int,
        stw_seconds: float,
        nominal_rates: Optional[Dict[str, float]] = None,
    ) -> None:
        if num_sources <= 0:
            raise ValueError(f"num_sources must be positive, got {num_sources}")
        self.query_id = query_id
        self.num_sources = int(num_sources)
        self.estimator = SourceRateEstimator(stw_seconds)
        for source_id, rate in (nominal_rates or {}).items():
            self.estimator.seed_rate(source_id, rate)

    def assign(self, tuples: Sequence[Tuple]) -> List[Tuple]:
        """Assign SIC values in place and return the same tuples.

        Arrivals are first recorded so that the estimate reflects the batch
        being stamped, then every tuple receives
        ``1 / (estimate(source) * |S|)``.  Consecutive same-source runs are
        ingested with one estimator call, and the per-tuple SIC value is
        computed once per distinct source instead of once per tuple.
        """
        run_source: Optional[str] = None
        run_timestamps: List[float] = []
        for t in tuples:
            source = t.source_id or "__anonymous__"
            if source != run_source:
                if run_timestamps:
                    self.estimator.observe_many(run_source, run_timestamps)
                run_source = source
                run_timestamps = []
            run_timestamps.append(t.timestamp)
        if run_timestamps:
            self.estimator.observe_many(run_source, run_timestamps)

        sic_per_source: Dict[str, float] = {}
        for t in tuples:
            source = t.source_id or "__anonymous__"
            sic = sic_per_source.get(source)
            if sic is None:
                per_stw = self.estimator.tuples_per_stw(source)
                sic = source_tuple_sic(per_stw, self.num_sources)
                sic_per_source[source] = sic
            t.sic = sic
        return list(tuples)

    def assign_block(self, block) -> "object":
        """Columnar :meth:`assign`: stamp a single-source ``ColumnBlock``.

        Source blocks carry one source by construction, so the whole
        timestamp column is ingested as one estimator run and the SIC column
        becomes ``[1 / (estimate * |S|)] * len`` — the same values
        :meth:`assign` writes tuple-by-tuple on the materialized batch.
        """
        source = block.source_id or "__anonymous__"
        timestamps = block.timestamps
        if len(timestamps):
            self.estimator.observe_run(source, timestamps)
        per_stw = self.estimator.tuples_per_stw(source)
        sic = source_tuple_sic(per_stw, self.num_sources)
        # Constant column in the block's own backing (ndarray or list).
        block.sics = block.constant_sics(sic)
        return block

    def sic_for(self, source_id: str) -> float:
        """Return the SIC value a new tuple from ``source_id`` would receive."""
        per_stw = self.estimator.tuples_per_stw(source_id)
        return source_tuple_sic(per_stw, self.num_sources)

    # ------------------------------------------------------ checkpoint/restore
    def snapshot(self) -> Dict[str, object]:
        """Serialise the assigner: query identity plus the estimator state."""
        return {
            "query_id": self.query_id,
            "num_sources": self.num_sources,
            "estimator": self.estimator.snapshot(),
        }

    def restore(self, state: Dict[str, object]) -> None:
        """Rebuild the assigner from :meth:`snapshot` output."""
        if (
            state["query_id"] != self.query_id
            or state["num_sources"] != self.num_sources
        ):
            raise ValueError(
                f"assigner checkpoint for {state['query_id']!r} "
                f"({state['num_sources']} sources) does not match "
                f"{self.query_id!r} ({self.num_sources} sources)"
            )
        self.estimator.restore(state["estimator"])
