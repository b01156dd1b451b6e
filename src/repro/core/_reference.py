"""Reference (pre-optimisation) implementations of the shedding hot paths.

This module preserves the original O(iterations × queries) BALANCE-SIC
selection loop and the original per-tuple timestamp-deque rate estimator,
exactly as they shipped in the seed.  They exist for two reasons:

* **Correctness oracle** — the optimised :class:`repro.core.balance_sic.
  BalanceSicPolicy` must produce byte-identical :class:`ShedDecision`s for any
  input and seed; ``tests/core/test_perf_equivalence.py`` checks the fast path
  against this reference on randomised inputs.
* **Perf baseline** — ``benchmarks/test_bench_micro.py`` and
  ``scripts/bench_report.py`` time the fast path against this reference so the
  recorded speedups in ``BENCH_shedding.json`` are reproducible on any
  machine, not only relative to a number measured on ours.

The only change from the seed code is that batch splitting delegates to
:meth:`repro.core.tuples.Batch.split` so both implementations share the exact
same floating-point arithmetic for split SIC values; the control flow (the
part being optimised) is untouched.  Do not "improve" this module — its
slowness is the point.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Mapping, Optional, Sequence

from .balance_sic import BalanceSicConfig, SelectionStrategy, ShedDecision
from .sic import source_tuple_sic
from .tuples import Batch, Tuple, seq_sum

__all__ = [
    "ReferenceBalanceSicPolicy",
    "ReferenceSourceRateEstimator",
    "ReferenceSicAssigner",
]


@dataclass
class _QueryState:
    """Per-query working state during one selection round."""

    query_id: str
    working_sic: float
    pending: List[Batch]


class ReferenceBalanceSicPolicy:
    """The seed's ``selectTuplesToKeep``: linear rescans every iteration."""

    def __init__(
        self,
        config: Optional[BalanceSicConfig] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.config = config or BalanceSicConfig()
        self.rng = rng or random.Random(0)

    # ------------------------------------------------------------------ public
    def select(
        self,
        batches: Sequence[Batch],
        capacity: int,
        reported_sic: Mapping[str, float],
    ) -> ShedDecision:
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")

        decision = ShedDecision()
        states = self._initial_states(batches, reported_sic)
        if not states:
            return decision

        total_tuples = sum(len(b) for b in batches)
        if total_tuples <= capacity:
            decision.kept = list(batches)
            decision.kept_tuples = total_tuples
            decision.projected_sic = {
                s.query_id: s.working_sic + seq_sum([b.sic for b in s.pending])
                for s in states.values()
            }
            return decision

        remaining = capacity

        while remaining > 0:
            candidates = [s for s in states.values() if s.pending]
            if not candidates:
                break
            decision.iterations += 1

            q_prime = self._argmin_query(candidates)
            target = self._next_distinct_sic(states.values(), q_prime.working_sic)

            accepted_any = False
            while q_prime.pending and remaining > 0:
                if target is not None and (
                    q_prime.working_sic >= target - self.config.epsilon
                ):
                    break
                batch = q_prime.pending[0]
                if (
                    target is not None
                    and self.config.allow_batch_splitting
                    and len(batch) > 1
                    and batch.sic > 0
                ):
                    deficit = target - q_prime.working_sic
                    per_tuple = batch.sic / len(batch)
                    needed = int(-(-deficit // per_tuple)) if per_tuple > 0 else len(batch)
                    if 0 < needed < len(batch):
                        head, tail = batch.split(needed)
                        q_prime.pending[0] = head
                        q_prime.pending.insert(1, tail)
                        batch = head
                if len(batch) <= remaining:
                    q_prime.pending.pop(0)
                    decision.kept.append(batch)
                    decision.kept_tuples += len(batch)
                    remaining -= len(batch)
                    q_prime.working_sic += batch.sic
                    accepted_any = True
                elif self.config.allow_batch_splitting and remaining > 0:
                    kept_part, rest = batch.split(remaining)
                    q_prime.pending[0] = rest
                    decision.kept.append(kept_part)
                    decision.kept_tuples += len(kept_part)
                    remaining = 0
                    q_prime.working_sic += kept_part.sic
                    accepted_any = True
                else:
                    remaining = 0
                    break
                if target is None and accepted_any:
                    break

            if not accepted_any:
                decision.shed.extend(q_prime.pending)
                decision.shed_tuples += sum(len(b) for b in q_prime.pending)
                q_prime.pending = []

        for state in states.values():
            for batch in state.pending:
                decision.shed.append(batch)
                decision.shed_tuples += len(batch)
        decision.projected_sic = {
            s.query_id: s.working_sic for s in states.values()
        }
        return decision

    # ----------------------------------------------------------------- helpers
    def _initial_states(
        self,
        batches: Sequence[Batch],
        reported_sic: Mapping[str, float],
    ) -> Dict[str, _QueryState]:
        per_query: Dict[str, List[Batch]] = {}
        for batch in batches:
            per_query.setdefault(batch.query_id, []).append(batch)

        states: Dict[str, _QueryState] = {}
        for query_id, pending in per_query.items():
            self._order_pending(pending)
            reported = float(reported_sic.get(query_id, 0.0))
            if self.config.use_projection:
                buffered = seq_sum([b.sic for b in pending])
                working = max(0.0, reported - buffered)
            else:
                working = reported
            states[query_id] = _QueryState(
                query_id=query_id, working_sic=working, pending=pending
            )
        for query_id, value in reported_sic.items():
            if query_id not in states:
                states[query_id] = _QueryState(
                    query_id=query_id, working_sic=float(value), pending=[]
                )
        return states

    def _order_pending(self, pending: List[Batch]) -> None:
        strategy = self.config.selection_strategy
        if strategy == SelectionStrategy.HIGHEST_SIC:
            pending.sort(key=lambda b: b.sic, reverse=True)
        elif strategy == SelectionStrategy.LOWEST_SIC:
            pending.sort(key=lambda b: b.sic)
        else:
            self.rng.shuffle(pending)

    def _argmin_query(self, candidates: Sequence[_QueryState]) -> _QueryState:
        minimum = min(s.working_sic for s in candidates)
        tied = [
            s
            for s in candidates
            if s.working_sic <= minimum + self.config.epsilon
        ]
        if len(tied) == 1:
            return tied[0]
        return self.rng.choice(tied)

    def _next_distinct_sic(
        self, states: Iterable[_QueryState], reference: float
    ) -> Optional[float]:
        higher = [
            s.working_sic
            for s in states
            if s.working_sic > reference + self.config.epsilon
        ]
        if not higher:
            return None
        return min(higher)


@dataclass
class _SourceWindow:
    """Arrival bookkeeping for one source over a sliding STW."""

    timestamps: Deque[float]
    last_estimate: float
    seeded: Optional[float] = None


class ReferenceSourceRateEstimator:
    """The seed's estimator: one deque entry per arrival, O(k) ``observe``."""

    def __init__(self, stw_seconds: float, min_count: float = 1.0) -> None:
        if stw_seconds <= 0:
            raise ValueError(f"stw_seconds must be positive, got {stw_seconds}")
        self.stw_seconds = float(stw_seconds)
        self.min_count = float(min_count)
        self._windows: Dict[str, _SourceWindow] = {}

    def seed_rate(self, source_id: str, tuples_per_second: float) -> None:
        estimate = max(self.min_count, tuples_per_second * self.stw_seconds)
        window = self._windows.setdefault(
            source_id, _SourceWindow(timestamps=deque(), last_estimate=estimate)
        )
        window.last_estimate = estimate
        window.seeded = estimate

    def observe(self, source_id: str, timestamp: float, count: int = 1) -> None:
        window = self._windows.setdefault(
            source_id,
            _SourceWindow(timestamps=deque(), last_estimate=self.min_count),
        )
        for _ in range(count):
            window.timestamps.append(timestamp)
        self._expire(window, timestamp)
        window.last_estimate = self._estimate(window)

    def _estimate(self, window: _SourceWindow) -> float:
        timestamps = window.timestamps
        observed = float(len(timestamps))
        if observed == 0:
            if window.seeded is not None:
                return window.seeded
            return self.min_count
        span = timestamps[-1] - timestamps[0]
        if observed >= 2 and span > 0:
            scale = self.stw_seconds / min(self.stw_seconds, span * observed / (observed - 1))
            estimate = observed * max(1.0, scale)
        elif window.seeded is not None:
            estimate = window.seeded
        else:
            estimate = observed
        return max(self.min_count, estimate)

    def tuples_per_stw(self, source_id: str) -> float:
        window = self._windows.get(source_id)
        if window is None:
            return self.min_count
        return window.last_estimate

    def known_sources(self) -> List[str]:
        return list(self._windows)

    def _expire(self, window: _SourceWindow, now: float) -> None:
        horizon = now - self.stw_seconds
        timestamps = window.timestamps
        while timestamps and timestamps[0] < horizon:
            timestamps.popleft()


class ReferenceSicAssigner:
    """The seed's SIC assigner: per-tuple ``observe`` and per-tuple stamping.

    Preserved verbatim (on top of :class:`ReferenceSourceRateEstimator`) as
    the per-tuple baseline for the source-generation + SIC-assignment
    benchmark and as the oracle for ``SicAssigner.assign_block`` equivalence
    tests: for identical inputs both must produce identical SIC values.
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
        self.estimator = ReferenceSourceRateEstimator(stw_seconds)
        for source_id, rate in (nominal_rates or {}).items():
            self.estimator.seed_rate(source_id, rate)

    def assign(self, tuples: Sequence[Tuple]) -> List[Tuple]:
        for t in tuples:
            source = t.source_id or "__anonymous__"
            self.estimator.observe(source, t.timestamp)
        for t in tuples:
            source = t.source_id or "__anonymous__"
            per_stw = self.estimator.tuples_per_stw(source)
            t.sic = source_tuple_sic(per_stw, self.num_sources)
        return list(tuples)
