"""BALANCE-SIC fair tuple selection — Algorithm 1 of the paper (§5).

Each overloaded node runs the same procedure once per shedding interval: given
the batches waiting in its input buffer, the node capacity ``c`` (tuples it can
process during the interval) and the latest known result SIC value of every
locally hosted query, it selects which batches to keep so that the result SIC
values of all queries converge towards the same value, and sheds the rest.

The implementation follows the paper's gradient-ascent structure:

* iteratively pick the query ``q'`` with the minimum (projected) result SIC
  that still has pending tuples;
* find ``q''``, the next-lowest *distinct* SIC value among the other queries;
* accept tuples from ``q'`` — highest SIC value first (``max(x_SIC)`` in
  line 16), which maximises the SIC gain per accepted tuple and therefore uses
  the node's capacity efficiently — until ``q'`` catches up with ``q''`` or
  capacity runs out;
* when all queries are tied, accept one more batch from a randomly chosen
  query so the node's remaining capacity is not wasted.

The per-node projection heuristic of §6 is also implemented here: before the
selection starts, each query's reported result SIC is reduced by the total SIC
currently sitting in the input buffer for that query, i.e. the node plans as if
it shed everything and then "earns back" SIC for every batch it accepts.

Selection keeps one ordered index instead of rescanning the queries every
step (the straightforward O(I x Q) implementation is kept in
:mod:`repro.core._reference` as the equivalence oracle and perf baseline):
the queries that still have pending batches sit in a list of
``(working SIC, buffer position, state)`` kept sorted with ``bisect``, and
the working SICs of the queries that have none sit in a second sorted list.
``q'`` is the head of the first list.  Its tie group is the prefix of
entries within ``epsilon`` of that minimum, ordered by buffer position (the
order it already has when the tied values are bit-equal); the winner is
drawn from it only when at least two queries are tied.  ``q''`` is the
first entry of either list beyond ``q' + epsilon``.  A step removes one
entry and re-inserts it at its new SIC, so the index never holds a stale
entry: a step costs O(log Q) comparisons and one pointer move of the list.

Tie groups are reused across draws.  Under permanent overload the queries
of one rate class climb in lockstep, so consecutive steps break the same tie
among a dozen queries, each time minus the one drawn last (it climbed to
``q''``).  The group — sorted by buffer position once — is kept between
steps with the drawn member removed, together with the index head it was
built under.  While the head is that same entry the limit ``q' + epsilon``
is unchanged, every cached member is still inside it, and none can have
left the index except by being drawn (an untied step needs a lone entry
within the limit).  The prefix within the limit thus holds the cached
members plus any drawn query that landed back inside it, so it *is* the
cache exactly when it has as many entries.  Two comparisons — head
identity, and the entry at the cached length against the limit — decide
whether the group is reused; otherwise it is rebuilt (slice, and a sort
when the tied values are not bit-equal).  The draw is
``rng._randbelow(len(group))``, which is the body of ``Random.choice``: the
same method on the same generator consumes the same bits, so the RNG stream
and every winner are unchanged.

The loop is *piece-free*: accepting tuples from a query's top pending batch
only advances an integer cursor over that batch and reads the accepted SIC
off the batch's cumulative-SIC prefix array
(:meth:`repro.core.tuples.Batch.sic_prefix`).  Batches are materialised once,
when the round is decided: a batch the cursor ran through is kept as the
object it is, an untouched one is shed as it is, and a partially accepted one
is split exactly once (:meth:`repro.core.tuples.Batch.split`) into a kept
head and a shed tail.  A round therefore emits at most one kept entry per
input batch, and everything downstream of the shedder — delivery, window
insert, the node-local SIC tracker — runs per batch, not per water-filling
step.

The loop replays the exact same RNG call sequence (one tie-break draw over
the tied queries in buffer order, per-query ``shuffle`` for the RANDOM
strategy) and the exact same floating-point arithmetic on the working SIC
values as the reference, so seeded runs keep the same tuples: per query the
kept tuples are the same contiguous prefixes, and ``iterations``, the tuple
counts and ``projected_sic`` are identical.  Only the granularity differs —
the reference emits one batch piece per step.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, List, Mapping, Optional, Sequence

from .tuples import Batch, total_tuples as _total_tuples

__all__ = [
    "SelectionStrategy",
    "BalanceSicConfig",
    "ShedDecision",
    "BalanceSicPolicy",
    "keep_all_decision",
]


class SelectionStrategy:
    """How tuples are ordered *within* the selected query.

    ``HIGHEST_SIC`` is the paper's choice (line 16, ``max(x_SIC)``); the other
    two exist for the ablation benchmarks.
    """

    HIGHEST_SIC = "highest_sic"
    LOWEST_SIC = "lowest_sic"
    RANDOM = "random"

    ALL = (HIGHEST_SIC, LOWEST_SIC, RANDOM)


@dataclass(frozen=True)
class BalanceSicConfig:
    """Tunables of the BALANCE-SIC selection procedure.

    Attributes:
        selection_strategy: ordering of batches within the selected query.
        allow_batch_splitting: when the remaining capacity is smaller than the
            next batch, split the batch instead of leaving capacity unused.
        use_projection: apply the §6 heuristic that subtracts the SIC of
            buffered batches from the reported result SIC before selecting.
        epsilon: numerical tolerance when comparing SIC values for equality.
    """

    selection_strategy: str = SelectionStrategy.HIGHEST_SIC
    allow_batch_splitting: bool = True
    use_projection: bool = True
    epsilon: float = 1e-12

    def __post_init__(self) -> None:
        if self.selection_strategy not in SelectionStrategy.ALL:
            raise ValueError(
                f"unknown selection strategy {self.selection_strategy!r}; "
                f"expected one of {SelectionStrategy.ALL}"
            )
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be non-negative, got {self.epsilon}")


@dataclass
class ShedDecision:
    """Outcome of one shedding round.

    Attributes:
        kept: batches selected for processing: input batches or their
            heads, at most one per input batch, in the order the selection
            first accepted tuples from them.
        shed: batches to discard: input batches or their tails.
        kept_tuples: total number of tuples kept.
        shed_tuples: total number of tuples shed.
        iterations: number of iterations of the selection loop.
        projected_sic: the per-query SIC values the node projects after this
            round (its own local view; the coordinator later reconciles it).
    """

    kept: List[Batch] = field(default_factory=list)
    shed: List[Batch] = field(default_factory=list)
    kept_tuples: int = 0
    shed_tuples: int = 0
    iterations: int = 0
    projected_sic: Dict[str, float] = field(default_factory=dict)

    @property
    def total_tuples(self) -> int:
        return self.kept_tuples + self.shed_tuples

    def kept_sic_per_query(self) -> Dict[str, float]:
        """Sum of the SIC values of kept batches, per query."""
        totals: Dict[str, float] = {}
        for batch in self.kept:
            totals[batch.query_id] = totals.get(batch.query_id, 0.0) + batch.sic
        return totals


def keep_all_decision(
    batches: Sequence[Batch], total_tuples: Optional[int] = None
) -> ShedDecision:
    """Build the "not overloaded: keep everything" decision.

    Shared by every shedder's underload early-exit.  ``total_tuples`` lets
    callers that already track the buffered tuple count (e.g.
    :class:`repro.federation.node.FspsNode`) skip the per-batch length sweep.
    """
    decision = ShedDecision()
    decision.kept = list(batches)
    if total_tuples is None:
        total_tuples = _total_tuples(batches)
    decision.kept_tuples = total_tuples
    return decision


class _QueryState:
    """Per-query working state during one selection round.

    ``pending`` is stored back-to-front (the next batch to consider is
    ``pending[-1]``) so consuming the head is an O(1) ``pop()``.  The
    water-filling loop never materialises the tuples it accepts from that
    top batch; it advances a cursor instead: ``taken`` tuples of it are
    already accepted, ``rest_len`` / ``rest_sic`` describe the unaccepted
    remainder, and ``prefix`` is the batch's cumulative-SIC array (read on
    the first partial accept; ``prefix[i]`` is the SIC of its first ``i``
    tuples).  ``kept_slot`` is where the partially accepted top batch sits
    in the decision's kept list.  ``order`` is the query's insertion
    position: it is the second key of the query's entry in the selection
    index, which makes entries with equal ``working_sic`` sort in buffer
    order, the order the reference implementation breaks ties in.
    """

    __slots__ = (
        "query_id",
        "working_sic",
        "pending",
        "pending_sic",
        "order",
        "taken",
        "rest_len",
        "rest_sic",
        "prefix",
        "kept_slot",
    )

    def __init__(
        self,
        query_id: str,
        working_sic: float,
        pending: List[Batch],
        pending_sic: float = 0.0,
        order: int = 0,
    ) -> None:
        self.query_id = query_id
        self.working_sic = working_sic
        self.pending = pending
        self.pending_sic = pending_sic
        self.order = order
        self.kept_slot = -1
        self.open_top()

    def open_top(self) -> None:
        """Point the cursor at the start of the (new) top pending batch."""
        self.taken = 0
        self.prefix = None
        if self.pending:
            top = self.pending[-1]
            self.rest_len = len(top)
            self.rest_sic = top.sic
        else:
            self.rest_len = 0
            self.rest_sic = 0.0

    def read_prefix(self) -> List[float]:
        """Cumulative SIC over the top batch's tuples, as a plain list.

        A list of Python floats indexes several times faster than NumPy
        scalars and holds the same doubles, so the loop's arithmetic is
        unchanged.
        """
        top = self.pending[-1]
        prefix, start = top.checked_sic_prefix()
        view = prefix[start:start + len(top) + 1]
        if not isinstance(view, list):
            view = view.tolist()
        self.prefix = view
        return view

    def shed_pending(self, kept: List[Batch], shed: List[Batch]) -> int:
        """Move everything still pending to ``shed``, in buffer order.

        This is where a partially accepted top batch is finally split: its
        accepted head replaces the batch in ``kept``, its tail is shed.
        Returns the number of tuples shed.
        """
        pending = self.pending
        if self.taken:
            head, tail = pending[-1].split(self.taken)
            kept[self.kept_slot] = head
            pending[-1] = tail
        pending.reverse()
        shed.extend(pending)
        self.pending = []
        return _total_tuples(pending)


# Index entries are ``(working_sic, order, state)``; ``order`` is unique per
# state so a comparison never reaches the state object.
_buffer_order = itemgetter(1)


class BalanceSicPolicy:
    """Implementation of Algorithm 1's ``selectTuplesToKeep`` procedure."""

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
        total_tuples: Optional[int] = None,
    ) -> ShedDecision:
        """Select which batches to keep given capacity ``c``.

        Args:
            batches: the content of the node's input buffer for this interval.
            capacity: the number of tuples the node can process (``c``).
            reported_sic: last known result SIC per query, as disseminated by
                the query coordinators (``updateSIC``).  Queries that have
                batches in the buffer but no reported value default to 0.
            total_tuples: optional precomputed total tuple count of
                ``batches`` (nodes track it incrementally); computed here when
                omitted.

        Returns:
            A :class:`ShedDecision`.  Every input batch ends up whole in
            ``kept`` or ``shed``, or split once into a kept head and a shed
            tail.
        """
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")

        decision = ShedDecision()
        states = self._initial_states(batches, reported_sic)
        if not states:
            return decision

        if total_tuples is None:
            total_tuples = _total_tuples(batches)
        if total_tuples <= capacity:
            # Not overloaded: keep everything (the node only sheds when the
            # buffer exceeds its capacity, §6 "Overload detection").
            decision = keep_all_decision(batches, total_tuples)
            decision.projected_sic = {
                s.query_id: s.working_sic + s.pending_sic
                for s in states.values()
            }
            return decision

        eps = self.config.epsilon
        allow_split = self.config.allow_batch_splitting
        remaining = capacity
        kept = decision.kept
        shed = decision.shed
        kept_tuples = 0
        shed_tuples = 0
        iterations = 0

        # Orders are 0..len(states)-1, so ``(value, past_order)`` sorts after
        # every index entry whose working SIC equals ``value``.
        past_order = len(states)
        pend = sorted(
            (s.working_sic, s.order, s) for s in states.values() if s.pending
        )
        idle = sorted(s.working_sic for s in states.values() if not s.pending)

        # The loop below runs once per water-filling step (thousands of times
        # per round under permanent overload), so the index queries are
        # written out in place instead of being method calls.
        randbelow = self.rng._randbelow
        # The tie group of the last tie step, in buffer order, minus the
        # members drawn since, and the head entry it was built under (see
        # the module docstring).
        group: List[tuple] = []
        group_head = None
        while remaining > 0 and pend:
            # q': the minimum-SIC query that still has pending batches; the
            # queries within epsilon of it are tied and one is drawn.
            head = pend[0]
            working = head[0]
            limit = working + eps
            if len(pend) == 1 or pend[1][0] > limit:
                q_prime = pend.pop(0)[2]
                beyond = 0
            else:
                count = len(group)
                if head is not group_head or (
                    count < len(pend) and pend[count][0] <= limit
                ):
                    # A new limit, or more entries within it than cached
                    # members: rebuild the group from the index.
                    count = bisect_right(pend, (limit, past_order))
                    group = pend[:count]
                    if group[-1][0] != working:
                        group.sort(key=_buffer_order)
                    group_head = head
                chosen = group.pop(randbelow(count))
                del pend[bisect_left(pend, chosen, 0, count)]
                working, _order, q_prime = chosen
                limit = working + eps
                beyond = bisect_right(pend, (limit, past_order), count - 1)
            iterations += 1

            # q'': the next-lowest SIC value strictly above q' (beyond
            # epsilon), among the queries with pending batches and without.
            target: Optional[float] = None
            if beyond < len(pend):
                target = pend[beyond][0]
            if idle and idle[-1] > limit:
                level = idle[bisect_right(idle, limit)]
                if target is None or level < target:
                    target = level

            pending = q_prime.pending
            accepted_any = False
            while pending and remaining > 0:
                if target is not None and working >= target - eps:
                    break
                # Take only as many tuples as needed to reach the target
                # (line 15-16 of Algorithm 1): if accepting the rest of the
                # top batch would overshoot q'', stop at the required count.
                rest_len = size = q_prime.rest_len
                if target is not None and allow_split and size > 1:
                    rest_sic = q_prime.rest_sic
                    if rest_sic > 0:
                        per_tuple = rest_sic / size
                        needed = (
                            int(-(-(target - working) // per_tuple))
                            if per_tuple > 0
                            else size
                        )
                        if 0 < needed < size:
                            size = needed
                if size > remaining:
                    if not allow_split:
                        remaining = 0
                        break
                    size = remaining
                if size == rest_len:
                    # The rest of the top batch is accepted whole.
                    working += q_prime.rest_sic
                    batch = pending.pop()
                    if not q_prime.taken:
                        kept.append(batch)
                    q_prime.open_top()
                else:
                    # Advance the cursor; the batch is split once, at the end.
                    taken = q_prime.taken
                    prefix = q_prime.prefix
                    if prefix is None:
                        prefix = q_prime.read_prefix()
                        q_prime.kept_slot = len(kept)
                        kept.append(pending[-1])
                    cut = taken + size
                    working += prefix[cut] - prefix[taken]
                    q_prime.rest_sic = prefix[-1] - prefix[cut]
                    q_prime.rest_len = rest_len - size
                    q_prime.taken = cut
                kept_tuples += size
                remaining -= size
                accepted_any = True
                if target is None:
                    # All queries tied: accept a single batch then re-evaluate,
                    # matching iteration 5 of the paper's Figure 3 example.
                    break

            if not accepted_any:
                # The minimum-SIC query could not accept anything (e.g. its
                # next batch does not fit and splitting is disabled); drop its
                # pending tuples into the shed set to guarantee progress.
                shed_tuples += q_prime.shed_pending(kept, shed)
            else:
                q_prime.working_sic = working
            if q_prime.pending:
                insort(pend, (working, q_prime.order, q_prime))
            else:
                insort(idle, working)

        # Whatever was not selected is shed (Algorithm 1, line 7).
        for state in states.values():
            if state.pending:
                shed_tuples += state.shed_pending(kept, shed)
        decision.kept_tuples = kept_tuples
        decision.shed_tuples = shed_tuples
        decision.iterations = iterations
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
        order = 0
        use_projection = self.config.use_projection
        for query_id, pending in per_query.items():
            self._order_pending(pending)
            pending_sic = 0.0
            for b in pending:
                pending_sic += b.sic
            reported = float(reported_sic.get(query_id, 0.0))
            if use_projection:
                working = max(0.0, reported - pending_sic)
            else:
                working = reported
            pending.reverse()
            states[query_id] = _QueryState(
                query_id=query_id,
                working_sic=working,
                pending=pending,
                pending_sic=pending_sic,
                order=order,
            )
            order += 1
        # Queries known to the node (via the coordinator) but without buffered
        # tuples still participate as comparison points for q''.
        for query_id, value in reported_sic.items():
            if query_id not in states:
                states[query_id] = _QueryState(
                    query_id=query_id,
                    working_sic=float(value),
                    pending=[],
                    order=order,
                )
                order += 1
        return states

    def _order_pending(self, pending: List[Batch]) -> None:
        strategy = self.config.selection_strategy
        if strategy == SelectionStrategy.HIGHEST_SIC:
            pending.sort(key=lambda b: b.sic, reverse=True)
        elif strategy == SelectionStrategy.LOWEST_SIC:
            pending.sort(key=lambda b: b.sic)
        else:
            self.rng.shuffle(pending)
