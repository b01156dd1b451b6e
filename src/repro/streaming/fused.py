"""Fragment plan compiler: fused single-pass columnar execution.

The columnar v2 kernels (ColumnBlock + NumPy backends) made each *stage* of
the pipeline fast, but a fragment still pays per-block Python dispatch at
every operator boundary: ``advance_items`` → ``_process_columnar`` → SIC
rebind → ``_route_items`` → ``ingest_block`` → window bucketing, per operator
per tick.  For the common aggregate-query shape — a linear
``SourceReceiver → Filter* → WindowedAggregate → OutputOperator`` chain — all
of that dispatch is avoidable: the whole prefix can run as **one** columnar
pass per tick.

:func:`compile_fused_plan` walks a finalized fragment and, when every stage
is fusible, emits a :class:`FusedPlan`.  Per tick the plan:

1. drains the receiver's ``ImmediateWindow`` pane into one merged block,
2. evaluates every filter as a boolean mask on the *original* columns and
   AND-combines them, so the survivor gather happens once no matter how many
   filters are chained (mask fusion),
3. stamps the propagated SIC share as a constant column, and
4. buckets the surviving rows straight into the aggregate's ``TimeWindow``
   pane accumulators (change-point bucketing via ``insert_block``).

Determinism / bit-exactness
---------------------------
Every reduction the fused path performs replicates the staged arithmetic
operation-for-operation: pane SIC folds go through :func:`seq_sum` on the
same constant columns the staged path would have folded, and propagated
shares are computed as ``input_sic / survivors`` — identical to
``propagate_sic([input_sic], survivors)[0]`` because summing a one-element
list is exact.  Seeded fused runs are therefore bit-exact result-identical
to staged runs (the differential suite asserts it).

State and fallback
------------------
The plan owns **no state**: buffered input lives in the receiver's window
and windowed state in the aggregate's ``TimeWindow``, exactly where the
staged pipeline keeps them.  Checkpoints, migration and fail/rejoin therefore
see the staged layout unchanged, and any individual tick may fall back to
staged execution (list-backed blocks after a restore, per-tuple delivery,
a payload column the filters cannot vectorize) without moving data:
:meth:`FusedPlan.run_prefix` validates the tick's buffered input *before*
touching any state and simply declines when it is not fusible.

Selection
---------
There is no fusion switch: fused execution is active whenever NumPy is
importable and the numpy columnar backend is active
(:func:`fused_execution_active`), and then every fusible fragment runs its
plan.  The list backend always runs staged — it is the NumPy-free fallback
and equivalence oracle.  Callers read the predicate through this module, so
the differential suites reach the staged reference on the numpy backend by
substituting that one function.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple as PyTuple

try:  # Guarded: the list backend (and its CI leg) works without NumPy.
    import numpy as np
except ImportError:  # pragma: no cover - exercised only on stripped installs
    np = None

from ..core.columns import ColumnAppender, ColumnBlock, get_default_backend
from ..core.tuples import seq_sum
from .operators.aggregate import Average, Count, Max, Min, Sum
from .operators.stateless import Filter, OutputOperator, SourceReceiver
from .windows import ImmediateWindow, TimeWindow, _PaneAcc

if np is not None:
    from ..core import kernels as _kernels
else:  # pragma: no cover - stripped installs never activate fusion
    _kernels = None

__all__ = [
    "FusedPlan",
    "compile_fused_plan",
    "fused_execution_active",
]


def fused_execution_active() -> bool:
    """NumPy is importable *and* the numpy columnar backend is active.

    The list backend always runs staged: it doubles as the NumPy-free
    fallback and the equivalence oracle for the differential suites.
    """
    return np is not None and get_default_backend() == "numpy"


# Exact types only: subclasses may override _process/_compute with semantics
# the fused pass does not replicate, so they decline fusion.
_FUSIBLE_AGGREGATES = (Average, Count, Max, Min, Sum)


def compile_fused_plan(fragment) -> Optional["FusedPlan"]:
    """Compile ``fragment`` into a :class:`FusedPlan`, or ``None``.

    Fusible shape — checked structurally, once per fragment:

    * a linear port-0 chain ``SourceReceiver → Filter* → aggregate → output``
      (every operator feeds exactly the next one, nothing else);
    * exactly one bound source, feeding the chain head, and no upstream
      fragment bindings;
    * every filter carries a column annotation
      (:meth:`Filter.field_threshold`);
    * the aggregate is one of Average/Sum/Count/Max/Min over a *tumbling*
      ``TimeWindow``;
    * the chain tail is the fragment's exit operator.

    Anything else — joins, unions, group-by, top-k, statistics, sliding
    windows, multi-port operators, opaque filter predicates — returns
    ``None`` and the fragment runs the staged pipeline unchanged.
    """
    order = fragment._order
    ops = fragment.operators
    if len(order) < 3:
        return None
    if fragment.upstream_bindings:
        return None
    if len(fragment.source_bindings) != 1:
        return None
    ((entry_id, entry_port),) = fragment.source_bindings.values()
    if entry_id != order[0] or entry_port != 0:
        return None
    if fragment.exit_operator_id != order[-1]:
        return None
    for index, op_id in enumerate(order):
        targets = list(fragment._adjacency.get(op_id, ()))
        if index + 1 < len(order):
            if targets != [(order[index + 1], 0)]:
                return None
        elif targets:
            return None
    receiver = ops[order[0]]
    if type(receiver) is not SourceReceiver or receiver.num_ports != 1:
        return None
    if type(receiver._windows[0]) is not ImmediateWindow:
        return None
    aggregate = ops[order[-2]]
    if type(aggregate) not in _FUSIBLE_AGGREGATES or aggregate.num_ports != 1:
        return None
    window = aggregate._windows[0]
    if type(window) is not TimeWindow or window.is_sliding:
        return None
    if type(ops[order[-1]]) is not OutputOperator:
        return None
    filter_ids = tuple(order[1:-2])
    for op_id in filter_ids:
        filt = ops[op_id]
        if type(filt) is not Filter or filt.num_ports != 1:
            return None
        if getattr(filt.predicate, "column_field", None) is None:
            return None
        if type(filt._windows[0]) is not ImmediateWindow:
            return None
    return FusedPlan(
        receiver=receiver,
        receiver_id=order[0],
        filters=tuple(ops[op_id] for op_id in filter_ids),
        filter_ids=filter_ids,
        aggregate=aggregate,
        aggregate_id=order[-2],
        suffix_ids=tuple(order[-2:]),
    )


class FusedPlan:
    """A compiled fused execution plan for one linear fragment chain.

    ``run_prefix`` replaces the staged receiver→filters→aggregate-ingest
    dispatch; the aggregate and output operators still advance through the
    fragment's normal loop (``suffix_ids``) so pane closing, Equation-3 SIC
    propagation over windows and result emission stay on the proven path.

    Operator references are captured at compile time: a fragment's operator
    objects are stable after :meth:`~QueryFragment.finalize` (checkpoint
    restore mutates them in place, and any re-wiring re-finalizes, which
    recompiles the plan).
    """

    __slots__ = (
        "receiver",
        "receiver_id",
        "filters",
        "filter_ids",
        "aggregate",
        "aggregate_id",
        "suffix_ids",
    )

    def __init__(
        self,
        receiver: SourceReceiver,
        receiver_id: str,
        filters: PyTuple[Filter, ...],
        filter_ids: PyTuple[str, ...],
        aggregate,
        aggregate_id: str,
        suffix_ids: Sequence[str],
    ) -> None:
        self.receiver = receiver
        self.receiver_id = receiver_id
        self.filters = filters
        self.filter_ids = filter_ids
        self.aggregate = aggregate
        self.aggregate_id = aggregate_id
        self.suffix_ids = tuple(suffix_ids)

    def run_prefix(self, fragment, now: float) -> bool:
        """Run receiver → filters → aggregate ingest as one fused pass.

        Returns ``False`` — having touched no state — when this tick's
        buffered input is not fusible (per-tuple items, list-backed or
        mixed-schema blocks, a filter column that is not float64); the
        caller then runs the full staged pipeline for the tick.
        """
        receiver = self.receiver
        filters = self.filters
        for filt in filters:
            # Filters never buffer across ticks in normal operation; a
            # non-empty accumulator (e.g. a hand-driven test) must drain
            # through the staged loop, which advances every operator.
            if filt._windows[0]._acc.items:
                return False
        window = receiver._windows[0]
        acc = window._acc
        items = acc.items
        if not items:
            return True  # empty tick: nothing buffered, run the suffix only
        fields = None
        check_fields = len(items) > 1  # a lone range never needs a concat
        for item in items:
            if type(item) is not tuple:  # a Tuple object, not a (block, lo, hi) range
                return False
            block = item[0]
            if not block.is_array_backed:
                return False
            if check_fields:
                block_fields = list(block.values)
                if fields is None:
                    fields = block_fields
                elif block_fields != fields:
                    return False
            for filt in filters:
                column = block.values.get(filt.predicate.column_field)
                if not (isinstance(column, np.ndarray) and column.dtype == np.float64):
                    return False
        # -- drain the receiver pane ---------------------------------------
        # Equivalent to ImmediateWindow.advance + WindowPane.as_block with
        # the pane object elided: same accumulator reset, same
        # concat_ranges merge (insertion order, no sorting), same
        # incrementally-maintained SIC total.
        window._acc = _PaneAcc()
        count = acc.count
        appender = ColumnAppender()
        if all(appender.append_range(b, lo, hi) for b, lo, hi in items):
            # Uniform array-backed ranges: one in-order pass into the
            # appender's preallocated buffers; build() trims views —
            # element-identical to the concat_ranges merge of the same
            # ranges.
            merged = appender.build()
        else:
            merged = ColumnBlock.concat_ranges(items)
        receiver.emitted_tuples += count
        # == propagate_sic([acc.sic], count)[0]: a one-element sum is exact.
        share = acc.sic / count
        sic_column = np.full(count, share)
        # -- fused filter ladder: masks on the original columns ------------
        mask = None
        total = count
        for filt in filters:
            fragment._pending_cost += filt.cost_per_tuple * count
            fragment._pending_tuples += count
            filt.ingested_tuples += count
            # Bit-equal to the staged pane fold: the SIC column is constant
            # and seq_sum replicates _PaneAcc.add_range on both the cumsum
            # (long) and scalar-loop (short) branches.
            input_sic = seq_sum(sic_column)
            predicate = filt.predicate
            stage_mask = predicate.column_compare(
                merged.values[predicate.column_field], predicate.column_threshold
            )
            mask = stage_mask if mask is None else mask & stage_mask
            kept = int(np.count_nonzero(mask))
            if kept == 0:
                filt.lost_sic += input_sic
                return True  # whole pane rejected: downstream sees nothing
            filt.emitted_tuples += kept
            share = input_sic / kept
            sic_column = np.full(kept, share)
            count = kept
        # -- one survivor gather + change-point window bucketing -----------
        if mask is None or count == total:
            block = _kernels.constant_sic_block(merged, sic_column)
        else:
            block = _kernels.apply_mask(merged, mask, sic_column)
        aggregate = self.aggregate
        aggregate.ingest_block(block)
        fragment._pending_cost += aggregate.cost_per_tuple * count
        fragment._pending_tuples += count
        return True
