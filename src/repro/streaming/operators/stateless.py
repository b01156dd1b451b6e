"""Stateless operators: receivers, projection, mapping, filtering, union, output.

These operators process tuples as they arrive (through an
:class:`~repro.streaming.windows.ImmediateWindow`) and do not maintain window
state.  They still propagate SIC through the base-class machinery: the SIC of
an atomically processed group is preserved as long as at least one tuple
survives the transformation, which is exactly the paper's model — information
content is only lost when an operator emits nothing (or when tuples are shed).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

from ...core.columns import ColumnBlock
from ...core.tuples import Tuple
from .base import Operator, PaneGroup

try:  # Guarded: the list columnar backend works without NumPy.
    import numpy as np
except ImportError:  # pragma: no cover - exercised only on stripped installs
    np = None


def _pane_group_blocks(panes: PaneGroup) -> Optional[List[ColumnBlock]]:
    """All panes of the group as blocks in port order, or ``None``.

    Returns ``None`` (caller falls back to the per-tuple path) unless every
    pane of the group is columnar.
    """
    blocks: List[ColumnBlock] = []
    for port in sorted(panes):
        block = panes[port].as_block()
        if block is None:
            return None
        blocks.append(block)
    return blocks

__all__ = [
    "SourceReceiver",
    "Project",
    "MapValues",
    "Filter",
    "Union",
    "OutputOperator",
]


class SourceReceiver(Operator):
    """Entry operator bound to a single data source.

    A receiver simply forwards the source tuples into the query graph.  It is
    modelled explicitly because the paper counts receivers when reporting the
    number of operators per fragment (e.g. the TOP-5 fragment has 10 CPU and
    10 memory receivers).
    """

    def __init__(self, source_id: str, cost_per_tuple: float = 0.1) -> None:
        super().__init__(name=f"recv[{source_id}]", cost_per_tuple=cost_per_tuple)
        self.source_id = source_id

    def _process(self, panes: PaneGroup, now: float) -> List[Tuple]:
        return [t.copy() for t in self._all_tuples(panes)]

    def _process_columnar(
        self, panes: PaneGroup, now: float
    ) -> Optional[ColumnBlock]:
        blocks = _pane_group_blocks(panes)
        if blocks is None:
            return None
        if len(blocks) == 1:
            # The base class rewrites the SIC column of the returned block,
            # which must not alias the pane's storage.
            return blocks[0].shallow_copy()
        return ColumnBlock.concat(blocks)


class Project(Operator):
    """Keep only a subset of payload fields."""

    def __init__(self, fields: Sequence[str], cost_per_tuple: float = 0.1) -> None:
        super().__init__(name=f"project{list(fields)}", cost_per_tuple=cost_per_tuple)
        self.fields = list(fields)

    def _process(self, panes: PaneGroup, now: float) -> List[Tuple]:
        outputs = []
        for t in self._all_tuples(panes):
            values = {f: t.values.get(f) for f in self.fields}
            outputs.append(Tuple(timestamp=t.timestamp, sic=0.0, values=values))
        return outputs


class MapValues(Operator):
    """Apply a per-tuple payload transformation."""

    def __init__(
        self,
        func: Callable[[Dict[str, Any]], Dict[str, Any]],
        name: str = "map",
        cost_per_tuple: float = 0.2,
    ) -> None:
        super().__init__(name=name, cost_per_tuple=cost_per_tuple)
        self.func = func

    def _process(self, panes: PaneGroup, now: float) -> List[Tuple]:
        outputs = []
        for t in self._all_tuples(panes):
            outputs.append(
                Tuple(timestamp=t.timestamp, sic=0.0, values=dict(self.func(t.values)))
            )
        return outputs


class Filter(Operator):
    """Keep tuples satisfying a predicate (CQL ``Where`` / ``Having``)."""

    def __init__(
        self,
        predicate: Callable[[Tuple], bool],
        name: str = "filter",
        cost_per_tuple: float = 0.2,
    ) -> None:
        super().__init__(name=name, cost_per_tuple=cost_per_tuple)
        self.predicate = predicate

    @classmethod
    def field_threshold(
        cls, field: str, op: str, threshold: float, cost_per_tuple: float = 0.2
    ) -> "Filter":
        """Build a filter comparing one payload field with a constant."""
        comparators: Dict[str, Callable[[Any, Any], bool]] = {
            ">=": lambda a, b: a >= b,
            "<=": lambda a, b: a <= b,
            ">": lambda a, b: a > b,
            "<": lambda a, b: a < b,
            "==": lambda a, b: a == b,
            "!=": lambda a, b: a != b,
            "=": lambda a, b: a == b,
        }
        if op not in comparators:
            raise ValueError(f"unsupported comparison operator {op!r}")
        compare = comparators[op]

        def predicate(t: Tuple) -> bool:
            value = t.values.get(field)
            return value is not None and compare(value, threshold)

        # Columnar annotation: lets vectorized consumers (Filter fast path,
        # windowed aggregates with a Having clause) evaluate the predicate
        # over a payload column instead of materializing tuples.
        predicate.column_field = field
        predicate.column_compare = compare
        predicate.column_threshold = threshold

        return cls(predicate, name=f"filter[{field} {op} {threshold}]",
                   cost_per_tuple=cost_per_tuple)

    def _process(self, panes: PaneGroup, now: float) -> List[Tuple]:
        return [t.copy() for t in self._all_tuples(panes) if self.predicate(t)]

    def _process_columnar(
        self, panes: PaneGroup, now: float
    ) -> Optional[ColumnBlock]:
        field = getattr(self.predicate, "column_field", None)
        if field is None:
            return None
        blocks = _pane_group_blocks(panes)
        if blocks is None:
            return None
        compare = self.predicate.column_compare
        threshold = self.predicate.column_threshold
        kept: List[ColumnBlock] = []
        for block in blocks:
            column = block.values.get(field)
            if column is None:
                # Uniform schema without the field: the predicate rejects
                # every row of this block.
                continue
            if (
                np is not None
                and isinstance(column, np.ndarray)
                and column.dtype == np.float64
            ):
                # Columnar v2: the predicate is one element-wise comparison
                # (float64 columns carry no None) and survivors are gathered
                # with a boolean mask per column.
                mask = compare(column, threshold)
                survivors = int(np.count_nonzero(mask))
                if survivors == len(column):
                    kept.append(block)
                    continue
                if survivors == 0:
                    continue
                kept.append(
                    ColumnBlock._unchecked(
                        block.timestamps[mask],
                        # Placeholder SIC column: like every _process_columnar
                        # result, the base class rebinds it with the
                        # propagated shares before the block is observable.
                        np.zeros(survivors),
                        {f: col[mask] for f, col in block.values.items()},
                        block.source_id,
                    )
                )
                continue
            keep = [
                i
                for i, v in enumerate(column)
                if v is not None and compare(v, threshold)
            ]
            if len(keep) == len(column):
                kept.append(block)
                continue
            if not keep:
                continue
            if block.is_array_backed:
                index = np.asarray(keep)
                kept.append(
                    ColumnBlock._unchecked(
                        block.timestamps[index],
                        np.zeros(len(keep)),
                        {f: col[index] for f, col in block.values.items()},
                        block.source_id,
                    )
                )
                continue
            kept.append(
                ColumnBlock._unchecked(
                    [block.timestamps[i] for i in keep],
                    # Placeholder SIC column: like every _process_columnar
                    # result, the base class rebinds it with the propagated
                    # shares before the block is observable.
                    [0.0] * len(keep),
                    {
                        f: [col[i] for i in keep]
                        for f, col in block.values.items()
                    },
                    block.source_id,
                )
            )
        if not kept:
            return ColumnBlock([], [], {})
        if len(kept) == 1:
            return kept[0].shallow_copy()
        return ColumnBlock.concat(kept)


class Union(Operator):
    """Merge several input streams into one (pass-through, multi-port)."""

    def __init__(self, num_ports: int = 2, cost_per_tuple: float = 0.1) -> None:
        super().__init__(
            name=f"union[{num_ports}]",
            cost_per_tuple=cost_per_tuple,
            num_ports=num_ports,
        )

    def _process(self, panes: PaneGroup, now: float) -> List[Tuple]:
        merged = [t.copy() for t in self._all_tuples(panes)]
        merged.sort(key=lambda t: t.timestamp)
        return merged

    def _process_columnar(
        self, panes: PaneGroup, now: float
    ) -> Optional[ColumnBlock]:
        """The port panes' blocks concatenated in port order, then stably
        sorted by timestamp — the row order of :meth:`_process`.

        Declines (per-tuple fallback) when the ports disagree on the payload
        schema, like a window pane holding heterogeneous ranges.  The merged
        block keeps a ``source_id`` only when every port shares it and is
        ``None`` otherwise, whereas the per-tuple rows keep their own: only
        the routing of *source* batches reads a source id, and a union's
        output is a derived stream, so nothing downstream can tell.
        """
        blocks = _pane_group_blocks(panes)
        if blocks is None:
            return None
        fields = list(blocks[0].values)
        if any(list(block.values) != fields for block in blocks[1:]):
            return None
        if len(blocks) == 1:
            merged = blocks[0]
        else:
            merged = ColumnBlock.concat_ranges([(b, 0, len(b)) for b in blocks])
        order = merged.stable_time_order()
        # A fresh block either way: the base class rebinds its SIC column.
        return merged.shallow_copy() if order is None else merged.take(order)


class OutputOperator(Operator):
    """Root operator emitting result tuples to the query user."""

    def __init__(self, cost_per_tuple: float = 0.1) -> None:
        super().__init__(name="output", cost_per_tuple=cost_per_tuple)

    def _process(self, panes: PaneGroup, now: float) -> List[Tuple]:
        return [t.copy() for t in self._all_tuples(panes)]
