"""Windowed equi-join.

The TOP-5 query of the complex workload joins CPU and memory measurement
streams on the node identifier within a one-second window
(``AllSrcCPU.id = AllSrcMem.id``).  :class:`WindowEquiJoin` implements that
join as a two-port operator: both ports buffer tuples in identically
configured time windows, aligned panes are joined atomically, and the joined
output shares the input SIC (Equation 3).

One match kernel (:func:`_match_rows`) pairs the rows of the two panes; two
emitters turn the pairs into output:

* the **block emitter** (``_process_columnar``) gathers the matched rows of
  two column-backed panes straight into one joined
  :class:`~repro.core.columns.ColumnBlock`, so the operators downstream stay
  columnar;
* the **row emitter** (``_process``) merges the payload dicts pair by pair.

Under the default merge rule a field both sides define is prefixed
(``right_prefix + name``) only on the rows where the two values differ, so the
output schema is data-dependent.  The block emitter therefore compares the
gathered columns of every shared field: all-equal (no prefixed column — the
join key, typically) or all-different (one prefixed column) is a uniform
schema and becomes a block; a round that mixes the two falls back to the row
emitter.  Both emit identical rows in identical order (differential-tested in
``tests/streaming/test_join_columnar.py``).

``columnar_output=True`` selects the *prefix-normalised* rule instead: a
right-side field is renamed whenever the left schema defines its name —
always, not only on differing rows — so every round has a uniform schema.
The default stays off because that rule changes the output schema on rows
where the shared values happen to be equal.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple as PyTuple

from ...core.columns import ColumnBlock, take_rows, to_pylist
from ...core.tuples import Tuple
from ..windows import TimeWindow
from .base import Operator, PaneGroup

try:  # Guarded: the list columnar backend works without NumPy.
    import numpy as np
except ImportError:  # pragma: no cover - exercised only on stripped installs
    np = None

__all__ = ["WindowEquiJoin"]


def _match_rows(
    left_keys: Sequence[object], right_keys: Sequence[object]
) -> List[PyTuple[int, List[int]]]:
    """``(left_row, right_rows)`` for every left row whose key has a match.

    Hash join, build on the right and probe with the left: expanded, the
    pairs are left-row-major with the right rows of one left row in pane
    order.  ``None`` keys match nothing.  Left rows with equal keys share one
    ``right_rows`` list.
    """
    build: Dict[object, List[int]] = {}
    for j, key in enumerate(right_keys):
        if key is not None:
            build.setdefault(key, []).append(j)
    matches: List[PyTuple[int, List[int]]] = []
    for i, key in enumerate(left_keys):
        if key is not None:
            rows = build.get(key)
            if rows:
                matches.append((i, rows))
    return matches


def _pair_index(matches: List[PyTuple[int, List[int]]], arrays: bool):
    """The matches expanded to parallel ``(left_rows, right_rows)`` gather
    indexes — index arrays when ``arrays``, lists otherwise."""
    if not arrays:
        return (
            [i for i, rows in matches for _ in rows],
            [j for _, rows in matches for j in rows],
        )
    runs: Dict[int, object] = {}  # one index array per distinct right_rows list
    for _, rows in matches:
        if id(rows) not in runs:
            runs[id(rows)] = np.asarray(rows, dtype=np.intp)
    return (
        np.repeat(
            np.asarray([i for i, _ in matches], dtype=np.intp),
            [len(rows) for _, rows in matches],
        ),
        np.concatenate([runs[id(rows)] for _, rows in matches]),
    )


def _count_differing(left, right) -> int:
    """Rows on which two gathered columns differ (``!=`` per row; NumPy's
    comparison of object arrays applies the same Python ``!=``)."""
    if (
        np is not None
        and isinstance(left, np.ndarray)
        and isinstance(right, np.ndarray)
    ):
        return int(np.count_nonzero(left != right))
    return sum(1 for a, b in zip(to_pylist(left), to_pylist(right)) if a != b)


class WindowEquiJoin(Operator):
    """Join two streams on equal key values within a time window.

    Args:
        left_key: key field of port-0 tuples.
        right_key: key field of port-1 tuples.
        window_seconds: window range applied to both ports.
        slide_seconds: optional slide.
        left_prefix / right_prefix: prefixes applied to payload fields of the
            joined output when both sides define the same field name.
        columnar_output: opt into the prefix-normalised merge rule (a right
            field is prefixed whenever its name exists in the left schema,
            regardless of the row's values), which makes the output schema
            uniform on every round.
    """

    def __init__(
        self,
        left_key: str,
        right_key: str,
        window_seconds: float = 1.0,
        slide_seconds: Optional[float] = None,
        left_prefix: str = "left_",
        right_prefix: str = "right_",
        cost_per_tuple: float = 1.0,
        columnar_output: bool = False,
    ) -> None:
        super().__init__(
            name=f"join[{left_key}={right_key}]",
            cost_per_tuple=cost_per_tuple,
            num_ports=2,
            window_factory=lambda: TimeWindow(window_seconds, slide_seconds),
        )
        self.left_key = left_key
        self.right_key = right_key
        self.left_prefix = left_prefix
        self.right_prefix = right_prefix
        self.columnar_output = bool(columnar_output)

    def _merge_payload(
        self, left: Dict[str, object], right: Dict[str, object]
    ) -> Dict[str, object]:
        values = dict(left)
        prefix = self.right_prefix
        if self.columnar_output:
            for name, value in right.items():
                values[f"{prefix}{name}" if name in left else name] = value
            return values
        for name, value in right.items():
            if name in values and values[name] != value:
                values[f"{prefix}{name}"] = value
            else:
                values.setdefault(name, value)
        return values

    def _process_columnar(
        self, panes: PaneGroup, now: float
    ) -> Optional[ColumnBlock]:
        """Block emitter: the joined rows as one column group.

        Returns ``None`` (row emitter) unless both panes are column-backed
        and the round's output schema is uniform.  The columns are built with
        the very assignments :meth:`_merge_payload` makes per row — left
        fields, then right fields compared against the output so far — so
        field order and name collisions come out the same.
        """
        left_pane = panes.get(0)
        right_pane = panes.get(1)
        if left_pane is None or right_pane is None:
            return None  # _process loses the consumed SIC
        left = left_pane.as_block()
        right = right_pane.as_block()
        if left is None or right is None:
            return None
        left_keys = left.values.get(self.left_key)
        right_keys = right.values.get(self.right_key)
        if left_keys is None or right_keys is None:
            return ColumnBlock([], [], {})  # no row carries the key
        matches = _match_rows(to_pylist(left_keys), to_pylist(right_keys))
        if not matches:
            return ColumnBlock([], [], {})
        arrays = left.is_array_backed and right.is_array_backed
        left_rows, right_rows = _pair_index(matches, arrays)
        count = len(left_rows)
        values = {f: take_rows(col, left_rows) for f, col in left.values.items()}
        prefix = self.right_prefix
        for name, column in right.values.items():
            column = take_rows(column, right_rows)
            if self.columnar_output:
                if name in left.values:
                    name = f"{prefix}{name}"
            elif name in values:
                differing = _count_differing(values[name], column)
                if differing == 0:
                    continue
                if differing != count:
                    return None  # prefixed on some rows only: no uniform schema
                name = f"{prefix}{name}"
            values[name] = column
        timestamp = self._pane_timestamp(panes, now)
        if arrays:
            # The SIC column is a placeholder the base class rebinds.
            return ColumnBlock._unchecked(
                np.full(count, timestamp), np.zeros(count), values, None
            )
        return ColumnBlock([timestamp] * count, [0.0] * count, values)

    def _process(self, panes: PaneGroup, now: float) -> List[Tuple]:
        """Row emitter: one merged payload dict per matched pair."""
        left_pane = panes.get(0)
        right_pane = panes.get(1)
        if left_pane is None or right_pane is None:
            # One side of the join has no data for this window: no output,
            # the consumed SIC is lost exactly as the paper's model dictates.
            return []
        timestamp = self._pane_timestamp(panes, now)
        left = [t.values for t in left_pane.tuples]
        right = [t.values for t in right_pane.tuples]
        left_key = self.left_key
        right_key = self.right_key
        matches = _match_rows(
            [values.get(left_key) for values in left],
            [values.get(right_key) for values in right],
        )
        merge = self._merge_payload
        return [
            Tuple(timestamp=timestamp, sic=0.0, values=merge(left[i], right[j]))
            for i, rows in matches
            for j in rows
        ]
