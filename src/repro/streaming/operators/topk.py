"""Top-k operators.

``TOP-5`` in the complex workload reports, every second, the five node
identifiers with the largest available CPU among nodes with enough free
memory.  :class:`TopK` implements the windowed top-k selection and
:class:`TopKMerge` combines partial top-k lists produced by upstream fragments
(the TOP-5 query is deployed as a chain of fragments, each contributing its
local candidates — §7, "Experimental set-up").
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple as PyTuple

from ...core.columns import to_pylist
from ...core.tuples import Tuple
from ..windows import TimeWindow
from .base import Operator, PaneGroup

try:  # Guarded: the list columnar backend works without NumPy.
    import numpy as np
except ImportError:  # pragma: no cover - exercised only on stripped installs
    np = None

__all__ = ["TopK", "TopKMerge"]


def _column_best(idents, values) -> Optional[Dict[object, float]]:
    """First-seen largest value per identifier of one pane, without a Python
    compare per row; ``None`` when that would not be exact.

    Exact only for a NaN-free ``float64`` value column (no ``None``, and
    ``>`` is a total order): rows are stably sorted by descending value and
    replayed smallest first into a dict, so the assignment that survives per
    identifier is its largest value, the first-seen among equals.
    """
    if not (
        np is not None
        and isinstance(idents, np.ndarray)
        and isinstance(values, np.ndarray)
        and values.dtype == np.float64
        and not np.isnan(values).any()
    ):
        return None
    replay = np.argsort(-values, kind="stable")[::-1]
    largest = dict(zip(idents[replay].tolist(), values[replay].tolist()))
    # Identifiers in first-seen order, which breaks ranking ties.
    return {ident: largest[ident] for ident in dict.fromkeys(idents.tolist())}


def _collect_best(
    panes: PaneGroup, id_field: str, value_field: str
) -> Dict[object, float]:
    """Best value per identifier across the group, column-wise when possible.

    Columns convert through :func:`to_pylist` before row iteration so the
    identifiers that end up in output payloads are the identical Python
    objects on both columnar backends.
    """
    best: Dict[object, float] = {}
    for port in sorted(panes):
        pane = panes[port]
        cols = pane.columns(id_field, value_field)
        rows: Iterable[PyTuple[object, object]]
        if cols is None:
            rows = (
                (t.values.get(id_field), t.values.get(value_field))
                for t in pane.tuples
            )
        else:
            idents, values = cols
            if idents is None or values is None:
                # Uniform schema without the id/value field: the pane offers
                # no candidates.
                continue
            reduced = _column_best(idents, values)
            if reduced is not None:
                rows = reduced.items()
            else:
                rows = zip(to_pylist(idents), to_pylist(values))
        for ident, value in rows:
            if ident is None or value is None:
                continue
            value = float(value)
            if ident not in best or value > best[ident]:
                best[ident] = value
    return best


class _RankingOperator(Operator):
    """Shared body of :class:`TopK` and :class:`TopKMerge`.

    One output tuple is emitted per rank, carrying the identifier, the value
    and the rank, so downstream operators (and the Kendall-distance error
    metric) can reconstruct the ranked list.
    """

    def __init__(
        self,
        name: str,
        k: int,
        value_field: str,
        id_field: str,
        window_seconds: float,
        slide_seconds: Optional[float],
        cost_per_tuple: float,
        num_ports: int = 1,
    ) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        super().__init__(
            name=name,
            cost_per_tuple=cost_per_tuple,
            num_ports=num_ports,
            window_factory=lambda: TimeWindow(window_seconds, slide_seconds),
        )
        self.k = int(k)
        self.value_field = value_field
        self.id_field = id_field

    def _process(self, panes: PaneGroup, now: float) -> List[Tuple]:
        # Keep the best value seen per identifier within the window, then rank.
        best = _collect_best(panes, self.id_field, self.value_field)
        if not best:
            return []
        ranked = sorted(best.items(), key=lambda kv: (-kv[1], str(kv[0])))[: self.k]
        timestamp = self._pane_timestamp(panes, now)
        return [
            Tuple(
                timestamp=timestamp,
                sic=0.0,
                values={self.id_field: ident, self.value_field: value, "rank": rank},
            )
            for rank, (ident, value) in enumerate(ranked, start=1)
        ]


class TopK(_RankingOperator):
    """Emit the ``k`` tuples with the largest ``value_field`` per window."""

    def __init__(
        self,
        k: int,
        value_field: str,
        id_field: str,
        window_seconds: float = 1.0,
        slide_seconds: Optional[float] = None,
        cost_per_tuple: float = 0.8,
    ) -> None:
        super().__init__(
            f"top{k}({id_field} by {value_field})",
            k, value_field, id_field, window_seconds, slide_seconds, cost_per_tuple,
        )


class TopKMerge(_RankingOperator):
    """Merge partial top-k candidate lists from several inputs.

    Used by the chained deployment of the TOP-5 query: each fragment sends its
    local candidates downstream, and the next fragment merges them with its own
    candidates before re-ranking.
    """

    def __init__(
        self,
        k: int,
        value_field: str,
        id_field: str,
        num_ports: int = 2,
        window_seconds: float = 1.0,
        slide_seconds: Optional[float] = None,
        cost_per_tuple: float = 0.4,
    ) -> None:
        super().__init__(
            f"top{k}-merge",
            k, value_field, id_field, window_seconds, slide_seconds, cost_per_tuple,
            num_ports=num_ports,
        )
