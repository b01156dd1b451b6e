"""Columnar tuple storage: parallel arrays instead of ``Tuple`` objects.

The per-tuple data model (:class:`repro.core.tuples.Tuple`) allocates one
dataclass instance plus one payload dict per stream item.  Under the
millions-of-tuples workloads of the scalability experiments that object churn
dominates end-to-end simulation time, so the hot pipeline — source generation,
SIC assignment, shedding and window bucketing — exchanges
:class:`ColumnBlock`s instead: a timestamp column, a SIC column and one column
per payload field, all of the same length.

Backends (columnar v2)
----------------------

A block's columns are stored in one of two representations:

* ``"numpy"`` (default when NumPy is importable) — ``timestamps`` and
  ``sics`` are contiguous ``float64`` ndarrays; payload columns are
  ``float64`` ndarrays when every value is a Python float and ``object``
  ndarrays otherwise.  Slicing is an O(1) zero-copy view, concatenation is
  one ``np.concatenate`` per column, and every kernel that consumes blocks
  (SIC stamping, batch splitting, window bucketing, aggregation) runs as
  element-wise array ops.
* ``"list"`` — plain Python lists, byte-for-byte the pre-v2 implementation,
  kept as the equivalence oracle and as the fallback when NumPy is absent.

**Determinism rule:** every reduction over columns goes through
*sequential-order* primitives — :func:`seq_sum` folds left-to-right via
``np.cumsum`` (whose last element reproduces the exact additions of a Python
``for`` loop), never ``np.sum`` (pairwise summation, different rounding).
Stable orderings use ``np.argsort(kind="stable")``.  Seeded runs are therefore
**bit-exact result-identical** across the two backends and against the seed
per-tuple pipeline (the differential suites assert it).

The active backend is a process-wide setting (``set_default_backend`` /
``use_backend``) that defaults from NumPy availability.  The
``REPRO_COLUMNAR_BACKEND`` environment variable overrides the import-time
default (used by the CI leg that runs the whole suite list-backed).

A block is *lazily* convertible to the per-tuple representation
(:meth:`ColumnBlock.to_tuples`), which is the compatibility surface for
operators and tests that have not been vectorized.  Conversions are exact:
``to_tuples`` reproduces the tuples the seed per-tuple code paths would have
built — same timestamps, same SIC values, same payload dicts in the same field
order (array values convert back to the identical Python scalars) — so seeded
columnar runs are result-identical to tuple-at-a-time runs.  Full-block
materializations are memoized (rebinding any column invalidates the cache), so
repeated compatibility fallbacks stop rebuilding the dict list from scratch;
like the seed per-tuple pipeline, which shares tuple objects between a window
pane and its consumers, materialized tuples must be treated as read-only.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence

from .tuples import SMALL_COLUMN, Tuple, seq_sum

try:  # NumPy is an install requirement, but the list backend works without it.
    import numpy as np
except ImportError:  # pragma: no cover - exercised only on stripped installs
    np = None

__all__ = [
    "ColumnBlock",
    "ColumnAppender",
    "BACKENDS",
    "get_default_backend",
    "set_default_backend",
    "use_backend",
    "seq_sum",
    "SMALL_COLUMN",
    "to_pylist",
    "take_rows",
]

BACKENDS = ("numpy", "list")

# Materialization accounting: every `_build_tuples` call bumps the default
# perf registry's `columns.materializations` / `columns.materialized_rows`
# counters, so the microbench (and ad-hoc profiling) can quantify how much
# of a run still falls back to per-tuple objects.  Imported lazily to keep
# `repro.core` free of an import-time dependency on `repro.perf`.
_materialization_registry = None


def _count_materialization(rows: int) -> None:
    global _materialization_registry
    registry = _materialization_registry
    if registry is None:
        from ..perf.stopwatch import default_registry

        registry = _materialization_registry = default_registry()
    registry.incr("columns.materializations")
    registry.incr("columns.materialized_rows", rows)

_backend = os.environ.get(
    "REPRO_COLUMNAR_BACKEND", "numpy" if np is not None else "list"
)
if _backend not in BACKENDS:  # pragma: no cover - defensive env handling
    raise ValueError(
        f"REPRO_COLUMNAR_BACKEND must be one of {BACKENDS}, got {_backend!r}"
    )
if _backend == "numpy" and np is None:  # pragma: no cover - stripped installs
    raise RuntimeError(
        "REPRO_COLUMNAR_BACKEND=numpy but numpy is not importable; "
        "unset it or use REPRO_COLUMNAR_BACKEND=list"
    )


def get_default_backend() -> str:
    """Return the process-wide columnar backend (``"numpy"`` or ``"list"``)."""
    return _backend


def set_default_backend(name: str) -> None:
    """Set the process-wide columnar backend for newly-built blocks."""
    global _backend
    if name not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {name!r}")
    if name == "numpy" and np is None:
        raise RuntimeError("numpy backend requested but numpy is not importable")
    _backend = name


@contextmanager
def use_backend(name: str) -> Iterator[None]:
    """Scope the columnar backend to a ``with`` block (run isolation)."""
    previous = get_default_backend()
    set_default_backend(name)
    try:
        yield
    finally:
        set_default_backend(previous)


def to_pylist(column) -> List[Any]:
    """Column as a plain list of Python scalars (exact for ``float64``).

    The row-building discipline for operators whose outputs carry payload
    *values* taken from columns: convert the column once so emitted payload
    dicts hold the identical Python objects on both backends (reading rows
    straight off an ndarray would leak ``np.float64`` scalars into results).
    """
    if np is not None and isinstance(column, np.ndarray):
        return column.tolist()
    return list(column)


_tolist = to_pylist


def take_rows(column, rows):
    """``column`` gathered at ``rows`` (an index array or list), in that order."""
    if np is not None and isinstance(column, np.ndarray):
        return column[rows]
    return [column[i] for i in rows]


def _float_column(column):
    """Normalize a timestamp/SIC column to the active backend."""
    if _backend == "numpy":
        if isinstance(column, np.ndarray):
            return column if column.dtype == np.float64 else column.astype(np.float64)
        return np.asarray(column, dtype=np.float64)
    if np is not None and isinstance(column, np.ndarray):
        return column.tolist()
    return column


def _payload_column(column):
    """Normalize one payload column to the active backend.

    Under the numpy backend a column whose values are all Python floats
    becomes a ``float64`` array (exact: float64 round-trips the values bit
    for bit); anything else — identifiers, mixed types, ints (kept as ints),
    nested structures — becomes an ``object`` array holding the original
    Python objects, so ``to_tuples`` reproduces them identically.
    """
    if _backend == "numpy":
        if isinstance(column, np.ndarray):
            return column
        if not isinstance(column, list):
            column = list(column)
        if column and all(type(v) is float for v in column):
            return np.asarray(column, dtype=np.float64)
        arr = np.empty(len(column), dtype=object)
        for i, value in enumerate(column):
            arr[i] = value
        return arr
    if np is not None and isinstance(column, np.ndarray):
        return column.tolist()
    return column


class ColumnBlock:
    """A group of stream tuples stored as parallel columns.

    Attributes:
        timestamps: per-tuple logical creation times (``float64`` array on
            the numpy backend, list on the list backend).
        sics: per-tuple source information content values (same container
            kind as ``timestamps``).
        values: payload columns keyed by field name; every column has the
            same length as ``timestamps``.  Field order is the payload dict
            order of the equivalent per-tuple representation.
        source_id: originating source shared by *all* tuples of the block
            (``None`` for derived blocks).  Source blocks are per-source by
            construction, which is what lets the routing and SIC-assignment
            fast paths treat the block as one unit.

    Columns are rebind-only: kernels replace a column wholesale (which
    invalidates the memoized tuple materialization) and never mutate one in
    place — that is what makes zero-copy views safe to share.
    """

    __slots__ = ("_timestamps", "_sics", "_values", "source_id", "_tuple_cache")

    def __init__(
        self,
        timestamps: Sequence[float],
        sics: Optional[Sequence[float]] = None,
        values: Optional[Dict[str, Sequence[Any]]] = None,
        source_id: Optional[str] = None,
    ) -> None:
        self._timestamps = _float_column(timestamps)
        n = len(self._timestamps)
        if sics is None:
            self._sics = (
                np.zeros(n) if _backend == "numpy" else [0.0] * n
            )
        else:
            self._sics = _float_column(sics)
        self._values = (
            {f: _payload_column(col) for f, col in values.items()}
            if values
            else {}
        )
        self.source_id = source_id
        self._tuple_cache: Optional[List[Tuple]] = None
        if len(self._sics) != n:
            raise ValueError(
                f"sics column length {len(self._sics)} != {n} timestamps"
            )
        for field, column in self._values.items():
            if len(column) != n:
                raise ValueError(
                    f"column {field!r} length {len(column)} != {n} timestamps"
                )

    # ---------------------------------------------------------------- columns
    @property
    def timestamps(self):
        return self._timestamps

    @timestamps.setter
    def timestamps(self, column) -> None:
        self._timestamps = column
        self._tuple_cache = None

    @property
    def sics(self):
        return self._sics

    @sics.setter
    def sics(self, column) -> None:
        self._sics = column
        self._tuple_cache = None

    @property
    def values(self):
        return self._values

    @values.setter
    def values(self, columns) -> None:
        self._values = columns
        self._tuple_cache = None

    @property
    def is_array_backed(self) -> bool:
        """True when this block's columns are NumPy arrays."""
        return np is not None and isinstance(self._timestamps, np.ndarray)

    def constant_sics(self, value: float):
        """A constant SIC column matching this block's backing and length."""
        if self.is_array_backed:
            return np.full(len(self._timestamps), value)
        return [value] * len(self._timestamps)

    # ------------------------------------------------------------- inspection
    def __len__(self) -> int:
        return len(self._timestamps)

    def __bool__(self) -> bool:
        return len(self._timestamps) > 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnBlock(len={len(self._timestamps)}, "
            f"fields={list(self._values)}, source={self.source_id!r})"
        )

    @property
    def num_fields(self) -> int:
        return len(self._values)

    def sic_total(self) -> float:
        """Summed SIC of the block (the sequential :func:`seq_sum` fold)."""
        return seq_sum(self._sics)

    @classmethod
    def _unchecked(
        cls,
        timestamps,
        sics,
        values: Dict[str, Any],
        source_id: Optional[str],
    ) -> "ColumnBlock":
        """Internal constructor skipping validation *and* normalization.

        Used where the lengths are equal by construction and the columns are
        already in a consistent representation (slices of a validated block)
        — slicing sits on the shedding hot path.
        """
        block = cls.__new__(cls)
        block._timestamps = timestamps
        block._sics = sics
        block._values = values
        block.source_id = source_id
        block._tuple_cache = None
        return block

    def shallow_copy(self) -> "ColumnBlock":
        """A new block sharing this block's column containers.

        Operators that pass a block through (receivers, filters) return a
        shallow copy: the SIC-propagation step *rebinds* the copy's ``sics``
        attribute with the derived shares, which must not alias the pane's
        (or the upstream batch's) storage.  Columns are never mutated in
        place, so sharing the containers themselves is safe.
        """
        return ColumnBlock._unchecked(
            self._timestamps, self._sics, self._values, self.source_id
        )

    # ------------------------------------------------------------ conversions
    def slice(self, start: int, stop: int) -> "ColumnBlock":
        """Return a new block over rows ``start:stop``.

        On the numpy backend the piece's columns are O(1) zero-copy *views*
        of this block's arrays (safe because columns are rebind-only); on the
        list backend they are copied slices, exactly as before v2.
        """
        return ColumnBlock._unchecked(
            self._timestamps[start:stop],
            self._sics[start:stop],
            {f: col[start:stop] for f, col in self._values.items()},
            self.source_id,
        )

    def stable_time_order(self):
        """The stable permutation sorting the rows by timestamp, or ``None``
        when they are already nondecreasing.

        The same reordering a stable sort of the materialized tuples by
        timestamp applies (``argsort(kind="stable")`` on array columns).
        """
        timestamps = self._timestamps
        if np is not None and isinstance(timestamps, np.ndarray):
            if bool(np.all(timestamps[1:] >= timestamps[:-1])):
                return None
            return np.argsort(timestamps, kind="stable")
        if all(
            timestamps[i] <= timestamps[i + 1]
            for i in range(len(timestamps) - 1)
        ):
            return None
        return sorted(range(len(timestamps)), key=timestamps.__getitem__)

    def take(self, rows) -> "ColumnBlock":
        """A new block holding this block's ``rows``, in that order."""
        return ColumnBlock._unchecked(
            take_rows(self._timestamps, rows),
            take_rows(self._sics, rows),
            {f: take_rows(col, rows) for f, col in self._values.items()},
            self.source_id,
        )

    def to_tuples(
        self, start: int = 0, stop: Optional[int] = None, fresh: bool = False
    ) -> List[Tuple]:
        """Materialize rows ``start:stop`` as per-tuple objects, exactly as
        the seed paths built them.

        Array columns convert through ``ndarray.tolist()``, which yields the
        identical Python scalars the list backend carries.  Full-block
        materializations are memoized (and invalidated when a column is
        rebound); ranges of a memoized block slice the cache.  Tuples may
        therefore be shared between repeated materializations — callers must
        treat them as read-only, matching the seed pipeline where window
        panes and operators share the very same tuple objects.  Callers that
        hand out *mutable* tuples (``Batch.tuples``, whose seed contract
        allows in-place SIC rewrites) pass ``fresh=True`` to build brand-new
        tuples that bypass and never touch the cache.
        """
        if fresh:
            return self._build_tuples(start, stop)
        n = len(self._timestamps)
        full = start == 0 and (stop is None or stop == n)
        cache = self._tuple_cache
        if cache is not None:
            if full:
                return cache[:]
            return cache[start:stop]
        tuples = self._build_tuples(start, stop)
        if full:
            self._tuple_cache = tuples
            return tuples[:]
        return tuples

    def _build_tuples(self, start: int, stop: Optional[int]) -> List[Tuple]:
        source_id = self.source_id
        timestamps = self._timestamps
        sics = self._sics
        ranged = start != 0 or stop is not None
        if ranged:
            timestamps = timestamps[start:stop]
            sics = sics[start:stop]
        timestamps = _tolist(timestamps)
        sics = _tolist(sics)
        _count_materialization(len(timestamps))
        fields = list(self._values)
        if not fields:
            return [
                Tuple(timestamp=t, sic=s, values={}, source_id=source_id)
                for t, s in zip(timestamps, sics)
            ]
        if len(fields) == 1:
            name = fields[0]
            column = self._values[name]
            if ranged:
                column = column[start:stop]
            column = _tolist(column)
            return [
                Tuple(timestamp=t, sic=s, values={name: v}, source_id=source_id)
                for t, s, v in zip(timestamps, sics, column)
            ]
        columns = [
            _tolist(
                self._values[name][start:stop] if ranged else self._values[name]
            )
            for name in fields
        ]
        return [
            Tuple(
                timestamp=t,
                sic=s,
                values=dict(zip(fields, row)),
                source_id=source_id,
            )
            for t, s, row in zip(timestamps, sics, zip(*columns))
        ]

    @classmethod
    def from_tuples(
        cls, tuples: Sequence[Tuple], source_id: Optional[str] = None
    ) -> "ColumnBlock":
        """Build a block from per-tuple objects (test/bridge helper).

        Field set is taken from the first tuple; all tuples must share it.
        When ``source_id`` is omitted, the tuples' (shared) source id is used.
        """
        if not tuples:
            return cls([], [], {}, source_id)
        fields = list(tuples[0].values)
        values: Dict[str, List[Any]] = {f: [] for f in fields}
        timestamps: List[float] = []
        sics: List[float] = []
        block_source = source_id if source_id is not None else tuples[0].source_id
        for t in tuples:
            timestamps.append(t.timestamp)
            sics.append(t.sic)
            if list(t.values) != fields:
                raise ValueError(
                    "from_tuples requires a uniform payload schema; "
                    f"got {list(t.values)!r} vs {fields!r}"
                )
            for f in fields:
                values[f].append(t.values[f])
            if t.source_id != block_source:
                raise ValueError(
                    "from_tuples requires a single shared source id; "
                    f"got {t.source_id!r} vs {block_source!r}"
                )
        return cls(timestamps, sics, values, block_source)

    @staticmethod
    def concat_ranges(
        ranges: Sequence["tuple[ColumnBlock, int, int]"],
    ) -> "ColumnBlock":
        """Concatenate ``(block, start, stop)`` ranges with one column copy.

        This is the pane-close path: ranges routed into a window pane are
        merged directly from their source blocks, so a tuple's columns are
        copied exactly once between source generation and the operator.  On
        the numpy backend the merge is one ``np.concatenate`` per column.
        Uniform field sets required; ``source_id`` survives only when shared.
        """
        if len(ranges) == 1:
            block, start, stop = ranges[0]
            if start == 0 and stop == len(block):
                return block
            return block.slice(start, stop)
        first_block = ranges[0][0]
        fields = list(first_block._values)
        for block, _, _ in ranges[1:]:
            if list(block._values) != fields:
                raise ValueError(
                    f"cannot concat ranges with fields {list(block._values)!r} "
                    f"and {fields!r}"
                )
        source_ids = {block.source_id for block, _, _ in ranges}
        source_id = source_ids.pop() if len(source_ids) == 1 else None
        if np is not None and all(b.is_array_backed for b, _, _ in ranges):
            timestamps = np.concatenate(
                [b._timestamps[lo:hi] for b, lo, hi in ranges]
            )
            sics = np.concatenate([b._sics[lo:hi] for b, lo, hi in ranges])
            values = {
                f: np.concatenate([b._values[f][lo:hi] for b, lo, hi in ranges])
                for f in fields
            }
            return ColumnBlock._unchecked(timestamps, sics, values, source_id)
        timestamps: List[float] = []
        sics: List[float] = []
        values: Dict[str, List[Any]] = {f: [] for f in fields}
        for block, start, stop in ranges:
            timestamps.extend(_tolist(block._timestamps[start:stop]))
            sics.extend(_tolist(block._sics[start:stop]))
            block_values = block._values
            for f in fields:
                values[f].extend(_tolist(block_values[f][start:stop]))
        return ColumnBlock._unchecked(timestamps, sics, values, source_id)

    @staticmethod
    def concat(blocks: Iterable["ColumnBlock"]) -> "ColumnBlock":
        """Concatenate blocks in order (uniform field sets required).

        The result's ``source_id`` is kept only when all inputs share it.
        """
        blocks = list(blocks)
        if not blocks:
            return ColumnBlock([], [], {})
        if len(blocks) == 1:
            b = blocks[0]
            if b.is_array_backed:
                return ColumnBlock._unchecked(
                    b._timestamps.copy(),
                    b._sics.copy(),
                    {f: col.copy() for f, col in b._values.items()},
                    b.source_id,
                )
            return ColumnBlock(
                timestamps=list(b._timestamps),
                sics=list(b._sics),
                values={f: list(col) for f, col in b._values.items()},
                source_id=b.source_id,
            )
        return ColumnBlock.concat_ranges([(b, 0, len(b)) for b in blocks])


class ColumnAppender:
    """Amortized column builder for the pane-merge path.

    :meth:`ColumnBlock.concat_ranges` merges a pane by building a per-column
    list of slices and handing each to ``np.concatenate`` — one slice-list
    walk and one concatenate call per column per merge, over and over for
    sliding panes.  The appender instead streams the ranges once, in order,
    into preallocated buffers that **double on overflow**, and the merge
    trims views in O(columns).  It is built fresh at merge time (pane
    ``column()``/``tuples`` access, or the fused drain), so panes whose
    columns are never materialized — the common case, since the pane SIC is
    maintained incrementally — pay nothing.

    Exactness: rows are copied verbatim in insertion order, so the built
    block is element-identical to the ``concat_ranges`` merge of the same
    ranges, and the pane SIC stays the accumulator's sequential-order sum
    (the appender never touches it).  The first range is held lazily so the
    ubiquitous one-block pane keeps the zero-copy view fast path.

    Only uniform array-backed input is supported: :meth:`append_range`
    returns ``False`` — and the caller must abandon the appender, falling
    back to the legacy merge — when NumPy is absent, a block is
    list-backed, or a range changes the field set or a column dtype.
    """

    __slots__ = (
        "_first",
        "_fields",
        "_keys",
        "_source_id",
        "_timestamps",
        "_sics",
        "_values",
        "_len",
        "_cap",
    )

    def __init__(self) -> None:
        self._first: Optional[tuple] = None
        self._fields: Optional[List[str]] = None
        self._len = 0
        self._cap = 0

    def __len__(self) -> int:
        if self._first is not None:
            _, lo, hi = self._first
            return hi - lo
        return self._len

    def append_range(self, block: ColumnBlock, lo: int, hi: int) -> bool:
        if np is None or not block.is_array_backed:
            return False
        if self._fields is None and self._first is None:
            self._first = (block, lo, hi)
            return True
        if self._first is not None:
            held, held_lo, held_hi = self._first
            if not self._start_buffers(held, held_lo, held_hi, hi - lo):
                return False
            self._first = None
        values = block._values
        # Ordered comparison, like concat_ranges' uniformity check: a pane
        # whose sources disagree on field order is heterogeneous and takes
        # the per-tuple path, exactly as it did before the appender.
        if tuple(values) != self._keys:
            return False
        timestamps = self._timestamps
        sics = self._sics
        mine = self._values
        block_ts = block._timestamps
        block_sics = block._sics
        # `is not` first: NumPy interns builtin dtypes, so the identity test
        # settles the hot path; the `!=` fallback keeps exotic equal-but-
        # distinct dtype instances on the fast path too (a false mismatch
        # would only abandon the appender, never corrupt it).
        if block_ts.dtype is not timestamps.dtype and block_ts.dtype != timestamps.dtype:
            return False
        if block_sics.dtype is not sics.dtype and block_sics.dtype != sics.dtype:
            return False
        for f in self._fields:
            col, own = values[f], mine[f]
            if col.dtype is not own.dtype and col.dtype != own.dtype:
                return False
        if block.source_id != self._source_id:
            # concat_ranges keeps a source id only when every range shares it.
            self._source_id = None
        n = hi - lo
        start = self._len
        end = start + n
        if end > self._cap:
            self._reserve(end)
        self._timestamps[start:end] = block_ts[lo:hi]
        self._sics[start:end] = block_sics[lo:hi]
        mine = self._values
        for f in self._fields:
            mine[f][start:end] = values[f][lo:hi]
        self._len = end
        return True

    def _start_buffers(
        self, block: ColumnBlock, lo: int, hi: int, upcoming: int
    ) -> bool:
        if not block.is_array_backed:
            return False
        self._fields = list(block._values)
        self._keys = tuple(self._fields)
        self._source_id = block.source_id
        n = hi - lo
        # One doubling of headroom beyond the two ranges in hand: a pane of
        # similar-sized ranges then merges without ever paying a regrow, and
        # the fill factor stays above one quarter (above one half as soon as
        # a third such range lands).
        cap = 16
        while cap < (n + upcoming) * 2:
            cap *= 2
        self._timestamps = np.empty(cap, dtype=block._timestamps.dtype)
        self._sics = np.empty(cap, dtype=block._sics.dtype)
        self._values = {
            f: np.empty(cap, dtype=col.dtype) for f, col in block._values.items()
        }
        self._cap = cap
        self._timestamps[:n] = block._timestamps[lo:hi]
        self._sics[:n] = block._sics[lo:hi]
        for f in self._fields:
            self._values[f][:n] = block._values[f][lo:hi]
        self._len = n
        return True

    def _reserve(self, need: int) -> None:
        if need <= self._cap:
            return
        cap = self._cap
        while cap < need:
            cap *= 2
        filled = self._len

        def grown(buf):
            fresh = np.empty(cap, dtype=buf.dtype)
            fresh[:filled] = buf[:filled]
            return fresh

        self._timestamps = grown(self._timestamps)
        self._sics = grown(self._sics)
        self._values = {f: grown(col) for f, col in self._values.items()}
        self._cap = cap

    def build(self) -> ColumnBlock:
        """The accumulated rows as one block (trimmed views of the buffers).

        Single-shot: call at pane close and append nothing afterwards — the
        returned block's columns alias the internal buffers.
        """
        if self._first is not None:
            return ColumnBlock.concat_ranges([self._first])
        if self._fields is None:
            return ColumnBlock([], [], {})
        n = self._len
        return ColumnBlock._unchecked(
            self._timestamps[:n],
            self._sics[:n],
            {f: col[:n] for f, col in self._values.items()},
            self._source_id,
        )
