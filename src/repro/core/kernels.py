"""Fused NumPy kernels shared by the fragment plan compiler.

These helpers assemble :class:`~repro.core.columns.ColumnBlock` instances via
the ``_unchecked`` constructor: every array they produce is finished by
construction (``np.arange``/``np.zeros``/``np.full`` arithmetic, boolean
fancy-indexing of columns that were normalised already, or columns a source
declares finished), so re-validating and re-normalising each column — the
per-block cost the fused path exists to remove — would be pure overhead.

Bit-exactness notes
-------------------
* ``build_source_block`` computes timestamps as
  ``start + (arange(count) + 0.5) * step`` — the same vectorised expression
  :meth:`StreamSource.generate_block` uses, so fused source generation is
  bit-identical to staged generation.
* ``constant_sic_block``/``apply_mask`` never touch payload values: columns
  are rebound (never mutated), matching the rebind-only discipline of the
  staged operators.

This module is only imported by the fused execution path, which is gated on
the ``numpy`` columnar backend; it therefore assumes NumPy is importable.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from .columns import ColumnBlock

__all__ = ["ConstantColumn", "build_source_block", "constant_sic_block", "apply_mask"]

# Memoized `arange(count) + 0.5` base for the timestamp kernel: generation
# ticks produce runs of equally-sized blocks (rate × interval, ±1 for the
# fractional carry), so one cached entry per recent size avoids re-building
# the index ramp every tick.  The cached array is never handed out — only
# read by the `base * step + start` expression below.
_TS_BASE_CACHE: Dict[int, "np.ndarray"] = {}


def _timestamp_base(count: int) -> "np.ndarray":
    base = _TS_BASE_CACHE.get(count)
    if base is None:
        if len(_TS_BASE_CACHE) > 64:  # defensive bound; sizes cluster tightly
            _TS_BASE_CACHE.clear()
        base = _TS_BASE_CACHE[count] = np.arange(count) + 0.5
    return base


class ConstantColumn:
    """An object column of one repeated value, built once and handed out.

    A monitoring source stamps the same ``id`` on every tuple it ever emits;
    instead of filling a fresh object array per block, the source keeps one
    read-only array as long as its largest block so far and every block's
    column is a prefix view of it.  Sharing is safe because columns are
    rebind-only (masks gather into new arrays, checkpoints copy), and the
    array is marked non-writeable so a kernel that breaks that rule raises
    instead of corrupting every block of the source.
    """

    __slots__ = ("_value", "_column")

    def __init__(self) -> None:
        self._value = None
        self._column = np.empty(0, dtype=object)

    def take(self, value: object, count: int) -> "np.ndarray":
        column = self._column
        if len(column) < count or self._value is not value:
            column = np.empty(count, dtype=object)
            column.fill(value)
            column.flags.writeable = False
            self._value = value
            self._column = column
        return column[:count]


def build_source_block(
    source_id: Optional[str],
    start: float,
    step: float,
    count: int,
    columns: Dict[str, "np.ndarray"],
) -> ColumnBlock:
    """Assemble a freshly generated source block in one pass.

    ``columns`` must map field names to finished arrays of length ``count``
    — float64 for value fields, object (e.g. a :class:`ConstantColumn`
    prefix) for identifiers — as declared by
    :meth:`StreamSource.payload_columns_fused`; nothing is re-checked here.
    """
    timestamps = start + _timestamp_base(count) * step
    return ColumnBlock._unchecked(timestamps, np.zeros(count), columns, source_id)


def constant_sic_block(block: ColumnBlock, sics: "np.ndarray") -> ColumnBlock:
    """Rebind ``block`` with a precomputed SIC column, sharing payload arrays."""
    return ColumnBlock._unchecked(block.timestamps, sics, block.values, block.source_id)


def apply_mask(
    block: ColumnBlock, mask: "np.ndarray", sics: "np.ndarray"
) -> ColumnBlock:
    """Gather the surviving rows of ``block`` under a fused boolean mask.

    The mask is the AND-combination of every filter in the fused chain, so
    the gather happens once no matter how many filters were fused.
    """
    values = {field: column[mask] for field, column in block.values.items()}
    return ColumnBlock._unchecked(block.timestamps[mask], sics, values, block.source_id)
