"""Data sources.

A source produces payload tuples at a configurable rate.  The federation layer
only relies on a small protocol: ``source_id``, ``rate`` (tuples/second,
nominal) and ``generate(start, end)`` returning :class:`~repro.core.tuples.Tuple`
objects with payload values and the originating ``source_id`` (SIC values are
assigned later by the query's :class:`~repro.core.sic.SicAssigner`).

Three concrete sources cover the paper's workloads:

* :class:`ValueSource` — emits ``{"v": value}`` tuples (aggregate workload).
* :class:`CpuSource` / :class:`MemorySource` — emit node-monitoring tuples for
  the complex workload (``{"id", "value"}`` and ``{"id", "free"}``).
* :class:`BurstySource` — wraps any source and makes it emit at 10× its normal
  rate 10 % of the time (§7.4).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional

from ..core.columns import ColumnBlock, get_default_backend
from ..core.tuples import Tuple

try:  # Guarded: the list columnar backend works without NumPy.
    import numpy as np
except ImportError:  # pragma: no cover - exercised only on stripped installs
    np = None
if np is not None:
    from ..core.kernels import ConstantColumn, build_source_block
from .datasets import PlanetLabLikeValues, ValueDistribution, make_dataset

__all__ = [
    "StreamSource",
    "ValueSource",
    "CpuSource",
    "MemorySource",
    "BurstySource",
]


class StreamSource:
    """Base class: constant-rate source emitting payloads from a builder."""

    def __init__(
        self,
        source_id: str,
        rate: float,
        payload_builder: Callable[[], Dict[str, object]],
        seed: Optional[int] = 0,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.source_id = source_id
        self.rate = float(rate)
        self.payload_builder = payload_builder
        self.rng = random.Random(seed)
        self.emitted_tuples = 0
        self._carry = 0.0

    def tuples_for_interval(self, start: float, end: float) -> int:
        """Number of tuples to emit for ``[start, end)`` (carrying fractions)."""
        if end <= start:
            return 0
        exact = self.rate * (end - start) + self._carry
        count = int(exact)
        self._carry = exact - count
        return count

    def generate(self, start: float, end: float) -> List[Tuple]:
        """Emit the tuples for the interval ``[start, end)``.

        This is the seed per-tuple path, kept as the compatibility surface
        and as the correctness/perf reference for :meth:`generate_block`:
        for equal seeds both paths must emit byte-identical timestamps,
        payload values and counts (the differential tests enforce it).
        """
        count = self.tuples_for_interval(start, end)
        if count <= 0:
            return []
        step = (end - start) / count
        tuples = []
        for index in range(count):
            timestamp = start + (index + 0.5) * step
            tuples.append(
                Tuple(
                    timestamp=timestamp,
                    sic=0.0,
                    values=self.payload_builder(),
                    source_id=self.source_id,
                )
            )
        self.emitted_tuples += count
        return tuples

    def generate_block(self, start: float, end: float) -> Optional[ColumnBlock]:
        """Columnar :meth:`generate`: emit the interval as parallel arrays.

        Returns ``None`` when no tuples are due.  Timestamps use the exact
        per-tuple expression and payload columns come from
        :meth:`payload_columns`, which draws the same RNG stream as ``count``
        ``payload_builder()`` calls, so a seeded columnar run is
        tuple-for-tuple identical to the per-tuple path.
        """
        count = self.tuples_for_interval(start, end)
        if count <= 0:
            return None
        step = (end - start) / count
        if np is not None and get_default_backend() == "numpy":
            # Element-wise: (index + 0.5) * step + start performs the exact
            # per-element operations of the list comprehension below, so the
            # timestamp column is bit-identical across backends.
            timestamps = start + (np.arange(count) + 0.5) * step
            sics = np.zeros(count)
        else:
            timestamps = [start + (index + 0.5) * step for index in range(count)]
            sics = [0.0] * count
        values = self.payload_columns(count)
        self.emitted_tuples += count
        return ColumnBlock(
            timestamps=timestamps,
            sics=sics,
            values=values,
            source_id=self.source_id,
        )

    def generate_block_fused(self, start: float, end: float) -> Optional[ColumnBlock]:
        """Fused :meth:`generate_block`: same output, assembled in one pass.

        When the numpy backend is active and :meth:`payload_columns_fused`
        hands back finished columns, the block is built through the
        unchecked constructor — skipping the per-value scan that payload
        normalization otherwise performs on every generated column.  A
        source that declares nothing goes through the validating
        constructor, and the list backend through :meth:`generate_block`
        (without consuming any RNG draws or rate carry), so the emitted
        stream is bit-identical either way.
        """
        if np is None or get_default_backend() != "numpy":
            return self.generate_block(start, end)
        count = self.tuples_for_interval(start, end)
        if count <= 0:
            return None
        step = (end - start) / count
        columns = self.payload_columns_fused(count)
        self.emitted_tuples += count
        if columns is not None:
            return build_source_block(self.source_id, start, step, count, columns)
        timestamps = start + (np.arange(count) + 0.5) * step
        return ColumnBlock(
            timestamps=timestamps,
            sics=np.zeros(count),
            values=self.payload_columns(count),
            source_id=self.source_id,
        )

    def payload_columns_fused(self, count: int) -> Optional[Dict[str, object]]:
        """Finished payload columns for ``count`` tuples, or ``None``.

        "Finished" is the representation the validating constructor would
        have produced from :meth:`payload_columns`: a ``float64`` array for
        a field of Python floats, an ``object`` array otherwise, each of
        length ``count`` and drawn from the same RNG stream.  Nothing
        re-checks them, so only sources that build their columns that way by
        construction (the built-in ones below) override this; the default
        declares nothing.
        """
        return None

    def payload_columns(self, count: int) -> Dict[str, List[object]]:
        """Payload values for ``count`` tuples, one column per field.

        The default transposes ``count`` ``payload_builder()`` calls, so any
        custom source with a *uniform* payload schema is columnar-correct
        out of the box; the concrete sources below override it with
        loop-free / hoisted versions that draw the identical RNG stream.

        Raises:
            ValueError: when the builder emits differing field sets across
                tuples — parallel columns cannot represent that.  Run with
                ``SimulationConfig(columnar=False)`` (per-tuple pipeline) or
                override this method for such sources.
        """
        builder = self.payload_builder
        payloads = [builder() for _ in range(count)]
        if not payloads:
            return {}
        fields = list(payloads[0])
        for payload in payloads:
            if list(payload) != fields:
                raise ValueError(
                    f"source {self.source_id!r}: payload_builder emits a "
                    f"non-uniform field set ({list(payload)!r} vs {fields!r}),"
                    " which the columnar fast path cannot represent; disable"
                    " it with SimulationConfig(columnar=False) or override"
                    " payload_columns()"
                )
        return {f: [p[f] for p in payloads] for f in fields}


class ValueSource(StreamSource):
    """Source for the aggregate workload: single ``v`` field."""

    def __init__(
        self,
        source_id: str,
        rate: float = 400.0,
        dataset: str = "gaussian",
        seed: Optional[int] = 0,
        distribution: Optional[ValueDistribution] = None,
    ) -> None:
        self.distribution = distribution or make_dataset(dataset, seed=seed)
        super().__init__(
            source_id=source_id,
            rate=rate,
            payload_builder=lambda: {"v": self.distribution.sample()},
            seed=seed,
        )

    def payload_columns(self, count: int) -> Dict[str, List[object]]:
        return {"v": self.distribution.sample_many(count)}

    def payload_columns_fused(self, count: int) -> Optional[Dict[str, object]]:
        return {"v": self.distribution.sample_array(count)}


class CpuSource(StreamSource):
    """CPU utilisation source for the complex workload (``id``, ``value``)."""

    def __init__(
        self,
        source_id: str,
        monitored_id: str,
        rate: float = 150.0,
        dataset: str = "planetlab",
        seed: Optional[int] = 0,
        distribution: Optional[ValueDistribution] = None,
    ) -> None:
        self.monitored_id = monitored_id
        self.distribution = distribution or make_dataset(dataset, seed=seed)
        self._id_column = ConstantColumn() if np is not None else None
        super().__init__(
            source_id=source_id,
            rate=rate,
            payload_builder=lambda: {
                "id": self.monitored_id,
                "value": self.distribution.sample(),
            },
            seed=seed,
        )

    def payload_columns(self, count: int) -> Dict[str, List[object]]:
        return {
            "id": [self.monitored_id] * count,
            "value": self.distribution.sample_many(count),
        }

    def payload_columns_fused(self, count: int) -> Optional[Dict[str, object]]:
        return {
            "id": self._id_column.take(self.monitored_id, count),
            "value": self.distribution.sample_array(count),
        }


class MemorySource(StreamSource):
    """Free-memory source for the complex workload (``id``, ``free`` in KB)."""

    def __init__(
        self,
        source_id: str,
        monitored_id: str,
        rate: float = 150.0,
        dataset: str = "planetlab",
        seed: Optional[int] = 0,
        distribution: Optional[ValueDistribution] = None,
    ) -> None:
        self.monitored_id = monitored_id
        self.distribution = distribution or make_dataset(dataset, seed=seed)
        self._planetlab = (
            self.distribution
            if isinstance(self.distribution, PlanetLabLikeValues)
            else None
        )
        self._id_column = ConstantColumn() if np is not None else None
        super().__init__(
            source_id=source_id,
            rate=rate,
            payload_builder=self._build_payload,
            seed=seed,
        )

    def _build_payload(self) -> Dict[str, object]:
        value = self.distribution.sample()
        if self._planetlab is not None:
            free = self._planetlab.memory_free_kb(value)
        else:
            # Scale a generic value into a plausible free-memory range so the
            # TOP-5 query's filter (free >= 100,000 KB) is selective.
            free = 50_000.0 + value * 20_000.0
        return {"id": self.monitored_id, "free": free}

    def payload_columns(self, count: int) -> Dict[str, List[object]]:
        # The PlanetLab path interleaves two draws per tuple (utilisation
        # sample, then the correlated memory noise) on one RNG, so the
        # distribution walks both in a single loop; the generic path scales
        # a plain block draw.
        if self._planetlab is not None:
            free = self._planetlab.memory_free_many(count)
        else:
            free = [
                50_000.0 + value * 20_000.0
                for value in self.distribution.sample_many(count)
            ]
        return {"id": [self.monitored_id] * count, "free": free}

    def payload_columns_fused(self, count: int) -> Optional[Dict[str, object]]:
        if self._planetlab is not None:
            free = np.asarray(
                self._planetlab.memory_free_many(count), dtype=np.float64
            )
        else:
            # Element-wise float64 multiply-then-add: the exact per-value
            # arithmetic of the list comprehension above.
            free = 50_000.0 + self.distribution.sample_array(count) * 20_000.0
        return {
            "id": self._id_column.take(self.monitored_id, count),
            "free": free,
        }


class BurstySource:
    """Wrapper making a source bursty: 10 % of the time it emits at 10× rate.

    Reproduces the burstiness model of §7.4.  The wrapper draws, per
    generation interval, whether the source is currently in a burst.
    """

    def __init__(
        self,
        base: StreamSource,
        burst_probability: float = 0.1,
        burst_multiplier: float = 10.0,
        seed: Optional[int] = 0,
    ) -> None:
        if not 0.0 <= burst_probability <= 1.0:
            raise ValueError(
                f"burst_probability must be in [0, 1], got {burst_probability}"
            )
        if burst_multiplier < 1.0:
            raise ValueError(
                f"burst_multiplier must be >= 1, got {burst_multiplier}"
            )
        self.base = base
        self.burst_probability = float(burst_probability)
        self.burst_multiplier = float(burst_multiplier)
        self.rng = random.Random(seed)
        self.bursts = 0

    @property
    def source_id(self) -> str:
        return self.base.source_id

    @property
    def rate(self) -> float:
        return self.base.rate

    @property
    def emitted_tuples(self) -> int:
        return self.base.emitted_tuples

    def generate(self, start: float, end: float) -> List[Tuple]:
        original_rate = self.base.rate
        if self.rng.random() < self.burst_probability:
            self.bursts += 1
            self.base.rate = original_rate * self.burst_multiplier
        try:
            return self.base.generate(start, end)
        finally:
            self.base.rate = original_rate

    def generate_block(self, start: float, end: float) -> Optional[ColumnBlock]:
        """Columnar :meth:`generate`: one burst draw, then the base fast path."""
        original_rate = self.base.rate
        if self.rng.random() < self.burst_probability:
            self.bursts += 1
            self.base.rate = original_rate * self.burst_multiplier
        try:
            return self.base.generate_block(start, end)
        finally:
            self.base.rate = original_rate

    def generate_block_fused(self, start: float, end: float) -> Optional[ColumnBlock]:
        """Fused :meth:`generate_block`: one burst draw, then the base fused path."""
        original_rate = self.base.rate
        if self.rng.random() < self.burst_probability:
            self.bursts += 1
            self.base.rate = original_rate * self.burst_multiplier
        try:
            return self.base.generate_block_fused(start, end)
        finally:
            self.base.rate = original_rate
