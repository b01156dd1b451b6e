"""Value distributions for the evaluation datasets (§7, "Experimental set-up").

The paper's queries process either synthetic data — gaussian, uniform or
exponential with a mean of 50, plus a *mixed* dataset that randomly draws from
any of the three — or a real-world dataset of CPU and memory utilisation
measurements from PlanetLab nodes (the CoTop traces).

The PlanetLab traces are not redistributable, so this module provides a
*PlanetLab-like* synthetic generator with the properties that matter for the
SIC-correlation experiment: non-stationary, heavy-tailed CPU utilisation in
``[0, 100]`` with temporal correlation and occasional load-level shifts, and a
correlated free-memory series.  See DESIGN.md ("Substitutions").
"""

from __future__ import annotations

import random
from math import cos, log, pi, sin, sqrt
from typing import List, Optional, Tuple

try:  # Guarded: the list columnar backend works without NumPy.
    import numpy as np
except ImportError:  # pragma: no cover - exercised only on stripped installs
    np = None

__all__ = [
    "ValueDistribution",
    "GaussianValues",
    "UniformValues",
    "ExponentialValues",
    "MixedValues",
    "PlanetLabLikeValues",
    "make_dataset",
    "DATASET_NAMES",
]

DATASET_NAMES = ("gaussian", "uniform", "exponential", "mixed", "planetlab")

# ``random.gauss`` written out (see ``GaussianValues.sample_many``) multiplies
# the first uniform draw by the stdlib's own ``TWOPI = 2.0 * pi``.
_TWOPI = 2.0 * pi


class ValueDistribution:
    """Interface of scalar value generators."""

    name = "abstract"

    def __init__(self, seed: Optional[int] = 0) -> None:
        self.rng = random.Random(seed)

    def sample(self) -> float:
        raise NotImplementedError

    def sample_many(self, count: int) -> List[float]:
        """Draw ``count`` samples in one call.

        Always draws the exact same RNG stream as ``count`` successive
        :meth:`sample` calls — subclasses may only override this with
        implementations that keep that equivalence (the columnar generation
        fast path relies on it being byte-for-byte reproducible against the
        per-tuple path).  The default binds the method once and loops.
        """
        sample = self.sample
        return [sample() for _ in range(count)]

    def sample_array(self, count: int):
        """:meth:`sample_many` as a finished ``float64`` column.

        The hand-off of the ingest lane: sources pass the array straight to
        the unchecked block constructor, so a distribution must yield Python
        floats (the ``sample() -> float`` contract) — the conversion is exact
        for floats and is *not* re-validated downstream.
        """
        return np.asarray(self.sample_many(count), dtype=np.float64)


class GaussianValues(ValueDistribution):
    """Gaussian values with mean 50 (clipped at zero)."""

    name = "gaussian"

    def __init__(self, mean: float = 50.0, std: float = 10.0, seed: Optional[int] = 0):
        super().__init__(seed)
        self.mean = float(mean)
        self.std = float(std)

    def sample(self) -> float:
        return max(0.0, self.rng.gauss(self.mean, self.std))

    def sample_many(self, count: int) -> List[float]:
        # ``random.gauss`` written out: Box-Muller turns two ``random()``
        # draws into a cos/sin pair, returns the first and parks the second
        # in ``rng.gauss_next``.  The loop below makes the same draws and the
        # same ``math`` calls in the same order and carries ``gauss_next`` in
        # and out, so values and ``rng.getstate()`` are bit-identical to
        # ``count`` ``sample()`` calls — without a Python call per value.
        if count <= 0:
            return []
        rng = self.rng
        random = rng.random
        mean = self.mean
        std = self.std
        values: List[float] = []
        append = values.append
        z = rng.gauss_next
        if z is not None:
            append(mean + z * std)
        for _ in range((count - len(values) + 1) >> 1):
            x2pi = random() * _TWOPI
            g2rad = sqrt(-2.0 * log(1.0 - random()))
            append(mean + cos(x2pi) * g2rad * std)
            z = sin(x2pi) * g2rad
            append(mean + z * std)
        if len(values) > count:
            # Odd demand: the last sin variate stays parked, as in the stdlib.
            values.pop()
            rng.gauss_next = z
        else:
            rng.gauss_next = None
        return [value if value > 0.0 else 0.0 for value in values]


class UniformValues(ValueDistribution):
    """Uniform values with mean 50 (range [0, 100] by default)."""

    name = "uniform"

    def __init__(self, low: float = 0.0, high: float = 100.0, seed: Optional[int] = 0):
        super().__init__(seed)
        if high <= low:
            raise ValueError(f"high must exceed low, got [{low}, {high}]")
        self.low = float(low)
        self.high = float(high)
        # Vectorized draw state (sample_array): a persistent NumPy
        # RandomState seeded by transplanting self.rng's Mersenne-Twister
        # state.  While `_rs_live` the RandomState *is* the stream; any
        # scalar draw syncs the state back into self.rng first, so mixing
        # sample()/sample_many()/sample_array() keeps one exact stream.
        self._rs = None
        self._rs_live = False

    def _sync_scalar(self) -> None:
        """Fold the vectorized generator's state back into ``self.rng``."""
        state = self._rs.get_state()
        # RandomState and random.Random share the MT19937 core: 624 uint32
        # key words plus a position index round-trip losslessly.
        self.rng.setstate((3, tuple(state[1].tolist()) + (int(state[2]),), None))
        self._rs_live = False

    def sample(self) -> float:
        if self._rs_live:
            self._sync_scalar()
        return self.rng.uniform(self.low, self.high)

    def sample_many(self, count: int) -> List[float]:
        # random.uniform(a, b) is exactly `a + (b - a) * random()`; inlining
        # it with the width hoisted draws the identical stream ~2x faster.
        if self._rs_live:
            self._sync_scalar()
        random = self.rng.random
        low = self.low
        width = self.high - self.low
        return [low + width * random() for _ in range(count)]

    def sample_array(self, count: int):
        """``count`` draws as a float64 array, continuing the same stream.

        Bit-exact against :meth:`sample_many`: ``random_sample`` produces
        the identical 53-bit doubles the Mersenne Twister gives
        ``random.random()``, and the affine transform matches the inlined
        ``low + width * random()`` arithmetic.  Returns ``None`` without
        consuming any draws when NumPy is unavailable.
        """
        if np is None:
            return None
        rs = self._rs
        if not self._rs_live:
            state = self.rng.getstate()
            if rs is None:
                rs = self._rs = np.random.RandomState()
            rs.set_state(
                ("MT19937", np.asarray(state[1][:624], dtype=np.uint32), state[1][624])
            )
            self._rs_live = True
        column = (self.high - self.low) * rs.random_sample(count)
        if self.low == 0.0:
            # `0.0 + x` is bit-identical to `x` for every non-negative x the
            # scaled draw can produce; skip the add (and its temp array).
            return column
        return self.low + column


class ExponentialValues(ValueDistribution):
    """Exponential values with mean 50."""

    name = "exponential"

    def __init__(self, mean: float = 50.0, seed: Optional[int] = 0):
        super().__init__(seed)
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        self.mean = float(mean)

    def sample(self) -> float:
        return self.rng.expovariate(1.0 / self.mean)

    def sample_many(self, count: int) -> List[float]:
        # random.expovariate(lambd) is exactly `-log(1.0 - random()) / lambd`.
        random = self.rng.random
        lambd = 1.0 / self.mean
        return [-log(1.0 - random()) / lambd for _ in range(count)]


class MixedValues(ValueDistribution):
    """Each sample is drawn from a randomly chosen synthetic distribution."""

    name = "mixed"

    def __init__(self, seed: Optional[int] = 0):
        super().__init__(seed)
        self._components: List[ValueDistribution] = [
            GaussianValues(seed=self.rng.randrange(1 << 30)),
            UniformValues(seed=self.rng.randrange(1 << 30)),
            ExponentialValues(seed=self.rng.randrange(1 << 30)),
        ]

    def sample(self) -> float:
        return self.rng.choice(self._components).sample()

    def sample_many(self, count: int) -> List[float]:
        choice = self.rng.choice
        components = self._components
        return [choice(components).sample() for _ in range(count)]


class PlanetLabLikeValues(ValueDistribution):
    """Synthetic stand-in for the PlanetLab CoTop utilisation traces.

    CPU utilisation follows an AR(1) process around a load level that jumps
    occasionally (machines switching between idle and busy regimes), clipped
    to ``[0, 100]``; bursts push the value towards saturation.  The generator
    is deliberately non-stationary and skewed so that dropping samples changes
    aggregates noticeably — the property that distinguishes the real-world
    dataset from the stationary synthetic ones in Figures 6 and 7.
    """

    name = "planetlab"

    def __init__(
        self,
        seed: Optional[int] = 0,
        level_shift_probability: float = 0.02,
        burst_probability: float = 0.05,
        correlation: float = 0.9,
    ):
        super().__init__(seed)
        self.level_shift_probability = float(level_shift_probability)
        self.burst_probability = float(burst_probability)
        self.correlation = float(correlation)
        self._level = self.rng.uniform(5.0, 60.0)
        self._value = self._level

    def sample(self) -> float:
        if self.rng.random() < self.level_shift_probability:
            # Regime change: jump to a new utilisation level, biased low
            # (most PlanetLab nodes idle most of the time).
            self._level = min(100.0, self.rng.expovariate(1.0 / 25.0))
        noise = self.rng.gauss(0.0, 5.0)
        self._value = (
            self.correlation * self._value
            + (1.0 - self.correlation) * self._level
            + noise
        )
        if self.rng.random() < self.burst_probability:
            self._value = self.rng.uniform(80.0, 100.0)
        self._value = min(100.0, max(0.0, self._value))
        return self._value

    def memory_free_kb(self, cpu_value: float) -> float:
        """A correlated free-memory figure (KB): busier nodes have less free memory."""
        base = 2_000_000.0 * (1.0 - 0.6 * cpu_value / 100.0)
        return max(10_000.0, base + self.rng.gauss(0.0, 100_000.0))

    def sample_many(self, count: int) -> List[float]:
        return self._walk(count, False)[0]

    def memory_free_many(self, count: int) -> List[float]:
        """``[memory_free_kb(sample()) for _ in range(count)]`` in one loop."""
        return self._walk(count, True)[1]

    def _walk(self, count: int, with_memory: bool) -> Tuple[List[float], List[float]]:
        """``count`` steps of the utilisation walk, optionally with memory.

        The block form of :meth:`sample` (and of :meth:`memory_free_kb` on
        each sample): the same draws in the same order with the per-sample
        dispatch hoisted and ``random.gauss`` written out as in
        :meth:`GaussianValues.sample_many` — ``z`` is ``rng.gauss_next``
        carried in a local.  The rare regime-shift and burst draws keep their
        stdlib calls (neither touches ``gauss_next``).
        """
        rng = self.rng
        random = rng.random
        shift_probability = self.level_shift_probability
        burst_probability = self.burst_probability
        correlation = self.correlation
        level_weight = 1.0 - correlation
        level = self._level
        value = self._value
        cpu: List[float] = []
        free: List[float] = []
        z = rng.gauss_next
        rng.gauss_next = None
        for _ in range(count):
            if random() < shift_probability:
                level = min(100.0, rng.expovariate(1.0 / 25.0))
            if z is None:
                x2pi = random() * _TWOPI
                g2rad = sqrt(-2.0 * log(1.0 - random()))
                noise = 0.0 + cos(x2pi) * g2rad * 5.0
                z = sin(x2pi) * g2rad
            else:
                noise = 0.0 + z * 5.0
                z = None
            value = correlation * value + level_weight * level + noise
            if random() < burst_probability:
                value = rng.uniform(80.0, 100.0)
            if not value > 0.0:
                value = 0.0
            elif not value < 100.0:
                value = 100.0
            cpu.append(value)
            if with_memory:
                if z is None:
                    x2pi = random() * _TWOPI
                    g2rad = sqrt(-2.0 * log(1.0 - random()))
                    noise = 0.0 + cos(x2pi) * g2rad * 100_000.0
                    z = sin(x2pi) * g2rad
                else:
                    noise = 0.0 + z * 100_000.0
                    z = None
                kb = 2_000_000.0 * (1.0 - 0.6 * value / 100.0) + noise
                free.append(kb if kb > 10_000.0 else 10_000.0)
        rng.gauss_next = z
        self._level = level
        self._value = value
        return cpu, free


def make_dataset(name: str, seed: Optional[int] = 0) -> ValueDistribution:
    """Factory for the datasets used throughout the evaluation."""
    normalized = name.strip().lower()
    if normalized == "gaussian":
        return GaussianValues(seed=seed)
    if normalized == "uniform":
        return UniformValues(seed=seed)
    if normalized == "exponential":
        return ExponentialValues(seed=seed)
    if normalized == "mixed":
        return MixedValues(seed=seed)
    if normalized in ("planetlab", "planetlab-like", "cotop"):
        return PlanetLabLikeValues(seed=seed)
    raise ValueError(f"unknown dataset {name!r}; expected one of {DATASET_NAMES}")
