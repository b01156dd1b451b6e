"""Block sampling ≡ scalar sampling, value for value and state for state.

The ingest lane draws a block with ``sample_many`` / ``sample_array`` — for
the gaussian and planetlab datasets that is ``random.gauss`` *written out*
(Box–Muller pair, ``gauss_next`` carried in and out) rather than called.
The contract is stream identity with the scalar ``sample()`` path, which
calls the running interpreter's own ``random.gauss`` / ``expovariate`` /
``uniform``: any interleaving of block and scalar draws must give the same
values (``float.hex``) and leave ``rng.getstate()`` — ``gauss_next``
included — equal.  Comparing against the stdlib the tests run under is the
point: a CPython release that changes ``random.gauss`` fails here first.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.datasets import (
    DATASET_NAMES,
    GaussianValues,
    PlanetLabLikeValues,
    make_dataset,
)

# A program is a list of steps: ``None`` is one scalar ``sample()``, an int
# ``n`` is ``sample_many(n)`` (0 and odd sizes included, so blocks start and
# end both with and without a parked ``gauss_next``).
PROGRAMS = st.lists(
    st.one_of(st.none(), st.integers(min_value=0, max_value=40)), max_size=12
)
SEEDS = st.integers(min_value=0, max_value=2**32)


def hexes(values):
    return [float(v).hex() for v in values]


def all_rng_states(distribution):
    """``getstate()`` of the distribution's RNG and of any component RNGs."""
    states = [distribution.rng.getstate()]
    for component in getattr(distribution, "_components", ()):
        if getattr(component, "_rs_live", False):
            component._sync_scalar()
        states.append(component.rng.getstate())
    return states


@pytest.mark.parametrize("name", DATASET_NAMES)
class TestBlockDrawsAreTheScalarStream:
    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, program=PROGRAMS, primed=st.booleans())
    def test_sample_many_interleaved_with_sample(self, name, seed, program, primed):
        block = make_dataset(name, seed=seed)
        scalar = make_dataset(name, seed=seed)
        if primed:
            # Enter with a parked second Box-Muller variate.
            block.rng.gauss(0.0, 1.0)
            scalar.rng.gauss(0.0, 1.0)
            assert block.rng.getstate()[2] is not None
        for step in program:
            if step is None:
                got, want = [block.sample()], [scalar.sample()]
            else:
                got = block.sample_many(step)
                want = [scalar.sample() for _ in range(step)]
                assert len(got) == step
            assert hexes(got) == hexes(want)
            assert all(type(v) is float for v in got)
        assert all_rng_states(block) == all_rng_states(scalar)

    @settings(max_examples=25, deadline=None)
    @given(seed=SEEDS, program=PROGRAMS)
    def test_sample_array_is_sample_many_as_float64(self, name, seed, program):
        np = pytest.importorskip("numpy")
        array = make_dataset(name, seed=seed)
        listed = make_dataset(name, seed=seed)
        for step in program:
            if step is None:
                assert array.sample().hex() == listed.sample().hex()
                continue
            column = array.sample_array(step)
            assert isinstance(column, np.ndarray) and column.dtype == np.float64
            assert hexes(column.tolist()) == hexes(listed.sample_many(step))
        if hasattr(array, "_sync_scalar") and array._rs_live:
            array._sync_scalar()
        assert array.rng.getstate() == listed.rng.getstate()


class TestGaussNextCarry:
    def test_odd_block_parks_the_sin_variate_like_the_stdlib(self):
        block = GaussianValues(seed=4)
        stdlib = random.Random(4)
        got = block.sample_many(3)
        want = [max(0.0, stdlib.gauss(50.0, 10.0)) for _ in range(3)]
        assert hexes(got) == hexes(want)
        assert block.rng.gauss_next is not None
        assert block.rng.gauss_next.hex() == stdlib.gauss_next.hex()
        # The parked variate is the next value either way.
        assert block.sample_many(1)[0].hex() == max(0.0, stdlib.gauss(50.0, 10.0)).hex()
        assert block.rng.gauss_next is None and stdlib.gauss_next is None

    def test_empty_block_draws_nothing(self):
        block = GaussianValues(seed=4)
        block.sample()
        before = block.rng.getstate()
        assert block.sample_many(0) == []
        assert block.rng.getstate() == before

    def test_negative_draws_clip_to_zero(self):
        block = GaussianValues(mean=0.0, std=10.0, seed=1)
        scalar = GaussianValues(mean=0.0, std=10.0, seed=1)
        got = block.sample_many(101)
        assert hexes(got) == hexes(scalar.sample() for _ in range(101))
        assert 0.0 in got and min(got) == 0.0


class TestPlanetLabMemoryWalk:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=SEEDS,
        program=st.lists(
            st.tuples(st.sampled_from("cmsk"), st.integers(0, 30)), max_size=10
        ),
    )
    def test_memory_walk_interleaved_with_scalar_calls(self, seed, program):
        block = PlanetLabLikeValues(seed=seed)
        scalar = PlanetLabLikeValues(seed=seed)
        for op, n in program:
            if op == "c":  # cpu block
                got = block.sample_many(n)
                want = [scalar.sample() for _ in range(n)]
            elif op == "m":  # cpu + memory block
                got = block.memory_free_many(n)
                want = [scalar.memory_free_kb(scalar.sample()) for _ in range(n)]
            elif op == "s":  # one scalar cpu sample on both
                got, want = [block.sample()], [scalar.sample()]
            else:  # one scalar memory reading on both
                got = [block.memory_free_kb(42.0)]
                want = [scalar.memory_free_kb(42.0)]
            assert hexes(got) == hexes(want)
        assert block.rng.getstate() == scalar.rng.getstate()
        assert (block._level, block._value) == (scalar._level, scalar._value)
