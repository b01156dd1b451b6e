"""The fast paths must match the reference implementations exactly.

``repro.core._reference`` preserves the seed's O(iterations × queries)
BALANCE-SIC selection and the per-tuple-deque rate estimator.  These tests
drive both implementations with identical inputs and seeds and require
identical outcomes, which is what makes the fast path a pure performance
change.

For selection the two differ in granularity only: the reference materialises
one batch piece per water-filling step, the fast path emits each input batch
whole or as one kept head plus one shed tail.  The comparison therefore
coalesces per input batch and per query: same number of kept tuples from
every input batch, same kept and shed tuple sequences per query, same
iteration count, tuple totals and projected SIC, and the same RNG state
after the call (same tie-break and shuffle draws).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core._reference import (
    ReferenceBalanceSicPolicy,
    ReferenceSourceRateEstimator,
)
from repro.core.balance_sic import (
    BalanceSicConfig,
    BalanceSicPolicy,
    SelectionStrategy,
)
from repro.core.tuples import Batch, Tuple


def make_buffer(
    num_queries, batches_per_query, tuples_per_batch, seed, uneven=False
):
    """Random buffer; ``uneven`` varies the tuple SIC within each batch."""
    rng = random.Random(seed)
    batches, reported = [], {}
    for q in range(num_queries):
        query_id = f"q{q}"
        reported[query_id] = rng.random()
        for b in range(batches_per_query):
            sic = rng.uniform(1e-4, 1e-2)
            tuples = [
                Tuple(
                    timestamp=b + i * 1e-3,
                    sic=sic * rng.uniform(0.5, 1.5) if uneven else sic,
                    values={},
                )
                for i in range(tuples_per_batch)
            ]
            batches.append(Batch(query_id, tuples))
    return batches, reported


def kept_per_input_batch(batches, decision):
    """Kept tuples of every input batch, by buffer position.

    Split pieces of a tuple-backed batch share its ``Tuple`` objects, so a
    piece's parent is the input batch that owns its tuples.
    """
    owner = {id(t): i for i, b in enumerate(batches) for t in b.tuples}
    counts = [0] * len(batches)
    for piece in decision.kept:
        for t in piece.tuples:
            counts[owner[id(t)]] += 1
    return counts


def content_per_query(pieces):
    """``{query: [(timestamp, sic), ...]}`` concatenated in list order."""
    content = {}
    for piece in pieces:
        content.setdefault(piece.query_id, []).extend(
            (t.timestamp, t.sic) for t in piece.tuples
        )
    return content


def assert_selection_identical(build, capacity, config=None, rng_seed=0):
    """Run both policies on equal buffers and compare the decisions.

    ``build`` returns a fresh ``(batches, reported_sic)`` pair per call.
    """
    batches, reported = build()
    policy = BalanceSicPolicy(config, rng=random.Random(rng_seed))
    fast = policy.select(batches, capacity, reported)
    ref_batches, ref_reported = build()
    ref_policy = ReferenceBalanceSicPolicy(config, rng=random.Random(rng_seed))
    reference = ref_policy.select(ref_batches, capacity, ref_reported)

    assert fast.kept_tuples == reference.kept_tuples
    assert fast.shed_tuples == reference.shed_tuples
    assert fast.iterations == reference.iterations
    assert fast.projected_sic == reference.projected_sic
    assert policy.rng.getstate() == ref_policy.rng.getstate()
    assert kept_per_input_batch(batches, fast) == kept_per_input_batch(
        ref_batches, reference
    )
    assert content_per_query(fast.kept) == content_per_query(reference.kept)
    assert content_per_query(fast.shed) == content_per_query(reference.shed)
    # The fast path's own granularity: never more entries than input batches.
    assert len(fast.kept) <= len(batches)
    assert len(fast.shed) <= len(batches)


class TestSelectionEquivalence:
    @pytest.mark.parametrize("strategy", SelectionStrategy.ALL)
    @pytest.mark.parametrize("allow_splitting", [True, False])
    @pytest.mark.parametrize("use_projection", [True, False])
    @pytest.mark.parametrize("capacity_fraction", [0.0, 0.25, 0.75, 1.5])
    def test_matrix(self, strategy, allow_splitting, use_projection, capacity_fraction):
        config = BalanceSicConfig(
            selection_strategy=strategy,
            allow_batch_splitting=allow_splitting,
            use_projection=use_projection,
        )
        for seed in range(3):
            total = 7 * 3 * 6
            assert_selection_identical(
                lambda: make_buffer(7, 3, 6, seed),
                int(total * capacity_fraction),
                config,
                rng_seed=99,
            )

    @pytest.mark.parametrize("seed", range(5))
    def test_uneven_tuple_sic_within_batches(self, seed):
        # Cursor advances read prefix differences that are no longer a
        # multiple of one per-tuple value.
        assert_selection_identical(
            lambda: make_buffer(6, 3, 40, seed, uneven=True), 300, rng_seed=seed
        )

    def test_queries_without_buffered_batches(self):
        reported = {"q0": 0.1, "q1": 0.5, "q2": 0.9, "ghost1": 0.05, "ghost2": 0.3}
        assert_selection_identical(
            lambda: (make_buffer(3, 2, 5, seed=1)[0], dict(reported)),
            12,
            rng_seed=5,
        )

    def test_many_exact_ties_consume_identical_rng(self):
        # All queries report 0 and carry identical batches: every iteration is
        # a maximal tie, exercising the rng.choice replay in the heap path.
        def build():
            batches = [
                Batch(
                    f"q{q}",
                    [Tuple(timestamp=float(b), sic=0.01, values={}) for _ in range(4)],
                )
                for q in range(12)
                for b in range(3)
            ]
            return batches, {}

        assert_selection_identical(build, 37, rng_seed=11)

    @given(
        num_queries=st.integers(1, 8),
        batches_per_query=st.integers(1, 5),
        tuples_per_batch=st.integers(1, 8),
        capacity=st.integers(0, 250),
        seed=st.integers(0, 1000),
        allow_splitting=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_random_buffers(
        self,
        num_queries,
        batches_per_query,
        tuples_per_batch,
        capacity,
        seed,
        allow_splitting,
    ):
        assert_selection_identical(
            lambda: make_buffer(
                num_queries, batches_per_query, tuples_per_batch, seed
            ),
            capacity,
            BalanceSicConfig(allow_batch_splitting=allow_splitting),
            rng_seed=seed,
        )


class TestEstimatorEquivalence:
    @given(
        seed=st.integers(0, 1000),
        stw=st.floats(min_value=0.1, max_value=10.0),
        chunks=st.lists(st.integers(1, 50), min_size=1, max_size=40),
    )
    @settings(max_examples=50, deadline=None)
    def test_bucketed_estimates_match_per_tuple_deque(self, seed, stw, chunks):
        from repro.core.sic import SourceRateEstimator

        rng = random.Random(seed)
        fast = SourceRateEstimator(stw_seconds=stw)
        reference = ReferenceSourceRateEstimator(stw_seconds=stw)
        t = 0.0
        for count in chunks:
            t += rng.uniform(0.0, stw / 4)
            source = rng.choice(["a", "b"])
            fast.observe(source, t, count=count)
            reference.observe(source, t, count=count)
            for s in ("a", "b"):
                assert fast.tuples_per_stw(s) == reference.tuples_per_stw(s)

    def test_observe_many_matches_sequential_observe(self):
        from repro.core.sic import SourceRateEstimator

        rng = random.Random(3)
        timestamps = [rng.uniform(0, 20) for _ in range(500)]  # out of order too
        fast = SourceRateEstimator(stw_seconds=1.5)
        reference = ReferenceSourceRateEstimator(stw_seconds=1.5)
        fast.observe_many("s", timestamps)
        for ts in timestamps:
            reference.observe("s", ts)
        assert fast.tuples_per_stw("s") == reference.tuples_per_stw("s")

    def test_seeded_rate_used_until_arrivals(self):
        from repro.core.sic import SourceRateEstimator

        fast = SourceRateEstimator(stw_seconds=10.0)
        reference = ReferenceSourceRateEstimator(stw_seconds=10.0)
        fast.seed_rate("s", 40.0)
        reference.seed_rate("s", 40.0)
        assert fast.tuples_per_stw("s") == reference.tuples_per_stw("s") == 400.0
        fast.observe("s", 1.0)
        reference.observe("s", 1.0)
        assert fast.tuples_per_stw("s") == reference.tuples_per_stw("s")


class TestEstimatorEdgeCases:
    def test_zero_count_observe_matches_reference(self):
        # A count=0 observe must not append a phantom bucket that stretches
        # the observed span (regression: fast path diverged from reference).
        from repro.core.sic import SourceRateEstimator

        fast = SourceRateEstimator(stw_seconds=10.0)
        reference = ReferenceSourceRateEstimator(stw_seconds=10.0)
        for est in (fast, reference):
            est.observe("s", 0.0, count=5)
            est.observe("s", 1.0, count=0)
        assert fast.tuples_per_stw("s") == reference.tuples_per_stw("s") == 5.0

    def test_zero_count_still_expires_window(self):
        from repro.core.sic import SourceRateEstimator

        fast = SourceRateEstimator(stw_seconds=1.0)
        reference = ReferenceSourceRateEstimator(stw_seconds=1.0)
        for est in (fast, reference):
            est.observe("s", 0.0, count=4)
            est.observe("s", 0.5, count=4)
            est.observe("s", 10.0, count=0)  # everything should expire
        assert fast.tuples_per_stw("s") == reference.tuples_per_stw("s")
