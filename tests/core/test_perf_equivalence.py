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
        # a maximal tie of bit-equal values, already in buffer order.
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


def make_classed_buffer(num_queries, rates, reported_of):
    """Queries in rate classes, one 250 ms batch each, as in ``many_queries``.

    A tuple's SIC is ``1 / (rate x 10 s)``, so the queries of one class move
    through the water-filling in lockstep and stay within rounding error of
    each other.  ``reported_of(q)`` gives query ``q``'s reported SIC.
    """
    batches, reported = [], {}
    for q in range(num_queries):
        rate = rates[q % len(rates)]
        query_id = f"q{q:03d}"
        reported[query_id] = reported_of(q)
        tuples = [
            Tuple(timestamp=i / rate, sic=1.0 / (rate * 10.0), values={})
            for i in range(int(rate * 0.25))
        ]
        batches.append(Batch(query_id, tuples))
    return batches, reported


def flat_batch(query_id, count, sic):
    return Batch(
        query_id,
        [Tuple(timestamp=i * 1e-3, sic=sic, values={}) for i in range(count)],
    )


def draws_made(policy_seed, build, capacity, config=None):
    """Whether a selection consumed any randomness (i.e. broke a tie)."""
    batches, reported = build()
    policy = BalanceSicPolicy(config, rng=random.Random(policy_seed))
    policy.select(batches, capacity, reported)
    return policy.rng.getstate() != random.Random(policy_seed).getstate()


class TestNearTieEquivalence:
    """Ties between SICs that differ by less than ``epsilon`` but are not equal.

    These are the ties permanent overload produces (same-class queries end up
    1e-16 to 1e-13 apart), and the ones where the tie group's value order and
    its buffer order disagree.
    """

    RATES = (40.0, 80.0, 120.0)

    @pytest.mark.parametrize("use_projection", [True, False])
    @pytest.mark.parametrize("rng_seed", range(4))
    def test_rate_classes_jittered_against_buffer_order(
        self, use_projection, rng_seed
    ):
        # Later queries of a class sit lower by a sub-epsilon step, so every
        # tie group sorts by value in the reverse of its buffer order.
        def reported_of(q):
            return 0.5 + 4e-4 * (q % 3) + (60 - q) * 3e-15

        def build():
            return make_classed_buffer(60, self.RATES, reported_of)

        config = BalanceSicConfig(use_projection=use_projection)
        total = sum(int(r * 0.25) for r in self.RATES) * 20
        assert draws_made(rng_seed, build, total // 2, config)
        for capacity in (total // 10, total // 2, total - 1):
            assert_selection_identical(build, capacity, config, rng_seed=rng_seed)

    @pytest.mark.parametrize("rng_seed", range(8))
    def test_winner_above_the_group_minimum(self, rng_seed):
        # a and b are tied; c is outside the group formed around a, but within
        # epsilon of b.  If b wins, q'' is d, not c.
        def build():
            batches = [
                flat_batch("a", 40, 1e-3),
                flat_batch("b", 40, 1e-3),
                flat_batch("c", 40, 1e-3),
                flat_batch("d", 40, 1e-3),
            ]
            reported = {
                "a": 0.1,
                "b": 0.1 + 6e-13,
                "c": 0.1 + 1.4e-12,
                "d": 0.13,
                "idle": 0.1 + 1.5e-12,
            }
            return batches, reported

        config = BalanceSicConfig(use_projection=False)
        for capacity in (5, 31, 90, 159):
            assert_selection_identical(build, capacity, config, rng_seed=rng_seed)

    @pytest.mark.parametrize("tied_pair", [False, True])
    def test_idle_queries_are_the_only_targets(self, tied_pair):
        def build():
            batches = [flat_batch("p", 30, 2e-3), flat_batch("p", 30, 1e-3)]
            reported = {
                "p": 0.2,
                "below": 0.1,
                "inside": 0.2 + 5e-13,  # in (working, working + eps]: no target
                "next": 0.22,
                "last": 0.25,
            }
            if tied_pair:
                batches.append(flat_batch("p2", 60, 1e-3))
                reported["p2"] = 0.2 + 2e-13
            return batches, reported

        config = BalanceSicConfig(use_projection=False)
        for capacity in (4, 10, 29, 45, 59):
            assert_selection_identical(build, capacity, config, rng_seed=3)

    def test_top_batch_that_does_not_fit_without_splitting(self):
        # low fills up to mid's level with whole batches; mid's only batch is
        # larger than what is left, so mid is shed whole and the round ends.
        def build():
            batches = [flat_batch("low", 5, 1e-2) for _ in range(3)]
            batches.append(flat_batch("mid", 50, 1e-3))
            batches.append(flat_batch("mid2", 50, 1e-3))
            reported = {"low": 0.0, "mid": 0.08, "mid2": 0.08 + 3e-13}
            return batches, reported

        config = BalanceSicConfig(
            allow_batch_splitting=False, use_projection=False
        )
        for rng_seed in range(4):
            assert_selection_identical(build, 30, config, rng_seed=rng_seed)
        batches, reported = build()
        decision = BalanceSicPolicy(config, rng=random.Random(0)).select(
            batches, 30, reported
        )
        assert decision.kept_tuples == 10
        assert decision.shed_tuples == 105

    @pytest.mark.parametrize("rng_seed", range(3))
    def test_zero_epsilon_ties_only_bit_equal_values(self, rng_seed):
        # Pairs of queries report bit-equal SICs, pairs of pairs differ by
        # 1e-15: with epsilon 0 only the former are tied.
        def reported_of(q):
            return 0.5 + 4e-4 * (q % 3) + (q // 6) * 1e-15

        def build():
            return make_classed_buffer(36, self.RATES, reported_of)

        config = BalanceSicConfig(epsilon=0.0, use_projection=False)
        total = sum(int(r * 0.25) for r in self.RATES) * 12
        assert draws_made(rng_seed, build, total // 2, config)
        for capacity in (total // 7, total // 2):
            assert_selection_identical(build, capacity, config, rng_seed=rng_seed)

    # The fast path keeps a tie group across consecutive draws; the shapes
    # below make that cache go stale in each way it can, or stay valid while
    # something around it changes.

    @pytest.mark.parametrize("rng_seed", range(4))
    def test_climber_lands_back_inside_the_tie_limit(self, rng_seed):
        # Every pending query is tied and no level lies above them, so each
        # draw accepts one batch — worth far less than epsilon — and the
        # drawn query re-enters the group it was drawn from.
        def build():
            batches, reported = [], {}
            for q in range(6):
                query_id = f"q{q}"
                reported[query_id] = 0.3 + q * 1e-14
                batches.extend(flat_batch(query_id, 3, 1e-14) for _ in range(8))
            return batches, reported

        config = BalanceSicConfig(use_projection=False)
        assert draws_made(rng_seed, build, 40, config)
        for capacity in (7, 40, 100, 143):
            assert_selection_identical(build, capacity, config, rng_seed=rng_seed)

    @pytest.mark.parametrize("rng_seed", range(12))
    def test_group_head_drawn(self, rng_seed):
        # A group of five whose head (lowest SIC, last in buffer order) is
        # the draw in about one step in five.  The next tie step's limit is
        # the new head's, which also takes in ``edge``: a group built under
        # the departed head must not be reused.
        def build():
            batches, reported = [], {}
            for q in range(5):
                query_id = f"q{q}"
                reported[query_id] = 0.4 + (4 - q) * 2e-13
                batches.append(flat_batch(query_id, 30, 1e-3))
            batches.append(flat_batch("edge", 30, 1e-3))
            reported["edge"] = 0.4 + 1.1e-12
            batches.append(flat_batch("far", 30, 1e-3))
            reported["far"] = 0.42
            return batches, reported

        config = BalanceSicConfig(use_projection=False)
        for capacity in (3, 9, 60, 120):
            assert_selection_identical(build, capacity, config, rng_seed=rng_seed)

    @pytest.mark.parametrize("rng_seed", range(4))
    def test_tie_steps_interleaved_with_untied_steps(self, rng_seed):
        # Three rate classes at three reported levels: classes merge as they
        # climb, per-tuple SICs differ, so overshoots split them again and
        # single-query steps alternate with tie draws.
        rates = (40.0, 80.0, 120.0)

        def reported_of(q):
            return 0.5 + 1e-3 * (q % 3) + (q // 3) * 1e-14

        def build():
            batches, reported = make_classed_buffer(15, rates, reported_of)
            batches.append(flat_batch("solo", 25, 2e-3))
            reported["solo"] = 0.5015
            return batches, reported

        config = BalanceSicConfig(use_projection=False)
        total = sum(len(b) for b in build()[0])
        for capacity in (total // 8, total // 3, total // 2, total - 5):
            assert_selection_identical(build, capacity, config, rng_seed=rng_seed)

    @pytest.mark.parametrize("rng_seed", range(4))
    def test_idle_level_becomes_the_target_mid_group(self, rng_seed):
        # Each tied query holds only a few tuples: a drawn query runs dry
        # below the pending target and parks at an idle level, which is the
        # target for the rest of the group's draws — the group itself (a
        # pending-index structure) stays the same.
        def build():
            batches, reported = [], {}
            for q in range(6):
                query_id = f"q{q}"
                reported[query_id] = 0.2 + q * 1e-13
                batches.append(flat_batch(query_id, 2 + q, 1e-3))
            batches.append(flat_batch("far", 40, 1e-3))
            reported["far"] = 0.25
            reported["idle"] = 0.26
            return batches, reported

        config = BalanceSicConfig(use_projection=False)
        for capacity in (4, 11, 25, 45):
            assert_selection_identical(build, capacity, config, rng_seed=rng_seed)

    @pytest.mark.parametrize("use_projection", [True, False])
    def test_many_queries_shape(self, use_projection):
        # The benchmark's 300 small queries in three rate classes, one batch
        # each, near-tied within a class: seven steps in ten are tie draws
        # among a dozen or more queries.
        def reported_of(q):
            return 0.55 + 1e-3 * (q % 3) + (q % 7) * 1e-15

        def build():
            return make_classed_buffer(300, self.RATES, reported_of)

        config = BalanceSicConfig(use_projection=use_projection)
        total = sum(int(r * 0.25) for r in self.RATES) * 100
        assert draws_made(0, build, total // 2, config)
        assert_selection_identical(build, total // 2, config, rng_seed=0)

    GRID = (0.2, 0.2 + 1.5e-12, 0.25, 0.3)

    @given(
        queries=st.lists(
            st.tuples(
                st.integers(0, 3),  # grid level
                st.floats(-4e-13, 4e-13),  # sub-epsilon noise
                st.integers(0, 4),  # batches (0: idle query)
                st.integers(1, 12),  # tuples per batch
                st.sampled_from([1e-3, 2.5e-3, 1e-2]),  # tuple SIC
            ),
            min_size=1,
            max_size=16,
        ),
        capacity=st.integers(0, 200),
        allow_splitting=st.booleans(),
        use_projection=st.booleans(),
        epsilon=st.sampled_from([1e-12, 0.0]),
        rng_seed=st.integers(0, 1000),
    )
    @settings(max_examples=150, deadline=None)
    def test_property_near_ties_are_the_norm(
        self, queries, capacity, allow_splitting, use_projection, epsilon, rng_seed
    ):
        def build():
            batches, reported = [], {}
            for q, (level, noise, count, size, sic) in enumerate(queries):
                reported[f"q{q}"] = self.GRID[level] + noise
                batches.extend(flat_batch(f"q{q}", size, sic) for _ in range(count))
            return batches, reported

        config = BalanceSicConfig(
            allow_batch_splitting=allow_splitting,
            use_projection=use_projection,
            epsilon=epsilon,
        )
        assert_selection_identical(build, capacity, config, rng_seed=rng_seed)


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
