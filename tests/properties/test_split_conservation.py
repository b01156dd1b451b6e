"""SIC and tuple conservation under batch splitting, across all shedders.

Splitting a batch must never create or destroy tuples or SIC: for every
shedder, ``kept + shed`` must repartition the input buffer exactly — tuple
counts as integers, SIC within float tolerance — including the corner cases
that exercised the old ``_keep_prefix`` double-count bug: capacity 0,
single-tuple batches and splitting disabled.

BALANCE-SIC additionally promises a *structure*: it decides with a cursor
per input batch and splits at most once per batch, so a decision never has
more kept (or shed) entries than the buffer had batches.
"""

import math
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.balance_sic import BalanceSicConfig
from repro.core.shedding import (
    BalanceSicShedder,
    NoShedder,
    RandomShedder,
    TailDropShedder,
)
from repro.core.columns import ColumnBlock
from repro.core.tuples import Batch, Tuple

SIC_TOLERANCE = 1e-9


def all_shedders(allow_splitting=True):
    return (
        BalanceSicShedder(
            config=BalanceSicConfig(allow_batch_splitting=allow_splitting), seed=0
        ),
        RandomShedder(seed=0, allow_splitting=allow_splitting),
        TailDropShedder(allow_splitting=allow_splitting),
        NoShedder(),
    )


@st.composite
def buffers(draw, max_queries=5, max_batches=5, max_tuples=10):
    num_queries = draw(st.integers(1, max_queries))
    batches = []
    reported = {}
    for q in range(num_queries):
        query_id = f"q{q}"
        reported[query_id] = draw(st.floats(min_value=0.0, max_value=1.0))
        for b in range(draw(st.integers(1, max_batches))):
            count = draw(st.integers(1, max_tuples))
            sic = draw(st.floats(min_value=1e-6, max_value=0.05))
            batches.append(
                Batch(
                    query_id,
                    [
                        Tuple(timestamp=b + i * 0.01, sic=sic, values={})
                        for i in range(count)
                    ],
                )
            )
    return batches, reported


def assert_conserved(batches, decision):
    total_tuples = sum(len(b) for b in batches)
    total_sic = sum(b.sic for b in batches)
    kept_tuples = sum(len(b) for b in decision.kept)
    shed_tuples = sum(len(b) for b in decision.shed)
    # The decision's own counters must agree with its batch lists: the old
    # _keep_prefix appended the full original of a split batch to `shed`,
    # so the lists double-counted the kept head.
    assert decision.kept_tuples == kept_tuples
    assert decision.shed_tuples == shed_tuples
    assert kept_tuples + shed_tuples == total_tuples
    kept_sic = sum(b.sic for b in decision.kept)
    shed_sic = sum(b.sic for b in decision.shed)
    assert math.isclose(
        kept_sic + shed_sic, total_sic, rel_tol=0, abs_tol=SIC_TOLERANCE
    )
    # Split headers must stay consistent with their tuples.
    for batch in list(decision.kept) + list(decision.shed):
        assert math.isclose(
            batch.sic,
            sum(t.sic for t in batch.tuples),
            rel_tol=0,
            abs_tol=SIC_TOLERANCE,
        )


class TestConservationProperties:
    @given(data=buffers(), capacity=st.integers(0, 120))
    @settings(max_examples=60, deadline=None)
    def test_all_shedders_conserve_with_splitting(self, data, capacity):
        batches, reported = data
        for shedder in all_shedders(allow_splitting=True):
            decision = shedder.shed(list(batches), capacity, reported)
            assert_conserved(batches, decision)

    @given(data=buffers(), capacity=st.integers(0, 120))
    @settings(max_examples=40, deadline=None)
    def test_all_shedders_conserve_without_splitting(self, data, capacity):
        batches, reported = data
        for shedder in all_shedders(allow_splitting=False):
            decision = shedder.shed(list(batches), capacity, reported)
            assert_conserved(batches, decision)


class TestConservationCorners:
    def _batches(self, sizes, sic=0.01):
        return [
            Batch(
                f"q{i}",
                [Tuple(timestamp=float(j), sic=sic, values={}) for j in range(n)],
            )
            for i, n in enumerate(sizes)
        ]

    @pytest.mark.parametrize("shedder", all_shedders(), ids=lambda s: s.name)
    def test_capacity_zero_sheds_everything(self, shedder):
        batches = self._batches([3, 1, 4])
        decision = shedder.shed(list(batches), 0, {})
        assert_conserved(batches, decision)
        if shedder.name != "none":
            assert decision.kept_tuples == 0
            assert decision.shed_tuples == 8

    @pytest.mark.parametrize("shedder", all_shedders(), ids=lambda s: s.name)
    def test_single_tuple_batches(self, shedder):
        batches = self._batches([1] * 9)
        decision = shedder.shed(list(batches), 4, {})
        assert_conserved(batches, decision)
        # Single-tuple batches can never be split.
        for batch in decision.kept + decision.shed:
            assert len(batch) == 1

    @pytest.mark.parametrize(
        "shedder", all_shedders(allow_splitting=False), ids=lambda s: s.name
    )
    def test_splitting_disabled_keeps_batches_whole(self, shedder):
        batches = self._batches([5, 5, 5])
        originals = {id(b) for b in batches}
        decision = shedder.shed(list(batches), 7, {})
        assert_conserved(batches, decision)
        for batch in decision.kept + decision.shed:
            assert id(batch) in originals

    def test_random_shedder_split_sheds_only_remainder(self):
        # Regression for the _keep_prefix double count: capacity lands in the
        # middle of a batch, the shed list must contain the tail only.
        batches = self._batches([10])
        decision = RandomShedder(seed=0).shed(list(batches), 6, {})
        assert decision.kept_tuples == 6
        assert decision.shed_tuples == 4
        assert len(decision.shed) == 1
        assert len(decision.shed[0]) == 4

    def test_tail_drop_split_sheds_only_remainder(self):
        old = Batch("q0", [Tuple(timestamp=0.0, sic=0.01, values={}) for _ in range(4)])
        new = Batch("q1", [Tuple(timestamp=9.0, sic=0.01, values={}) for _ in range(4)])
        decision = TailDropShedder().shed([new, old], 6, {})
        assert [len(b) for b in decision.kept] == [4, 2]
        assert decision.kept[0].query_id == "q0"
        assert [len(b) for b in decision.shed] == [2]
        assert decision.shed[0].query_id == "q1"


BATCH_FORMS = ("tuples", "columnar", "split-head", "split-tail", "columnar-tail")


def make_batch(query_id, form, timestamps, sics):
    """One input batch in the given representation.

    The ``split-*`` / ``columnar-tail`` forms are pieces of a larger batch,
    as ``FspsNode.on_batch`` leaves in the buffer when it cuts an arrival at
    the ingress cap: they share the parent's prefix array and the tails have
    a non-zero ``_prefix_start``.
    """
    n = len(timestamps)
    if form in ("tuples", "columnar"):
        extra = 0
    else:
        extra = 3
    tuples = [
        Tuple(timestamp=ts, sic=sic, values={"v": float(i)})
        for i, (ts, sic) in enumerate(
            zip(
                [timestamps[0]] * extra + timestamps + [timestamps[-1]] * extra,
                [sics[0]] * extra + sics + [sics[-1]] * extra,
            )
        )
    ]
    if form == "tuples":
        return Batch(query_id, tuples)
    if form == "columnar":
        return Batch.from_block(query_id, ColumnBlock.from_tuples(tuples))
    if form == "split-head":
        return Batch(query_id, tuples[extra:]).split(n)[0]
    if form == "split-tail":
        return Batch(query_id, tuples[:-extra]).split(extra)[1]
    block = ColumnBlock.from_tuples(tuples[:-extra])
    return Batch.from_block(query_id, block).split(extra)[1]


@st.composite
def mixed_buffers(draw, max_queries=5, max_batches=4, max_tuples=12):
    """Buffers mixing representations, with uneven SIC inside each batch."""
    batches, reported = [], {}
    for q in range(draw(st.integers(1, max_queries))):
        query_id = f"q{q}"
        # Reported values within a few batches' SIC of each other, so the
        # water-filling takes many small steps through each batch.
        reported[query_id] = draw(st.floats(min_value=0.0, max_value=0.2))
        for b in range(draw(st.integers(1, max_batches))):
            count = draw(st.integers(1, max_tuples))
            sics = draw(
                st.lists(
                    st.floats(min_value=1e-6, max_value=0.05),
                    min_size=count,
                    max_size=count,
                )
            )
            timestamps = [b + i * 0.01 for i in range(count)]
            form = draw(st.sampled_from(BATCH_FORMS))
            batches.append(make_batch(query_id, form, timestamps, sics))
    return batches, reported


@contextmanager
def recorded_splits():
    """Record ``(parent, head, tail)`` of every ``Batch.split`` call."""
    calls = []
    original = Batch.split

    def split(self, keep_tuples):
        head, tail = original(self, keep_tuples)
        calls.append((self, head, tail))
        return head, tail

    with mock.patch.object(Batch, "split", split):
        yield calls


def assert_one_prefix_per_batch(batches, decision, splits):
    """Every input batch is kept whole, shed whole, or split exactly once."""
    inputs = {id(b) for b in batches}
    assert len(decision.kept) <= len(batches)
    assert len(decision.shed) <= len(batches)
    parents = [id(parent) for parent, _, _ in splits]
    assert len(parents) == len(set(parents))  # at most one split per batch
    assert set(parents) <= inputs  # and only input batches are ever split
    heads = {id(head) for _, head, _ in splits}
    tails = {id(tail) for _, _, tail in splits}
    for batch in decision.kept:
        assert id(batch) in heads or (
            id(batch) in inputs and id(batch) not in parents
        )
    for batch in decision.shed:
        assert id(batch) in tails or (
            id(batch) in inputs and id(batch) not in parents
        )
    assert len(decision.kept) + len(decision.shed) == len(batches) + len(splits)


class TestBalanceSicStructure:
    @given(
        data=mixed_buffers(),
        capacity=st.integers(0, 150),
        allow_splitting=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_one_prefix_per_input_batch(self, data, capacity, allow_splitting):
        batches, reported = data
        shedder = BalanceSicShedder(
            config=BalanceSicConfig(allow_batch_splitting=allow_splitting), seed=0
        )
        with recorded_splits() as splits:
            decision = shedder.shed(list(batches), capacity, reported)
        assert_conserved(batches, decision)
        assert_one_prefix_per_batch(batches, decision, splits)
        if not allow_splitting:
            assert not splits

    def test_kept_head_is_a_prefix_of_its_batch(self):
        # Two queries at very different SIC: the low one is filled first and
        # its batch is cut where capacity runs out.
        low = make_batch("low", "columnar", [0.0] * 50, [0.001] * 50)
        high = make_batch("high", "columnar", [0.0] * 50, [0.001] * 50)
        with recorded_splits() as splits:
            decision = BalanceSicShedder(seed=0).shed(
                [low, high], 30, {"low": 0.1, "high": 0.9}
            )
        assert len(splits) == 1 and splits[0][0] is low
        assert [len(b) for b in decision.kept] == [30]
        block, start, stop = decision.kept[0].block_view()
        assert (block, start, stop) == (low.block_view()[0], 0, 30)
        assert decision.shed[0].block_view()[1:] == (30, 50)
        assert decision.shed[1] is high

    def test_stale_shared_prefix_is_rebuilt(self):
        # head and tail share one prefix array; the tail's tuple SICs and its
        # header are then rewritten without going through refresh_sic(), so
        # the shared array is stale for the tail and the guard must fire.
        whole = Batch(
            "q0", [Tuple(timestamp=float(i), sic=0.01, values={}) for i in range(12)]
        )
        head, tail = whole.split(4)
        for t in tail.tuples:
            t.sic *= 3
        tail.header.sic = sum(t.sic for t in tail.tuples)
        other = Batch(
            "q1", [Tuple(timestamp=float(i), sic=0.01, values={}) for i in range(8)]
        )
        batches = [tail, other]
        with recorded_splits() as splits:
            decision = BalanceSicShedder(seed=0).shed(
                list(batches), 9, {"q0": 0.0, "q1": 0.0}
            )
        assert tail._sic_prefix is not head._sic_prefix
        assert any(parent is tail for parent, _, _ in splits)
        assert_conserved(batches, decision)
        assert_one_prefix_per_batch(batches, decision, splits)
