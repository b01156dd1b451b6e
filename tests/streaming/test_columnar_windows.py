"""Columnar window bucketing ≡ the seed per-tuple window, plus SIC
conservation properties.

``TimeWindow.insert_block`` / ``ImmediateWindow.insert_block`` must close
panes with identical membership and ordering to the seed tuple-at-a-time
implementations preserved in :mod:`repro.streaming._reference`, for any
insertion sequence — including out-of-order blocks (fallback path), sliding
windows (SIC shares) and late tuples.  Pane SIC matches the seed exactly
for time-ordered input and up to float-summation reordering (last ULP)
otherwise — the seed re-summed after sorting, the new panes accumulate in
insertion order — hence the ``abs=1e-12`` tolerance on pane SIC below,
while everything else is compared with ``==``.  Pane SIC must also be
*conserved*: everything inserted is either in a closed pane, still pending,
or provably lost to lateness.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columns import ColumnBlock
from repro.streaming._reference import ReferenceImmediateWindow, ReferenceTimeWindow
from repro.streaming.windows import ImmediateWindow, TimeWindow


def make_block(timestamps, sics=None, seed=0):
    rng = random.Random(seed)
    if sics is None:
        sics = [rng.uniform(1e-5, 1e-2) for _ in timestamps]
    values = {"v": [rng.uniform(0.0, 100.0) for _ in timestamps]}
    return ColumnBlock(list(timestamps), list(sics), values, source_id="s")


def assert_panes_identical(columnar_panes, reference_panes):
    assert len(columnar_panes) == len(reference_panes)
    for cp, rp in zip(columnar_panes, reference_panes):
        assert cp.start == rp.start
        assert cp.end == rp.end
        assert len(cp) == len(rp)
        assert cp.sic == pytest.approx(rp.total_sic, rel=0, abs=1e-12)
        c_tuples = cp.tuples
        assert [t.timestamp for t in c_tuples] == [t.timestamp for t in rp.tuples]
        assert [t.sic for t in c_tuples] == [t.sic for t in rp.tuples]
        assert [t.values for t in c_tuples] == [t.values for t in rp.tuples]


class TestTumblingEquivalence:
    def test_insert_block_matches_per_tuple_reference(self):
        fast = TimeWindow(1.0)
        reference = ReferenceTimeWindow(1.0)
        for b in range(40):
            start = b * 0.25
            step = 0.25 / 50
            block = make_block(
                [start + (i + 0.5) * step for i in range(50)], seed=b
            )
            fast.insert_block(block)
            reference.insert(block.to_tuples())
            now = start + 0.25
            assert_panes_identical(fast.advance(now), reference.advance(now))
            assert fast.pending_count() == reference.pending_count()
        horizon = 40 * 0.25 + 2.0
        assert_panes_identical(fast.advance(horizon), reference.advance(horizon))

    def test_block_straddling_many_panes(self):
        fast = TimeWindow(0.5)
        reference = ReferenceTimeWindow(0.5)
        step = 3.0 / 100
        block = make_block([(i + 0.5) * step for i in range(100)], seed=1)
        fast.insert_block(block)
        reference.insert(block.to_tuples())
        assert fast.pending_count() == reference.pending_count() == 100
        assert_panes_identical(fast.advance(10.0), reference.advance(10.0))

    def test_unsorted_block_falls_back_exactly(self):
        fast = TimeWindow(1.0)
        reference = ReferenceTimeWindow(1.0)
        rng = random.Random(3)
        timestamps = [rng.uniform(0.0, 3.0) for _ in range(80)]
        block = make_block(timestamps, seed=3)
        fast.insert_block(block)
        reference.insert(block.to_tuples())
        assert_panes_identical(fast.advance(10.0), reference.advance(10.0))

    def test_late_tuples_dropped_identically(self):
        fast = TimeWindow(1.0, allowed_lateness=0.0)
        reference = ReferenceTimeWindow(1.0, allowed_lateness=0.0)
        early = make_block([0.1, 0.4, 0.9], seed=4)
        fast.insert_block(early)
        reference.insert(early.to_tuples())
        assert_panes_identical(fast.advance(1.0), reference.advance(1.0))
        # Tuples for the already-closed pane must be dropped by both paths.
        late = make_block([0.5, 0.6, 1.2], seed=5)
        fast.insert_block(late)
        reference.insert(late.to_tuples())
        assert fast.pending_count() == reference.pending_count() == 1
        assert_panes_identical(fast.advance(5.0), reference.advance(5.0))

    def test_range_insert_uses_only_the_range(self):
        window = TimeWindow(1.0)
        block = make_block([0.1, 0.2, 0.3, 0.4, 0.5], sics=[1.0] * 5)
        window.insert_block(block, lo=1, hi=4)
        assert window.pending_count() == 3
        (pane,) = window.advance(5.0)
        assert [t.timestamp for t in pane.tuples] == [0.2, 0.3, 0.4]
        assert pane.sic == pytest.approx(3.0)


class TestSlidingEquivalence:
    def test_sliding_shares_match_reference(self):
        fast = TimeWindow(1.0, slide_seconds=0.25)
        reference = ReferenceTimeWindow(1.0, slide_seconds=0.25)
        for b in range(12):
            start = b * 0.25
            step = 0.25 / 20
            block = make_block(
                [start + (i + 0.5) * step for i in range(20)], seed=b
            )
            fast.insert_block(block)
            reference.insert(block.to_tuples())
        assert_panes_identical(fast.advance(20.0), reference.advance(20.0))


class TestMixedSchemaFallback:
    def test_heterogeneous_schemas_in_one_pane_fall_back_to_tuples(self):
        """Blocks with different payload fields in one pane must behave like
        the seed per-tuple path (which tolerated mixed payload dicts), not
        crash the columnar merge."""
        from repro.streaming.operators.stateless import SourceReceiver

        cpu = ColumnBlock([0.1, 0.2], [0.5, 0.5], {"value": [1.0, 2.0]}, "cpu")
        mem = ColumnBlock([0.15, 0.25], [0.5, 0.5], {"free": [3.0, 4.0]}, "mem")
        receiver = SourceReceiver("any")
        receiver.ingest_block(cpu)
        receiver.ingest_block(mem)
        produced = receiver.advance(1.0)
        assert [t.values for t in produced] == [
            {"value": 1.0},
            {"value": 2.0},
            {"free": 3.0},
            {"free": 4.0},
        ]
        # Equation 3: the pane's SIC (2.0) is split over the 4 outputs.
        assert [t.sic for t in produced] == [0.5] * 4

    def test_mixed_schema_pane_aggregates_match_per_tuple_path(self):
        """Operators pulling columns must fall back to the per-tuple loop —
        not drop rows — when a pane materialized due to mixed schemas."""
        from repro.streaming.operators.aggregate import Average, GroupByAggregate
        from repro.streaming.operators.topk import TopK

        def mixed_blocks():
            return (
                ColumnBlock([0.1, 0.2], [0.5, 0.5], {"v": [10.0, 20.0]}, "s1"),
                ColumnBlock(
                    [0.15], [0.5], {"v": [60.0], "extra": ["x"]}, "s2"
                ),
            )

        columnar_avg = Average(field="v", window_seconds=1.0)
        for block in mixed_blocks():
            columnar_avg.ingest_block(block)
        per_tuple_avg = Average(field="v", window_seconds=1.0)
        for block in mixed_blocks():
            per_tuple_avg.ingest(block.to_tuples())
        (c_out,) = columnar_avg.advance(2.0)
        (r_out,) = per_tuple_avg.advance(2.0)
        assert c_out.values == r_out.values == {"avg": 30.0}
        assert c_out.sic == r_out.sic

        topk = TopK(k=2, value_field="v", id_field="v", window_seconds=1.0)
        for block in mixed_blocks():
            topk.ingest_block(block)
        ranked = topk.advance(2.0)
        assert [t.values["v"] for t in ranked] == [60.0, 20.0]

        grouped = GroupByAggregate(
            key_field="v", value_field="v", aggregate="count", window_seconds=1.0
        )
        for block in mixed_blocks():
            grouped.ingest_block(block)
        assert len(grouped.advance(2.0)) == 3

    def test_non_uniform_payload_builder_raises_clearly(self):
        from repro.workloads.sources import StreamSource

        flip = {"state": False}

        def builder():
            flip["state"] = not flip["state"]
            return {"a": 1} if flip["state"] else {"b": 2}

        source = StreamSource("s", rate=8.0, payload_builder=builder)
        with pytest.raises(ValueError, match="non-uniform field set"):
            source.generate_block(0.0, 1.0)

    def test_mixed_schema_pane_column_access_returns_none(self):
        window = ImmediateWindow()
        window.insert_block(ColumnBlock([0.1], [1.0], {"a": [1]}, "s1"))
        window.insert_block(ColumnBlock([0.2], [1.0], {"b": [2]}, "s2"))
        (pane,) = window.advance(1.0)
        assert pane.values_column("a") is None
        assert pane.as_block() is None
        assert [t.values for t in pane.tuples] == [{"a": 1}, {"b": 2}]
        assert pane.sic == pytest.approx(2.0)


class TestImmediateEquivalence:
    def test_mixed_blocks_and_tuples_preserve_order(self):
        fast = ImmediateWindow()
        reference = ReferenceImmediateWindow()
        block_a = make_block([0.3, 0.1, 0.2], seed=6)  # insertion order kept
        block_b = make_block([0.6, 0.5], seed=7)
        fast.insert_block(block_a)
        fast.insert(block_b.to_tuples())
        reference.insert(block_a.to_tuples())
        reference.insert(block_b.to_tuples())
        assert_panes_identical(fast.advance(1.0), reference.advance(1.0))
        assert fast.advance(2.0) == [] == reference.advance(2.0)


# ---------------------------------------------------------------- properties
@st.composite
def block_stream(draw):
    """A sequence of (mostly sorted) blocks plus a window configuration."""
    num_blocks = draw(st.integers(min_value=1, max_value=6))
    blocks = []
    t = 0.0
    for b in range(num_blocks):
        count = draw(st.integers(min_value=0, max_value=30))
        jitter = draw(st.booleans())
        timestamps = []
        for _ in range(count):
            t += draw(st.floats(min_value=0.001, max_value=0.4))
            timestamps.append(t)
        if jitter and len(timestamps) > 2:
            i = draw(st.integers(min_value=0, max_value=len(timestamps) - 2))
            timestamps[i], timestamps[i + 1] = timestamps[i + 1], timestamps[i]
        sics = [
            draw(st.floats(min_value=0.0, max_value=1e-2, allow_nan=False))
            for _ in range(count)
        ]
        blocks.append((timestamps, sics))
    size = draw(st.sampled_from([0.5, 1.0, 2.0]))
    slide = draw(st.sampled_from([None, 0.25, 0.5]))
    if slide is not None and slide > size:
        slide = size
    return blocks, size, slide


class TestPaneSicConservation:
    @settings(max_examples=60, deadline=None)
    @given(block_stream())
    def test_insert_block_conserves_sic(self, stream):
        """Inserted SIC == closed-pane SIC + pending SIC (nothing late here:
        every pane is closed at the end with generous lateness headroom)."""
        blocks, size, slide = stream
        window = TimeWindow(size, slide_seconds=slide)
        inserted_sic = 0.0
        inserted_count = 0
        for timestamps, sics in blocks:
            block = make_block(timestamps, sics=sics)
            window.insert_block(block)
            inserted_sic += sum(sics)
            inserted_count += len(timestamps)
        panes = window.advance(1e9)
        assert window.pending_count() == 0
        closed_sic = sum(p.sic for p in panes)
        closed_count = sum(len(p) for p in panes)
        if slide is None:
            # Tumbling: every tuple lands in exactly one pane.
            assert closed_count == inserted_count
        else:
            # Sliding: a tuple is split across >= 1 panes but its SIC is not.
            assert closed_count >= inserted_count
        assert closed_sic == pytest.approx(inserted_sic, rel=0, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(block_stream())
    def test_insert_block_equals_reference_randomized(self, stream):
        blocks, size, slide = stream
        fast = TimeWindow(size, slide_seconds=slide)
        reference = ReferenceTimeWindow(size, slide_seconds=slide)
        for timestamps, sics in blocks:
            block = make_block(timestamps, sics=sics)
            fast.insert_block(block)
            reference.insert(block.to_tuples())
        assert_panes_identical(fast.advance(1e9), reference.advance(1e9))
        assert fast.pending_count() == reference.pending_count()

    @settings(max_examples=60, deadline=None)
    @given(block_stream(), st.integers(min_value=0, max_value=5))
    def test_per_tuple_insert_equals_reference_with_late_tuples(self, stream, closing):
        """``insert`` hands same-pane runs to the pane in one call.  Panes
        closed before block ``closing`` make its early tuples late.  The
        panes must equal the seed's, and their SIC must be bit-equal to
        inserting the tuples one call at a time (same additions, same order)."""
        blocks, size, slide = stream
        kwargs = {"slide_seconds": slide, "allowed_lateness": 0.0}
        fast = TimeWindow(size, **kwargs)
        single = TimeWindow(size, **kwargs)
        reference = ReferenceTimeWindow(size, **kwargs)
        windows = (fast, single, reference)
        panes = ([], [], [])
        for index, (timestamps, sics) in enumerate(blocks):
            if index == closing and timestamps:
                for window, closed in zip(windows, panes):
                    closed += window.advance(max(timestamps))
            tuples = make_block(timestamps, sics=sics).to_tuples()
            fast.insert(tuples)
            reference.insert(tuples)
            for t in tuples:
                single.insert([t])
        for window, closed in zip(windows, panes):
            closed += window.advance(1e9)
        assert_panes_identical(panes[0], panes[2])
        assert [p.sic for p in panes[0]] == [p.sic for p in panes[1]]
