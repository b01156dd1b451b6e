"""ColumnBlock v2 (NumPy backend) unit tests.

Covers the satellite edge cases of the columnar v2 work: empty blocks,
heterogeneous/object-dtype payload columns, view-vs-copy semantics after
``Batch.split``, memoized ``to_tuples`` materialization with invalidation,
the sequential-sum determinism primitive, and checkpoint round-trips of
array-backed window/estimator state.
"""

import math
import random

import numpy as np
import pytest

from repro.core.columns import (
    BACKENDS,
    ColumnBlock,
    get_default_backend,
    seq_sum,
    set_default_backend,
    use_backend,
)
from repro.core.sic import SicAssigner, SourceRateEstimator
from repro.core.tuples import SMALL_COLUMN, Batch, Tuple
from repro.streaming.windows import (
    CountWindow,
    ImmediateWindow,
    TimeWindow,
    WindowPane,
)


def make_block(n=10, start=0.0, source_id="s"):
    return ColumnBlock(
        timestamps=[start + 0.01 * i for i in range(n)],
        sics=[1e-3] * n,
        values={"v": [float(i) for i in range(n)]},
        source_id=source_id,
    )


class TestBackendSwitch:
    def test_backends_and_default(self):
        assert get_default_backend() in BACKENDS

    def test_use_backend_scopes_and_restores(self):
        before = get_default_backend()
        with use_backend("list"):
            assert get_default_backend() == "list"
            assert isinstance(make_block().timestamps, list)
        assert get_default_backend() == before

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            set_default_backend("arrow")

    def test_numpy_backend_uses_float64_arrays(self):
        with use_backend("numpy"):
            block = make_block()
        assert isinstance(block.timestamps, np.ndarray)
        assert block.timestamps.dtype == np.float64
        assert block.sics.dtype == np.float64
        assert block.values["v"].dtype == np.float64


class TestSequentialSum:
    def test_seq_sum_matches_python_loop_bit_for_bit(self):
        rng = random.Random(7)
        values = [rng.uniform(-1e3, 1e3) for _ in range(100_000)]
        arr = np.asarray(values)
        total = 0.0
        for v in values:
            total += v
        assert seq_sum(arr) == total
        chained = 123.456
        for v in values:
            chained += v
        assert seq_sum(arr, initial=123.456) == chained

    @pytest.mark.parametrize("repeats", [8, 200])
    def test_seq_sum_is_a_naive_fold_not_a_compensated_sum(self, repeats):
        # Compensated summation (the builtin sum() on CPython >= 3.12) keeps
        # the 1.0s this column's naive left fold loses: 16.0 vs 1.0 at 8
        # repeats.  seq_sum must be the naive fold on every interpreter,
        # for lists, short arrays (<= SMALL_COLUMN) and long arrays alike.
        values = [1e16, 1.0, -1e16, 1.0] * repeats
        for initial in (0.0, 0.5):
            total = initial
            for v in values:
                total += v
            assert total != math.fsum(values) + initial
            assert seq_sum(values, initial) == total
            assert seq_sum(np.asarray(values), initial) == total
        assert (len(values) <= SMALL_COLUMN) == (repeats == 8)

    def test_sic_totals_over_tuples_and_panes_are_the_same_naive_fold(self):
        # Every SIC total the per-tuple path computes must be the fold the
        # columnar path gets from seq_sum — not the builtin sum().
        sics = [1e16, 1.0, -1e16, 1.0] * 8
        naive = 0.0
        for s in sics:
            naive += s
        assert naive != math.fsum(sics)

        def tuples(timestamp=lambda i: 0.0):
            return [Tuple(timestamp(i), s, {"v": 1.0}) for i, s in enumerate(sics)]

        batch = Batch("q", tuples())
        assert batch.header.sic == naive
        batch.header.sic = 0.0
        assert batch.refresh_sic() == naive
        assert WindowPane(0.0, 1.0, tuples=tuples()).sic == naive
        with use_backend("list"):
            block = ColumnBlock([0.0] * len(sics), sics, {})
            assert block.sic_total() == naive
        count = CountWindow(len(sics) + 1)
        count.insert(tuples())
        assert count.pending_sic() == naive
        # One tuple per tumbling pane: the pending total folds pane SICs.
        window = TimeWindow(1.0)
        window.insert(tuples(timestamp=lambda i: i + 0.5))
        assert window.pending_count() == len(sics)
        assert window.pending_sic() == naive

    def test_seq_sum_small_and_empty(self):
        assert seq_sum(np.asarray([])) == 0.0
        assert seq_sum(np.asarray([]), initial=2.5) == 2.5
        assert seq_sum(np.asarray([1.5, 2.25])) == 3.75
        assert seq_sum([1.5, 2.25], initial=1.0) == 4.75


class TestEmptyBlocks:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_block_roundtrips(self, backend):
        with use_backend(backend):
            block = ColumnBlock([], [], {})
            assert len(block) == 0
            assert not block
            assert block.to_tuples() == []
            assert block.sic_total() == 0.0
            merged = ColumnBlock.concat([block, ColumnBlock([], [], {})])
            assert len(merged) == 0
            piece = block.slice(0, 0)
            assert len(piece) == 0

    def test_empty_batch_from_block(self):
        with use_backend("numpy"):
            batch = Batch.from_block("q", ColumnBlock([], [], {}))
        assert len(batch) == 0
        assert batch.header.sic == 0.0
        assert batch.header.created_at == 0.0


class TestObjectColumns:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_heterogeneous_payload_values_preserved(self, backend):
        values = {
            "id": ["node-1", "node-2", "node-3"],
            "tags": [["a"], [], ["b", "c"]],
            "count": [1, 2, 3],  # ints stay ints (no float64 coercion)
            "v": [1.0, 2.0, 3.0],
        }
        with use_backend(backend):
            block = ColumnBlock(
                timestamps=[0.1, 0.2, 0.3],
                sics=[0.5, 0.25, 0.25],
                values={f: list(col) for f, col in values.items()},
                source_id="s",
            )
            tuples = block.to_tuples()
        for i, t in enumerate(tuples):
            assert t.values["id"] == values["id"][i]
            assert type(t.values["id"]) is str
            assert t.values["tags"] == values["tags"][i]
            assert t.values["count"] == values["count"][i]
            assert type(t.values["count"]) is int
            assert type(t.values["v"]) is float

    def test_object_columns_get_object_dtype(self):
        with use_backend("numpy"):
            block = ColumnBlock(
                timestamps=[0.0, 1.0],
                values={"id": ["a", "b"], "mixed": [1, "x"]},
            )
        assert block.values["id"].dtype == object
        assert block.values["mixed"].dtype == object

    def test_object_columns_concat(self):
        with use_backend("numpy"):
            a = ColumnBlock([0.0], values={"id": ["a"]}, source_id="s")
            b = ColumnBlock([1.0], values={"id": ["b"]}, source_id="s")
            merged = ColumnBlock.concat_ranges([(a, 0, 1), (b, 0, 1)])
        assert merged.values["id"].tolist() == ["a", "b"]
        assert merged.source_id == "s"


class TestToTuplesMemoization:
    def test_full_materialization_is_cached(self):
        with use_backend("numpy"):
            block = make_block(5)
        first = block.to_tuples()
        second = block.to_tuples()
        assert first == second
        # Same Tuple objects (cached), fresh list container per call.
        assert first is not second
        assert all(a is b for a, b in zip(first, second))
        # Ranges of a memoized block slice the cache.
        assert block.to_tuples(1, 3) == first[1:3]
        assert block.to_tuples(1, 3)[0] is first[1]

    def test_rebinding_a_column_invalidates_the_cache(self):
        with use_backend("numpy"):
            block = make_block(4)
        before = block.to_tuples()
        block.sics = block.constant_sics(0.125)
        after = block.to_tuples()
        assert before[0] is not after[0]
        assert all(t.sic == 0.125 for t in after)

    def test_partial_range_does_not_build_the_cache(self):
        with use_backend("numpy"):
            block = make_block(6)
        a = block.to_tuples(0, 2)
        b = block.to_tuples(0, 2)
        assert a == b
        assert a[0] is not b[0]  # no cache was installed by range requests


class TestSplitViewSemantics:
    def test_numpy_split_pieces_are_zero_copy_views(self):
        with use_backend("numpy"):
            block = make_block(100)
            batch = Batch.from_block("q", block)
            head, tail = batch.split(40)
            assert len(head) == 40 and len(tail) == 60
            # Reading a piece's block materializes an O(1) view over the
            # parent's arrays — no column copies.
            assert np.shares_memory(head.block.timestamps, block.timestamps)
            assert np.shares_memory(tail.block.timestamps, block.timestamps)
            assert head.block.values["v"].base is not None
            # Header SIC is prefix-derived and exact.
            assert head.header.sic + tail.header.sic == pytest.approx(
                batch.header.sic
            )
            assert head.block.timestamps.tolist() == block.timestamps[:40].tolist()

    def test_list_split_pieces_are_copies(self):
        with use_backend("list"):
            block = make_block(10)
            batch = Batch.from_block("q", block)
            head, _ = batch.split(4)
            assert head.block.timestamps == block.timestamps[:4]
            assert head.block.timestamps is not block.timestamps

    def test_split_tuples_match_across_backends(self):
        def pieces(backend):
            with use_backend(backend):
                block = make_block(20)
                batch = Batch.from_block("q", block)
                head, tail = batch.split(7)
                return [
                    (t.timestamp, t.sic, t.values)
                    for t in head.tuples + tail.tuples
                ]

        assert pieces("numpy") == pieces("list")


class TestArrayStateRoundTrips:
    def test_time_window_checkpoint_roundtrip_array_backed(self):
        with use_backend("numpy"):
            window = TimeWindow(1.0)
            for b in range(8):
                window.insert_block(make_block(50, start=b * 0.25))
            state = window.snapshot()
            restored = TimeWindow(1.0)
            restored.restore(state)
            assert restored.pending_count() == window.pending_count()
            assert restored.pending_sic() == window.pending_sic()
            # Restored panes close to identical results.
            a = [(p.sic, len(p)) for p in window.advance(10.0)]
            b = [(p.sic, len(p)) for p in restored.advance(10.0)]
            assert a == b

    def test_restore_under_other_backend_is_result_identical(self):
        with use_backend("numpy"):
            window = TimeWindow(1.0)
            for b in range(8):
                window.insert_block(make_block(50, start=b * 0.25))
            state = window.snapshot()
            panes_numpy = [
                (p.sic, [t.sic for t in p.tuples]) for p in window.advance(10.0)
            ]
        with use_backend("list"):
            restored = TimeWindow(1.0)
            restored.restore(state)
            panes_list = [
                (p.sic, [t.sic for t in p.tuples])
                for p in restored.advance(10.0)
            ]
        assert panes_numpy == panes_list

    def test_immediate_window_roundtrip_array_backed(self):
        with use_backend("numpy"):
            window = ImmediateWindow()
            window.insert_block(make_block(30))
            window.insert([Tuple(timestamp=0.4, sic=0.25, values={"v": 9.0})])
            state = window.snapshot()
            restored = ImmediateWindow()
            restored.restore(state)
            assert restored.pending_sic() == window.pending_sic()
            (pane_a,) = window.advance(1.0)
            (pane_b,) = restored.advance(1.0)
            assert pane_a.sic == pane_b.sic
            assert [t.values for t in pane_a.tuples] == [
                t.values for t in pane_b.tuples
            ]

    def test_estimator_run_buckets_roundtrip(self):
        with use_backend("numpy"):
            original = SourceRateEstimator(stw_seconds=2.0)
            for b in range(6):
                block = make_block(40, start=b * 0.25)
                original.observe_run("s", block.timestamps)
            state = original.snapshot()
            # Run buckets expand to the plain [t, 1] pair layout.
            buckets = state["windows"]["s"]["buckets"]
            assert all(count == 1 for _, count in buckets)
            restored = SourceRateEstimator(stw_seconds=2.0)
            restored.restore(state)
            assert restored.tuples_per_stw("s") == original.tuples_per_stw("s")
            # Future arrivals produce identical estimates on both.
            late = make_block(40, start=2.0)
            original.observe_run("s", late.timestamps)
            restored.observe_run("s", late.timestamps)
            assert restored.tuples_per_stw("s") == original.tuples_per_stw("s")

    def test_assigner_array_vs_list_estimates_identical(self):
        def stamped(backend):
            with use_backend(backend):
                assigner = SicAssigner("q", 2, stw_seconds=2.0)
                out = []
                for b in range(10):
                    block = make_block(25, start=b * 0.25)
                    assigner.assign_block(block)
                    out.append(list(block.sics))
                return out

        assert stamped("numpy") == stamped("list")


class TestMaterializationCounter:
    def test_build_tuples_bumps_default_registry(self):
        from repro.perf.stopwatch import default_registry

        registry = default_registry()
        before = registry.counters.get("columns.materializations", 0.0)
        before_rows = registry.counters.get("columns.materialized_rows", 0.0)
        block = make_block(7)
        block.to_tuples()
        assert registry.counters["columns.materializations"] == before + 1
        assert registry.counters["columns.materialized_rows"] == before_rows + 7

    def test_memoized_to_tuples_counts_once(self):
        from repro.perf.stopwatch import default_registry

        registry = default_registry()
        block = make_block(5)
        block.to_tuples()
        after_first = registry.counters["columns.materializations"]
        block.to_tuples()          # memoized full-block hit
        block.to_tuples(1, 3)      # slice of the memoized cache
        assert registry.counters["columns.materializations"] == after_first
        block.to_tuples(fresh=True)  # fresh bypasses the cache: counts again
        assert registry.counters["columns.materializations"] == after_first + 1


class TestColumnAppender:
    """Grow-by-doubling pane buffers: element-identical to concat_ranges."""

    @pytest.fixture(autouse=True)
    def _numpy_backend(self):
        # The appender only accepts array-backed blocks; pin the backend so
        # the REPRO_COLUMNAR_BACKEND=list leg does not stop here.
        with use_backend("numpy"):
            yield

    def _ranges(self, specs):
        out = []
        for n, offset in specs:
            block = ColumnBlock(
                [offset + 0.1 * i for i in range(n)],
                [0.5 + 0.01 * i for i in range(n)],
                {"v": [float(offset + i) for i in range(n)]},
                source_id="s0",
            )
            out.append((block, 0, n))
        return out

    def _assert_equal(self, built, merged):
        assert list(built.timestamps) == list(merged.timestamps)
        assert list(built.sics) == list(merged.sics)
        assert set(built.values) == set(merged.values)
        for field in merged.values:
            assert list(built.values[field]) == list(merged.values[field])
        assert built.source_id == merged.source_id

    def test_matches_concat_ranges_bit_for_bit(self):
        from repro.core.columns import ColumnAppender

        ranges = self._ranges([(3, 0), (5, 10), (2, 20), (40, 30)])
        appender = ColumnAppender()
        for block, lo, hi in ranges:
            assert appender.append_range(block, lo, hi)
        self._assert_equal(appender.build(), ColumnBlock.concat_ranges(ranges))

    def test_single_range_stays_lazy_zero_copy(self):
        from repro.core.columns import ColumnAppender

        (item,) = self._ranges([(4, 0)])
        appender = ColumnAppender()
        assert appender.append_range(*item)
        built = appender.build()
        # One-range panes keep concat_ranges' zero-copy fast path: the
        # built block *is* the source block (full range, no copies).
        assert built is item[0]

    def test_partial_ranges_copy_the_window(self):
        from repro.core.columns import ColumnAppender

        ranges = self._ranges([(6, 0), (6, 10)])
        sliced = [(b, 1, 5) for b, _, _ in ranges]
        appender = ColumnAppender()
        for item in sliced:
            assert appender.append_range(*item)
        self._assert_equal(appender.build(), ColumnBlock.concat_ranges(sliced))

    def test_degrades_on_list_backend(self):
        from repro.core.columns import ColumnAppender

        with use_backend("list"):
            (item,) = self._ranges([(3, 0)])
            appender = ColumnAppender()
            assert not appender.append_range(*item)

    def test_degrades_on_schema_change(self):
        from repro.core.columns import ColumnAppender

        a = ColumnBlock([0.0], [0.5], {"v": [1.0]})
        b = ColumnBlock([1.0], [0.5], {"w": [1.0]})
        appender = ColumnAppender()
        assert appender.append_range(a, 0, 1)
        assert not appender.append_range(b, 0, 1)

    def test_degrades_on_dtype_change(self):
        from repro.core.columns import ColumnAppender

        a = ColumnBlock([0.0], [0.5], {"v": [1.0]})
        b = ColumnBlock([1.0], [0.5], {"v": ["tag"]})  # object column
        appender = ColumnAppender()
        assert appender.append_range(a, 0, 1)
        assert not appender.append_range(b, 0, 1)

    def test_mixed_source_ids_drop_to_none(self):
        from repro.core.columns import ColumnAppender

        a = ColumnBlock([0.0], [0.5], {"v": [1.0]}, source_id="s0")
        b = ColumnBlock([1.0], [0.6], {"v": [2.0]}, source_id="s1")
        appender = ColumnAppender()
        assert appender.append_range(a, 0, 1)
        assert appender.append_range(b, 0, 1)
        built = appender.build()
        assert built.source_id is None
        merged = ColumnBlock.concat_ranges([(a, 0, 1), (b, 0, 1)])
        assert merged.source_id is None

    def test_object_columns_carry_identical_objects(self):
        from repro.core.columns import ColumnAppender

        payload = {"k": 1}
        a = ColumnBlock([0.0, 0.1], [0.5, 0.5], {"v": ["x", payload]})
        b = ColumnBlock([1.0, 1.1], [0.6, 0.6], {"v": [payload, "y"]})
        appender = ColumnAppender()
        assert appender.append_range(a, 0, 2)
        assert appender.append_range(b, 0, 2)
        built = appender.build()
        assert built.values["v"][1] is payload
        assert built.values["v"][2] is payload

    def test_growth_over_many_appends(self):
        from repro.core.columns import ColumnAppender

        ranges = self._ranges([(1, i) for i in range(100)])
        appender = ColumnAppender()
        for item in ranges:
            assert appender.append_range(*item)
        assert len(appender) == 100
        self._assert_equal(appender.build(), ColumnBlock.concat_ranges(ranges))
