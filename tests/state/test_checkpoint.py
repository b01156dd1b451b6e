"""Tests for the checkpoint/restore state layer (``repro.state``).

The contract under test is *bit-exactness*: a snapshot → restore round-trip
must leave a component that produces identical future outputs (same floats,
same ordering) while sharing no mutable structure with the original.
"""

import random

import pytest

from repro.core.columns import ColumnBlock
from repro.core.shedding import BalanceSicShedder, RandomShedder, make_shedder
from repro.core.sic import SicAssigner, SourceRateEstimator
from repro.core.stw import ResultSicTracker, StwConfig
from repro.core.tuples import Batch, Tuple
from repro.state import CheckpointError, FragmentCheckpoint
from repro.state.checkpoint import batch_from_state, batch_to_state
from repro.streaming.operators.aggregate import Average
from repro.streaming.operators.join import WindowEquiJoin
from repro.streaming.operators.topk import TopK
from repro.streaming.query import QueryFragment
from repro.streaming.windows import CountWindow, ImmediateWindow, TimeWindow


def make_block(start, count, step=0.01, sic=1e-3, field="v", source="s"):
    return ColumnBlock(
        timestamps=[start + i * step for i in range(count)],
        sics=[sic] * count,
        values={field: [float(i) for i in range(count)]},
        source_id=source,
    )


def pane_fingerprint(panes):
    return [
        (p.start, p.end, p.sic, len(p), [(t.timestamp, t.sic, t.values) for t in p.tuples])
        for p in panes
    ]


class TestWindowRoundTrips:
    def test_time_window_columnar_round_trip_conserves_pane_sic(self):
        window = TimeWindow(1.0)
        for b in range(4):
            window.insert_block(make_block(b * 0.25, 50, sic=1e-3 * (b + 1)))
        state = window.snapshot()
        restored = TimeWindow(1.0)
        restored.restore(state)
        assert restored.pending_count() == window.pending_count()
        # Bit-exact conservation of the incrementally-maintained pane SIC.
        assert restored.pending_sic() == window.pending_sic()
        assert pane_fingerprint(restored.advance(10.0)) == pane_fingerprint(
            window.advance(10.0)
        )

    def test_time_window_sliding_per_tuple_round_trip(self):
        window = TimeWindow(1.0, slide_seconds=0.5)
        rng = random.Random(0)
        tuples = [
            Tuple(timestamp=i * 0.05, sic=rng.random() * 1e-3, values={"v": i})
            for i in range(60)
        ]
        window.insert(tuples)
        restored = TimeWindow(1.0, slide_seconds=0.5)
        restored.restore(window.snapshot())
        assert restored.pending_sic() == window.pending_sic()
        assert pane_fingerprint(restored.advance(10.0)) == pane_fingerprint(
            window.advance(10.0)
        )

    def test_time_window_restore_preserves_last_closed_end(self):
        window = TimeWindow(1.0, allowed_lateness=0.0)
        window.insert_block(make_block(0.0, 10))
        window.advance(1.0)  # closes pane [0, 1)
        restored = TimeWindow(1.0, allowed_lateness=0.0)
        restored.restore(window.snapshot())
        # A late tuple for the closed pane is dropped by both instances.
        late = [Tuple(timestamp=0.5, sic=1.0, values={})]
        window.insert(late)
        restored.insert(late)
        assert window.pending_count() == restored.pending_count() == 0

    def test_immediate_and_count_window_round_trips(self):
        immediate = ImmediateWindow()
        immediate.insert_block(make_block(0.0, 7))
        immediate.insert([Tuple(timestamp=1.0, sic=0.5, values={"v": 9})])
        restored = ImmediateWindow()
        restored.restore(immediate.snapshot())
        assert restored.pending_sic() == immediate.pending_sic()
        assert pane_fingerprint(restored.advance(2.0)) == pane_fingerprint(
            immediate.advance(2.0)
        )

        count = CountWindow(5)
        count.insert(
            [Tuple(timestamp=i * 0.1, sic=1e-2, values={"v": i}) for i in range(7)]
        )
        restored_count = CountWindow(5)
        restored_count.restore(count.snapshot())
        assert restored_count.pending_sic() == count.pending_sic()
        assert pane_fingerprint(restored_count.advance(1.0)) == pane_fingerprint(
            count.advance(1.0)
        )

    def test_restored_state_shares_no_structure(self):
        window = TimeWindow(1.0)
        block = make_block(0.0, 10)
        window.insert_block(block)
        state = window.snapshot()
        restored = TimeWindow(1.0)
        restored.restore(state)
        column = block.values["v"]
        if isinstance(column, list):
            # A list column cannot be frozen, so the checkpoint copied it: the
            # write lands on the source block only.
            column[0] = 999.0
        else:
            # An array column is shared by reference and frozen at checkpoint:
            # the write raises instead of reaching the envelope or the restored
            # window.
            np = pytest.importorskip("numpy")
            ((_, acc),) = state["panes"]
            stored = acc["items"][0]["block"]["values"]["v"]
            assert np.shares_memory(stored, column)
            assert not stored.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 999.0
        # Nothing leaks into the restored window.
        (pane,) = restored.advance(10.0)
        assert pane.tuples[0].values["v"] == 0.0

    def test_mismatched_window_config_rejected(self):
        window = TimeWindow(1.0)
        window.insert_block(make_block(0.0, 5))
        state = window.snapshot()
        with pytest.raises(CheckpointError):
            TimeWindow(2.0).restore(state)
        with pytest.raises(CheckpointError):
            ImmediateWindow().restore(state)
        with pytest.raises(CheckpointError):
            CountWindow(5).restore(state)
        count_state = CountWindow(5).snapshot()
        with pytest.raises(CheckpointError):
            CountWindow(6).restore(count_state)


class TestOperatorRoundTrip:
    def test_aggregate_round_trip_emits_identical_future_output(self):
        def feed(operator, start):
            operator.ingest_block(make_block(start, 40, step=0.02, sic=2e-3))

        original = Average("v", window_seconds=1.0)
        feed(original, 0.2)
        restored = Average("v", window_seconds=1.0)
        restored.restore(original.snapshot())
        assert restored.pending_sic() == original.pending_sic()
        feed(original, 1.1)
        feed(restored, 1.1)
        out_a = original.advance(5.0)
        out_b = restored.advance(5.0)
        assert [(t.timestamp, t.sic, t.values) for t in out_a] == [
            (t.timestamp, t.sic, t.values) for t in out_b
        ]
        assert original.lost_sic == restored.lost_sic

    def test_operator_type_mismatch_rejected(self):
        original = Average("v")
        state = original.snapshot()
        other = Average("w")
        with pytest.raises(CheckpointError):
            other.restore(state)


class TestEstimatorAndTrackerRoundTrips:
    def test_estimator_round_trip_returns_identical_estimates(self):
        original = SourceRateEstimator(stw_seconds=2.0)
        original.seed_rate("a", 100.0)
        for i in range(50):
            original.observe("a", i * 0.05, count=3)
            original.observe("b", i * 0.05, count=1)
        restored = SourceRateEstimator(stw_seconds=2.0)
        restored.restore(original.snapshot())
        for source in ("a", "b"):
            assert restored.tuples_per_stw(source) == original.tuples_per_stw(
                source
            )
        # Future observations evolve identically (bucket expiry included).
        for i in range(50, 80):
            original.observe("a", i * 0.05, count=2)
            restored.observe("a", i * 0.05, count=2)
        assert restored.tuples_per_stw("a") == original.tuples_per_stw("a")

    def test_estimator_config_mismatch_rejected(self):
        original = SourceRateEstimator(stw_seconds=2.0)
        with pytest.raises(ValueError):
            SourceRateEstimator(stw_seconds=1.0).restore(original.snapshot())

    def test_assigner_round_trip_stamps_identically(self):
        original = SicAssigner("q", 2, stw_seconds=2.0, nominal_rates={"s": 40.0})
        original.assign_block(make_block(0.0, 20))
        restored = SicAssigner("q", 2, stw_seconds=2.0)
        restored.restore(original.snapshot())
        block_a = make_block(0.5, 20)
        block_b = make_block(0.5, 20)
        original.assign_block(block_a)
        restored.assign_block(block_b)
        assert list(block_a.sics) == list(block_b.sics)

    def test_tracker_round_trip_preserves_series(self):
        config = StwConfig(stw_seconds=2.0, slide_seconds=0.25)
        original = ResultSicTracker("q", config)
        for i in range(20):
            original.record_result(i * 0.25, 0.01 * i)
            original.snapshot(i * 0.25)
        restored = ResultSicTracker("q", config)
        restored.restore_state(original.snapshot_state())
        assert restored.history == original.history
        assert restored.current_sic(5.0) == original.current_sic(5.0)


class TestShedderRoundTrip:
    @pytest.mark.parametrize("name", ["balance-sic", "random"])
    def test_rng_state_round_trip_replays_decisions(self, name):
        def batches(seed):
            rng = random.Random(seed)
            return [
                Batch(
                    f"q{i % 3}",
                    [
                        Tuple(timestamp=i * 0.1 + j * 1e-3, sic=rng.random() * 1e-3, values={})
                        for j in range(10)
                    ],
                )
                for i in range(12)
            ]

        reported = {"q0": 0.2, "q1": 0.2, "q2": 0.2}
        original = make_shedder(name, seed=3)
        # Consume some RNG so the round-trip captures a mid-run state.
        original.shed(batches(0), 30, reported)
        restored = make_shedder(name, seed=999)
        restored.restore(original.snapshot())
        decision_a = original.shed(batches(1), 30, reported)
        decision_b = restored.shed(batches(1), 30, reported)
        assert [b.batch_id for b in decision_a.kept] != []
        assert [len(b) for b in decision_a.kept] == [len(b) for b in decision_b.kept]
        assert [b.query_id for b in decision_a.kept] == [
            b.query_id for b in decision_b.kept
        ]
        assert decision_a.shed_tuples == decision_b.shed_tuples

    def test_shedder_name_mismatch_rejected(self):
        state = BalanceSicShedder(seed=0).snapshot()
        with pytest.raises(ValueError):
            RandomShedder(seed=0).restore(state)


class TestBatchState:
    def test_split_batch_header_sic_round_trips_verbatim(self):
        tuples = [
            Tuple(timestamp=i * 0.01, sic=0.1 / 3.0, values={"v": i})
            for i in range(9)
        ]
        head, tail = Batch("q", tuples).split(4)
        for piece in (head, tail):
            restored = batch_from_state(batch_to_state(piece))
            # The prefix-derived header must survive exactly, not be re-summed.
            assert restored.header.sic == piece.header.sic
            assert [t.values for t in restored.tuples] == [
                t.values for t in piece.tuples
            ]

    def test_columnar_batch_round_trip(self):
        block = make_block(0.0, 16, sic=2e-3)
        batch = Batch.from_block("q", block, created_at=1.0, fragment_id="q/f0")
        head, tail = batch.split(5)
        restored = batch_from_state(batch_to_state(tail))
        assert restored.is_columnar
        assert len(restored) == len(tail)
        assert restored.header.sic == tail.header.sic
        assert restored.fragment_id == "q/f0"


class TestEnvelope:
    def make_envelope(self, **overrides):
        values = dict(
            fragment_id="q/f0",
            query_id="q",
            created_at=1.0,
            fragment_state={"operators": {}},
        )
        values.update(overrides)
        return FragmentCheckpoint(**values)

    def test_valid_envelope_passes(self):
        assert self.make_envelope().validate() is not None

    def test_version_mismatch_rejected(self):
        with pytest.raises(CheckpointError):
            self.make_envelope(version=99).validate()

    def test_missing_operator_state_rejected(self):
        with pytest.raises(CheckpointError):
            self.make_envelope(fragment_state={}).validate()

    def test_negative_pending_rejected(self):
        with pytest.raises(CheckpointError):
            self.make_envelope(pending_tuples=-1).validate()


def plain(state):
    """Checkpoint state with array columns as lists, for ``==``."""
    if isinstance(state, dict):
        return {key: plain(value) for key, value in state.items()}
    if isinstance(state, (list, tuple)):
        return [plain(value) for value in state]
    return state.tolist() if hasattr(state, "tolist") else state


class TestJoinOutputBlockRoundTrip:
    """A TOP-5 fragment checkpointed while its ``TopK`` window holds the
    join's output block: the block is serialised as columns, never as one
    dict per row, and the restored fragment is indistinguishable."""

    @staticmethod
    def build():
        fragment = QueryFragment("q", name="f0")
        join = fragment.add_operator(
            WindowEquiJoin(left_key="id", right_key="id", window_seconds=1.0)
        )
        topk = fragment.add_operator(
            TopK(k=3, value_field="value", id_field="id", window_seconds=1.0)
        )
        fragment.connect(join, topk)
        fragment.bind_source("cpu", join.operator_id, port=0)
        fragment.bind_source("mem", join.operator_id, port=1)
        fragment.set_exit(topk.operator_id)
        fragment.finalize()
        return fragment, topk

    @staticmethod
    def feed(fragment, second):
        rng = random.Random(second)
        for source, field in (("cpu", "value"), ("mem", "free")):
            count = 40
            block = ColumnBlock(
                timestamps=[second + i / count for i in range(count)],
                sics=[rng.random() * 1e-3 for _ in range(count)],
                values={
                    "id": [f"m{i % 4}" for i in range(count)],
                    field: [rng.uniform(0.0, 100.0) for _ in range(count)],
                },
                source_id=source,
            )
            fragment.deliver(Batch.from_block("q", block))

    @staticmethod
    def results(fragment, now):
        return [
            (t.timestamp, t.sic, sorted(t.values.items()))
            for batch in fragment.process(now).results
            for t in batch.tuples
        ]

    def test_mid_window_checkpoint_is_idempotent_and_result_neutral(self):
        checkpointed, topk = self.build()
        twin, _ = self.build()
        for fragment in (checkpointed, twin):
            self.feed(fragment, 0.0)
            assert self.results(fragment, 1.5) == []  # join fired, top-k holds it
        assert topk.pending_tuples() == 400  # 4 ids x (10 x 10) matched pairs

        first = checkpointed.snapshot()
        panes = first["operators"][topk.operator_id]["ports"][0]["panes"]
        assert [list(item) for _, acc in panes for item in acc["items"]] == [["block"]]
        pending_sic = checkpointed.pending_sic()
        checkpointed.restore(first)
        assert plain(checkpointed.snapshot()) == plain(first)
        assert checkpointed.pending_sic() == pending_sic == twin.pending_sic()
        assert topk.pending_tuples() == 400

        for fragment in (checkpointed, twin):
            self.feed(fragment, 1.0)
        for now in (2.5, 3.5):
            restored_results = self.results(checkpointed, now)
            assert restored_results and restored_results == self.results(twin, now)
