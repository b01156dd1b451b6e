"""Columnar source generation ≡ seed per-tuple generation, byte for byte.

The columnar fast path (`generate_block` / `payload_columns` /
`sample_many`) must reproduce the seed per-tuple path exactly for equal
seeds: same emitted counts (including the fractional-rate carry), same
timestamps, same payload values in the same field order, and — after SIC
assignment — the same SIC values.  Two identically-seeded source instances
are driven through the same interval sequence, one per representation, and
every column is compared with ``==`` (no tolerance).
"""

import pytest

from repro.core._reference import ReferenceSicAssigner
from repro.core.sic import SicAssigner
from repro.core.tuples import Batch
from repro.workloads.datasets import DATASET_NAMES, make_dataset
from repro.workloads.sources import (
    BurstySource,
    CpuSource,
    MemorySource,
    ValueSource,
)

# Interval sequence with irregular lengths so the fractional carry is
# exercised: rate * length is rarely integral.
INTERVALS = [
    (0.0, 0.25),
    (0.25, 0.5),
    (0.5, 0.63),
    (0.63, 1.11),
    (1.11, 1.112),
    (1.112, 2.0),
    (2.0, 2.0),  # empty interval
    (2.0, 3.7),
]


def block_as_tuples(block):
    return [] if block is None else block.to_tuples()


def assert_tuples_identical(columnar, reference):
    assert len(columnar) == len(reference)
    for c, r in zip(columnar, reference):
        assert c.timestamp == r.timestamp
        assert c.sic == r.sic
        assert c.source_id == r.source_id
        assert c.values == r.values
        assert list(c.values) == list(r.values)  # field order too


class TestSampleManyEquivalence:
    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_sample_many_matches_sample_loop(self, name):
        fast = make_dataset(name, seed=7)
        slow = make_dataset(name, seed=7)
        for chunk in (1, 5, 64, 0, 17):
            assert fast.sample_many(chunk) == [slow.sample() for _ in range(chunk)]


class TestValueSourceEquivalence:
    @pytest.mark.parametrize("dataset", DATASET_NAMES)
    def test_generate_block_matches_generate(self, dataset):
        # 157.3 t/s: non-integral per-interval counts exercise the carry.
        columnar = ValueSource("s", rate=157.3, dataset=dataset, seed=3)
        per_tuple = ValueSource("s", rate=157.3, dataset=dataset, seed=3)
        for start, end in INTERVALS:
            block = columnar.generate_block(start, end)
            tuples = per_tuple.generate(start, end)
            assert_tuples_identical(block_as_tuples(block), tuples)
            assert columnar.emitted_tuples == per_tuple.emitted_tuples
            assert columnar._carry == per_tuple._carry


class TestMonitoringSourceEquivalence:
    def test_cpu_source(self):
        columnar = CpuSource("cpu0", monitored_id="n0", rate=149.9, seed=5)
        per_tuple = CpuSource("cpu0", monitored_id="n0", rate=149.9, seed=5)
        for start, end in INTERVALS:
            assert_tuples_identical(
                block_as_tuples(columnar.generate_block(start, end)),
                per_tuple.generate(start, end),
            )

    @pytest.mark.parametrize("dataset", ["planetlab", "gaussian"])
    def test_memory_source(self, dataset):
        # planetlab interleaves two RNG draws per tuple; gaussian takes the
        # generic scaled-value branch.
        columnar = MemorySource("mem0", monitored_id="n0", dataset=dataset, seed=5)
        per_tuple = MemorySource("mem0", monitored_id="n0", dataset=dataset, seed=5)
        for start, end in INTERVALS:
            assert_tuples_identical(
                block_as_tuples(columnar.generate_block(start, end)),
                per_tuple.generate(start, end),
            )


class TestBurstySourceEquivalence:
    def test_bursty_block_matches_generate(self):
        columnar = BurstySource(ValueSource("s", rate=91.7, seed=2), seed=9)
        per_tuple = BurstySource(ValueSource("s", rate=91.7, seed=2), seed=9)
        saw_burst = False
        for tick in range(120):
            start, end = tick * 0.25, (tick + 1) * 0.25
            block_tuples = block_as_tuples(columnar.generate_block(start, end))
            tuples = per_tuple.generate(start, end)
            assert_tuples_identical(block_tuples, tuples)
            saw_burst = saw_burst or columnar.bursts > 0
        assert columnar.bursts == per_tuple.bursts
        assert saw_burst, "the run must include at least one burst interval"
        assert columnar.emitted_tuples == per_tuple.emitted_tuples

    def test_custom_payload_builder_falls_back_exactly(self):
        # A source without a specialized payload_columns uses the transposing
        # default, which must also be byte-identical.
        from repro.workloads.sources import StreamSource

        def make():
            dist = make_dataset("mixed", seed=11)
            return StreamSource(
                "s", rate=83.3, payload_builder=lambda: {"a": dist.sample(), "b": 1}
            )

        columnar, per_tuple = make(), make()
        for start, end in INTERVALS:
            assert_tuples_identical(
                block_as_tuples(columnar.generate_block(start, end)),
                per_tuple.generate(start, end),
            )


class TestSicAssignmentEquivalence:
    def test_assign_block_matches_assign_and_seed_assigner(self):
        """Columnar stamping ≡ current assign ≡ seed per-tuple assigner."""
        rate = 211.3
        sources = 3
        rates = {f"s{i}": rate for i in range(sources)}

        def build():
            return [
                ValueSource(f"s{i}", rate=rate, seed=i) for i in range(sources)
            ]

        col_sources, fast_sources, seed_sources = build(), build(), build()
        col = SicAssigner("q", sources, stw_seconds=2.0, nominal_rates=rates)
        fast = SicAssigner("q", sources, stw_seconds=2.0, nominal_rates=rates)
        seed = ReferenceSicAssigner("q", sources, stw_seconds=2.0, nominal_rates=rates)
        for tick in range(40):
            start, end = tick * 0.25, (tick + 1) * 0.25
            for cs, fs, ss in zip(col_sources, fast_sources, seed_sources):
                block = cs.generate_block(start, end)
                col.assign_block(block)
                fast_tuples = fs.generate(start, end)
                fast.assign(fast_tuples)
                seed_tuples = ss.generate(start, end)
                seed.assign(seed_tuples)
                sics = list(block.sics)
                assert sics == [t.sic for t in fast_tuples]
                assert sics == [t.sic for t in seed_tuples]
                # Header SIC sums identically from either representation.
                assert (
                    Batch.from_block("q", block, created_at=end).sic
                    == Batch("q", fast_tuples, created_at=end).sic
                )

    def test_observe_run_matches_observe_many(self):
        from repro.core.sic import SourceRateEstimator

        run = SourceRateEstimator(stw_seconds=1.0)
        many = SourceRateEstimator(stw_seconds=1.0)
        chunks = [
            [0.1, 0.2, 0.3],
            [0.3, 0.3, 0.9],  # duplicate timestamps across the bucket merge
            [1.5],
            [2.0, 2.5, 2.5, 3.1],
            [9.9, 10.0],
        ]
        for chunk in chunks:
            run.observe_run("s", chunk)
            many.observe_many("s", chunk)
            assert run.tuples_per_stw("s") == many.tuples_per_stw("s")
        # Future single observations see identical state as well.
        run.observe("s", 10.4)
        many.observe("s", 10.4)
        assert run.tuples_per_stw("s") == many.tuples_per_stw("s")


# --------------------------------------------------------------- ingest lane
# `generate_block_fused` is what the default runtime calls: built-in sources
# hand the unchecked block constructor finished columns (float64 value
# arrays, one shared read-only object column for the constant `id`).  It
# must be indistinguishable from the staged block and from the per-tuple
# path, on both backends.

def _value_source(dataset, seed):
    return ValueSource("s", rate=157.3, dataset=dataset, seed=seed)


def _cpu_source(dataset, seed):
    return CpuSource("cpu0", monitored_id="n0", rate=149.9, dataset=dataset, seed=seed)


def _memory_source(dataset, seed):
    return MemorySource(
        "mem0", monitored_id="n0", rate=149.9, dataset=dataset, seed=seed
    )


SOURCE_FACTORIES = [_value_source, _cpu_source, _memory_source]


def _column_kind(column):
    """``"float64"`` / ``"object"`` for arrays, ``"list"`` for list columns."""
    dtype = getattr(column, "dtype", None)
    return "list" if dtype is None else str(dtype)


def assert_blocks_identical(fused, staged):
    assert (fused is None) == (staged is None)
    if fused is None:
        return
    assert fused.source_id == staged.source_id
    assert list(fused.values) == list(staged.values)  # field order
    assert list(fused.timestamps) == list(staged.timestamps)
    assert list(fused.sics) == list(staged.sics)
    assert _column_kind(fused.timestamps) == _column_kind(staged.timestamps)
    assert _column_kind(fused.sics) == _column_kind(staged.sics)
    for field in staged.values:
        assert _column_kind(fused.values[field]) == _column_kind(staged.values[field])
        fused_column = list(fused.values[field])
        staged_column = list(staged.values[field])
        assert [type(v) for v in fused_column] == [type(v) for v in staged_column]
        assert fused_column == staged_column


class TestFusedGenerationEquivalence:
    @pytest.mark.parametrize("backend", ["numpy", "list"])
    @pytest.mark.parametrize("dataset", DATASET_NAMES)
    @pytest.mark.parametrize("factory", SOURCE_FACTORIES)
    @pytest.mark.parametrize("bursty", [False, True])
    def test_fused_block_and_tuples_agree(self, factory, dataset, backend, bursty):
        from repro.core.columns import use_backend

        def make():
            source = factory(dataset, seed=5)
            return BurstySource(source, seed=9) if bursty else source

        fused, staged, per_tuple = make(), make(), make()
        with use_backend(backend):
            for tick in range(30):
                for start, end in (
                    (tick * 0.25, tick * 0.25 + 0.13),
                    (tick * 0.25 + 0.13, (tick + 1) * 0.25),
                ):
                    fused_block = fused.generate_block_fused(start, end)
                    staged_block = staged.generate_block(start, end)
                    assert_blocks_identical(fused_block, staged_block)
                    assert_tuples_identical(
                        block_as_tuples(fused_block), per_tuple.generate(start, end)
                    )
        assert fused.emitted_tuples == per_tuple.emitted_tuples
        if bursty:
            assert fused.bursts == per_tuple.bursts > 0
            fused, per_tuple = fused.base, per_tuple.base
        assert fused._carry == per_tuple._carry
        assert fused.distribution.rng.getstate()[2] == (
            per_tuple.distribution.rng.getstate()[2]
        )

    def test_built_in_sources_declare_finished_columns(self):
        np = pytest.importorskip("numpy")
        for factory in SOURCE_FACTORIES:
            for dataset in DATASET_NAMES:
                columns = factory(dataset, seed=1).payload_columns_fused(7)
                assert columns is not None
                for field, column in columns.items():
                    assert isinstance(column, np.ndarray) and len(column) == 7
                    assert column.dtype == (object if field == "id" else np.float64)


class TestSharedIdColumn:
    def make_blocks(self):
        from repro.core.columns import use_backend

        source = _cpu_source("gaussian", seed=3)
        with use_backend("numpy"):
            # 37/38-tuple blocks alternate (149.9 t/s × 0.25 s).
            return source, [
                source.generate_block_fused(i * 0.25, (i + 1) * 0.25) for i in range(8)
            ]

    def test_id_column_is_shared_across_blocks_and_read_only(self):
        np = pytest.importorskip("numpy")
        _, blocks = self.make_blocks()
        sizes = [len(b) for b in blocks]
        assert len(set(sizes)) > 1
        # The cache grows to the largest block seen; from then on every
        # block's column — whatever its length — is a prefix of one array.
        settled = blocks[sizes.index(max(sizes)):]
        assert len(settled) >= 6 and len({len(b) for b in settled}) > 1
        shared = settled[0].values["id"]
        for block in settled:
            assert np.shares_memory(block.values["id"], shared)
        for block in blocks:
            column = block.values["id"]
            assert not column.flags.writeable
            assert column.tolist() == ["n0"] * len(block)
            assert all(v is shared[0] for v in column)
        with pytest.raises(ValueError):
            shared[0] = "overwritten"

    def test_mask_split_and_checkpoint_leave_the_shared_column_alone(self):
        np = pytest.importorskip("numpy")
        from repro.core.columns import use_backend
        from repro.core.kernels import apply_mask
        from repro.state.checkpoint import batch_from_state, batch_to_state

        source, blocks = self.make_blocks()
        shared = blocks[-1].values["id"]
        with use_backend("numpy"):
            block = blocks[3]
            n = len(block)
            mask = np.arange(n) % 3 != 0
            masked = apply_mask(block, mask, block.sics[mask])
            assert not np.shares_memory(masked.values["id"], shared)
            assert masked.values["id"].tolist() == ["n0"] * int(mask.sum())

            batch = Batch.from_block("q", block, created_at=1.0)
            kept, shed = batch.split(10)
            assert kept.block.values["id"].tolist() == ["n0"] * 10
            assert shed.block.values["id"].tolist() == ["n0"] * (n - 10)

            restored = batch_from_state(batch_to_state(kept))
            column = restored.block.values["id"]
            assert column.tolist() == ["n0"] * 10
            # A restored checkpoint shares the source's read-only column by
            # reference; writing it raises instead of reaching the cache.
            assert np.shares_memory(column, shared)
            with pytest.raises(ValueError):
                column[0] = "restored-copy"

            assert [t.values["id"] for t in shed.tuples] == ["n0"] * (n - 10)
            # Every later block still reads the untouched constant.
            later = source.generate_block_fused(2.0, 2.25)
        assert np.shares_memory(later.values["id"], shared)
        assert later.values["id"].tolist() == ["n0"] * len(later)
        assert not shared.flags.writeable

    def test_changing_the_monitored_id_rebuilds_the_column(self):
        pytest.importorskip("numpy")
        from repro.core.columns import use_backend

        source = _memory_source("gaussian", seed=3)
        with use_backend("numpy"):
            before = source.generate_block_fused(0.0, 0.25)
            source.monitored_id = "n1"
            after = source.generate_block_fused(0.25, 0.5)
        assert before.values["id"].tolist() == ["n0"] * len(before)
        assert after.values["id"].tolist() == ["n1"] * len(after)


class TestCustomSourceStaysValidated:
    def test_payload_builder_only_source_keeps_its_ints(self):
        np = pytest.importorskip("numpy")
        from repro.core.columns import use_backend
        from repro.workloads.sources import StreamSource

        def make():
            dist = make_dataset("mixed", seed=11)
            counter = iter(range(10_000))
            return StreamSource(
                "s",
                rate=83.3,
                payload_builder=lambda: {
                    "a": dist.sample(),
                    "n": next(counter),
                    "mixed": 1 if next(counter) % 3 else 0.5,
                },
            )

        fused, per_tuple = make(), make()
        assert fused.payload_columns_fused(5) is None  # declares nothing
        with use_backend("numpy"):
            for start, end in INTERVALS:
                block = fused.generate_block_fused(start, end)
                tuples = per_tuple.generate(start, end)
                if block is None:
                    assert tuples == []
                    continue
                # Validating constructor: all-float field -> float64, any
                # other field -> object array holding the original objects.
                assert block.values["a"].dtype == np.float64
                assert block.values["n"].dtype == object
                assert block.values["mixed"].dtype == object
                assert all(type(v) is int for v in block.values["n"])
                got = block.to_tuples()
                assert_tuples_identical(got, tuples)
                for g, t in zip(got, tuples):
                    assert [type(v) for v in g.values.values()] == [
                        type(v) for v in t.values.values()
                    ]
