"""Micro-benchmarks for the shedding + columnar fast paths (perf harness).

Unlike the ``test_bench_fig*`` suites, which regenerate whole experiments,
these benchmarks time individual hot kernels — BALANCE-SIC selection,
source-rate-estimator ingest, the node tick loop, columnar source
generation + SIC assignment, columnar window bucketing and the end-to-end
simulation macro-benchmark — and additionally assert the fast path's speedup
over the pre-optimisation reference implementations kept in
:mod:`repro.core._reference` and :mod:`repro.streaming._reference`.  The
asserted floors sit well below the observed speedups (see
``BENCH_shedding.json``) so the suite stays stable on slower machines; set
``REPRO_SKIP_PERF_ASSERT=1`` to skip the floor assertions entirely on
throttled runners.

Run with ``--benchmark-disable`` for a fast functional smoke of the perf code
paths; run ``scripts/bench_report.py`` to refresh ``BENCH_shedding.json``.
"""

import os
import statistics

import pytest

from repro.core.columns import use_backend
from repro.perf.microbench import (
    MIGRATION_WINDOW_TUPLES,
    OVERLOAD_SELECTION_QUERIES,
    SELECTION_QUERY_COUNTS,
    SHARDED_NODES,
    SHARDED_WORKERS,
    run_end_to_end,
    time_aggregate_v2,
    time_end_to_end,
    time_end_to_end_v2,
    time_estimator_ingest,
    time_generation_sic,
    time_join_topk,
    time_migration,
    time_node_ticks,
    time_overload_selection,
    time_reliability,
    time_runtime,
    time_selection,
    time_sharded,
    time_source_lane,
    time_tied_selection,
    time_window_insert,
    time_window_insert_v2,
)

SELECTION_SPEEDUP_FLOOR = 5.0
# One steady-state round of permanent overload (12 skewed queries, half the
# tuples kept): the piece-free cursor loop vs the reference, which builds a
# batch piece per water-filling step (observed ~6x).
OVERLOAD_SELECTION_SPEEDUP_FLOOR = 5.0
# One round of `many_queries` (300 small queries whose classes move in
# lockstep, so nearly every step breaks a tie among dozens of queries): the
# tie group as a prefix of the ordered index vs the reference's three scans
# over all queries per step (observed ~10x: ~14 ms against ~139 ms).
TIED_SELECTION_SPEEDUP_FLOOR = 6.0
ESTIMATOR_SPEEDUP_FLOOR = 10.0
# Columnar pipeline floors (observed: generation ~9x, window ~11x, end-to-end
# ~1.8x on the recording machine — see BENCH_shedding.json).  The end-to-end
# floor is deliberately the loosest: its two ~1 s macro-runs have the least
# headroom of the suite, so both sides are measured best-of-2.
GENERATION_SPEEDUP_FLOOR = 5.0
WINDOW_SPEEDUP_FLOOR = 4.0
# The federated ingest unit (one 25-tuple gaussian CpuSource block): finished
# columns from the block sampler through the unchecked constructor vs the
# fallback a custom source takes — a `sample()` call per value and the
# validating constructor (observed ~3.8x: ~10 µs against ~40 µs a block).
SOURCE_LANE_SPEEDUP_FLOOR = 1.5
END_TO_END_SPEEDUP_FLOOR = 1.25
# Columnar v2 floors: numpy backend vs the list-backed fast path on identical
# paper-scale workloads (observed: window ~4-5x, aggregation ~5-7x, v2
# end-to-end macro ~2-2.5x on the recording machine — see the columnar_v2
# section of BENCH_shedding.json).
WINDOW_V2_SPEEDUP_FLOOR = 3.0
AGGREGATE_V2_SPEEDUP_FLOOR = 3.0
END_TO_END_V2_SPEEDUP_FLOOR = 1.3
# One TOP-5 window (two 200-row panes on 2 ids -> 20 000 joined rows -> top 5):
# the block-emitting join feeding a columnar top-k window vs the row join
# feeding it one Tuple at a time (observed ~8x).
JOIN_TOPK_SPEEDUP_FLOOR = 5.0
# The two 10% ceilings below share one macro scenario (50 aggregate
# queries at overload factor 2).  The piece-free shedder took its wall time
# from ~610 to ~340 ms, so a fixed cost or a scheduler hiccup of 20 ms now
# reads 6% instead of 3% (the reliable channel's measured ~20 ms went from
# 3-5% to 5-7%).  On a shared 2-CPU machine single runs of these ~60-150 ms
# scenarios swing by ±15%, more than the margin under each ceiling, and a
# ratio of per-side minima read the reliable channel's ~7% as >10% in about
# one gate in ten (one lucky run on the cheap side suffices).  The gates
# therefore time the two sides back to back in 9 pairs and take the median
# of the pairs' ratios (see `paired_overhead`), which reads it as 5-8%.
# Ceilings unchanged.
MACRO_GATE_REPEATS = 9
# The discrete-event runtime must stay within 10% of the lockstep loop end
# to end (ISSUE 3 acceptance criterion; observed ~5-7% on the recording
# machine — see the `runtime` section of BENCH_shedding.json).
RUNTIME_OVERHEAD_CEILING = 0.10
# Reliable delivery on a loss-free network must stay within 10% of the plain
# best-effort transport end to end (robustness PR acceptance criterion; the
# two runs are bit-exact result-identical, so the ratio is the pure cost of
# sequence numbers, acks and retransmission timers — see the `faults` section
# of BENCH_shedding.json).
RELIABILITY_OVERHEAD_CEILING = 0.10
# Checkpoint + restore of a 10⁵-tuple window must stay within this factor of
# *building* the same window state through the columnar pipeline (ISSUE 4;
# observed ~1.0× on the recording machine — the serialised round-trip costs
# about as much as one pipeline pass over the state it moves — see the
# `migration` section of BENCH_shedding.json).
MIGRATION_ROUNDTRIP_CEILING = 4.0
# Sharded federation (`sharded` section of BENCH_shedding.json).  Inline
# shards pay the per-site scheduler + merge bookkeeping in a single process
# (observed ~25-29% on a 2-CPU machine); the ceiling leaves headroom for
# scheduler noise.
SHARDED_INLINE_OVERHEAD_CEILING = 0.35

# Wall-clock ratio assertions are meaningless on heavily throttled shared
# runners; REPRO_SKIP_PERF_ASSERT=1 keeps the kernels running (so the code
# paths stay covered) but skips the floor checks.
skip_perf_asserts = pytest.mark.skipif(
    os.environ.get("REPRO_SKIP_PERF_ASSERT") == "1",
    reason="perf floor assertions disabled via REPRO_SKIP_PERF_ASSERT",
)


def best_of(n, func, **kwargs):
    """Best-of-``n`` timing: robust against scheduler noise in assertions."""
    return min(func(**kwargs) for _ in range(n))


def paired_overhead(n, base, variant):
    """Relative overhead of ``variant`` over ``base``: the median, over ``n``
    back-to-back (base, variant) runs, of ``variant / base - 1``.

    The two runs of a pair are a fraction of a second apart, so a load change
    on the machine hits both; the median discards the pairs a hiccup hit on
    one side only.  Returns ``(overhead, best base, best variant)``, the
    best-of runs for the failure message.
    """
    bases, variants = [], []
    for _ in range(n):
        bases.append(base())
        variants.append(variant())
    ratios = [v / b for b, v in zip(bases, variants)]
    return statistics.median(ratios) - 1.0, min(bases), min(variants)


class TestSelectionBenchmarks:
    @pytest.mark.parametrize("num_queries", SELECTION_QUERY_COUNTS)
    def test_balance_sic_selection(self, benchmark, num_queries):
        benchmark.extra_info["queries"] = num_queries
        seconds = benchmark.pedantic(
            time_selection,
            kwargs={"num_queries": num_queries},
            rounds=1,
            iterations=1,
        )
        assert seconds > 0

    @skip_perf_asserts
    def test_selection_speedup_vs_reference_q1000(self):
        fast = best_of(3, time_selection, num_queries=1000)
        reference = time_selection(num_queries=1000, use_reference=True)
        speedup = reference / fast
        assert speedup >= SELECTION_SPEEDUP_FLOOR, (
            f"BALANCE-SIC fast path regressed: only {speedup:.1f}x over the "
            f"reference at 1000 queries (floor {SELECTION_SPEEDUP_FLOOR}x); "
            f"fast={fast * 1e3:.1f} ms reference={reference * 1e3:.1f} ms"
        )

    @skip_perf_asserts
    def test_selection_speedup_vs_reference_q100(self):
        # At 100 queries the O(I × Q) rescan term is small, so the asserted
        # floor is looser than the 5× criterion at 1000 queries.
        fast = best_of(3, time_selection, num_queries=100)
        reference = time_selection(num_queries=100, use_reference=True)
        assert reference / fast >= 2.0

    def test_overload_selection_keeps_one_entry_per_batch(self, benchmark):
        # Deterministic, so never skipped: the piece-free loop emits at most
        # one kept entry per input batch, where the reference emits one per
        # water-filling step.
        _, kept_entries = benchmark.pedantic(
            time_overload_selection, rounds=1, iterations=1
        )
        _, reference_entries = time_overload_selection(use_reference=True)
        benchmark.extra_info["kept_entries"] = kept_entries
        benchmark.extra_info["reference_kept_entries"] = reference_entries
        assert 0 < kept_entries <= OVERLOAD_SELECTION_QUERIES
        assert reference_entries > 10 * OVERLOAD_SELECTION_QUERIES

    @skip_perf_asserts
    def test_overload_selection_speedup_vs_reference(self):
        fast = min(time_overload_selection()[0] for _ in range(5))
        reference = min(
            time_overload_selection(use_reference=True)[0] for _ in range(3)
        )
        speedup = reference / fast
        assert speedup >= OVERLOAD_SELECTION_SPEEDUP_FLOOR, (
            f"overloaded BALANCE-SIC round regressed: only {speedup:.1f}x over "
            f"the reference (floor {OVERLOAD_SELECTION_SPEEDUP_FLOOR}x); "
            f"fast={fast * 1e3:.2f} ms reference={reference * 1e3:.2f} ms"
        )

    def test_tied_selection_replays_the_reference_steps(self, benchmark):
        # Deterministic, so never skipped: same number of water-filling steps
        # as the reference, and most of them break a tie.
        _, steps = benchmark.pedantic(
            time_tied_selection, rounds=1, iterations=1
        )
        _, reference_steps = time_tied_selection(use_reference=True)
        benchmark.extra_info["steps"] = steps
        assert steps == reference_steps > 1000

    @skip_perf_asserts
    def test_tied_selection_speedup_vs_reference(self):
        fast = min(time_tied_selection()[0] for _ in range(5))
        reference = min(
            time_tied_selection(use_reference=True)[0] for _ in range(3)
        )
        speedup = reference / fast
        assert speedup >= TIED_SELECTION_SPEEDUP_FLOOR, (
            f"tie-heavy BALANCE-SIC round regressed: only {speedup:.1f}x over "
            f"the reference (floor {TIED_SELECTION_SPEEDUP_FLOOR}x); "
            f"fast={fast * 1e3:.2f} ms reference={reference * 1e3:.2f} ms"
        )


class TestEstimatorBenchmarks:
    def test_estimator_ingest(self, benchmark):
        seconds = benchmark.pedantic(
            time_estimator_ingest, rounds=1, iterations=1
        )
        assert seconds > 0

    @skip_perf_asserts
    def test_estimator_ingest_speedup_vs_reference(self):
        fast = best_of(3, time_estimator_ingest)
        reference = time_estimator_ingest(use_reference=True)
        speedup = reference / fast
        assert speedup >= ESTIMATOR_SPEEDUP_FLOOR, (
            f"estimator ingest regressed: only {speedup:.1f}x over the "
            f"per-tuple reference (floor {ESTIMATOR_SPEEDUP_FLOOR}x); "
            f"fast={fast * 1e3:.2f} ms reference={reference * 1e3:.2f} ms"
        )


class TestNodeBenchmarks:
    def test_node_tick_throughput(self, benchmark):
        seconds = benchmark.pedantic(time_node_ticks, rounds=1, iterations=1)
        benchmark.extra_info["ticks_per_second"] = 50 / seconds
        assert seconds > 0


class TestColumnarBenchmarks:
    """Columnar tick pipeline vs the seed per-tuple implementations."""

    def test_generation_sic(self, benchmark):
        seconds = benchmark.pedantic(time_generation_sic, rounds=1, iterations=1)
        assert seconds > 0

    @skip_perf_asserts
    def test_generation_sic_speedup_vs_reference(self):
        fast = best_of(3, time_generation_sic)
        reference = time_generation_sic(use_reference=True)
        speedup = reference / fast
        assert speedup >= GENERATION_SPEEDUP_FLOOR, (
            f"columnar generation + SIC assignment regressed: only "
            f"{speedup:.1f}x over the seed per-tuple reference (floor "
            f"{GENERATION_SPEEDUP_FLOOR}x); fast={fast * 1e3:.1f} ms "
            f"reference={reference * 1e3:.1f} ms"
        )

    def test_source_lane_stages(self, benchmark):
        microseconds = benchmark.pedantic(
            time_source_lane, kwargs={"stage": "network"}, rounds=1, iterations=1
        )
        benchmark.extra_info["us_per_block"] = microseconds
        assert microseconds > 0

    @skip_perf_asserts
    def test_source_lane_generation_speedup_vs_per_sample_loop(self):
        fast = best_of(3, time_source_lane, stage="generate")
        per_sample = best_of(3, time_source_lane, stage="per_sample")
        speedup = per_sample / fast
        assert speedup >= SOURCE_LANE_SPEEDUP_FLOOR, (
            f"gaussian block generation regressed: only {speedup:.1f}x over the "
            f"per-sample() loop (floor {SOURCE_LANE_SPEEDUP_FLOOR}x); "
            f"fast={fast:.1f} us/block per_sample={per_sample:.1f} us/block"
        )

    def test_window_insert(self, benchmark):
        seconds = benchmark.pedantic(time_window_insert, rounds=1, iterations=1)
        assert seconds > 0

    @skip_perf_asserts
    def test_window_insert_speedup_vs_reference(self):
        fast = best_of(3, time_window_insert)
        reference = time_window_insert(use_reference=True)
        speedup = reference / fast
        assert speedup >= WINDOW_SPEEDUP_FLOOR, (
            f"columnar window bucketing regressed: only {speedup:.1f}x over "
            f"the per-tuple reference window (floor {WINDOW_SPEEDUP_FLOOR}x); "
            f"fast={fast * 1e3:.1f} ms reference={reference * 1e3:.1f} ms"
        )


class TestColumnarV2Benchmarks:
    """NumPy-backed ColumnBlock v2 kernels vs the list-backed fast path.

    Both sides run the identical workload and are bit-exact
    result-identical.  The window and aggregation kernels differ only in
    column storage; the end-to-end macro also includes the fused fragment
    execution that the numpy backend selects.
    """

    def test_window_insert_v2(self, benchmark):
        seconds = benchmark.pedantic(
            time_window_insert_v2, rounds=1, iterations=1
        )
        assert seconds > 0

    def test_aggregate_v2(self, benchmark):
        seconds = benchmark.pedantic(time_aggregate_v2, rounds=1, iterations=1)
        assert seconds > 0

    @skip_perf_asserts
    def test_window_v2_speedup_vs_list_backend(self):
        numpy_s = best_of(3, time_window_insert_v2, backend="numpy")
        list_s = best_of(3, time_window_insert_v2, backend="list")
        speedup = list_s / numpy_s
        assert speedup >= WINDOW_V2_SPEEDUP_FLOOR, (
            f"columnar v2 window bucketing regressed: only {speedup:.1f}x "
            f"over the list backend (floor {WINDOW_V2_SPEEDUP_FLOOR}x); "
            f"numpy={numpy_s * 1e3:.1f} ms list={list_s * 1e3:.1f} ms"
        )

    @skip_perf_asserts
    def test_aggregate_v2_speedup_vs_list_backend(self):
        numpy_s = best_of(3, time_aggregate_v2, backend="numpy")
        list_s = best_of(3, time_aggregate_v2, backend="list")
        speedup = list_s / numpy_s
        assert speedup >= AGGREGATE_V2_SPEEDUP_FLOOR, (
            f"columnar v2 aggregation regressed: only {speedup:.1f}x over "
            f"the list backend (floor {AGGREGATE_V2_SPEEDUP_FLOOR}x); "
            f"numpy={numpy_s * 1e3:.1f} ms list={list_s * 1e3:.1f} ms"
        )

    @skip_perf_asserts
    def test_end_to_end_v2_speedup_vs_list_backend(self):
        numpy_s = best_of(2, time_end_to_end_v2, backend="numpy")
        list_s = best_of(2, time_end_to_end_v2, backend="list")
        speedup = list_s / numpy_s
        assert speedup >= END_TO_END_V2_SPEEDUP_FLOOR, (
            f"columnar v2 end-to-end macro regressed: only {speedup:.2f}x "
            f"over the list backend (floor {END_TO_END_V2_SPEEDUP_FLOOR}x); "
            f"numpy={numpy_s * 1e3:.0f} ms list={list_s * 1e3:.0f} ms"
        )

    def test_backend_result_identical(self):
        """Same seeds -> numpy- and list-backed runs reproduce each other
        exactly (scaled-down overload scenario, both backends forced)."""
        kwargs = dict(num_queries=10, rate=200.0, duration_seconds=3.0)
        with use_backend("numpy"):
            _, numpy_run = run_end_to_end(**kwargs)
        with use_backend("list"):
            _, list_run = run_end_to_end(**kwargs)
        assert numpy_run.per_query_sic == list_run.per_query_sic
        assert numpy_run.result_values == list_run.result_values


class TestJoinTopKBenchmarks:
    def test_join_output_is_one_block_and_nothing_materializes(self, benchmark):
        # Deterministic, so never skipped: the multi-fragment path stays
        # columnar from the panes to the operator that reduces them.
        _, join_items, materialized = benchmark.pedantic(
            time_join_topk, rounds=1, iterations=1
        )
        _, row_items, _ = time_join_topk(row_join=True)
        assert (join_items, materialized) == (1, 0)
        assert row_items == 20_000

    @skip_perf_asserts
    def test_block_join_speedup_vs_row_join(self):
        block = min(time_join_topk()[0] for _ in range(5))
        rows = min(time_join_topk(row_join=True)[0] for _ in range(3))
        speedup = rows / block
        assert speedup >= JOIN_TOPK_SPEEDUP_FLOOR, (
            f"block-emitting join -> top-k regressed: only {speedup:.1f}x over "
            f"the row join (floor {JOIN_TOPK_SPEEDUP_FLOOR}x); "
            f"block={block * 1e3:.2f} ms rows={rows * 1e3:.2f} ms"
        )


class TestMigrationBenchmarks:
    """Checkpoint/restore state-transfer cost (the fragment-migration and
    periodic-checkpoint hot path introduced with the repro.state layer)."""

    def test_migration_roundtrip(self, benchmark):
        seconds = benchmark.pedantic(time_migration, rounds=1, iterations=1)
        benchmark.extra_info["tuples"] = MIGRATION_WINDOW_TUPLES
        assert seconds > 0

    @skip_perf_asserts
    def test_migration_roundtrip_within_budget(self):
        build = best_of(3, time_migration, phase="build")
        roundtrip = best_of(3, time_migration, phase="roundtrip")
        ratio = roundtrip / build
        assert ratio <= MIGRATION_ROUNDTRIP_CEILING, (
            f"checkpoint+restore of a {MIGRATION_WINDOW_TUPLES}-tuple window "
            f"regressed: {ratio:.2f}x the columnar build cost (budget "
            f"{MIGRATION_ROUNDTRIP_CEILING}x); build={build * 1e3:.1f} ms "
            f"roundtrip={roundtrip * 1e3:.1f} ms"
        )


class TestEndToEndBenchmarks:
    """End-to-end simulation macro-benchmark (aggregate workload, 50 queries,
    overload factor 2) — the headline tick-loop comparison."""

    def test_end_to_end_columnar(self, benchmark):
        seconds = benchmark.pedantic(time_end_to_end, rounds=1, iterations=1)
        benchmark.extra_info["scenario"] = "aggregate x50, overload 2"
        assert seconds > 0

    @skip_perf_asserts
    def test_end_to_end_speedup_vs_reference(self):
        fast = best_of(2, time_end_to_end)
        reference = best_of(2, time_end_to_end, use_reference=True)
        speedup = reference / fast
        assert speedup >= END_TO_END_SPEEDUP_FLOOR, (
            f"end-to-end tick loop regressed: columnar only {speedup:.2f}x "
            f"over the per-tuple pipeline (floor {END_TO_END_SPEEDUP_FLOOR}x); "
            f"fast={fast * 1e3:.0f} ms reference={reference * 1e3:.0f} ms"
        )

    def test_end_to_end_columnar_result_identical(self):
        """Same seeds -> the columnar run reproduces the per-tuple run's
        per-query SIC values exactly (scaled-down scenario)."""
        _, columnar = run_end_to_end(
            num_queries=10, rate=200.0, duration_seconds=3.0, columnar=True
        )
        _, reference = run_end_to_end(
            num_queries=10, rate=200.0, duration_seconds=3.0, columnar=False
        )
        assert columnar.per_query_sic == reference.per_query_sic
        assert columnar.result_values == reference.result_values


class TestRuntimeBenchmarks:
    """Discrete-event runtime vs the lockstep tick loop (identical scenario,
    identical results — the timing difference is pure scheduling overhead)."""

    def test_event_runtime(self, benchmark):
        seconds = benchmark.pedantic(time_runtime, rounds=1, iterations=1)
        benchmark.extra_info["scenario"] = "aggregate x50, overload 2, event loop"
        assert seconds > 0

    @skip_perf_asserts
    def test_event_runtime_overhead_within_budget(self):
        overhead, lockstep, event = paired_overhead(
            MACRO_GATE_REPEATS,
            lambda: time_runtime(use_lockstep=True),
            time_runtime,
        )
        assert overhead <= RUNTIME_OVERHEAD_CEILING, (
            f"event runtime overhead {overhead * 100:.1f}% exceeds the "
            f"{RUNTIME_OVERHEAD_CEILING * 100:.0f}% budget vs lockstep; "
            f"event={event * 1e3:.0f} ms lockstep={lockstep * 1e3:.0f} ms"
        )

    def test_event_runtime_result_identical(self):
        """Same seeds -> the event-driven run reproduces the lockstep run
        exactly (scaled-down scenario)."""
        _, event = run_end_to_end(
            num_queries=10, rate=200.0, duration_seconds=3.0, runtime="event"
        )
        _, lockstep = run_end_to_end(
            num_queries=10, rate=200.0, duration_seconds=3.0, runtime="lockstep"
        )
        assert event.per_query_sic == lockstep.per_query_sic
        assert event.result_values == lockstep.result_values


class TestReliabilityBenchmarks:
    """Reliable delivery vs the best-effort transport (identical loss-free
    scenario, identical results — the timing difference is pure transport
    bookkeeping: sequence numbers, acks, retransmission timers)."""

    def test_reliable_end_to_end(self, benchmark):
        seconds = benchmark.pedantic(time_reliability, rounds=1, iterations=1)
        benchmark.extra_info["scenario"] = "aggregate x50, overload 2, reliable"
        assert seconds > 0

    @skip_perf_asserts
    def test_reliability_overhead_within_budget(self):
        overhead, off, on = paired_overhead(
            MACRO_GATE_REPEATS,
            lambda: time_reliability(reliable=False),
            lambda: time_reliability(reliable=True),
        )
        assert overhead <= RELIABILITY_OVERHEAD_CEILING, (
            f"reliable delivery overhead {overhead * 100:.1f}% exceeds the "
            f"{RELIABILITY_OVERHEAD_CEILING * 100:.0f}% budget on a loss-free "
            f"network; on={on * 1e3:.0f} ms off={off * 1e3:.0f} ms"
        )

    def test_reliable_result_identical(self):
        """Same seeds -> the reliable run reproduces the best-effort run
        exactly on a loss-free network (scaled-down scenario)."""
        _, reliable = run_end_to_end(
            num_queries=10, rate=200.0, duration_seconds=3.0,
            reliable_delivery=True,
        )
        _, best_effort = run_end_to_end(
            num_queries=10, rate=200.0, duration_seconds=3.0,
            reliable_delivery=False,
        )
        assert reliable.per_query_sic == best_effort.per_query_sic
        assert reliable.result_values == best_effort.result_values


class TestShardedBenchmarks:
    """Per-site shards vs the single-heap event driver on the multi-site WAN
    federation macro-scenario (bit-exact identical results — asserted by the
    differential suite in tests/integration/test_sharded_runtime.py and
    re-checked on fingerprints here — so the timing difference is the
    execution driver alone)."""

    def test_sharded_inline(self, benchmark):
        seconds = benchmark.pedantic(
            lambda: time_sharded("inline")[0], rounds=1, iterations=1
        )
        benchmark.extra_info["scenario"] = (
            f"federation x{SHARDED_NODES} sites, WAN 50 ms, "
            f"{SHARDED_WORKERS} inline shards"
        )
        assert seconds > 0

    @skip_perf_asserts
    def test_inline_merge_overhead_within_budget(self):
        # Paired like the other macro gates: the complex workload this
        # scenario runs got ~4x faster when Union and the join went columnar
        # (event ~250 -> ~60 ms), so the unchanged ~18 ms of per-site
        # scheduler + merge bookkeeping reads ~25-29%, and a best-of-3 timed
        # one side after the other tripped the ceiling on machine noise;
        # ceiling unchanged.
        overhead, event, inline = paired_overhead(
            MACRO_GATE_REPEATS,
            lambda: time_sharded("event")[0],
            lambda: time_sharded("inline")[0],
        )
        assert overhead <= SHARDED_INLINE_OVERHEAD_CEILING, (
            f"inline shard overhead {overhead * 100:.1f}% exceeds the "
            f"{SHARDED_INLINE_OVERHEAD_CEILING * 100:.0f}% budget vs the "
            f"single-heap driver; event={event * 1e3:.0f} ms "
            f"inline={inline * 1e3:.0f} ms"
        )

    def test_sharded_result_identical(self):
        """Same seeds -> both drivers compute the same run (scaled-down
        scenario; the fingerprint is per-query SIC + message accounting)."""
        kwargs = dict(
            num_nodes=4, num_queries=6, rate=40.0, duration_seconds=2.0
        )
        _, event = time_sharded("event", **kwargs)
        _, inline = time_sharded("inline", **kwargs)
        assert inline == event
