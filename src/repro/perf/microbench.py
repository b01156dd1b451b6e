"""Micro-benchmark kernels for the shedding fast path.

Each kernel times one hot path in isolation, and where a pre-optimisation
reference implementation exists (:mod:`repro.core._reference`) it is timed on
the identical workload so the recorded speedup is machine-independent.  The
kernels are shared by ``benchmarks/test_bench_micro.py`` (pytest-benchmark
suite) and ``scripts/bench_report.py`` (writes ``BENCH_shedding.json``).

Workload shapes mirror the paper's scalability experiments: the selection
benchmark sweeps the query count like fig13, and the estimator ingest uses
the fig12 arrival pattern (~200-tuple batches, i.e. 800 tuples/s sources
observed every 0.25 s shedding interval).
"""

from __future__ import annotations

import gc
import random
from typing import Dict, List, Mapping, Optional, Tuple as PyTuple

from ..core._reference import (
    ReferenceBalanceSicPolicy,
    ReferenceSicAssigner,
    ReferenceSourceRateEstimator,
)
from ..core.balance_sic import BalanceSicPolicy, ShedDecision
from ..core.columns import ColumnBlock, use_backend
from ..core.shedding import BalanceSicShedder
from ..core.sic import SicAssigner, SourceRateEstimator
from ..core.tuples import Batch, Tuple
from ..federation.node import FspsNode
from .stopwatch import PerfRegistry, Stopwatch, default_registry

__all__ = [
    "build_selection_workload",
    "time_selection",
    "build_overload_selection_workload",
    "time_overload_selection",
    "build_tied_selection_workload",
    "time_tied_selection",
    "time_estimator_ingest",
    "time_node_ticks",
    "time_generation_sic",
    "time_source_lane",
    "time_window_insert",
    "time_window_insert_v2",
    "time_aggregate_v2",
    "time_join_topk",
    "time_end_to_end_v2",
    "time_migration",
    "run_end_to_end",
    "time_end_to_end",
    "time_runtime",
    "time_reliability",
    "run_sharded_scenario",
    "time_sharded",
    "run_microbench",
]

SELECTION_QUERY_COUNTS = (10, 100, 1000)
# Overloaded-selection kernel: one shedding round of the benchmark of record's
# `overload` workload — 12 queries with skewed source rates, one columnar
# batch per query holding a 250 ms interval's tuples, half of them kept.
OVERLOAD_SELECTION_RATES = (500.0, 1000.0, 2000.0, 4500.0)
OVERLOAD_SELECTION_QUERIES = 12
OVERLOAD_SELECTION_INTERVAL = 0.25
OVERLOAD_SELECTION_STW = 10.0
# Tie-heavy selection kernel: one shedding round of the benchmark of record's
# `many_queries` workload — 300 small queries in four rate classes, one
# columnar 250 ms batch each, the queries of a class reporting the same
# result SIC up to rounding error, half of the buffer kept.
TIED_SELECTION_RATES = (40.0, 80.0, 120.0, 80.0)
TIED_SELECTION_QUERIES = 300
TIED_SELECTION_JITTER = 1e-13
# Join -> top-k kernel: one window of a TOP-5 fragment — two 200-row panes on
# 2 machine ids (every left row matches 100 right rows: 20 000 joined rows)
# reduced to five.
JOIN_TOPK_ROWS = 200
JOIN_TOPK_KEYS = 2
JOIN_TOPK_K = 5
ESTIMATOR_ARRIVALS = 100_000
ESTIMATOR_CHUNK = 200  # 800 tuples/s observed every 0.25 s interval (fig12)

# End-to-end macro-benchmark scenario: the aggregate workload of Table 1 at
# the paper's local test-bed scale (50 queries) under overload factor 2.
END_TO_END_QUERIES = 50
END_TO_END_RATE = 400.0
END_TO_END_DURATION = 6.0
END_TO_END_WARMUP = 1.0
# Source-lane kernel: the `federation` workload's ingest unit — a gaussian
# CpuSource at 100 t/s emitting one 25-tuple block per 250 ms interval.
SOURCE_LANE_RATE = 100.0
SOURCE_LANE_BLOCKS = 2000
SOURCE_LANE_STAGES = ("per_sample", "generate", "assign", "network")
GENERATION_SOURCES = 8
GENERATION_TICKS = 100
GENERATION_RATE = 2000.0

# Sharded-federation macro-benchmark scenario: a multi-site WAN deployment
# (latency 50 ms, so the conservative lookahead windows carry real work)
# with twice as many sites as worker shards — each of the 4 shards owns two
# sites and the per-interval node work dominates the boundary merge.
SHARDED_NODES = 8
SHARDED_QUERIES = 12
SHARDED_WORKERS = 4
SHARDED_RATE = 60.0
SHARDED_DURATION = 4.0
SHARDED_WARMUP = 0.5
SHARDED_LATENCY = 0.05


def build_selection_workload(
    num_queries: int,
    batches_per_query: int = 4,
    tuples_per_batch: int = 25,
    seed: int = 0,
) -> PyTuple[List[Batch], Dict[str, float], int]:
    """Build an overloaded input buffer: batches, reported SIC, capacity.

    Capacity is a quarter of the buffered tuples so the selection loop runs
    its full gradient-ascent convergence, the worst case for the old
    O(iterations × queries) implementation.
    """
    rng = random.Random(seed)
    batches: List[Batch] = []
    reported: Dict[str, float] = {}
    for q in range(num_queries):
        query_id = f"q{q}"
        reported[query_id] = rng.random()
        for b in range(batches_per_query):
            sic = rng.uniform(1e-4, 1e-2)
            tuples = [
                Tuple(timestamp=b + i * 1e-3, sic=sic, values={})
                for i in range(tuples_per_batch)
            ]
            batches.append(Batch(query_id, tuples))
    capacity = (batches_per_query * tuples_per_batch * num_queries) // 4
    return batches, reported, capacity


def _timed_select(
    workload: PyTuple[List[Batch], Dict[str, float], int],
    use_reference: bool,
    seed: int,
    registry: Optional[PerfRegistry],
    lap: str,
) -> PyTuple[float, ShedDecision]:
    """Time one selection round that keeps exactly ``capacity`` tuples."""
    batches, reported, capacity = workload
    cls = ReferenceBalanceSicPolicy if use_reference else BalanceSicPolicy
    policy = cls(rng=random.Random(seed))
    with Stopwatch() as sw:
        decision = policy.select(batches, capacity, reported)
    assert decision.kept_tuples == capacity
    if registry is not None:
        registry.record(lap, sw.elapsed_seconds)
    return sw.elapsed_seconds, decision


def time_selection(
    num_queries: int,
    use_reference: bool = False,
    seed: int = 0,
    registry: Optional[PerfRegistry] = None,
) -> float:
    """Seconds for one BALANCE-SIC selection round over a fresh workload."""
    name = "selection.reference" if use_reference else "selection.fast"
    seconds, _ = _timed_select(
        build_selection_workload(num_queries, seed=seed),
        use_reference,
        seed,
        registry,
        f"{name}.q{num_queries}",
    )
    return seconds


def _interval_batch(
    query_id: str, source_id: str, rate: float, rng: random.Random
) -> Batch:
    """One columnar batch: a shedding interval of a ``rate`` t/s source."""
    count = int(rate * OVERLOAD_SELECTION_INTERVAL)
    block = ColumnBlock(
        [i / rate for i in range(count)],
        [1.0 / (rate * OVERLOAD_SELECTION_STW)] * count,
        {"v": [rng.random() for _ in range(count)]},
        source_id=source_id,
    )
    return Batch.from_block(query_id, block)


def build_overload_selection_workload(
    seed: int = 0,
) -> PyTuple[List[Batch], Dict[str, float], int]:
    """One steady-state round of permanent overload: batches, SIC, capacity.

    Every query reports nearly the same result SIC (what BALANCE-SIC
    converges to) and a tuple's SIC is ``1 / (rate × STW)``, so the
    water-filling advances a few tuples at a time through every batch — the
    regime in which the selection's output granularity matters.
    """
    rng = random.Random(seed)
    batches: List[Batch] = []
    reported: Dict[str, float] = {}
    for q in range(OVERLOAD_SELECTION_QUERIES):
        query_id = f"q{q:02d}"
        rate = OVERLOAD_SELECTION_RATES[q % len(OVERLOAD_SELECTION_RATES)]
        reported[query_id] = 0.5 + rng.uniform(-0.005, 0.005)
        batches.append(_interval_batch(query_id, f"s{q:02d}", rate, rng))
    capacity = sum(len(b) for b in batches) // 2
    return batches, reported, capacity


def time_overload_selection(
    use_reference: bool = False,
    seed: int = 0,
    registry: Optional[PerfRegistry] = None,
) -> PyTuple[float, int]:
    """``(seconds, kept entries)`` for one overloaded selection round.

    The kept-entry count is the selection's output granularity: everything
    downstream of the shedder (delivery, window insert, the node-local SIC
    tracker) runs once per kept entry.
    """
    name = "reference" if use_reference else "fast"
    seconds, decision = _timed_select(
        build_overload_selection_workload(seed),
        use_reference,
        seed,
        registry,
        f"selection.overload.{name}",
    )
    return seconds, len(decision.kept)


def build_tied_selection_workload(
    seed: int = 0,
) -> PyTuple[List[Batch], Dict[str, float], int]:
    """One round of overload over many small, tied queries.

    The queries of a rate class carry identical batches and report result
    SICs within ``TIED_SELECTION_JITTER`` of each other — inside the
    selection's ``epsilon``, not equal — so they move through the
    water-filling in lockstep and nearly every step has to break a tie
    between dozens of them.
    """
    rng = random.Random(seed)
    levels = [0.5 + rng.uniform(-0.005, 0.005) for _ in TIED_SELECTION_RATES]
    batches: List[Batch] = []
    reported: Dict[str, float] = {}
    for q in range(TIED_SELECTION_QUERIES):
        query_id = f"q{q:03d}"
        rate_class = q % len(TIED_SELECTION_RATES)
        reported[query_id] = levels[rate_class] + rng.uniform(
            -TIED_SELECTION_JITTER, TIED_SELECTION_JITTER
        )
        batches.append(
            _interval_batch(
                query_id, f"s{q:03d}", TIED_SELECTION_RATES[rate_class], rng
            )
        )
    capacity = sum(len(b) for b in batches) // 2
    return batches, reported, capacity


def time_tied_selection(
    use_reference: bool = False,
    seed: int = 0,
    registry: Optional[PerfRegistry] = None,
) -> PyTuple[float, int]:
    """``(seconds, water-filling steps)`` for one tie-heavy selection round.

    The step count is the same on both sides (the fast path replays the
    reference's steps exactly), so the ratio of the two times is the cost of
    a step.
    """
    name = "reference" if use_reference else "fast"
    seconds, decision = _timed_select(
        build_tied_selection_workload(seed),
        use_reference,
        seed,
        registry,
        f"selection.tied.{name}",
    )
    return seconds, decision.iterations


def time_estimator_ingest(
    arrivals: int = ESTIMATOR_ARRIVALS,
    chunk: int = ESTIMATOR_CHUNK,
    use_reference: bool = False,
    registry: Optional[PerfRegistry] = None,
) -> float:
    """Seconds to ingest ``arrivals`` arrivals in ``chunk``-sized batches."""
    cls = ReferenceSourceRateEstimator if use_reference else SourceRateEstimator
    estimator = cls(stw_seconds=1.0)
    calls = arrivals // chunk
    with Stopwatch() as sw:
        for i in range(calls):
            estimator.observe("s", i * 0.25, count=chunk)
    if registry is not None:
        name = "estimator.reference" if use_reference else "estimator.fast"
        registry.record(name, sw.elapsed_seconds)
    return sw.elapsed_seconds


def time_node_ticks(
    ticks: int = 50,
    batches_per_tick: int = 200,
    tuples_per_batch: int = 20,
    capacity_fraction: float = 0.5,
    registry: Optional[PerfRegistry] = None,
) -> float:
    """Seconds to run ``ticks`` overloaded enqueue/shed rounds on one node.

    The node hosts no fragments, so the measurement isolates the input-buffer
    bookkeeping, overload detection and BALANCE-SIC shedding — the paths this
    PR made incremental.
    """
    per_tick_tuples = batches_per_tick * tuples_per_batch
    budget = per_tick_tuples * capacity_fraction
    node = FspsNode(
        node_id="bench-node",
        shedder=BalanceSicShedder(seed=0),
        budget_per_interval=budget,
    )
    rng = random.Random(0)
    with Stopwatch() as sw:
        for tick in range(ticks):
            now = (tick + 1) * 0.25
            for b in range(batches_per_tick):
                query_id = f"q{b % 20}"
                sic = rng.uniform(1e-4, 1e-2)
                tuples = [
                    Tuple(timestamp=now + i * 1e-4, sic=sic, values={})
                    for i in range(tuples_per_batch)
                ]
                node.enqueue(Batch(query_id, tuples))
            node.tick(now)
    assert node.stats.shed_tuples > 0  # the workload must actually overload
    if registry is not None:
        registry.record("node.tick", sw.elapsed_seconds)
    return sw.elapsed_seconds


def time_generation_sic(
    sources: int = GENERATION_SOURCES,
    ticks: int = GENERATION_TICKS,
    rate: float = GENERATION_RATE,
    dataset: str = "uniform",
    use_reference: bool = False,
    registry: Optional[PerfRegistry] = None,
) -> float:
    """Seconds to generate, SIC-stamp and batch the per-tick source output.

    Fast path: ``generate_block`` → ``assign_block`` → ``Batch.from_block``
    (columns only, no Tuple objects).  Reference: the seed per-tuple pipeline
    — ``generate`` (one Tuple + payload dict per item) →
    :class:`ReferenceSicAssigner` (per-tuple ``observe``/stamp) → ``Batch``.
    Both draw identical seeded value streams, so the comparison is pure
    representation overhead.
    """
    # Imported here so the core microbench kernels stay importable without
    # the workloads package.
    from ..workloads.sources import ValueSource

    interval = 0.25
    value_sources = [
        ValueSource(f"s{i}", rate=rate, dataset=dataset, seed=i)
        for i in range(sources)
    ]
    rates = {f"s{i}": rate for i in range(sources)}
    if use_reference:
        assigner = ReferenceSicAssigner(
            "bench-q", sources, stw_seconds=10.0, nominal_rates=rates
        )
    else:
        assigner = SicAssigner(
            "bench-q", sources, stw_seconds=10.0, nominal_rates=rates
        )
    emitted = 0
    with Stopwatch() as sw:
        for tick in range(ticks):
            start = tick * interval
            end = start + interval
            if use_reference:
                for source in value_sources:
                    tuples = source.generate(start, end)
                    assigner.assign(tuples)
                    batch = Batch("bench-q", tuples, created_at=end)
                    emitted += len(batch)
            else:
                for source in value_sources:
                    block = source.generate_block(start, end)
                    assigner.assign_block(block)
                    batch = Batch.from_block("bench-q", block, created_at=end)
                    emitted += len(batch)
    assert emitted == sources * ticks * int(rate * interval)
    if registry is not None:
        name = "generation.reference" if use_reference else "generation.fast"
        registry.record(name, sw.elapsed_seconds)
    return sw.elapsed_seconds


def time_source_lane(
    stage: str = "generate",
    blocks: int = SOURCE_LANE_BLOCKS,
    registry: Optional[PerfRegistry] = None,
) -> float:
    """Microseconds per 25-tuple gaussian ``CpuSource`` block, by lane stage.

    Stages are cumulative: ``"generate"`` is ``generate_block_fused`` alone
    (block sampler, finished columns, unchecked constructor); ``"assign"``
    adds ``SicAssigner.assign_block``; ``"network"`` adds
    ``Batch.from_block``, ``Network.send`` over a reliable 50 ms link and the
    deliveries (payload, ack, retransmission timer) as they fall due.
    ``"per_sample"`` is the generation baseline: the same payload from a
    source that declares nothing — one ``sample()`` call per value through
    ``payload_builder`` and the validating block constructor.
    """
    from ..federation.network import (
        DataMessage,
        Network,
        ReliabilityConfig,
        UniformLatency,
    )
    from ..workloads.datasets import make_dataset
    from ..workloads.sources import CpuSource, StreamSource

    if stage not in SOURCE_LANE_STAGES:
        raise ValueError(f"stage must be one of {SOURCE_LANE_STAGES}, got {stage!r}")
    interval = 0.25
    if stage == "per_sample":
        distribution = make_dataset("gaussian", seed=1)
        source = StreamSource(
            "cpu0",
            rate=SOURCE_LANE_RATE,
            payload_builder=lambda: {"id": "m0", "value": distribution.sample()},
        )
    else:
        source = CpuSource(
            "cpu0", monitored_id="m0", rate=SOURCE_LANE_RATE, dataset="gaussian", seed=1
        )
    assigner = SicAssigner(
        "bench-q", 4, stw_seconds=10.0, nominal_rates={"cpu0": SOURCE_LANE_RATE}
    )
    network = Network(UniformLatency(0.05), reliability=ReliabilityConfig())
    with_assign = stage in ("assign", "network")
    with_network = stage == "network"
    emitted = 0
    with use_backend("numpy"), Stopwatch() as sw:
        for tick in range(blocks):
            start = tick * interval
            end = start + interval
            block = source.generate_block_fused(start, end)
            emitted += len(block)
            if not with_assign:
                continue
            assigner.assign_block(block)
            if not with_network:
                continue
            batch = Batch.from_block("bench-q", block, created_at=end, fragment_id="f")
            message = DataMessage(destination="n0", batch=batch, target_fragment_id="f")
            network.send(message, sent_at=end, source="cpu0")
            due = network.next_delivery_time()
            while due is not None and due <= end:
                network.deliver_due(due)
                due = network.next_delivery_time()
    assert emitted == blocks * int(SOURCE_LANE_RATE * interval)
    if with_network:
        assert network.stats.retransmits == {} and network.delivered_messages >= blocks - 1
    microseconds = sw.elapsed_seconds / blocks * 1e6
    if registry is not None:
        registry.record(f"source_lane.{stage}", sw.elapsed_seconds)
    return microseconds


def time_window_insert(
    blocks: int = 200,
    tuples_per_block: int = 250,
    window_seconds: float = 1.0,
    use_reference: bool = False,
    registry: Optional[PerfRegistry] = None,
) -> float:
    """Seconds to route a stream of batches into a tumbling window and close
    its panes.

    Fast path: ``insert_block`` run-bucketing over column groups (pane SIC
    maintained incrementally).  Reference: the seed per-tuple
    :class:`~repro.streaming._reference.ReferenceTimeWindow` fed materialized
    tuples.  Inputs are pre-built outside the timed region in each path's
    native representation.
    """
    from ..core.columns import ColumnBlock
    from ..streaming._reference import ReferenceTimeWindow
    from ..streaming.windows import TimeWindow

    interval = 0.25
    step = interval / tuples_per_block
    column_blocks = []
    for b in range(blocks):
        start = b * interval
        timestamps = [start + (i + 0.5) * step for i in range(tuples_per_block)]
        column_blocks.append(
            ColumnBlock(
                timestamps=timestamps,
                sics=[1e-4] * tuples_per_block,
                values={"v": [float(i) for i in range(tuples_per_block)]},
                source_id="s",
            )
        )
    horizon = blocks * interval + window_seconds + 1.0
    if use_reference:
        tuple_lists = [block.to_tuples() for block in column_blocks]
        window = ReferenceTimeWindow(window_seconds)
        with Stopwatch() as sw:
            for tuples in tuple_lists:
                window.insert(tuples)
            panes = window.advance(horizon)
            total = sum(pane.total_sic for pane in panes)
    else:
        window = TimeWindow(window_seconds)
        with Stopwatch() as sw:
            for block in column_blocks:
                window.insert_block(block)
            panes = window.advance(horizon)
            total = sum(pane.sic for pane in panes)
    assert total > 0
    if registry is not None:
        name = "window.reference" if use_reference else "window.fast"
        registry.record(name, sw.elapsed_seconds)
    return sw.elapsed_seconds


# Columnar v2 kernel shapes: paper-scale per-block row counts (a 2000 t/s
# fig12-style source observed over a 0.25 s shedding interval yields 500-row
# blocks; multi-source streams merge into blocks of a few thousand rows).
V2_WINDOW_BLOCKS = 100
V2_WINDOW_TUPLES_PER_BLOCK = 2000
V2_AGGREGATE_BLOCKS = 100
V2_AGGREGATE_TUPLES_PER_BLOCK = 2000
# v2 end-to-end macro: the aggregate workload at paper-scale source rates
# under mild overload (capacity_fraction 0.9 — the C2 permanent-overload
# characteristic without the deep-overload split churn of the legacy
# overload-2 scenario, whose runtime is dominated by the — shared, already
# heap-optimized — BALANCE-SIC selection rather than the columnar pipeline).
V2_END_TO_END_QUERIES = 12
V2_END_TO_END_RATE = 2000.0
V2_END_TO_END_CAPACITY = 0.9
V2_END_TO_END_DATASET = "uniform"


def _numpy_version() -> Optional[str]:
    try:
        import numpy
    except ImportError:  # pragma: no cover - stripped installs
        return None
    return numpy.__version__


def _build_v2_blocks(blocks: int, tuples_per_block: int, interval: float = 0.25):
    from ..core.columns import ColumnBlock

    step = interval / tuples_per_block
    built = []
    for b in range(blocks):
        start = b * interval
        timestamps = [start + (i + 0.5) * step for i in range(tuples_per_block)]
        built.append(
            ColumnBlock(
                timestamps=timestamps,
                sics=[1e-4] * tuples_per_block,
                values={"v": [float(i) for i in range(tuples_per_block)]},
                source_id="s",
            )
        )
    return built


def time_window_insert_v2(
    backend: str = "numpy",
    blocks: int = V2_WINDOW_BLOCKS,
    tuples_per_block: int = V2_WINDOW_TUPLES_PER_BLOCK,
    window_seconds: float = 1.0,
    registry: Optional[PerfRegistry] = None,
) -> float:
    """Seconds to bucket paper-scale blocks into a tumbling window and close
    its panes, under one columnar backend.

    Both backends run the *same* ``TimeWindow.insert_block`` fast path on the
    identical workload; only the column storage differs — ``"numpy"``
    (float64 arrays: change-point run scan, cumsum pane SIC, concatenate pane
    merge) versus ``"list"`` (the pre-v2 per-element loops).  The ratio is
    the columnar v2 speedup gated in ``benchmarks/test_bench_micro.py``.
    """
    from ..streaming.windows import TimeWindow

    interval = 0.25
    with use_backend(backend):
        column_blocks = _build_v2_blocks(blocks, tuples_per_block, interval)
        horizon = blocks * interval + window_seconds + 1.0
        window = TimeWindow(window_seconds)
        with Stopwatch() as sw:
            for block in column_blocks:
                window.insert_block(block)
            panes = window.advance(horizon)
            total = sum(pane.sic for pane in panes)
    assert total > 0
    if registry is not None:
        registry.record(f"window_v2.{backend}", sw.elapsed_seconds)
    return sw.elapsed_seconds


def time_aggregate_v2(
    backend: str = "numpy",
    blocks: int = V2_AGGREGATE_BLOCKS,
    tuples_per_block: int = V2_AGGREGATE_TUPLES_PER_BLOCK,
    window_seconds: float = 1.0,
    registry: Optional[PerfRegistry] = None,
) -> float:
    """Seconds to run paper-scale blocks through a windowed aggregate.

    Ingest (window bucketing) plus periodic ``advance_items`` rounds: pane
    merge, payload-column pull and the reduction itself.  On the numpy
    backend the qualifying values stay one float64 array and the mean reduces
    through cumsum's last element; on the list backend every row passes
    through the per-element extraction loop.  Identical results either way —
    the ratio is pure representation.
    """
    from ..streaming.operators.aggregate import Average

    interval = 0.25
    with use_backend(backend):
        column_blocks = _build_v2_blocks(blocks, tuples_per_block, interval)
        operator = Average("v", window_seconds=window_seconds)
        outputs = 0
        with Stopwatch() as sw:
            for b, block in enumerate(column_blocks):
                operator.ingest_block(block)
                outputs += len(operator.advance_items((b + 1) * interval))
            outputs += len(
                operator.advance_items(blocks * interval + window_seconds + 1.0)
            )
    assert outputs > 0
    if registry is not None:
        registry.record(f"aggregate_v2.{backend}", sw.elapsed_seconds)
    return sw.elapsed_seconds


def time_join_topk(
    row_join: bool = False,
    seed: int = 0,
    registry: Optional[PerfRegistry] = None,
) -> PyTuple[float, int, int]:
    """``(seconds, items the join emitted, rows materialized)`` for one
    window of the TOP-5 plan: equi-join of two panes, then the top five.

    The fast side ingests the panes as column blocks: the join emits one
    joined block, which the ``TopK`` window buckets, checkpoints and ranks as
    columns.  ``row_join=True`` feeds the same rows as materialized tuples
    (outside the timer), so the join builds one ``Tuple`` and payload dict
    per matched pair and the top-k window inserts them one by one — the path
    every multi-fragment query took before ``Union`` and the join emitted
    blocks.  Identical ranked output either way.
    """
    from ..streaming.operators.join import WindowEquiJoin
    from ..streaming.operators.topk import TopK

    rng = random.Random(seed)
    ids = [f"machine-{i % JOIN_TOPK_KEYS}" for i in range(JOIN_TOPK_ROWS)]
    timestamps = [(i + 0.5) / JOIN_TOPK_ROWS for i in range(JOIN_TOPK_ROWS)]
    panes = [
        ColumnBlock(
            timestamps,
            [1e-4] * JOIN_TOPK_ROWS,
            {"id": ids, field: [rng.uniform(0.0, 100.0) for _ in ids]},
        )
        for field in ("value", "free")
    ]
    join = WindowEquiJoin(left_key="id", right_key="id", window_seconds=1.0)
    topk = TopK(JOIN_TOPK_K, value_field="value", id_field="id", window_seconds=1.0)
    inputs = [pane.to_tuples() for pane in panes] if row_join else panes
    counters = default_registry().counters
    materialized = counters.get("columns.materialized_rows", 0.0)
    with Stopwatch() as sw:
        for port, pane in enumerate(inputs):
            if row_join:
                join.ingest(pane, port=port)
            else:
                join.ingest_block(pane, port=port)
        joined = join.advance_items(1.5)
        if row_join:
            topk.ingest(joined)
        else:
            for block in joined:
                topk.ingest_block(block)
        ranked = topk.advance(3.0)
    materialized = counters.get("columns.materialized_rows", 0.0) - materialized
    assert len(ranked) == JOIN_TOPK_KEYS and topk.ingested_tuples == 20_000
    if registry is not None:
        name = "rows" if row_join else "block"
        registry.record(f"join_topk.{name}", sw.elapsed_seconds)
    return sw.elapsed_seconds, len(joined), int(materialized)


def time_end_to_end_v2(
    backend: str = "numpy",
    registry: Optional[PerfRegistry] = None,
    **kwargs,
) -> float:
    """Seconds for one v2 end-to-end macro run under one columnar backend.

    Same full stack as :func:`time_end_to_end` (sources → SIC → node →
    shedder → windows → operators → coordinator, event runtime), at
    paper-scale source rates under mild overload; see the V2_END_TO_END_*
    constants.  Results are bit-identical across backends, so the ratio
    isolates the execution path the backend selects end to end: the numpy
    side includes fused fragment execution, the list side always runs staged.
    """
    params = dict(
        num_queries=V2_END_TO_END_QUERIES,
        rate=V2_END_TO_END_RATE,
        capacity_fraction=V2_END_TO_END_CAPACITY,
        dataset=V2_END_TO_END_DATASET,
    )
    params.update(kwargs)
    with use_backend(backend):
        seconds, result = run_end_to_end(**params)
    # Mild but real overload: the shedder must actually participate.
    assert any(s.shed_tuples > 0 for s in result.node_summaries)
    if registry is not None:
        registry.record(f"end_to_end_v2.{backend}", seconds)
    return seconds


MIGRATION_WINDOW_TUPLES = 100_000


def time_migration(
    tuples: int = MIGRATION_WINDOW_TUPLES,
    phase: str = "roundtrip",
    registry: Optional[PerfRegistry] = None,
) -> float:
    """Checkpoint + restore cost of a window holding ``tuples`` tuples.

    This is the state volume a fragment migration or a periodic checkpoint
    round moves for one heavily-buffered operator (10⁵ tuples ≈ a 1-second
    pane at the fig12 aggregate source rates).  ``phase`` selects what is
    timed on the identical workload:

    * ``"build"`` — filling the window via columnar ``insert_block`` (the
      pipeline's own cost of creating that state; the machine-independent
      denominator for the recorded ratio);
    * ``"roundtrip"`` — ``snapshot()`` into the serialised checkpoint form
      plus ``restore()`` into a fresh window, i.e. the full
      state-transfer cost of :meth:`FspsNode.checkpoint_fragment` →
      ``adopt_fragment`` for that window.

    The round-trip is verified to conserve the tuple count and the
    incrementally-maintained pane SIC bit for bit.
    """
    from ..core.columns import ColumnBlock
    from ..streaming.windows import TimeWindow

    if phase not in ("build", "roundtrip"):
        raise ValueError(f"unknown phase {phase!r}")
    interval = 0.25
    tuples_per_block = 250
    blocks = tuples // tuples_per_block
    step = interval / tuples_per_block
    column_blocks = []
    for b in range(blocks):
        start = b * interval
        timestamps = [start + (i + 0.5) * step for i in range(tuples_per_block)]
        column_blocks.append(
            ColumnBlock(
                timestamps=timestamps,
                sics=[1e-5] * tuples_per_block,
                values={"v": [float(i) for i in range(tuples_per_block)]},
                source_id="s",
            )
        )
    # One window spanning the whole stream: everything stays buffered, so
    # the checkpoint carries all `tuples` tuples.
    window_seconds = blocks * interval + 1.0
    window = TimeWindow(window_seconds)
    if phase == "build":
        with Stopwatch() as sw:
            for block in column_blocks:
                window.insert_block(block)
        assert window.pending_count() == tuples
        if registry is not None:
            registry.record("migration.build", sw.elapsed_seconds)
        return sw.elapsed_seconds
    for block in column_blocks:
        window.insert_block(block)
    before_sic = window.pending_sic()
    with Stopwatch() as sw:
        state = window.snapshot()
        restored = TimeWindow(window_seconds)
        restored.restore(state)
    assert restored.pending_count() == tuples
    assert restored.pending_sic() == before_sic
    if registry is not None:
        registry.record("migration.roundtrip", sw.elapsed_seconds)
    return sw.elapsed_seconds


def run_end_to_end(
    num_queries: int = END_TO_END_QUERIES,
    rate: float = END_TO_END_RATE,
    duration_seconds: float = END_TO_END_DURATION,
    warmup_seconds: float = END_TO_END_WARMUP,
    columnar: bool = True,
    runtime: str = "event",
    capacity_fraction: float = 0.5,
    dataset: str = "gaussian",
    reliable_delivery: bool = False,
    seed: int = 0,
):
    """Run the end-to-end macro-benchmark scenario and return
    ``(seconds, RunResult)``.

    A single-node ``LocalEngine`` deployment of the aggregate workload
    (avg/max/count mix) under overload factor 2 (``capacity_fraction=0.5``).
    With equal seeds the columnar and per-tuple runs — and the event-driven
    and lockstep drivers — are result-identical (the differential tests
    assert it), so a timing difference isolates exactly one variable: the
    tick pipeline's representation (``columnar``) or the execution driver
    (``runtime``).  Result payloads are retained as in the recorded PR 2
    baseline so the timings stay comparable across reports.
    """
    from ..simulation.config import SimulationConfig
    from ..streaming.engine import LocalEngine
    from ..workloads.aggregate import make_aggregate_query

    config = SimulationConfig(
        duration_seconds=duration_seconds,
        warmup_seconds=warmup_seconds,
        capacity_fraction=capacity_fraction,
        columnar=columnar,
        runtime=runtime,
        reliable_delivery=reliable_delivery,
        retain_result_values=True,
        seed=seed,
    )
    engine = LocalEngine(config)
    kinds = ("avg", "max", "count")
    # Same query ids in both modes so run results are directly comparable
    # (the differential test asserts per-query SIC equality key by key).
    for i in range(num_queries):
        engine.add_query(
            make_aggregate_query(
                kinds[i % len(kinds)],
                query_id=f"bench-q{i}",
                rate=rate,
                dataset=dataset,
                seed=i,
            )
        )
    # Start from a collected heap.  Otherwise a full collection owed to
    # whatever ran before (earlier runs, other tests) lands inside whichever
    # timed run next crosses the collector's threshold — tens of ms on a
    # large process heap — and a two-sided overhead gate misreads it as
    # overhead of the side that paid it.  Collections caused by the run's own
    # allocations still count.
    gc.collect()
    with Stopwatch() as sw:
        result = engine.run()
    return sw.elapsed_seconds, result


def time_end_to_end(
    use_reference: bool = False,
    registry: Optional[PerfRegistry] = None,
    **kwargs,
) -> float:
    """Seconds for one end-to-end macro-benchmark run (see
    :func:`run_end_to_end`)."""
    seconds, result = run_end_to_end(columnar=not use_reference, **kwargs)
    # The scenario must actually overload the node, otherwise the shedding
    # pipeline under test is idle.
    assert any(s.shed_tuples > 0 for s in result.node_summaries)
    if registry is not None:
        name = "end_to_end.reference" if use_reference else "end_to_end.fast"
        registry.record(name, seconds)
    return seconds


def time_runtime(
    use_lockstep: bool = False,
    registry: Optional[PerfRegistry] = None,
    **kwargs,
) -> float:
    """Seconds for one end-to-end run under one execution driver.

    Same macro-benchmark scenario as :func:`time_end_to_end` (columnar on for
    both sides), varying only the driver: the discrete-event runtime versus
    the lockstep tick loop.  The drivers are result-identical for this seeded
    homogeneous scenario, so the ratio is pure scheduling overhead — the
    event loop is required to stay within 10% of lockstep end to end
    (asserted in ``benchmarks/test_bench_micro.py`` and recorded in
    ``BENCH_shedding.json``).
    """
    runtime = "lockstep" if use_lockstep else "event"
    seconds, result = run_end_to_end(runtime=runtime, **kwargs)
    assert any(s.shed_tuples > 0 for s in result.node_summaries)
    if registry is not None:
        name = "runtime.lockstep" if use_lockstep else "runtime.event"
        registry.record(name, seconds)
    return seconds


def time_reliability(
    reliable: bool = True,
    registry: Optional[PerfRegistry] = None,
    **kwargs,
) -> float:
    """Seconds for one end-to-end run with or without reliable delivery.

    Same macro-benchmark scenario as :func:`time_end_to_end`, varying only
    ``SimulationConfig.reliable_delivery``.  With zero faults the reliable
    channel changes nothing observable (the differential tests assert
    bit-exact result identity), so the ratio is the pure bookkeeping cost of
    sequence numbers, acks and retransmission timers on a loss-free network —
    required to stay within 10% (asserted in ``benchmarks/test_bench_micro.py``
    and recorded in the ``faults`` section of ``BENCH_shedding.json``).
    """
    seconds, result = run_end_to_end(reliable_delivery=reliable, **kwargs)
    assert any(s.shed_tuples > 0 for s in result.node_summaries)
    if registry is not None:
        name = "reliability.on" if reliable else "reliability.off"
        registry.record(name, seconds)
    return seconds


def run_sharded_scenario(
    runtime: str = "event",
    workers: int = SHARDED_WORKERS,
    num_nodes: int = SHARDED_NODES,
    num_queries: int = SHARDED_QUERIES,
    rate: float = SHARDED_RATE,
    duration_seconds: float = SHARDED_DURATION,
    latency_seconds: float = SHARDED_LATENCY,
    seed: int = 0,
):
    """Run the multi-site federation macro-scenario and return
    ``(seconds, RunResult)``.

    Unlike :func:`run_end_to_end` (a single-node ``LocalEngine``
    deployment, where sharding has nothing to partition) this builds a
    WAN federation of ``num_nodes`` sites sharing a complex workload, the
    deployment shape the sharded runtime exists for.  With equal seeds
    the single-heap event driver and the sharded driver are
    result-identical (the differential suite in
    ``tests/integration/test_sharded_runtime.py`` asserts it bit for
    bit), so a timing difference isolates exactly the execution driver.
    """
    from ..experiments.common import build_federation
    from ..simulation.config import SimulationConfig
    from ..simulation.simulator import Simulator
    from ..workloads.generators import WorkloadSpec, generate_complex_workload

    config = SimulationConfig(
        duration_seconds=duration_seconds,
        warmup_seconds=SHARDED_WARMUP,
        stw_seconds=4.0,
        capacity_fraction=0.5,
        network_latency_seconds=latency_seconds,
        runtime=runtime,
        workers=workers,
        seed=seed,
    )
    spec = WorkloadSpec(
        num_queries=num_queries,
        fragments_per_query=(1, 2),
        kinds=("avg-all", "top5", "cov"),
        source_rate=rate,
        seed=seed,
    )
    system = build_federation(
        generate_complex_workload(spec), num_nodes=num_nodes, config=config
    )
    gc.collect()  # as in run_end_to_end
    with Stopwatch() as sw:
        result = Simulator(system, config).run()
    return sw.elapsed_seconds, result


def time_sharded(
    mode: str = "event",
    workers: int = SHARDED_WORKERS,
    registry: Optional[PerfRegistry] = None,
    **kwargs,
):
    """Seconds for one federation macro-run under one execution driver.

    ``mode`` selects the driver: ``"event"`` (single heap) or ``"inline"``
    (per-site shards merged in-process).  Returns ``(seconds,
    fingerprint)`` where the fingerprint collects the run's observable
    outcome (per-query SIC and message accounting) so callers can assert
    the modes computed the same run before trusting a ratio between their
    timings.  The inline-vs-event ratio is machine-independent bookkeeping
    overhead.
    """
    if mode == "event":
        runtime = "event"
    elif mode == "inline":
        runtime = "sharded"
    else:
        raise ValueError(f"mode must be 'event' or 'inline', got {mode!r}")
    seconds, result = run_sharded_scenario(
        runtime=runtime, workers=workers, **kwargs
    )
    fingerprint = (
        result.per_query_sic,
        result.messages_sent,
        result.bytes_sent,
    )
    if registry is not None:
        registry.record(f"sharded.{mode}", seconds)
    return seconds, fingerprint


def run_microbench(
    selection_queries: Optional[Mapping[int, bool]] = None,
    registry: Optional[PerfRegistry] = None,
) -> Dict[str, object]:
    """Run the full micro-benchmark matrix and return a result dict.

    Args:
        selection_queries: query count → also time the reference
            implementation (the reference at Q=1000 takes seconds, so callers
            may restrict where it runs).  Defaults to reference at every Q.
        registry: optional registry collecting the raw laps.

    Returns a JSON-serialisable dict with per-kernel milliseconds and the
    fast-vs-reference speedups.
    """
    if selection_queries is None:
        selection_queries = {q: True for q in SELECTION_QUERY_COUNTS}
    results: Dict[str, object] = {"selection": {}, "estimator": {}, "node": {}}

    for num_queries, with_reference in selection_queries.items():
        # Sub-millisecond kernels (Q <= 100) are dominated by scheduler
        # noise in a single shot; report best-of-3 so the recorded speedup
        # ratios are stable enough to gate on (the Q=1000 reference run
        # takes seconds and is repeatable as a single measurement).
        repeats = 3 if num_queries <= 100 else 1
        entry: Dict[str, float] = {
            "fast_ms": min(
                time_selection(num_queries, registry=registry)
                for _ in range(repeats)
            )
            * 1e3
        }
        if with_reference:
            entry["reference_ms"] = (
                min(
                    time_selection(
                        num_queries, use_reference=True, registry=registry
                    )
                    for _ in range(repeats)
                )
                * 1e3
            )
            entry["speedup"] = entry["reference_ms"] / entry["fast_ms"]
        results["selection"][f"q{num_queries}"] = entry

    # One steady-state round of permanent overload (a ~5 ms kernel): best-of-3
    # on both sides.  ``kept_entries`` is the output granularity — at most
    # one per input batch on the fast path, one per water-filling step on
    # the reference.
    fast_runs = [time_overload_selection(registry=registry) for _ in range(3)]
    reference_runs = [
        time_overload_selection(use_reference=True, registry=registry)
        for _ in range(3)
    ]
    fast_ms = min(seconds for seconds, _ in fast_runs) * 1e3
    reference_ms = min(seconds for seconds, _ in reference_runs) * 1e3
    results["selection"]["overload"] = {
        "input_batches": OVERLOAD_SELECTION_QUERIES,
        "fast_ms": fast_ms,
        "kept_entries": fast_runs[0][1],
        "reference_ms": reference_ms,
        "reference_kept_entries": reference_runs[0][1],
        "speedup": reference_ms / fast_ms,
    }

    # One tie-heavy round (300 small queries in lockstep classes): best-of-3
    # on both sides; ``steps`` is the water-filling step count both share.
    fast_runs = [time_tied_selection(registry=registry) for _ in range(3)]
    reference_runs = [
        time_tied_selection(use_reference=True, registry=registry)
        for _ in range(3)
    ]
    fast_ms = min(seconds for seconds, _ in fast_runs) * 1e3
    reference_ms = min(seconds for seconds, _ in reference_runs) * 1e3
    results["selection"][f"tied_q{TIED_SELECTION_QUERIES}"] = {
        "input_batches": TIED_SELECTION_QUERIES,
        "steps": fast_runs[0][1],
        "fast_ms": fast_ms,
        "reference_ms": reference_ms,
        "speedup": reference_ms / fast_ms,
    }

    # Sub-millisecond kernel: best-of-3 on *both* sides like the small
    # selection runs, so the recorded ratio is signal rather than scheduler
    # noise (and not biased by repeating only one side).
    fast = (
        min(time_estimator_ingest(registry=registry) for _ in range(3)) * 1e3
    )
    reference = (
        min(
            time_estimator_ingest(use_reference=True, registry=registry)
            for _ in range(3)
        )
        * 1e3
    )
    results["estimator"] = {
        "arrivals": ESTIMATOR_ARRIVALS,
        "chunk": ESTIMATOR_CHUNK,
        "fast_ms": fast,
        "reference_ms": reference,
        "speedup": reference / fast,
    }

    node_seconds = time_node_ticks(registry=registry)
    results["node"] = {
        "ticks": 50,
        "total_ms": node_seconds * 1e3,
        "ticks_per_second": 50 / node_seconds if node_seconds else 0.0,
    }

    # The columnar ratios are gated by `bench_report.py --compare`, so —
    # like the small selection kernels above — each side is best-of-N to
    # keep the recorded ratios signal rather than scheduler noise (the
    # macro-run gets best-of-2: it is the slowest kernel and a ~1 s run
    # already amortizes most jitter).
    gen_fast = (
        min(time_generation_sic(registry=registry) for _ in range(3)) * 1e3
    )
    gen_reference = (
        min(
            time_generation_sic(use_reference=True, registry=registry)
            for _ in range(3)
        )
        * 1e3
    )
    results["generation"] = {
        "sources": GENERATION_SOURCES,
        "ticks": GENERATION_TICKS,
        "rate": GENERATION_RATE,
        "dataset": "uniform",
        "fast_ms": gen_fast,
        "reference_ms": gen_reference,
        "speedup": gen_reference / gen_fast,
    }

    # The federated ingest unit, stage by stage (µs per 25-tuple block,
    # best-of-3); the gated ratio is finished-block generation against the
    # per-`sample()` fallback every custom source still takes.
    lane = {
        stage: min(time_source_lane(stage, registry=registry) for _ in range(3))
        for stage in SOURCE_LANE_STAGES
    }
    results["source_lane"] = {
        "dataset": "gaussian",
        "tuples_per_block": int(SOURCE_LANE_RATE * 0.25),
        "blocks": SOURCE_LANE_BLOCKS,
        "per_sample_generate_us": lane["per_sample"],
        "generate_us": lane["generate"],
        "generate_assign_us": lane["assign"],
        "generate_assign_network_us": lane["network"],
        "speedup": lane["per_sample"] / lane["generate"],
    }

    win_fast = (
        min(time_window_insert(registry=registry) for _ in range(3)) * 1e3
    )
    win_reference = (
        min(
            time_window_insert(use_reference=True, registry=registry)
            for _ in range(3)
        )
        * 1e3
    )
    results["window"] = {
        "blocks": 200,
        "tuples_per_block": 250,
        "fast_ms": win_fast,
        "reference_ms": win_reference,
        "speedup": win_reference / win_fast,
    }

    e2e_fast = (
        min(time_end_to_end(registry=registry) for _ in range(2)) * 1e3
    )
    e2e_reference = (
        min(
            time_end_to_end(use_reference=True, registry=registry)
            for _ in range(2)
        )
        * 1e3
    )
    results["end_to_end"] = {
        "queries": END_TO_END_QUERIES,
        "rate": END_TO_END_RATE,
        "duration_seconds": END_TO_END_DURATION,
        "overload_factor": 2.0,
        "fast_ms": e2e_fast,
        "reference_ms": e2e_reference,
        "speedup": e2e_reference / e2e_fast,
    }

    # Columnar v2: the NumPy-backed kernels against the list-backed fast
    # path on identical workloads (both sides run the same code, only the
    # column storage differs; results are bit-identical).  Best-of-3 like
    # the other sub-millisecond kernels; the macro run gets best-of-2.
    win_v2_numpy = (
        min(time_window_insert_v2("numpy", registry=registry) for _ in range(3))
        * 1e3
    )
    win_v2_list = (
        min(time_window_insert_v2("list", registry=registry) for _ in range(3))
        * 1e3
    )
    agg_v2_numpy = (
        min(time_aggregate_v2("numpy", registry=registry) for _ in range(3))
        * 1e3
    )
    agg_v2_list = (
        min(time_aggregate_v2("list", registry=registry) for _ in range(3))
        * 1e3
    )
    e2e_v2_numpy = (
        min(time_end_to_end_v2("numpy", registry=registry) for _ in range(2))
        * 1e3
    )
    e2e_v2_list = (
        min(time_end_to_end_v2("list", registry=registry) for _ in range(2))
        * 1e3
    )
    results["columnar_v2"] = {
        "numpy_version": _numpy_version(),
        "window": {
            "blocks": V2_WINDOW_BLOCKS,
            "tuples_per_block": V2_WINDOW_TUPLES_PER_BLOCK,
            "numpy_ms": win_v2_numpy,
            "list_ms": win_v2_list,
            "speedup": win_v2_list / win_v2_numpy,
        },
        "aggregate": {
            "blocks": V2_AGGREGATE_BLOCKS,
            "tuples_per_block": V2_AGGREGATE_TUPLES_PER_BLOCK,
            "numpy_ms": agg_v2_numpy,
            "list_ms": agg_v2_list,
            "speedup": agg_v2_list / agg_v2_numpy,
        },
        "end_to_end": {
            "queries": V2_END_TO_END_QUERIES,
            "rate": V2_END_TO_END_RATE,
            "capacity_fraction": V2_END_TO_END_CAPACITY,
            "dataset": V2_END_TO_END_DATASET,
            "numpy_ms": e2e_v2_numpy,
            "list_ms": e2e_v2_list,
            "speedup": e2e_v2_list / e2e_v2_numpy,
        },
    }

    # One TOP-5 window, join -> top-k: the block-emitting join against the
    # row join on the identical panes (best-of-3; identical ranked output).
    block_runs = [time_join_topk(registry=registry) for _ in range(3)]
    row_runs = [time_join_topk(row_join=True, registry=registry) for _ in range(3)]
    block_ms = min(seconds for seconds, _, _ in block_runs) * 1e3
    rows_ms = min(seconds for seconds, _, _ in row_runs) * 1e3
    results["join_topk"] = {
        "rows_per_pane": JOIN_TOPK_ROWS,
        "keys": JOIN_TOPK_KEYS,
        "block_ms": block_ms,
        "join_items": block_runs[0][1],
        "materialized_rows": block_runs[0][2],
        "rows_ms": rows_ms,
        "row_join_items": row_runs[0][1],
        "speedup": rows_ms / block_ms,
    }

    # Checkpoint/restore of a heavily-buffered window (the state volume a
    # fragment migration moves).  The gated quantity is the roundtrip's cost
    # *relative to building the same state through the columnar pipeline* —
    # machine-independent, like every other recorded ratio.
    mig_build = (
        min(time_migration(phase="build", registry=registry) for _ in range(3))
        * 1e3
    )
    mig_roundtrip = (
        min(
            time_migration(phase="roundtrip", registry=registry)
            for _ in range(3)
        )
        * 1e3
    )
    results["migration"] = {
        "tuples": MIGRATION_WINDOW_TUPLES,
        "build_ms": mig_build,
        "roundtrip_ms": mig_roundtrip,
        "roundtrip_vs_build": mig_roundtrip / mig_build,
    }

    # Execution-driver overhead: the discrete-event runtime vs the lockstep
    # tick loop on the identical (columnar) scenario.  Best-of-2 like the
    # macro-run above; `overhead_pct` is the quantity the ≤10% acceptance
    # criterion gates.
    rt_event = min(time_runtime(registry=registry) for _ in range(2)) * 1e3
    rt_lockstep = (
        min(time_runtime(use_lockstep=True, registry=registry) for _ in range(2))
        * 1e3
    )
    results["runtime"] = {
        "queries": END_TO_END_QUERIES,
        "event_ms": rt_event,
        "lockstep_ms": rt_lockstep,
        "overhead_pct": (rt_event / rt_lockstep - 1.0) * 100.0,
    }

    # Reliable-delivery overhead on a loss-free network: same macro scenario,
    # varying only `reliable_delivery` (results are bit-identical, so the
    # ratio is pure transport bookkeeping).  Gated at ≤10% like the runtime.
    rel_off = min(time_reliability(False, registry=registry) for _ in range(2)) * 1e3
    rel_on = min(time_reliability(True, registry=registry) for _ in range(2)) * 1e3
    results["faults"] = {
        "reliability": {
            "queries": END_TO_END_QUERIES,
            "off_ms": rel_off,
            "on_ms": rel_on,
            "overhead_pct": (rel_on / rel_off - 1.0) * 100.0,
        },
    }

    # Sharded federation: the multi-site WAN macro-scenario under the
    # single-heap event driver and inline shards.  Fingerprints are compared
    # so the recorded ratio is between runs proven to compute the same
    # result.  Inline-vs-event overhead is machine-independent and gated by
    # `--compare`.
    sharded_ms: Dict[str, float] = {}
    fingerprints: Dict[str, object] = {}
    for mode in ("event", "inline"):
        laps = []
        for _ in range(2):
            seconds, fingerprints[mode] = time_sharded(mode, registry=registry)
            laps.append(seconds)
        sharded_ms[mode] = min(laps) * 1e3
    assert fingerprints["inline"] == fingerprints["event"]
    results["sharded"] = {
        "nodes": SHARDED_NODES,
        "queries": SHARDED_QUERIES,
        "workers": SHARDED_WORKERS,
        "event_ms": sharded_ms["event"],
        "inline_ms": sharded_ms["inline"],
        "inline_overhead_pct": (
            (sharded_ms["inline"] / sharded_ms["event"] - 1.0) * 100.0
        ),
    }
    return results
