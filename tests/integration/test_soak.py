"""Soak: exactly-once results and flat memory across repeated crash cycles.

The robustness acceptance bar for the exactly-once PR, as tests:

* ``TestSoakCycles`` drives the full soak scenario — 20 back-to-back
  fail/rejoin cycles with a coordinator failover every third — and asserts
  the composed guarantees: the result ledger closes after *every* cycle,
  coordinator watermarks only ever advance (outside a failover's deliberate
  rollback), the checkpoint/standby stores do not accumulate, tracked
  bounded memory stays flat and backpressure paces the sources without the
  bounded ingress queues ever overflowing.
* ``TestExactlyOnceRecovery`` isolates the two recovery shapes: a crash
  fully covered by a checkpoint is *bit-exact invisible* to query results,
  and a crash with a checkpoint gap closes the ledger exactly (the replay
  is deduplicated, the gap is accounted as lost-to-crash, nothing is
  unaccounted).
* ``TestLedgerProperties`` pins the dedup algebra of
  :class:`~repro.state.ledger.ResultLedger` under hypothesis-generated
  replay patterns: observing any emission stream twice delivers nothing
  new, and the lane identities hold at every prefix.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.shedding import make_shedder
from repro.core.stw import StwConfig
from repro.experiments.soak import (
    FAILOVER_EVERY,
    build_soak_federation,
    run_cycle,
)
from repro.experiments.testbeds import scaled_config
from repro.federation.fsps import FederatedSystem
from repro.federation.network import Network, ReliabilityConfig, UniformLatency
from repro.federation.node import FspsNode
from repro.perf.memwatch import MemoryWatch
from repro.runtime import EventRuntime
from repro.state.ledger import DEDUPLICATE, DELIVER, ResultLedger
from repro.workloads.aggregate import make_aggregate_query

SOAK_CYCLES = 20

INTERVAL = 0.25
STW = StwConfig(stw_seconds=4.0, slide_seconds=INTERVAL)


# --------------------------------------------------------------------- soak
@pytest.fixture(scope="module")
def soak_run():
    """One 20-cycle soak with per-cycle accounting + watermark snapshots."""
    base = scaled_config("small", seed=0)
    system, runtime, node_factory = build_soak_federation(base, rate=80.0, seed=0)
    memwatch = MemoryWatch()
    runtime.run(base.warmup_seconds)
    memwatch.sample(system, now=runtime.now, scheduler=runtime.scheduler)

    rows = []
    watermark_history = []  # per cycle: {query_id: {(fid, epoch): acked}}
    store_sizes = []
    for cycle in range(SOAK_CYCLES):
        rows.append(run_cycle(system, runtime, node_factory, cycle))
        memwatch.sample(system, now=runtime.now, scheduler=runtime.scheduler)
        watermark_history.append(
            {
                c.query_id: c.ledger.watermarks()
                for c in system.coordinators.all()
            }
        )
        store_sizes.append(
            (
                system.coordinators.checkpoint_store_size(),
                system.coordinators.standby_store_size(),
                system.epoch_tail_count(),
            )
        )
    system.drain_network()
    final = system.result_accounting_report()
    memwatch.sample(system, now=system.now, scheduler=runtime.scheduler)
    runtime.close()
    return {
        "system": system,
        "rows": rows,
        "watermarks": watermark_history,
        "store_sizes": store_sizes,
        "memwatch": memwatch,
        "final": final,
    }


class TestSoakCycles:
    def test_every_cycle_recovers_and_closes_the_ledger(self, soak_run):
        assert len(soak_run["rows"]) == SOAK_CYCLES
        for row in soak_run["rows"]:
            # The crashed node's fragments came back from checkpoints...
            assert row["restored_fragments"] > 0
            # ...and the tuple-level identity held at the cycle boundary,
            # mid-stream, with no drain.
            assert row["unaccounted_tuples"] == 0
            assert 0.0 <= row["jains_index"] <= 1.0

    def test_final_ledger_closes_and_replays_were_exercised(self, soak_run):
        final = soak_run["final"]
        assert final["unaccounted_tuples"] == 0
        assert final["lane_problems"] == []
        # The coprime crash/checkpoint cadences guarantee real checkpoint
        # gaps: the soak is only evidence of exactly-once if the dedup and
        # loss-accounting paths actually ran.
        assert final["deduped_tuples"] > 0
        assert final["lost_to_crash_tuples"] > 0

    def test_watermarks_monotonic_outside_failover_rollback(self, soak_run):
        history = soak_run["watermarks"]
        for cycle in range(1, SOAK_CYCLES):
            failed_query = soak_run["rows"][cycle]["failover"]
            for query_id, lanes in history[cycle - 1].items():
                if query_id == failed_query:
                    # Failover restores the standby's ledger snapshot: lanes
                    # legitimately roll back together with tracker state.
                    continue
                current = history[cycle].get(query_id, {})
                for lane_key, acked in lanes.items():
                    assert current.get(lane_key, 0) >= acked, (
                        f"cycle {cycle}: {query_id} lane {lane_key} watermark "
                        f"went backwards without a failover"
                    )

    def test_stores_do_not_accumulate(self, soak_run):
        system = soak_run["system"]
        fragments = sum(len(q.fragments) for q in system.queries.values())
        queries = len(system.queries)
        for checkpoints, standbys, tails in soak_run["store_sizes"]:
            # Rejoin consumes the restored envelopes and purges rejoined
            # nodes' stale ones, so the store tracks the live deployment
            # instead of accumulating one envelope per cycle.
            assert checkpoints <= fragments
            assert standbys <= queries
            assert tails <= fragments

    def test_tracked_memory_is_flat(self, soak_run):
        growth = soak_run["memwatch"].growth_fraction(
            skip_initial=2, window=2 * FAILOVER_EVERY
        )
        assert growth is not None
        assert abs(growth) <= 0.05, (
            f"bounded memory drifted {growth * 100:.1f}% over "
            f"{SOAK_CYCLES} fail/rejoin cycles"
        )

    def test_backpressure_paces_before_overflowing(self, soak_run):
        system = soak_run["system"]
        paced = system.total_paced_tuples()
        engagements = sum(
            n.stats.backpressure_engagements for n in system.nodes.values()
        )
        overflow = sum(
            n.stats.ingress_overflow_tuples for n in system.nodes.values()
        )
        assert paced > 0, "the bounded ingress never pushed back on sources"
        assert engagements > 0
        assert overflow == 0, (
            f"{overflow} tuples hit the hard ingress cap — pacing must "
            f"engage before the last line of defence"
        )


# --------------------------------------------------- targeted recovery shapes
def make_accounted_system(num_nodes=2, queries=2, budget=500.0, latency=0.005):
    """Under-capacity federation with reliable delivery.

    Below capacity the shedder RNG is never consulted, so a rejoined node
    (fresh shedder, same seed) behaves identically to its predecessor and
    checkpoint coverage is the *only* variable between a faulted run and
    its control — the precondition for the bit-exactness assertion.
    """
    system = FederatedSystem(
        stw_config=STW,
        shedding_interval=INTERVAL,
        network=Network(
            UniformLatency(latency), reliability=ReliabilityConfig()
        ),
        retain_results=True,
    )

    def node_factory(node_id):
        index = int(node_id.rsplit("-", 1)[1])
        return FspsNode(
            node_id=node_id,
            shedder=make_shedder("balance-sic", seed=index),
            budget_per_interval=budget,
            stw_config=STW,
        )

    for i in range(num_nodes):
        system.add_node(node_factory(f"node-{i}"))
    for i in range(queries):
        query = make_aggregate_query(
            ("avg", "count")[i % 2], query_id=f"q{i}", rate=80.0, seed=i
        )
        system.deploy_query(
            query.query_id,
            query.fragments,
            query.sources,
            {fid: f"node-{i % num_nodes}" for fid in query.fragments},
        )
    return system, node_factory


def query_results(system):
    out = {}
    for coordinator in system.coordinators.all():
        out[coordinator.query_id] = (
            coordinator.tracker.history,
            coordinator.result_tuples,
            list(coordinator.result_values),
        )
    return out


class TestExactlyOnceRecovery:
    def test_covered_crash_is_bit_exact_invisible(self):
        # Control: no faults.
        baseline, _ = make_accounted_system()
        runtime = EventRuntime(baseline)
        runtime.run(8.0)
        baseline.drain_network()
        runtime.close()

        # Faulted: checkpoint at 4 s, then crash + rejoin node-0 at the same
        # instant.  The checkpoint covers everything up to the crash (zero
        # gap), so restore must reproduce the control run exactly — same SIC
        # history, same result payloads, nothing deduplicated, nothing lost.
        faulted, node_factory = make_accounted_system()
        runtime = EventRuntime(faulted)
        runtime.run(4.0)
        runtime.checkpoint_now()
        runtime.fail_node("node-0")
        report = runtime.rejoin_node(node_factory("node-0"))
        assert report.restored_fragments
        assert not report.fragments_without_checkpoint
        assert report.lost_tuples == 0
        runtime.run(4.0)
        faulted.drain_network()
        runtime.close()

        assert query_results(faulted) == query_results(baseline)
        accounting = faulted.result_accounting_report()
        assert accounting["unaccounted_tuples"] == 0
        assert accounting["deduped_tuples"] == 0
        assert accounting["lost_to_crash_tuples"] == 0

    def test_checkpoint_gap_is_deduplicated_and_accounted(self):
        # The checkpoint at 4 s goes stale: the fragments keep emitting for
        # 1 s before the crash, so the restore rolls their output watermark
        # back below sequence numbers the coordinator already acknowledged.
        # The replayed batches must be deduplicated (or, if their inputs
        # died in the crashed buffer, accounted as lost) — and the identity
        # must close with nothing unaccounted either way.
        system, node_factory = make_accounted_system()
        runtime = EventRuntime(system)
        runtime.run(4.0)
        runtime.checkpoint_now()
        runtime.run(1.0)
        runtime.fail_node("node-0")
        runtime.run(0.5)
        report = runtime.rejoin_node(node_factory("node-0"))
        assert report.restored_fragments
        runtime.run(3.0)
        system.drain_network()
        runtime.close()

        accounting = system.result_accounting_report()
        assert accounting["deduped_tuples"] > 0, (
            "a stale checkpoint must make the restored fragments replay "
            "already-delivered output"
        )
        assert accounting["unaccounted_tuples"] == 0
        assert accounting["lane_problems"] == []


# ----------------------------------------------------------- ledger algebra
def replay_streams():
    """Emission streams with crash-replay shape: advances and rollbacks.

    Each element ``(rollback, advance)`` models one fragment incarnation:
    the emitter's seq counter rolls back by ``rollback`` (a checkpoint
    restore) and then emits ``advance`` more batches.  Seqs can also jump
    forward (emissions lost with a crash before arrival) via rollbacks of 0
    with gaps introduced by a lost prefix — covered by starting advances
    past the previous watermark.
    """
    return st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=8
    )


def materialize(segments):
    """Turn (rollback, advance) segments into the emitted seq stream."""
    seqs = []
    head = 0
    for rollback, advance in segments:
        head = max(0, head - rollback)
        for _ in range(advance):
            head += 1
            seqs.append(head)
    return seqs


class TestLedgerProperties:
    @given(replay_streams())
    @settings(max_examples=200, deadline=None)
    def test_lane_identities_hold_at_every_prefix(self, segments):
        seqs = materialize(segments)
        ledger = ResultLedger()
        delivered = deduped = 0
        for seq in seqs:
            verdict = ledger.observe("f", 0, seq, num_tuples=1)
            if verdict == DELIVER:
                delivered += 1
            else:
                assert verdict == DEDUPLICATE
                deduped += 1
            # The identities hold mid-stream, not just at the end.
            summary = ledger.summary()
            assert summary["delivered_batches"] == delivered
            assert summary["deduped_batches"] == deduped
            assert ledger.check_closure() == []
        if seqs:
            assert ledger.acked("f", 0) == max(seqs)
            # Every seq was delivered at most once; the watermark equals
            # delivered + crash-lost gaps.
            assert delivered <= len(set(seqs))
            assert max(seqs) == delivered + ledger.lost_batches

    @given(replay_streams())
    @settings(max_examples=200, deadline=None)
    def test_observing_a_stream_twice_delivers_nothing_new(self, segments):
        seqs = materialize(segments)
        once = ResultLedger()
        for seq in seqs:
            once.observe("f", 0, seq, num_tuples=2)

        twice = ResultLedger()
        for seq in seqs:
            twice.observe("f", 0, seq, num_tuples=2)
        for seq in seqs:
            assert twice.observe("f", 0, seq, num_tuples=2) == DEDUPLICATE
        assert twice.delivered_tuples == once.delivered_tuples
        assert twice.acked("f", 0) == once.acked("f", 0)
        assert twice.lost_batches == once.lost_batches
        assert twice.check_closure() == []

    @given(replay_streams())
    @settings(max_examples=50, deadline=None)
    def test_snapshot_restore_roundtrip(self, segments):
        ledger = ResultLedger()
        for seq in materialize(segments):
            ledger.observe("f", 0, seq, num_tuples=3)
        restored = ResultLedger()
        restored.restore_state(ledger.snapshot_state())
        assert restored.summary() == ledger.summary()
        assert restored.watermarks() == ledger.watermarks()
