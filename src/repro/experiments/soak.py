"""Soak scenario — exactly-once results and flat memory over repeated crashes.

The robustness PRs each prove one recovery path in isolation; the soak proves
they *compose* and do not wear out.  One federation with the full resilience
stack (reliable delivery, periodic checkpoints, bounded ingress with source
backpressure, exactly-once result accounting) runs an extended sequence of
fail/rejoin cycles:

* every cycle crash-fails one node (round-robin) mid-stream, lets the
  federation run degraded, then rejoins a fresh node instance from the
  coordinator-held checkpoints;
* every third cycle also crash-fails one query's coordinator and promotes
  its standby (round-robin over the queries);
* after each cycle the experiment closes the exactly-once result ledger
  (``unaccounted_tuples`` must be zero at *any instant*, no drain needed),
  records Jain's fairness over the live result SICs, and takes a
  :class:`~repro.perf.memwatch.MemoryWatch` sample.

The pass conditions the soak test (and the perf gate) check:

* the ledger identity ``arrived == recorded + deduped + dropped +
  lost_to_crash + retired`` closes after every cycle and after the final
  drain;
* tracked bounded memory is flat across cycles (±5% between the first
  post-warm-up sample and the last) — checkpoint stores, standby snapshots,
  ledger lanes, epoch tails, network buffers and fault timelines are all
  purged or bounded;
* backpressure pacing engages (``paced_tuples > 0``) while the bounded
  ingress queues never overflow (``ingress_overflow_tuples == 0``) — the
  degradation ladder is pace → shed, not grow → OOM.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.fairness import jains_index
from ..core.shedding import make_shedder
from ..federation.deployment import Placement
from ..federation.fsps import FederatedSystem
from ..federation.network import Network, ReliabilityConfig, UniformLatency
from ..federation.node import FspsNode
from ..perf.memwatch import MemoryWatch
from ..runtime import EventRuntime
from ..simulation.config import SimulationConfig
from ..workloads.aggregate import make_aggregate_query
from ..workloads.generators import compute_node_budgets
from ..workloads.spec import WorkloadQuery
from .common import ExperimentResult
from .testbeds import scaled_config

__all__ = ["run", "build_soak_federation", "run_cycle"]

NUM_NODES = 3
NUM_QUERIES = 4
KINDS = ("avg", "count", "max", "avg")

#: Fail/rejoin cycles per scale; the acceptance bar is >= 20 sustained.
CYCLES = {"small": 20, "medium": 40, "paper": 100}

#: Simulated seconds a crashed node stays down, and seconds of recovered
#: operation before the next cycle's crash.  The runtime quantizes both to
#: whole shedding intervals, so the cycle is 7 ticks (1.75s) — deliberately
#: coprime with the 2-tick checkpoint cadence, so crashes land at varying
#: offsets after the last checkpoint round and the rejoin replay actually
#: re-emits output (exercising the coordinator's dedup path) rather than
#: always restoring a zero-gap checkpoint.
DOWN_SECONDS = 0.5
RECOVER_SECONDS = 1.25

#: Bounded ingress per node, tuned against the soak workload so pacing
#: engages under the post-crash redistribution spikes while the hard cap is
#: never hit (overflow == 0): the ladder is pace -> shed, not drop at the
#: door.
MAX_INGRESS_TUPLES = 64

#: A coordinator failover rides along every FAILOVER_EVERY-th cycle.
FAILOVER_EVERY = 3


def _node_for(index: int) -> str:
    return f"node-{index % NUM_NODES}"


def _make_query(index: int, rate: float, seed: int) -> WorkloadQuery:
    return make_aggregate_query(
        KINDS[index % len(KINDS)],
        query_id=f"soak-q{index}",
        rate=rate,
        seed=seed + index,
    )


def build_soak_federation(
    base: SimulationConfig, rate: float, seed: int
) -> "tuple[FederatedSystem, EventRuntime, callable]":
    """Federation + runtime with the full resilience stack for the soak.

    Returns ``(system, runtime, node_factory)``; the factory builds the
    fresh node instances rejoined after each crash (same shedder seed per
    node id, so a rejoined node sheds exactly like its predecessor would
    have).
    """
    queries = [_make_query(i, rate, seed) for i in range(NUM_QUERIES)]
    placement = Placement(
        assignments={
            fragment_id: _node_for(i)
            for i, query in enumerate(queries)
            for fragment_id in query.fragments
        }
    )
    node_ids = [f"node-{i}" for i in range(NUM_NODES)]
    budgets = compute_node_budgets(
        queries,
        placement,
        shedding_interval=base.shedding_interval,
        capacity_fraction=base.capacity_fraction,
        node_ids=node_ids,
    )
    system = FederatedSystem(
        stw_config=base.stw_config(),
        shedding_interval=base.shedding_interval,
        network=Network(
            UniformLatency(base.network_latency_seconds),
            reliability=ReliabilityConfig(),
        ),
    )

    def node_factory(node_id: str) -> FspsNode:
        index = node_ids.index(node_id)
        return FspsNode(
            node_id=node_id,
            shedder=make_shedder(base.shedder, seed=seed + index),
            budget_per_interval=budgets[node_id],
            stw_config=base.stw_config(),
            max_ingress_tuples=MAX_INGRESS_TUPLES,
        )

    for node_id in node_ids:
        system.add_node(node_factory(node_id))
    for i, query in enumerate(queries):
        system.deploy_query(
            query.query_id,
            query.fragments,
            query.sources,
            {fragment_id: _node_for(i) for fragment_id in query.fragments},
            nominal_rates=query.nominal_rates(),
        )
    # 3 ticks: deliberately coprime with the 2-tick window-emission cadence,
    # so some checkpoints are taken *between* result emissions and a crash
    # then replays output past the checkpointed watermark (dedup coverage).
    runtime = EventRuntime(
        system, checkpoint_interval=3 * base.shedding_interval
    )
    return system, runtime, node_factory


def run_cycle(
    system: FederatedSystem,
    runtime: EventRuntime,
    node_factory,
    cycle: int,
) -> Dict[str, object]:
    """One fail/rejoin cycle (plus failover every third); returns its row."""
    victim = _node_for(cycle)
    failed_query: Optional[str] = None
    runtime.fail_node(victim)
    runtime.run(DOWN_SECONDS)
    report = runtime.rejoin_node(node_factory(victim))
    if cycle % FAILOVER_EVERY == FAILOVER_EVERY - 1:
        failed_query = f"soak-q{(cycle // FAILOVER_EVERY) % NUM_QUERIES}"
        runtime.fail_coordinator(failed_query)
    runtime.run(RECOVER_SECONDS)
    accounting = system.result_accounting_report()
    sics = list(system.current_sic_per_query().values())
    return {
        "cycle": cycle,
        "victim": victim,
        "failover": failed_query or "-",
        "restored_fragments": len(report.restored_fragments),
        "deduped_tuples": accounting["deduped_tuples"],
        "lost_to_crash_tuples": accounting["lost_to_crash_tuples"],
        "unaccounted_tuples": accounting["unaccounted_tuples"],
        "jains_index": jains_index(sics),
    }


def run(
    scale: str = "small",
    seed: int = 0,
    cycles: Optional[int] = None,
    rate: Optional[float] = None,
) -> ExperimentResult:
    """Run the soak: repeated fail/rejoin + failover cycles under load."""
    base: SimulationConfig = scaled_config(scale, seed=seed)
    if cycles is None:
        cycles = CYCLES.get(scale, CYCLES["small"])
    if rate is None:
        rate = 80.0

    experiment = ExperimentResult(
        name="soak",
        description=f"{cycles} fail/rejoin cycles (coordinator failover every "
        f"{FAILOVER_EVERY}rd) with exactly-once ledger closure, bounded "
        "ingress backpressure and flat tracked memory",
    )
    experiment.add_note(
        f"{NUM_NODES} nodes, {NUM_QUERIES} queries at {rate:.0f} tuples/s; "
        f"crash down-time {DOWN_SECONDS}s, recovery window {RECOVER_SECONDS}s "
        f"per cycle; checkpoints every {3 * base.shedding_interval}s; ingress "
        f"bounded at {MAX_INGRESS_TUPLES} tuples/node"
    )

    system, runtime, node_factory = build_soak_federation(base, rate, seed)
    memwatch = MemoryWatch()
    runtime.run(base.warmup_seconds)
    memwatch.sample(system, now=runtime.now, scheduler=runtime.scheduler)

    closure_failures = 0
    for cycle in range(cycles):
        row = run_cycle(system, runtime, node_factory, cycle)
        memwatch.sample(system, now=runtime.now, scheduler=runtime.scheduler)
        if row["unaccounted_tuples"] != 0:
            closure_failures += 1
        experiment.add_row(**row)

    # Final drain and end-of-run closure.
    system.drain_network()
    final = system.result_accounting_report()
    memwatch.sample(system, now=system.now, scheduler=runtime.scheduler)
    experiment.add_note(
        f"final ledger: {final['arrived_tuples']} arrived = "
        f"{final['recorded_tuples']} recorded + {final['deduped_tuples']} "
        f"deduped + {final['dropped_tuples']} dropped + "
        f"{final['lost_to_crash_tuples']} lost_to_crash + "
        f"{final['retired_tuples']} retired "
        f"({final['unaccounted_tuples']} unaccounted)"
    )
    if closure_failures or final["unaccounted_tuples"] != 0:
        experiment.add_note(
            f"WARNING: ledger failed to close in {closure_failures} cycles "
            f"(final residual {final['unaccounted_tuples']})"
        )
    if final["lane_problems"]:
        experiment.add_note(f"WARNING: lane algebra violated: {final['lane_problems']}")

    paced = system.total_paced_tuples()
    overflow = sum(
        node.stats.ingress_overflow_tuples for node in system.nodes.values()
    )
    engagements = sum(
        node.stats.backpressure_engagements for node in system.nodes.values()
    )
    experiment.add_note(
        f"backpressure: {paced} tuples paced at the sources over "
        f"{engagements} engagements; {overflow} ingress overflow tuples "
        f"(must be 0 — pacing engages before the hard cap)"
    )
    if overflow:
        experiment.add_note("WARNING: bounded ingress overflowed")

    # Skip the first two samples (STW windows still filling post-warm-up)
    # and average 2 * FAILOVER_EVERY samples at each end: the per-cycle
    # readings jitter a few percent with the crash/failover phase, and a
    # window of whole failover periods cancels that pattern.
    mem = memwatch.summary(skip_initial=2, window=2 * FAILOVER_EVERY)
    growth = mem["bounded_growth_fraction"]
    experiment.add_note(
        f"tracked memory: {mem['first_bounded_bytes']} -> "
        f"{mem['last_bounded_bytes']} bounded bytes over {mem['samples']} "
        f"samples (peak {mem['peak_bounded_bytes']}, growth "
        f"{growth if growth is None else round(growth * 100, 2)}%); "
        f"series (SIC histories, linear in simulated time) "
        f"{mem['last_series_bytes']} bytes"
    )
    if growth is not None and abs(growth) > 0.05:
        experiment.add_note(
            "WARNING: tracked bounded memory drifted more than 5% across cycles"
        )
    experiment.add_note(
        f"checkpoint store holds {system.coordinators.checkpoint_store_size()} "
        f"envelopes, standby store {system.coordinators.standby_store_size()} "
        f"snapshots, {system.epoch_tail_count()} epoch tails"
    )
    runtime.close()
    return experiment
