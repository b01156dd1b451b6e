"""One benchmark pass in a fresh process: build, warm up, measure, check.

Run by ``bench/run.py`` as ``python -m bench.child`` (one child per pass, so
imports, allocator state and peak RSS never leak between passes); the result
is one JSON object on the last line of standard output.

The pass drives the *default* execution path only through the public surface
listed in README.md: ``build_federation``, ``EventRuntime.run/close``,
``FederatedSystem.mean_sic_per_query / result_accounting_report /
drain_network / nodes / network / coordinators`` and ``NodeStats``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from typing import Dict, List, Optional

from bench.stats import jain_index
from bench.workloads import SHEDDING_INTERVAL, WARMUP_INTERVALS, WORKLOADS, Workload

__all__ = ["CHECKS", "run_pass"]

# Output checks of one pass; each counts as one attempted operation.
CHECKS = (
    "node_conservation",
    "result_accounting",
    "transport_ledger",
    "sic_range",
    "load_regime",
)
# A result SIC is a sequential float sum of up to ~10^5 tuple SICs, so a full
# window reads 1 + O(1e-13); anything beyond rounding is a real violation.
SIC_TOLERANCE = 1e-9
# The shedders' tie-breaking RNGs belong to the program, not to its input, so
# ``--seed`` does not reach them.  (Result SIC depends on tuple counts and
# timestamps, never on payload values: with the shedder seed pinned, fairness,
# wire cost and the work done per interval are the same for every data seed,
# whereas a different shedder seed alone moves ``federation``'s mean SIC by
# +-5 % and its throughput by +-7 %, which would drown any real change.)
SHEDDER_SEED = 0
# Result payloads kept per query for the fingerprint (the newest ones).
RESULT_TAIL = 32


def _config(workload: Workload, warmup: int, intervals: int):
    from repro.simulation.config import SimulationConfig

    options: Dict[str, object] = {
        "duration_seconds": intervals * SHEDDING_INTERVAL,
        "warmup_seconds": warmup * SHEDDING_INTERVAL,
        "capacity_fraction": workload.capacity_fraction,
        "network_latency_seconds": workload.latency,
        "checkpoint_interval": workload.checkpoint_interval,
        "seed": SHEDDER_SEED,
    }
    fields = SimulationConfig.__dataclass_fields__
    # Asked for only while the switch exists; once reliable delivery is the
    # only channel the default path already is what this workload needs.
    if workload.reliable and "reliable_delivery" in fields:
        options["reliable_delivery"] = True
    # The last few result payloads of every query go into the fingerprint, so
    # a wrong aggregate shows as a changed fingerprint, not only a wrong count.
    if "retain_result_values" in fields and "max_result_values" in fields:
        options["retain_result_values"] = True
        options["max_result_values"] = RESULT_TAIL
    return SimulationConfig(**options)


def _counters(system) -> Dict[str, object]:
    """Cumulative counters whose deltas define the measured window."""
    stats = system.network.stats
    nodes = system.nodes.values()
    return {
        "received": sum(n.stats.received_tuples for n in nodes),
        "shed": sum(n.stats.shed_tuples for n in nodes),
        "rounds": sum(n.stats.ticks for n in nodes),
        "overloaded_rounds": sum(n.stats.overloaded_ticks for n in nodes),
        "messages": system.network.sent_messages,
        "bytes": system.network.bytes_sent,
        "retransmits": sum(stats.retransmits.values()),
        "expired": sum(stats.expired.values()),
        "sic_updates_sent": stats.sent.get("sic_update", 0),
    }


def _fingerprint(system, per_query_sic: Dict[str, float]) -> str:
    """SHA-256 over everything a seeded pass must reproduce bit for bit."""
    payload = {
        "sic": {q: per_query_sic[q].hex() for q in sorted(per_query_sic)},
        "results": {
            c.query_id: [sorted(values.items()) for values in c.result_values]
            for c in system.coordinators.all()
        },
        "messages": system.network.sent_messages,
        "bytes": system.network.bytes_sent,
        "nodes": {
            node_id: [
                node.stats.received_tuples,
                node.stats.kept_tuples,
                node.stats.shed_tuples,
            ]
            for node_id, node in sorted(system.nodes.items())
        },
    }
    # Floats serialise through repr, which round-trips exactly.
    encoded = json.dumps(payload, sort_keys=True, default=repr).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


def _check_outputs(system, workload: Workload, delta: Dict[str, int]) -> Dict[str, str]:
    """Run every output check; returns ``{check: failure message}``.

    Drains the network at the end (the transport ledger only closes once
    nothing is in flight), so it must run after the fingerprint is taken.
    """
    failures: Dict[str, str] = {}
    for node_id, node in system.nodes.items():
        stats = node.stats
        buffered = node.input_buffer_size()
        if stats.received_tuples != stats.kept_tuples + stats.shed_tuples + buffered:
            failures["node_conservation"] = (
                f"{node_id}: received {stats.received_tuples} != kept "
                f"{stats.kept_tuples} + shed {stats.shed_tuples} + buffered {buffered}"
            )
    report = system.result_accounting_report()
    if report.get("enabled", True) and (
        report.get("unaccounted_tuples") != 0 or report.get("lane_problems")
    ):
        failures["result_accounting"] = json.dumps(report, sort_keys=True)
    for coordinator in system.coordinators.all():
        for _, value in coordinator.tracker.history:
            if not -SIC_TOLERANCE <= value <= 1.0 + SIC_TOLERANCE:
                failures["sic_range"] = f"{coordinator.query_id}: SIC {value!r}"
                break
    share = delta["overloaded_rounds"] / max(1, delta["rounds"])
    low, high = workload.overloaded_share
    if not low <= share <= high or (high == 0.0 and delta["shed"]):
        failures["load_regime"] = (
            f"{share:.3f} of rounds overloaded ({delta['shed']} tuples shed), "
            f"expected a share in [{low}, {high}]"
        )
    system.drain_network()
    stats = system.network.stats
    for kind in ("data", "result"):
        sent = stats.sent.get(kind, 0)
        closed = stats.delivered.get(kind, 0) + stats.expired.get(kind, 0)
        if sent != closed:
            failures["transport_ledger"] = (
                f"{kind}: {sent} sent != {closed} delivered + expired"
            )
    return failures


def run_pass(
    workload: Workload,
    seed: int,
    scale: str = "full",
    traced: bool = False,
    stepped: bool = True,
    spans_path: Optional[str] = None,
) -> Dict[str, object]:
    """Run one pass of ``workload`` and return its measurements.

    ``stepped=False`` advances the measured window with a single
    ``run(ticks=N)`` call instead of N timed ``run(ticks=1)`` calls (no
    interval latencies); seeded results must not depend on it.
    """
    started = time.perf_counter()
    tracer = None
    if traced:
        from bench.trace import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        from repro.experiments.common import build_federation
        from repro.runtime import EventRuntime

        warmup = WARMUP_INTERVALS[scale]
        intervals = workload.intervals[scale]
        config = _config(workload, warmup, intervals)
        system = build_federation(workload.build_queries(seed), workload.nodes, config)
        runtime = EventRuntime(system, checkpoint_interval=config.checkpoint_interval)
        try:
            runtime.run(ticks=warmup)
            setup_s = time.perf_counter() - started
            before = _counters(system)
            if tracer is not None:
                tracer.start_measuring()
            interval_ms: List[float] = []
            clock = time.perf_counter
            wall_start = clock()
            if stepped:
                previous = wall_start
                for _ in range(intervals):
                    runtime.run(ticks=1)
                    now = clock()
                    interval_ms.append((now - previous) * 1e3)
                    previous = now
                    if tracer is not None:
                        tracer.end_interval()
                wall_s = previous - wall_start
            else:
                runtime.run(ticks=intervals)
                wall_s = clock() - wall_start
        finally:
            runtime.close()
    finally:
        if tracer is not None:
            tracer.uninstall()

    after = _counters(system)
    delta = {key: after[key] - before[key] for key in after}
    per_query_sic = system.mean_sic_per_query(skip_initial=warmup)
    sic_values = [per_query_sic[q] for q in sorted(per_query_sic)]
    result: Dict[str, object] = {
        "workload": workload.name,
        "seed": seed,
        "scale": scale,
        "traced": traced,
        "intervals": intervals,
        "wall_s": wall_s,
        "interval_ms": interval_ms,
        "tuples": delta["received"],
        "shed_tuples": delta["shed"],
        "metrics": {
            "tuples_per_s": delta["received"] / wall_s,
            "jain_index": jain_index(sic_values),
            "mean_sic": sum(sic_values) / len(sic_values),
            "wire_bytes_per_tuple": delta["bytes"] / delta["received"],
            # ru_maxrss is in KiB on Linux.
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": setup_s,
        },
        "fingerprint": _fingerprint(system, per_query_sic),
    }
    if tracer is not None:
        layers = tracer.layer_metrics()
        for key in ("messages", "bytes", "retransmits", "expired"):
            layers[f"federation.network.send.{key}"] = delta[key]
        layers["federation.coordinator.update_round.sic_updates_sent"] = delta[
            "sic_updates_sent"
        ]
        layers["runtime.scheduler.self_s"] = wall_s - tracer.attributed_s
        layers["runtime.scheduler.calls"] = intervals
        layers["runtime.scheduler.events"] = tracer.events
        layers["trace.spans"] = tracer.span_count
        layers["trace.missing_entry_points"] = len(tracer.missing)
        result["layers"] = layers
        result["missing_entry_points"] = list(tracer.missing)
        if spans_path is not None:
            result["spans_written"] = tracer.write_spans(spans_path)
    result["failures"] = _check_outputs(system, workload, delta)
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", choices=sorted(WARMUP_INTERVALS), default="full")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans", help="write the kept raw spans to this JSONL file")
    args = parser.parse_args(argv)
    result = run_pass(
        WORKLOADS[args.workload],
        args.seed,
        scale=args.scale,
        traced=args.traced,
        spans_path=args.spans,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
