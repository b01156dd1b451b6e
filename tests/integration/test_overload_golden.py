"""Frozen end-to-end goldens for permanent overload.

The constants below are SHA-256 fingerprints over everything a seeded run
must reproduce bit for bit — every query's result-SIC history (floats as
``hex()``), each node's received / kept / shed counters and the network's
message and byte counts.  They were recorded on commit ``fdcbdc8`` (PR 11),
whose BALANCE-SIC loop materialised one batch piece per water-filling step,
and pin the contract of the piece-free selection that replaced it: the kept
tuple multiset of every round, and therefore every downstream result, is
unchanged.  The runs use the default execution path, so the list-backend,
unfused and sharded CI legs must reproduce the same constants.

A changed fingerprint means seeded behaviour moved.  Regenerate the
constants only for a documented, intended decision change.
"""

import hashlib
import json
from unittest import mock

from repro.experiments.common import build_federation
from repro.perf.stopwatch import default_registry
from repro.simulation.config import SimulationConfig
from repro.simulation.simulator import Simulator
from repro.streaming.operators import TopK, WindowEquiJoin
from repro.streaming.windows import TimeWindow
from repro.workloads.aggregate import make_aggregate_query
from repro.workloads.complex import make_complex_query

SINGLE_NODE_OVERLOAD = (
    "da46d06c1bad62130fede34beb6e64991105ec5a39adda6c50f776d16bc88151"
)
THREE_NODE_MULTI_FRAGMENT = (
    "76abbbdf673d0f5c18dcddeb145dc0cf54abe783904c734c509904e31077d87c"
)


def fingerprint(result):
    payload = {
        "sic": {
            query_id: [value.hex() for value in series]
            for query_id, series in sorted(result.sic_time_series.items())
        },
        "nodes": [
            [s.node_id, s.received_tuples, s.kept_tuples, s.shed_tuples]
            for s in result.node_summaries
        ],
        "messages": result.messages_sent,
        "bytes": result.bytes_sent,
    }
    encoded = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


def run_single_node_overload():
    """12 skewed aggregate queries at half capacity, 48 shedding intervals."""
    config = SimulationConfig(
        duration_seconds=12.0,
        warmup_seconds=2.0,
        capacity_fraction=0.5,
        seed=0,
    )
    kinds = ("avg", "max", "count")
    rates = (100.0, 200.0, 400.0, 900.0)
    queries = [
        make_aggregate_query(
            kinds[i % 3], query_id=f"q{i:02d}", rate=rates[i % 4], seed=100 + i
        )
        for i in range(12)
    ]
    system = build_federation(queries, num_nodes=1, config=config)
    return Simulator(system, config).run()


def build_three_node_multi_fragment():
    """avg-all / top5 / cov, each as 1 and as 3 fragments, over 3 nodes."""
    config = SimulationConfig(
        duration_seconds=10.0,
        warmup_seconds=2.0,
        capacity_fraction=0.5,
        network_latency_seconds=0.02,
        seed=0,
    )
    queries = [
        make_complex_query(
            kind,
            query_id=f"q{i}-{kind}",
            rate=60.0,
            dataset="gaussian",
            seed=200 + i,
            num_fragments=(1, 3)[(i // 3) % 2],
        )
        for i, kind in enumerate(("avg-all", "top5", "cov") * 2)
    ]
    return build_federation(queries, num_nodes=3, config=config), config


def run_three_node_multi_fragment():
    system, config = build_three_node_multi_fragment()
    return Simulator(system, config).run()


def test_single_node_overload_golden():
    result = run_single_node_overload()
    summary = result.node_summaries[0]
    # Permanent overload: the fingerprint covers real shedding rounds.
    assert summary.overloaded_ticks >= 40
    assert summary.shed_tuples > 0.3 * summary.received_tuples
    assert fingerprint(result) == SINGLE_NODE_OVERLOAD


def test_three_node_multi_fragment_golden():
    result = run_three_node_multi_fragment()
    assert all(s.shed_tuples > 0 for s in result.node_summaries)
    assert fingerprint(result) == THREE_NODE_MULTI_FRAGMENT


def test_multi_fragment_plans_stay_columnar():
    """Budget guard without a timer: union -> join -> top-k runs on blocks.

    A silent return to the per-tuple path (a ``Union`` or join that stops
    emitting blocks) would materialise rows or insert ``Tuple`` objects into
    a join / top-k window; both are counted here, deterministically.
    """
    system, config = build_three_node_multi_fragment()
    windows = {
        id(window): operator.name
        for node in system.nodes.values()
        for fragment in node.fragments.values()
        for operator in fragment.operators.values()
        if isinstance(operator, (WindowEquiJoin, TopK))
        for window in operator._windows
    }
    assert len(windows) == 4 * 2 + 4  # four top5 fragments: a join and a top-k each
    per_tuple_inserts = []
    insert = TimeWindow.insert

    def recording_insert(self, tuples):
        if id(self) in windows and tuples:
            per_tuple_inserts.append((windows[id(self)], len(tuples)))
        return insert(self, tuples)

    counters = default_registry().counters
    before = counters.get("columns.materialized_rows", 0.0)
    with mock.patch.object(TimeWindow, "insert", recording_insert):
        result = Simulator(system, config).run()
    assert fingerprint(result) == THREE_NODE_MULTI_FRAGMENT
    assert counters.get("columns.materialized_rows", 0.0) == before
    assert per_tuple_inserts == []
