"""Checkpoints by reference: stored envelopes share frozen columns, never copy.

A :class:`~repro.state.FragmentCheckpoint` references the live pipeline's
column arrays (frozen read-only at checkpoint time) instead of copying them.
These tests pin the two halves of that contract end to end:

* ``TestStoredEnvelopesNeverChange`` — the envelopes a checkpoint round
  stores are digested, the federation keeps running through a mid-run
  migration and a fail/rejoin that restores *from those very envelopes*,
  and the digests stay equal; the restored run's results stay identical to
  a fault-free control run.  Parametrized over every window kind.
* ``TestEnvelopeColumnBudget`` — a deterministic memory budget: on a
  federation-shaped run (multi-fragment join/top-k/covariance queries,
  reliable delivery, periodic checkpoint rounds) every float64 or object
  array in the coordinator's envelope store is a read-only view, and the
  store owns zero column bytes.  A regression to copying fails here
  without timing anything.
"""

import hashlib

import pytest

from repro.core.columns import get_default_backend, use_backend
from repro.core.shedding import make_shedder
from repro.core.stw import StwConfig
from repro.core.tuples import Tuple
from repro.experiments.common import build_federation
from repro.federation.fsps import FederatedSystem
from repro.federation.network import Network, UniformLatency
from repro.federation.node import FspsNode
from repro.runtime import EventRuntime
from repro.simulation.config import SimulationConfig
from repro.state import FragmentCheckpoint
from repro.streaming.operators.base import Operator
from repro.streaming.query import QueryFragment
from repro.streaming.windows import CountWindow, ImmediateWindow, TimeWindow
from repro.workloads.complex import make_complex_query
from repro.workloads.sources import ValueSource

np = pytest.importorskip("numpy")

INTERVAL = 0.25
STW = StwConfig(stw_seconds=4.0, slide_seconds=INTERVAL)

WINDOWS = {
    "tumbling": lambda: TimeWindow(1.0),
    "sliding": lambda: TimeWindow(1.0, slide_seconds=0.5),
    "count": lambda: CountWindow(50),
    "immediate": ImmediateWindow,
}


def envelope_arrays(value):
    """Every ndarray reachable from a checkpoint envelope (or part of one)."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from envelope_arrays(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from envelope_arrays(item)
    elif isinstance(value, FragmentCheckpoint):
        yield from envelope_arrays(value.fragment_state)
        yield from envelope_arrays(value.buffered_batches)
        yield from envelope_arrays(value.host_context)


def digest(value, h=None):
    """Content hash of an envelope: array bytes (object arrays through
    ``tolist``) and the repr of every other leaf, in traversal order."""
    top = h is None
    if top:
        h = hashlib.sha256()
    if isinstance(value, np.ndarray):
        h.update(str(value.dtype).encode())
        if value.dtype == object:
            h.update(repr(value.tolist()).encode())
        else:
            h.update(value.tobytes())
    elif isinstance(value, dict):
        for key, item in value.items():
            h.update(repr(key).encode())
            digest(item, h)
    elif isinstance(value, (list, tuple)):
        h.update(b"[")
        for item in value:
            digest(item, h)
        h.update(b"]")
    elif isinstance(value, FragmentCheckpoint):
        for name in sorted(vars(value)):
            h.update(name.encode())
            digest(getattr(value, name), h)
    else:
        h.update(repr(value).encode())
    return h.hexdigest() if top else None


class WindowedSum(Operator):
    """Sum of ``v`` per closed pane, over whichever window kind it is given."""

    def __init__(self, window_factory):
        super().__init__(
            "windowed-sum(v)", cost_per_tuple=0.5, window_factory=window_factory
        )

    def _process(self, panes, now):
        total = 0.0
        end = now
        for port in sorted(panes):
            pane = panes[port]
            for t in pane.tuples:
                total += t.values["v"]
            end = pane.end
        return [Tuple(end, 0.0, {"sum": total})]


def make_system(window):
    """Two under-capacity single-fragment queries, one per node, on a LAN."""
    system = FederatedSystem(
        stw_config=STW,
        shedding_interval=INTERVAL,
        network=Network(UniformLatency(0.005)),
        retain_results=True,
    )
    for i in range(2):
        system.add_node(make_node(f"node-{i}"))
    for i in range(2):
        query_id = f"q{i}"
        fragment = QueryFragment(query_id, name="f0")
        operator = fragment.add_operator(WindowedSum(WINDOWS[window]))
        source = ValueSource(f"{query_id}/src", rate=80.0, seed=i)
        fragment.bind_source(source.source_id, operator.operator_id)
        fragment.set_exit(operator.operator_id)
        fragment.finalize()
        system.deploy_query(
            query_id,
            {fragment.fragment_id: fragment},
            [source],
            {fragment.fragment_id: f"node-{i}"},
        )
    return system


def make_node(node_id):
    return FspsNode(
        node_id=node_id,
        shedder=make_shedder("balance-sic", seed=int(node_id[-1])),
        budget_per_interval=500.0,
        stw_config=STW,
    )


def query_results(system):
    return {
        c.query_id: (c.tracker.history, c.result_tuples, list(c.result_values))
        for c in system.coordinators.all()
    }


class TestStoredEnvelopesNeverChange:
    @pytest.mark.parametrize("window", sorted(WINDOWS))
    def test_envelopes_survive_migration_restore_and_later_rounds(self, window):
        control = make_system(window)
        runtime = EventRuntime(control, checkpoint_interval=1.0)
        runtime.run(8.0)
        runtime.close()

        system = make_system(window)
        runtime = EventRuntime(system, checkpoint_interval=1.0)
        runtime.run(2.0)
        q0 = next(iter(system.queries["q0"].fragments))
        runtime.migrate_fragment(q0, "node-1")
        runtime.run(1.0)
        runtime.checkpoint_now()
        envelopes = {
            fid: system.coordinators.checkpoint_for(fid)
            for fid in sorted(system.placement)
        }
        assert all(envelopes.values())
        if window == "tumbling" and get_default_backend() == "numpy":
            # Tumbling panes hold column ranges: the envelopes share arrays.
            assert any(list(envelope_arrays(env)) for env in envelopes.values())
        before = {fid: digest(env) for fid, env in envelopes.items()}
        # Both fragments now live on node-1: the rejoin restores each one
        # from the envelope captured above.
        runtime.fail_node("node-1")
        report = runtime.rejoin_node(make_node("node-1"))
        assert sorted(report.restored_fragments) == sorted(envelopes)
        assert report.lost_tuples == 0
        runtime.run(5.0)  # 20 more intervals, 5 more checkpoint rounds
        runtime.close()

        assert {fid: digest(env) for fid, env in envelopes.items()} == before
        assert query_results(system) == query_results(control)


class TestEnvelopeColumnBudget:
    def test_stored_envelopes_own_no_column_bytes(self):
        queries = []
        for i, kind in enumerate(("avg-all", "top5", "cov") * 2):
            shape = {"num_fragments": (1, 3)[i // 3]}
            if kind == "avg-all":
                shape["sources_per_fragment"] = 4
            elif kind == "top5":
                shape["machines_per_fragment"] = 2
            queries.append(
                make_complex_query(
                    kind, query_id=f"q{i}-{kind}", rate=100.0, seed=i, **shape
                )
            )
        config = SimulationConfig(
            duration_seconds=3.0,
            warmup_seconds=0.0,
            capacity_fraction=0.5,
            network_latency_seconds=0.05,
            checkpoint_interval=1.0,
            reliable_delivery=True,
            seed=0,
        )
        with use_backend("numpy"):
            system = build_federation(queries, num_nodes=4, config=config)
            runtime = EventRuntime(
                system, checkpoint_interval=config.checkpoint_interval
            )
            runtime.run(3.0)
            runtime.close()

        columns = 0
        owned_bytes = 0
        for fragment_id in sorted(system.placement):
            envelope = system.coordinators.checkpoint_for(fragment_id)
            assert envelope is not None
            for arr in envelope_arrays(envelope):
                if arr.dtype not in (np.float64, np.dtype(object)):
                    continue
                columns += 1
                assert arr.base is not None, "envelope column is a copy"
                assert not arr.flags.writeable, "envelope column is writable"
                if arr.flags.owndata:
                    owned_bytes += arr.nbytes
        assert columns > 0
        assert owned_bytes == 0
