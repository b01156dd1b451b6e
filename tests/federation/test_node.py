"""Unit tests for the THEMIS node (input buffer, overload detection, shedding)."""

import pytest

from repro.core.shedding import BalanceSicShedder, NoShedder
from repro.core.stw import StwConfig
from repro.core.tuples import Batch, Tuple
from repro.federation.node import FspsNode
from repro.streaming.operators import Average, OutputOperator, SourceReceiver
from repro.streaming.query import QueryGraph


def single_fragment(query_id="q", source_id="src"):
    graph = QueryGraph(query_id)
    receiver = graph.add_operator(SourceReceiver(source_id))
    avg = graph.add_operator(Average("v", window_seconds=1.0))
    output = graph.add_operator(OutputOperator())
    graph.connect(receiver, avg)
    graph.connect(avg, output)
    graph.bind_source(source_id, receiver)
    graph.set_root(output)
    fragments = graph.partition({op: "f0" for op in graph.operators})
    return next(iter(fragments.values()))


def source_batch(query_id, count, source_id="src", sic=0.01, start=0.0):
    return Batch(
        query_id,
        [
            Tuple(start + i * 0.01, sic, {"v": float(i)}, source_id=source_id)
            for i in range(count)
        ],
        fragment_id=f"{query_id}/f0",
    )


def make_node(budget=50.0, shedder=None):
    return FspsNode(
        node_id="n0",
        shedder=shedder or BalanceSicShedder(seed=0),
        budget_per_interval=budget,
        stw_config=StwConfig(stw_seconds=5.0, slide_seconds=0.25),
    )


class TestHosting:
    def test_host_fragment_and_hosted_queries(self):
        node = make_node()
        node.host_fragment(single_fragment("q1", "src1"))
        node.host_fragment(single_fragment("q2", "src2"))
        assert node.hosted_queries() == ["q1", "q2"]

    def test_duplicate_fragment_rejected(self):
        node = make_node()
        fragment = single_fragment("q1")
        node.host_fragment(fragment)
        with pytest.raises(ValueError):
            node.host_fragment(fragment)

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            FspsNode("n0", NoShedder(), budget_per_interval=0.0)


class TestOverloadDetection:
    def test_not_overloaded_when_under_capacity(self):
        node = make_node(budget=1000.0)
        node.host_fragment(single_fragment("q1", "src"))
        node.enqueue(source_batch("q1", 10))
        result = node.tick(now=0.25)
        assert not result.overloaded
        assert result.shed_tuples == 0
        assert result.kept_tuples == 10

    def test_overloaded_when_buffer_exceeds_capacity(self):
        node = make_node(budget=10.0)
        node.host_fragment(single_fragment("q1", "src"))
        node.enqueue(source_batch("q1", 200))
        result = node.tick(now=0.25)
        assert result.overloaded
        assert result.shed_tuples > 0
        assert result.kept_tuples <= result.capacity

    def test_sic_view_is_built_only_on_rounds_that_shed(self):
        # Only the shedder reads the view, and building it has no effect a
        # later round can see: a twin that builds it every round sheds alike.
        node, twin = make_node(budget=30.0), make_node(budget=30.0)
        views = []
        build = node._current_sic_view
        node._current_sic_view = lambda now: views.append(now) or build(now)
        for n in (node, twin):
            n.host_fragment(single_fragment("q1", "src1"))
            n.host_fragment(single_fragment("q2", "src2"))
        outcomes = {id(node): [], id(twin): []}
        for tick, count in enumerate([5, 8, 120, 6, 90]):
            now = (tick + 1) * 0.25
            twin._current_sic_view(now)
            for n in (node, twin):
                n.enqueue(source_batch("q1", count, "src1", start=tick * 0.25))
                n.enqueue(source_batch("q2", 2 * count, "src2", start=tick * 0.25))
                result = n.tick(now=now)
                outcomes[id(n)].append(
                    (result.overloaded, result.kept_tuples, result.shed_tuples)
                )
        assert [o[0] for o in outcomes[id(node)]] == [False, False, True, False, True]
        assert views == [0.75, 1.25]
        assert outcomes[id(node)] == outcomes[id(twin)]
        assert node._current_sic_view(1.5) == twin._current_sic_view(1.5)

    def test_stats_accumulate_over_ticks(self):
        node = make_node(budget=10.0)
        node.host_fragment(single_fragment("q1", "src"))
        for tick in range(4):
            node.enqueue(source_batch("q1", 100, start=tick * 0.25))
            node.tick(now=(tick + 1) * 0.25)
        assert node.stats.ticks == 4
        assert node.stats.received_tuples == 400
        assert node.stats.shed_tuples > 0
        assert node.stats.shed_fraction > 0.0


class TestProcessing:
    def test_results_emitted_after_window_closes(self):
        node = make_node(budget=10_000.0)
        node.host_fragment(single_fragment("q1", "src"))
        results = []
        for tick in range(10):
            start = tick * 0.25
            node.enqueue(source_batch("q1", 20, start=start))
            outcome = node.tick(now=start + 0.25)
            results.extend(outcome.results)
        assert results, "windowed results should have been produced"
        assert all(b.query_id == "q1" for b in results)
        assert all(t.sic > 0 for b in results for t in b)

    def test_cost_model_learns_from_processing(self):
        node = make_node(budget=10_000.0)
        node.host_fragment(single_fragment("q1", "src"))
        initial_capacity = node.cost_model.capacity(node.budget_per_interval)
        for tick in range(5):
            node.enqueue(source_batch("q1", 50, start=tick * 0.25))
            node.tick(now=(tick + 1) * 0.25)
        assert node.cost_model.observations > 0
        assert node.cost_model.capacity(node.budget_per_interval) != initial_capacity


class TestSicView:
    def test_coordinator_updates_are_used_when_enabled(self):
        node = make_node()
        node.host_fragment(single_fragment("q1", "src"))
        node.receive_sic_update("q1", 0.7)
        view = node._current_sic_view(now=1.0)
        assert view["q1"] == pytest.approx(0.7)

    def test_local_estimate_used_when_updates_disabled(self):
        node = make_node()
        node.host_fragment(single_fragment("q1", "src"))
        node.set_coordinator_updates(False)
        node.receive_sic_update("q1", 0.7)
        view = node._current_sic_view(now=1.0)
        assert view["q1"] == pytest.approx(0.0)  # nothing kept locally yet

    def test_unknown_batches_are_dropped_silently(self):
        node = make_node(budget=1000.0)
        node.host_fragment(single_fragment("q1", "src"))
        foreign = source_batch("other-query", 5, source_id="elsewhere")
        node.enqueue(foreign)
        result = node.tick(now=0.25)
        assert result.results == []
