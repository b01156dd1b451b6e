"""Unit tests for the fragment plan compiler (fused execution).

Covers the structural fusibility rules of :func:`compile_fused_plan`, the
per-tick fallback contract of :meth:`FusedPlan.run_prefix` (decline without
touching state) and how fused execution is selected.
"""

from repro.core.columns import ColumnBlock, use_backend
from repro.core.tuples import Batch, Tuple
from repro.streaming import fused
from repro.streaming.fused import compile_fused_plan, fused_execution_active
from repro.streaming.operators import (
    Average,
    Filter,
    OutputOperator,
    SourceReceiver,
    Union,
)
from repro.streaming.operators.topk import TopK
from repro.streaming.query import QueryGraph


def build_fragment(
    *,
    filters=(),
    aggregate=None,
    slide_seconds=None,
    extra_source=False,
):
    graph = QueryGraph("q")
    receiver = graph.add_operator(SourceReceiver("src"))
    previous = receiver
    for filt in filters:
        op = graph.add_operator(filt)
        graph.connect(previous, op)
        previous = op
    agg = graph.add_operator(
        aggregate
        if aggregate is not None
        else Average("v", window_seconds=1.0, slide_seconds=slide_seconds)
    )
    graph.connect(previous, agg)
    output = graph.add_operator(OutputOperator())
    graph.connect(agg, output)
    graph.bind_source("src", receiver)
    if extra_source:
        graph.bind_source("src2", receiver)
    graph.set_root(output)
    fragment = next(
        iter(graph.partition({op: "f0" for op in graph.operators}).values())
    )
    fragment.finalize()
    return fragment


def source_block(values, start=0.1, sic=0.1):
    n = len(values)
    return ColumnBlock(
        timestamps=[start + 0.1 * i for i in range(n)],
        sics=[sic] * n,
        values={"v": [float(v) for v in values]},
        source_id="src",
    )


class TestFusionSelection:
    def test_numpy_backend_fuses(self):
        with use_backend("numpy"):
            assert fused_execution_active()

    def test_list_backend_never_fuses(self):
        with use_backend("list"):
            assert not fused_execution_active()

    def test_without_numpy_never_fuses(self, monkeypatch):
        monkeypatch.setattr(fused, "np", None)
        with use_backend("numpy"):
            assert not fused_execution_active()

    def test_staged_execution_is_scoped_to_its_block(self, staged_execution):
        # The fragment reads the predicate on every tick, so one fragment
        # runs staged inside the block and compiles its plan after it.
        fragment = build_fragment()
        with use_backend("numpy"):
            with staged_execution():
                assert not fused.fused_execution_active()
                assert fragment._fused_plan() is None
            assert fused.fused_execution_active()
            assert fragment._fused_plan() is not None


class TestPlanCompilation:
    def test_bare_aggregate_chain_compiles(self):
        fragment = build_fragment()
        plan = compile_fused_plan(fragment)
        assert plan is not None
        assert plan.filter_ids == ()
        assert plan.suffix_ids == tuple(fragment._order[-2:])
        assert plan.receiver is fragment.operators[plan.receiver_id]
        assert plan.aggregate is fragment.operators[plan.aggregate_id]

    def test_filter_chain_compiles_in_order(self):
        filters = [
            Filter.field_threshold("v", ">=", 10.0),
            Filter.field_threshold("v", "<", 90.0),
        ]
        fragment = build_fragment(filters=filters)
        plan = compile_fused_plan(fragment)
        assert plan is not None
        assert len(plan.filter_ids) == 2
        assert [fragment.operators[i].name for i in plan.filter_ids] == [
            f.name for f in filters
        ]

    def test_opaque_filter_predicate_declines(self):
        fragment = build_fragment(filters=[Filter(lambda t: t.values["v"] > 5)])
        assert compile_fused_plan(fragment) is None

    def test_sliding_window_declines(self):
        fragment = build_fragment(slide_seconds=0.5)
        assert compile_fused_plan(fragment) is None

    def test_non_aggregate_tail_declines(self):
        fragment = build_fragment(
            aggregate=TopK(5, value_field="v", id_field="v", window_seconds=1.0)
        )
        assert compile_fused_plan(fragment) is None

    def test_multiple_source_bindings_decline(self):
        fragment = build_fragment(extra_source=True)
        assert compile_fused_plan(fragment) is None

    def test_non_linear_graph_declines(self):
        graph = QueryGraph("q")
        r1 = graph.add_operator(SourceReceiver("a"))
        r2 = graph.add_operator(SourceReceiver("b"))
        union = graph.add_operator(Union(num_ports=2))
        agg = graph.add_operator(Average("v", window_seconds=1.0))
        out = graph.add_operator(OutputOperator())
        graph.connect(r1, union, port=0)
        graph.connect(r2, union, port=1)
        graph.connect(union, agg)
        graph.connect(agg, out)
        graph.bind_source("a", r1)
        graph.bind_source("b", r2)
        graph.set_root(out)
        fragment = next(
            iter(graph.partition({op: "f0" for op in graph.operators}).values())
        )
        fragment.finalize()
        assert compile_fused_plan(fragment) is None

    def test_rewiring_invalidates_cached_plan(self):
        fragment = build_fragment()
        with use_backend("numpy"):
            first = fragment._fused_plan()
            assert first is not None
            fragment.finalize()  # re-finalize: the cached plan must be rebuilt
            second = fragment._fused_plan()
            assert second is not None
            assert second is not first


class TestRunPrefixFallback:
    def test_per_tuple_items_decline_without_state_change(self):
        fragment = build_fragment()
        plan = compile_fused_plan(fragment)
        tuples = [
            Tuple(timestamp=0.1 * (i + 1), sic=0.25, values={"v": float(i)},
                  source_id="src")
            for i in range(4)
        ]
        fragment.deliver(Batch("q", tuples))
        receiver = plan.receiver
        before = receiver._windows[0].pending_count()
        assert plan.run_prefix(fragment, now=2.0) is False
        assert receiver._windows[0].pending_count() == before

    def test_non_float_filter_column_declines(self):
        fragment = build_fragment(
            filters=[Filter.field_threshold("name", "==", 1.0)]
        )
        plan = compile_fused_plan(fragment)
        assert plan is not None
        block = ColumnBlock(
            timestamps=[0.1, 0.2],
            sics=[0.1, 0.1],
            values={"v": [1.0, 2.0], "name": ["a", "b"]},
            source_id="src",
        )
        plan.receiver._windows[0].insert_block(block, 0, 2)
        assert plan.run_prefix(fragment, now=2.0) is False

    def test_staged_and_fused_fragment_results_match(self, staged_execution):
        def run(fused_plan):
            fragment = build_fragment(
                filters=[Filter.field_threshold("v", ">=", 1.0)]
            )
            assert (fragment._fused_plan() is not None) == fused_plan
            receiver = fragment.operators[fragment._order[0]]
            receiver.ingest_block(source_block([0.0, 1.0, 2.0, 3.0]))
            out = fragment.process(now=2.0)
            assert len(out.results) == 1
            return out.results[0].tuples[0].values, out.results[0].tuples[0].sic

        with use_backend("numpy"):
            fused = run(fused_plan=True)
            with staged_execution():
                staged = run(fused_plan=False)
        assert fused == staged
