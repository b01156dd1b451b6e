"""Differential tests: columnar vs per-tuple paths of the multi-port operators.

``Union`` and ``WindowEquiJoin`` keep a multi-fragment query columnar up to
the ``TopK`` that reduces it: the union emits the port panes' blocks as one
timestamp-ordered block, and the join gathers the matched rows of two
column-backed panes into one joined block whenever the round's output schema
is uniform (always under ``columnar_output=True``; under the default merge
rule when every shared field is all-equal or all-different across the matched
rows).  These tests feed the identical stream to one operator instance via
``ingest_block`` (column-backed panes) and to another via ``ingest``
(materialized tuples) and assert identical rows, order, SIC and field order —
under both columnar backends — and pin which rounds emit a block and which
fall back to rows.
"""

from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columns import BACKENDS, ColumnBlock, use_backend
from repro.core.tuples import Tuple
from repro.streaming.operators.join import (
    WindowEquiJoin,
    _match_rows,
    _pair_index,
)
from repro.streaming.operators.stateless import Union
from repro.streaming.operators.topk import TopK, TopKMerge


@pytest.fixture(autouse=True, params=BACKENDS)
def backend(request):
    with use_backend(request.param):
        yield request.param


def make_join(**kwargs):
    kwargs.setdefault("left_key", "id")
    kwargs.setdefault("right_key", "id")
    return WindowEquiJoin(window_seconds=1.0, **kwargs)


def block(values, start=0.0, sic=0.01, source_id=None, timestamps=None):
    n = len(next(iter(values.values())))
    if timestamps is None:
        timestamps = [start + i * 0.01 for i in range(n)]
    return ColumnBlock(
        timestamps=timestamps,
        sics=[sic] * n,
        values={f: list(col) for f, col in values.items()},
        source_id=source_id,
    )


def cpu_block(ids, loads, start=0.0, sic=0.01):
    return block({"id": ids, "cpu": loads}, start, sic, source_id="cpu")


def mem_block(ids, frees, start=0.0, sic=0.02):
    return block({"id": ids, "mem": frees}, start, sic, source_id="mem")


def run_items(operator, blocks_by_port, columnar, horizon=3.0):
    """Feed the blocks column-backed or materialized; return emitted items."""
    for port, blocks in blocks_by_port.items():
        for b in blocks:
            if columnar:
                operator.ingest_block(b, port=port)
            else:
                operator.ingest(b.to_tuples(), port=port)
    return operator.advance_items(horizon)


def rows(items):
    out = []
    for item in items:
        if isinstance(item, ColumnBlock):
            out.extend(item.to_tuples())
        else:
            out.append(item)
    return out


def run_join(blocks_by_port, columnar, horizon=3.0, **kwargs):
    return rows(run_items(make_join(**kwargs), blocks_by_port, columnar, horizon))


def assert_same_outputs(columnar, per_tuple):
    assert len(columnar) == len(per_tuple)
    for c, t in zip(columnar, per_tuple):
        assert c.timestamp == t.timestamp
        assert c.sic == t.sic
        assert c.values == t.values
        assert list(c.values) == list(t.values)  # field order too
        for name, value in t.values.items():
            assert type(c.values[name]) is type(value)


def assert_block_round(blocks_by_port, fields, **kwargs):
    """The columnar run emits exactly one block with ``fields`` and the rows
    of the per-tuple run."""
    items = run_items(make_join(**kwargs), blocks_by_port, columnar=True)
    assert len(items) == 1 and isinstance(items[0], ColumnBlock)
    assert list(items[0].values) == fields
    assert items[0].source_id is None
    per_tuple = run_join(blocks_by_port, columnar=False, **kwargs)
    assert per_tuple, "the join must actually produce output"
    assert_same_outputs(rows(items), per_tuple)
    return items[0]


def assert_row_round(blocks_by_port, **kwargs):
    """The columnar run falls back to the row emitter, identically."""
    items = run_items(make_join(**kwargs), blocks_by_port, columnar=True)
    assert items and all(isinstance(item, Tuple) for item in items)
    assert_same_outputs(items, run_join(blocks_by_port, columnar=False, **kwargs))
    return items


class TestJoinColumnarIdentity:
    def test_key_only_overlap_emits_one_block(self):
        blocks = {
            0: [cpu_block(["a", "b", "c"], [0.9, 0.5, 0.1])],
            1: [mem_block(["b", "c", "d"], [512.0, 256.0, 128.0])],
        }
        joined = assert_block_round(blocks, ["id", "cpu", "mem"])
        assert len(joined) == 2

    def test_duplicate_keys_produce_cross_product_in_same_order(self):
        blocks = {
            0: [cpu_block(["a", "a", "b"], [0.1, 0.2, 0.3])],
            1: [mem_block(["a", "a"], [1.0, 2.0])],
        }
        joined = assert_block_round(blocks, ["id", "cpu", "mem"])
        assert len(joined) == 4  # 2 left 'a' rows x 2 right 'a' rows
        assert [(t.values["cpu"], t.values["mem"]) for t in joined.to_tuples()] == [
            (0.1, 1.0), (0.1, 2.0), (0.2, 1.0), (0.2, 2.0)
        ]

    def test_shared_field_all_equal_adds_no_prefixed_column(self):
        blocks = {
            0: [block({"id": ["x", "y"], "v": [1.0, 2.0], "l": [5, 6]})],
            1: [block({"v": [1.0, 2.0], "id": ["x", "y"], "r": ["p", "q"]})],
        }
        assert_block_round(blocks, ["id", "v", "l", "r"])

    def test_shared_field_all_different_adds_one_prefixed_column(self):
        blocks = {
            0: [block({"id": ["x", "y"], "v": [1.0, 2.0]})],
            1: [block({"v": [10.0, 99.0], "id": ["x", "y"], "r": [7, 8]})],
        }
        joined = assert_block_round(blocks, ["id", "v", "right_v", "r"])
        assert [t.values["right_v"] for t in joined.to_tuples()] == [10.0, 99.0]

    def test_shared_field_mixed_falls_back_to_rows(self):
        # "v" is equal on the 'x' pair and different on the 'y' pair: the
        # prefix appears on one row only, so there is no uniform schema.
        blocks = {
            0: [block({"id": ["x", "y"], "v": [1.0, 2.0]})],
            1: [block({"id": ["x", "y"], "v": [1.0, 99.0]})],
        }
        items = assert_row_round(blocks)
        by_id = {t.values["id"]: t.values for t in items}
        assert "right_v" not in by_id["x"]
        assert by_id["y"]["v"] == 2.0 and by_id["y"]["right_v"] == 99.0

    def test_prefixed_name_colliding_with_a_left_field(self):
        # The prefixed right "v" overwrites the left "right_v" in place, on
        # every row — the same dict assignment the row merge makes.
        blocks = {
            0: [block({"id": ["x", "y"], "right_v": [0.5, 0.6], "v": [1.0, 2.0]})],
            1: [block({"id": ["x", "y"], "v": [3.0, 4.0], "right_v": [3.0, 4.0]})],
        }
        assert_block_round(blocks, ["id", "right_v", "v"])

    def test_different_key_names(self):
        blocks = {
            0: [block({"id": ["a", "b", "c"], "cpu": [0.1, 0.2, 0.3]})],
            1: [block({"machine": ["c", "a", "a"], "mem": [1.0, 2.0, 3.0]})],
        }
        keys = {"left_key": "id", "right_key": "machine"}
        joined = assert_block_round(blocks, ["id", "cpu", "machine", "mem"], **keys)
        assert [t.values["mem"] for t in joined.to_tuples()] == [2.0, 3.0, 1.0]

    def test_different_key_names_with_a_shared_non_key_field(self):
        # The right side also carries an "id" (never the left key's value):
        # all-different, so it becomes one prefixed column.
        blocks = {
            0: [block({"id": ["a", "b"], "cpu": [0.1, 0.2]})],
            1: [block({"machine": ["b", "a"], "id": ["m1", "m2"]})],
        }
        keys = {"left_key": "id", "right_key": "machine"}
        assert_block_round(blocks, ["id", "cpu", "machine", "right_id"], **keys)

    def test_none_keys_are_skipped(self):
        blocks = {
            0: [cpu_block(["a", None, "b"], [0.1, 0.2, 0.3])],
            1: [mem_block([None, "b"], [1.0, 2.0])],
        }
        assert len(assert_block_round(blocks, ["id", "cpu", "mem"])) == 1

    @pytest.mark.parametrize("columnar_output", [False, True])
    def test_missing_key_column_yields_no_output(self, columnar_output):
        blocks = {
            0: [cpu_block(["a"], [0.5])],
            1: [block({"mem": [1.0]})],
        }
        for columnar in (True, False):
            join = make_join(columnar_output=columnar_output)
            assert run_items(join, blocks, columnar) == []
            assert join.lost_sic == pytest.approx(0.02)

    def test_no_matching_keys_loses_the_consumed_sic(self):
        blocks = {
            0: [cpu_block(["a"], [0.5], sic=0.25)],
            1: [mem_block(["b"], [1.0], sic=0.5)],
        }
        for columnar in (True, False):
            join = make_join()
            assert run_items(join, blocks, columnar) == []
            assert join.lost_sic == 0.75

    def test_multiple_blocks_per_pane_identical(self):
        blocks = {
            0: [
                cpu_block(["a", "b"], [0.1, 0.2], start=0.0),
                cpu_block(["c"], [0.3], start=0.5),
            ],
            1: [
                mem_block(["b"], [1.0], start=0.1),
                mem_block(["a", "c"], [2.0, 3.0], start=0.6),
            ],
        }
        assert len(assert_block_round(blocks, ["id", "cpu", "mem"])) == 3

    def test_out_of_order_panes_join_in_timestamp_order(self):
        blocks = {
            0: [cpu_block(["a", "a"], [0.2, 0.1], start=0.5),
                cpu_block(["a"], [0.3], start=0.1)],
            1: [mem_block(["a", "a"], [2.0, 1.0], start=0.4),
                mem_block(["a"], [3.0], start=0.0)],
        }
        joined = assert_block_round(blocks, ["id", "cpu", "mem"])
        assert [t.values["cpu"] for t in joined.to_tuples()][::3] == [0.3, 0.2, 0.1]

    def test_sic_propagation_equal_on_both_paths(self):
        blocks = {
            0: [cpu_block(["a", "b"], [0.1, 0.2], sic=0.03)],
            1: [mem_block(["a", "b"], [1.0, 2.0], sic=0.05)],
        }
        columnar = run_join(blocks, columnar=True)
        per_tuple = run_join(blocks, columnar=False)
        assert columnar
        total = sum(t.sic for t in columnar)
        # Equation 3: the whole consumed window SIC is divided over outputs.
        assert total == pytest.approx(2 * 0.03 + 2 * 0.05)
        assert [t.sic for t in columnar] == [t.sic for t in per_tuple]

    def test_mixed_representation_falls_back_per_tuple(self):
        # Columnar left, per-tuple right: the join must still produce the
        # per-tuple path's exact output.
        join_mixed = make_join()
        left = cpu_block(["a", "b"], [0.1, 0.2])
        right = mem_block(["a", "b"], [1.0, 2.0])
        join_mixed.ingest_block(left, port=0)
        join_mixed.ingest(right.to_tuples(), port=1)
        mixed = join_mixed.advance_items(3.0)
        assert all(isinstance(item, Tuple) for item in mixed)
        reference = run_join({0: [left], 1: [right]}, columnar=False)
        assert_same_outputs(mixed, reference)


def run_join_normalised(blocks_by_port, columnar, horizon=3.0, items=False):
    join = make_join(columnar_output=True)
    emitted = run_items(join, blocks_by_port, columnar, horizon)
    return emitted if items else rows(emitted)


class TestJoinColumnarOutput:
    """The opt-in prefix-normalised merge emits uniform-schema blocks."""

    def test_emits_a_column_block(self):
        blocks = {
            0: [cpu_block(["a", "b", "c"], [0.9, 0.5, 0.1])],
            1: [mem_block(["b", "c", "d"], [512.0, 256.0, 128.0])],
        }
        items = run_join_normalised(blocks, columnar=True, items=True)
        assert len(items) == 1
        assert isinstance(items[0], ColumnBlock)
        # Shared "id" is prefixed on every row; uniform schema.
        assert list(items[0].values) == ["id", "cpu", "right_id", "mem"]

    def test_block_output_matches_row_output(self):
        blocks = {
            0: [cpu_block(["a", "a", "b"], [0.1, 0.2, 0.3], sic=0.03)],
            1: [mem_block(["a", "a", "b"], [1.0, 2.0, 3.0], sic=0.05)],
        }
        columnar = run_join_normalised(blocks, columnar=True)
        per_tuple = run_join_normalised(blocks, columnar=False)
        assert len(columnar) == 5  # 2x2 'a' cross product + 1 'b'
        assert_same_outputs(columnar, per_tuple)

    def test_normalisation_differs_from_default_only_on_equal_shared_fields(self):
        # Shared "v": equal on the 'x' pair, different on the 'y' pair.  The
        # default rule prefixes only 'y'; the normalised rule prefixes both.
        blocks = {
            0: [block({"id": ["x", "y"], "v": [1.0, 2.0]})],
            1: [block({"id": ["x", "y"], "v": [1.0, 99.0]})],
        }
        default = run_join(blocks, columnar=True)
        normalised = run_join_normalised(blocks, columnar=True, items=True)
        assert isinstance(normalised[0], ColumnBlock)  # mixed values, still a block
        normalised = rows(normalised)
        assert len(default) == len(normalised) == 2
        for d, n in zip(default, normalised):
            assert d.timestamp == n.timestamp
            assert d.sic == n.sic
        by_id = {t.values["id"]: t.values for t in normalised}
        # Uniform schema on every row, including where the values were equal.
        assert by_id["x"]["v"] == 1.0 and by_id["x"]["right_v"] == 1.0
        assert by_id["y"]["v"] == 2.0 and by_id["y"]["right_v"] == 99.0
        default_by_id = {t.values["id"]: t.values for t in default}
        assert "right_v" not in default_by_id["x"]  # default rule unchanged

    def test_none_and_missing_keys(self):
        blocks = {
            0: [cpu_block(["a", None, "b"], [0.1, 0.2, 0.3])],
            1: [mem_block([None, "b"], [1.0, 2.0])],
        }
        columnar = run_join_normalised(blocks, columnar=True)
        per_tuple = run_join_normalised(blocks, columnar=False)
        assert len(columnar) == 1
        assert_same_outputs(columnar, per_tuple)

    def test_sic_propagation_matches_row_path(self):
        blocks = {
            0: [cpu_block(["a", "b"], [0.1, 0.2], sic=0.03)],
            1: [mem_block(["a", "b"], [1.0, 2.0], sic=0.05)],
        }
        columnar = run_join_normalised(blocks, columnar=True)
        per_tuple = run_join_normalised(blocks, columnar=False)
        assert columnar
        assert sum(t.sic for t in columnar) == pytest.approx(2 * 0.03 + 2 * 0.05)
        assert [t.sic for t in columnar] == [t.sic for t in per_tuple]

    def test_mixed_representation_falls_back_to_rows(self):
        join = make_join(columnar_output=True)
        left = cpu_block(["a", "b"], [0.1, 0.2])
        right = mem_block(["a", "b"], [1.0, 2.0])
        join.ingest_block(left, port=0)
        join.ingest(right.to_tuples(), port=1)
        mixed = join.advance(3.0)
        reference = run_join_normalised({0: [left], 1: [right]}, columnar=False)
        assert_same_outputs(mixed, reference)


KEYS = st.lists(st.sampled_from([None, "a", "b", "c", 1, 1.0]), max_size=8)


class TestMatchKernel:
    @given(left=KEYS, right=KEYS)
    @settings(max_examples=200, deadline=None)
    def test_pairs_are_the_nested_loop_pairs_in_left_row_major_order(
        self, left, right
    ):
        expected = [
            (i, j)
            for i, lk in enumerate(left)
            if lk is not None
            for j, rk in enumerate(right)
            if rk is not None and rk == lk
        ]
        matches = _match_rows(left, right)
        assert [(i, j) for i, rows in matches for j in rows] == expected
        for arrays in (False, True):
            left_rows, right_rows = _pair_index(matches, arrays) if matches else ([], [])
            assert list(zip(left_rows, right_rows)) == expected

    @given(
        left=st.lists(
            st.tuples(st.sampled_from(["a", "b", None]), st.sampled_from([1.0, 2.0])),
            min_size=1, max_size=6,
        ),
        right=st.lists(
            st.tuples(st.sampled_from(["a", "b", None]), st.sampled_from([1.0, 2.0])),
            min_size=1, max_size=6,
        ),
        columnar_output=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_panes_join_identically(self, left, right, columnar_output):
        # The shared "v" draws from two values, so all-equal, all-different
        # and mixed rounds all occur.
        blocks = {
            0: [block({"id": [k for k, _ in left], "v": [v for _, v in left]})],
            1: [block({"v": [v for _, v in right], "id": [k for k, _ in right]})],
        }
        kwargs = {"columnar_output": columnar_output}
        columnar = run_join(blocks, columnar=True, **kwargs)
        assert_same_outputs(columnar, run_join(blocks, columnar=False, **kwargs))


def run_union(blocks_by_port, columnar, num_ports=3):
    return run_items(Union(num_ports=num_ports), blocks_by_port, columnar, horizon=1.0)


class TestUnionColumnar:
    def test_interleaved_and_out_of_order_timestamps_across_ports(self):
        blocks = {
            0: [block({"v": [1.0, 2.0, 3.0]}, timestamps=[0.3, 0.1, 0.5], sic=0.1)],
            1: [block({"v": [4.0, 5.0]}, timestamps=[0.1, 0.4], sic=0.2)],
            2: [block({"v": [6.0]}, timestamps=[0.1], sic=0.3),
                block({"v": [7.0]}, timestamps=[0.0], sic=0.3)],
        }
        items = run_union(blocks, columnar=True)
        assert len(items) == 1 and isinstance(items[0], ColumnBlock)
        per_tuple = run_union(blocks, columnar=False)
        assert_same_outputs(rows(items), per_tuple)
        # Stable: equal timestamps keep port order, then insertion order.
        assert [t.values["v"] for t in per_tuple] == [7.0, 2.0, 4.0, 6.0, 1.0, 5.0, 3.0]

    def test_an_empty_port_and_a_single_port(self):
        blocks = {1: [block({"v": [1.0, 2.0]}, timestamps=[0.2, 0.1])]}
        items = run_union(blocks, columnar=True)
        assert len(items) == 1 and isinstance(items[0], ColumnBlock)
        assert_same_outputs(rows(items), run_union(blocks, columnar=False))

    def test_output_does_not_alias_the_input_block(self):
        source = block({"v": [1.0, 2.0]}, sic=0.4)
        (merged,) = run_union({0: [source]}, columnar=True)
        assert merged is not source
        assert list(source.sics) == [0.4, 0.4]  # the SIC rebind left it alone
        assert list(merged.sics) == [0.4, 0.4]

    def test_heterogeneous_schemas_fall_back_to_rows(self):
        blocks = {
            0: [block({"v": [1.0], "w": [2.0]}, timestamps=[0.2])],
            1: [block({"w": [3.0], "v": [4.0]}, timestamps=[0.1])],
        }
        items = run_union(blocks, columnar=True)
        assert all(isinstance(item, Tuple) for item in items)
        assert_same_outputs(items, run_union(blocks, columnar=False))
        assert [list(t.values) for t in items] == [["w", "v"], ["v", "w"]]

    def test_mixed_representation_falls_back_to_rows(self):
        union = Union(num_ports=2)
        union.ingest_block(block({"v": [1.0]}, timestamps=[0.2]), port=0)
        union.ingest(block({"v": [2.0]}, timestamps=[0.1]).to_tuples(), port=1)
        items = union.advance_items(1.0)
        assert [t.values["v"] for t in items] == [2.0, 1.0]

    def test_source_id_survives_only_when_every_port_shares_it(self):
        # Per-tuple rows keep their own source id; the merged block has one
        # slot, so it keeps a shared id and drops differing ones.  Nothing
        # downstream of a union routes by source id.
        shared = {
            0: [block({"v": [1.0]}, source_id="s")],
            1: [block({"v": [2.0]}, source_id="s")],
        }
        (merged,) = run_union(shared, columnar=True)
        assert merged.source_id == "s"
        differing = {
            0: [block({"v": [1.0]}, source_id="s0")],
            1: [block({"v": [2.0]}, source_id="s1")],
        }
        (merged,) = run_union(differing, columnar=True)
        assert merged.source_id is None
        per_tuple = run_union(differing, columnar=False)
        assert sorted(t.source_id for t in per_tuple) == ["s0", "s1"]


VALUES = st.sampled_from([0.0, -0.0, 1.5, 1.5, 7.25, -3.0])
IDENTS = st.sampled_from(["a", "b", None, 1, 1.0, "1"])


class TestTopKColumnReduce:
    """``_collect_best`` reduces a float column per identifier without a
    per-row compare; the ranking must equal the per-tuple loop's exactly."""

    @staticmethod
    def run(make, blocks_by_port, columnar):
        return rows(run_items(make(), blocks_by_port, columnar))

    @given(pane=st.lists(st.tuples(IDENTS, VALUES), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_float_column_ranks_like_the_row_loop(self, pane):
        # -0.0 / 0.0 and repeated values exercise "first seen among equals";
        # 1 / 1.0 / "1" exercise first-seen key objects and rank ties.
        blocks = {0: [block({"id": [i for i, _ in pane], "value": [v for _, v in pane]},
                            timestamps=[0.5] * len(pane))]}
        make = partial(TopK, k=3, value_field="value", id_field="id")
        columnar = self.run(make, blocks, columnar=True)
        per_tuple = self.run(make, blocks, columnar=False)
        assert_same_outputs(columnar, per_tuple)
        assert [repr(t.values["value"]) for t in columnar] == [
            repr(t.values["value"]) for t in per_tuple
        ]

    @pytest.mark.parametrize("odd", [float("nan"), None, 3])
    def test_inexact_value_columns_take_the_row_loop(self, odd):
        # NaN sticks once seen (nothing compares greater); None rows are
        # skipped; ints make an object column: all fall back, identically.
        blocks = {0: [block({"id": ["a", "a", "b", "b"], "value": [odd, 2.0, 1.0, odd]},
                            timestamps=[0.5] * 4)]}
        make = partial(TopK, k=2, value_field="value", id_field="id")
        columnar = self.run(make, blocks, columnar=True)
        per_tuple = self.run(make, blocks, columnar=False)
        assert [repr(sorted(t.values.items())) for t in columnar] == [
            repr(sorted(t.values.items())) for t in per_tuple
        ]

    def test_merge_ranks_across_column_and_tuple_panes(self):
        merge = TopKMerge(k=2, value_field="value", id_field="id")
        merge.ingest_block(
            block({"id": ["a", "b", "a"], "value": [1.0, 5.0, 9.0]},
                  timestamps=[0.5] * 3), port=0)
        merge.ingest([Tuple(0.5, 0.1, {"id": "b", "value": 7.0})], port=1)
        out = merge.advance(3.0)
        assert [(t.values["id"], t.values["value"], t.values["rank"]) for t in out] == [
            ("a", 9.0, 1), ("b", 7.0, 2)
        ]
