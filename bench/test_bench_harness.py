"""Tests of the benchmark harness itself (collected by tier-1, a few seconds).

They cover the parts of ``bench/`` whose mistakes would silently bend every
later measurement: the percentile maths, span self-time accounting, tracer
installation hygiene, seeded-result neutrality of tracing and stepping, and
agreement between the report and ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# Allow running without installing the package first (as benchmarks/ does).
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from bench import compare, run, stats  # noqa: E402
from bench.child import CHECKS, run_pass  # noqa: E402
from bench.trace import LAYERS, Layer, Tracer, _resolve, metric_specs  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ------------------------------------------------------------------ statistics
def test_percentile_interpolates_like_numpy():
    samples = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(samples, 0) == 1.0
    assert stats.percentile(samples, 100) == 4.0
    assert stats.percentile(samples, 50) == 2.5
    assert stats.percentile(samples, 95) == pytest.approx(3.85)
    assert stats.percentile([7.0], 95) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_pooled_p95_is_taken_over_all_intervals_not_per_repeat():
    quiet = [1.0] * 95
    noisy = [1.0] * 90 + [100.0] * 5
    # Median of per-repeat tails would read 1.0 or 100.0; pooled, 5 of 190
    # samples are slow, so the 95th percentile still sits on the fast side.
    assert stats.pooled_percentile([quiet, noisy], 95) == 1.0
    assert stats.pooled_percentile([noisy, noisy], 95) > 1.0


def test_spread_and_jain():
    assert stats.spread([5.0]) is None
    assert stats.spread([10.0] * 6) == 0.0
    assert stats.spread([9.0, 10.0, 11.0]) == pytest.approx(0.2)
    assert stats.jain_index([0.5, 0.5, 0.5]) == pytest.approx(1.0)
    assert stats.jain_index([1.0, 0.0]) == pytest.approx(0.5)


# ---------------------------------------------------------- span self-time maths
class _FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


_CLOCK = _FakeClock()


class _Outer:
    def run(self, inner: "_Inner") -> None:
        _CLOCK.now += 1.0
        inner.work(2)
        _CLOCK.now += 2.0
        inner.work(0)


class _Inner:
    def work(self, depth: int) -> None:
        _CLOCK.now += 0.5
        if depth:
            self.work(depth - 1)


def _synthetic_tracer(**kwargs) -> Tracer:
    layers = (
        Layer("outer", (f"{__name__}:_Outer.run",), "test"),
        Layer("inner", (f"{__name__}:_Inner.work",), "test"),
    )
    return Tracer(layers=layers, clock=_CLOCK, **kwargs)


def test_self_time_never_double_counts_children_and_survives_recursion(tmp_path):
    tracer = _synthetic_tracer(keep_intervals=1)
    tracer.install()
    try:
        tracer.start_measuring()
        _Outer().run(_Inner())
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    # outer: 1.0 + 2.0 of its own; inner: 3 recursive levels + 1 leaf call.
    assert metrics["outer.self_s"] == pytest.approx(3.0)
    assert metrics["inner.self_s"] == pytest.approx(2.0)
    assert tracer.attributed_s == pytest.approx(5.0)
    assert metrics["outer.calls"] == 1
    # A layer re-entering itself is one call, counted at the outside.
    assert metrics["inner.calls"] == 2
    assert tracer.span_count == 5

    path = tmp_path / "spans.jsonl"
    assert tracer.write_spans(path) == 5
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    by_id = {span["id"]: span for span in spans}
    roots = [span for span in spans if span["parent"] == 0]
    assert [span["layer"] for span in roots] == ["outer"]
    for span in spans:
        if span["parent"]:
            parent = by_id[span["parent"]]
            assert parent["start_us"] <= span["start_us"] <= span["end_us"] <= parent["end_us"]


def test_raw_spans_stop_after_keep_intervals_but_totals_continue():
    tracer = _synthetic_tracer(keep_intervals=1)
    tracer.install()
    try:
        tracer.start_measuring()
        _Inner().work(0)
        tracer.end_interval()
        _Inner().work(0)
    finally:
        tracer.uninstall()
    assert tracer.span_count == 2
    assert len(tracer._spans) == 1
    assert tracer.layer_metrics()["inner.self_s"] == pytest.approx(1.0)


# ------------------------------------------------------- installation hygiene
def test_install_then_uninstall_restores_exact_class_attributes():
    targets = [_resolve(ep) for layer in LAYERS for ep in layer.entry_points]
    assert all(target is not None for target in targets)
    before = [(cls, name, cls.__dict__.get(name)) for cls, name in targets]
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        for cls, name, original in before:
            assert getattr(cls, name) is not original
    finally:
        tracer.uninstall()
    for cls, name, original in before:
        assert cls.__dict__.get(name) is original


def test_double_install_is_refused():
    tracer = _synthetic_tracer()
    tracer.install()
    try:
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()


def test_missing_entry_point_is_skipped_and_counted():
    layers = (
        Layer("gone", ("repro.core.tuples:Batch.no_such_method", "no.such.module:X.y"), "test"),
        Layer("half", (f"{__name__}:_Inner.work", f"{__name__}:_Inner.renamed"), "test"),
    )
    tracer = Tracer(layers=layers, clock=_CLOCK)
    tracer.install()
    try:
        tracer.start_measuring()
        _Inner().work(0)
    finally:
        tracer.uninstall()
    assert tracer.missing == [
        "repro.core.tuples:Batch.no_such_method",
        "no.such.module:X.y",
        f"{__name__}:_Inner.renamed",
    ]
    metrics = tracer.layer_metrics()
    assert metrics["gone.self_s"] is None and metrics["gone.calls"] is None
    assert metrics["half.calls"] == 1


# ------------------------------------------------------ seeded-result neutrality
@pytest.fixture(scope="module")
def smoke_passes():
    """Traced (stepped), plain stepped and unstepped smoke passes.

    ``federation`` (reliable delivery, checkpoint rounds, multi-fragment
    queries) costs ~1.5 s a pass, so its plain stepped pass is left out: the
    traced pass already steps.
    """
    passes = {}
    for name, modes in (
        ("overload", ("traced", "stepped", "unstepped")),
        ("federation", ("traced", "unstepped")),
    ):
        workload = WORKLOADS[name]
        passes[name] = {
            mode: run_pass(
                workload, 1, scale="smoke",
                traced=mode == "traced", stepped=mode != "unstepped",
            )
            for mode in modes
        }
    return passes


def test_traced_stepped_and_unstepped_passes_share_one_fingerprint(smoke_passes):
    for name, passes in smoke_passes.items():
        assert len({p["fingerprint"] for p in passes.values()}) == 1, name
        for mode, result in passes.items():
            assert result["failures"] == {}, (name, mode)
        assert len(passes["traced"]["interval_ms"]) == passes["traced"]["intervals"]
        assert passes["unstepped"]["interval_ms"] == []


def test_each_workload_stresses_the_layers_it_was_chosen_for(smoke_passes):
    overload = smoke_passes["overload"]["traced"]["layers"]
    federation = smoke_passes["federation"]["traced"]["layers"]
    assert overload["core.balance_sic.select.calls"] > 0
    assert overload["core.tuples.split.calls"] > 0
    assert overload["state.checkpoint.calls"] == 0
    assert federation["state.checkpoint.calls"] > 0
    assert federation["federation.network.send.messages"] > 0
    assert smoke_passes["federation"]["traced"]["missing_entry_points"] == []


# --------------------------------------------------- report vs BENCHMARK.json
def test_report_names_equal_benchmark_json(smoke_passes):
    assert list(WORKLOADS) == [w["name"] for w in MANIFEST["workloads"]]
    for workload in MANIFEST["workloads"]:
        assert workload["why"] == WORKLOADS[workload["name"]].why
    assert [
        (m["name"], m["unit"], m["better"]) for m in MANIFEST["per_layer"]
    ] == metric_specs()

    passes = smoke_passes["overload"]
    entry = run.summarize(
        "overload", MANIFEST, [passes["stepped"], passes["stepped"]], [passes["traced"]], 0
    )
    assert list(entry["end_to_end"]) == [m["name"] for m in MANIFEST["end_to_end"]]
    assert list(entry["per_layer"]) == [m["name"] for m in MANIFEST["per_layer"]]
    assert entry["checks_attempted"] == 3 * len(CHECKS) + 1
    assert entry["checks_failed"] == 0
    assert entry["result_fingerprint"] == passes["stepped"]["fingerprint"]
    assert 0.0 < entry["attributed_share"] <= 1.0
    for trace in (0, 1):
        line = json.loads(run.contract_line(entry, trace))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["attempted"] >= 1
        names = MANIFEST["per_layer"] if trace else MANIFEST["end_to_end"]
        assert list(line["metrics"]) == [m["name"] for m in names]
        assert all(set(cell) == {"value", "unit"} for cell in line["metrics"].values())


def test_crashed_pass_fails_all_of_its_checks(smoke_passes):
    stepped = smoke_passes["overload"]["stepped"]
    entry = run.summarize("overload", MANIFEST, [stepped], [], 1)
    assert entry["checks_attempted"] == 2 * len(CHECKS)
    assert entry["checks_failed"] == len(CHECKS)


# --------------------------------------------------------------------- compare
def _cell(value, samples=None, spread=0.0):
    return {"value": value, "samples": samples or [value], "spread": spread}


def test_compare_classifies_against_the_bound():
    assert compare.classify(_cell(100.0), _cell(95.0), "higher", 0.1)[0] == "within-bound"
    assert compare.classify(_cell(100.0), _cell(85.0), "higher", 0.1)[0] == "worse"
    assert compare.classify(_cell(100.0), _cell(115.0), "higher", 0.1)[0] == "better"
    assert compare.classify(_cell(100.0), _cell(115.0), "lower", 0.1)[0] == "worse"
    wide = _cell(100.0, [80.0, 100.0, 120.0], spread=0.2)
    assert compare.classify(wide, _cell(95.0, [94.0, 95.0, 96.0]), "higher", 0.1)[0] == "unresolved"
    assert compare.classify(wide, _cell(130.0, [125.0, 130.0]), "higher", 0.1)[0] == "better"
    assert compare.classify(wide, _cell(60.0, [55.0, 60.0]), "higher", 0.1)[0] == "worse"


def test_compare_reports_flags_regressions_and_failure_share(smoke_passes):
    passes = smoke_passes["overload"]
    entry = run.summarize("overload", MANIFEST, [passes["stepped"]] * 2, [], 0)
    report = {"workloads": {"overload": entry}}
    manifest = dict(MANIFEST, workloads=[{"name": "overload"}])
    rows, regressed = compare.compare_reports(report, report, manifest)
    assert not regressed
    assert {verdict for _, _, verdict, _ in rows} == {"within-bound", "same"}
    failing = dict(entry, checks_failed=1)
    _, regressed = compare.compare_reports(report, {"workloads": {"overload": failing}}, manifest)
    assert regressed


# ------------------------------------------------------------------ command line
def test_contract_mode_prints_one_result_line():
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "overload",
         "--seed", "1", "--scale", "smoke", "--repeats", "1", "--trace", "0",
         "--out", str(ROOT / "bench" / "out" / "test-report.json")],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] is True and line["failed"] == 0
    assert list(line["metrics"]) == [m["name"] for m in MANIFEST["end_to_end"]]
    assert all(cell["value"] > 0 for cell in line["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(
        ROOT / "bench", tmp_path / "bench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "overload", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
