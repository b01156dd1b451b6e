"""Benchmark of record: four overload workloads, end to end and layer by layer.

Report mode (every workload, untraced repeats then one traced pass each)::

    python bench/run.py [--seed N] [--repeats R] [--workload W] [--out FILE]

Contract mode (one workload; the last line of standard output is one JSON
object with ``correct`` / ``attempted`` / ``failed`` / ``metrics``)::

    python bench/run.py --workload W --seed N --seconds S --trace 0|1

Each pass runs in a fresh ``python -m bench.child`` process with
``PYTHONHASHSEED=0`` and every ``REPRO_*`` variable cleared, so the benchmark
measures whatever the default execution path is.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
if not __package__:
    # Run as a script: import the harness as the ``bench`` package, and keep
    # its directory (whose trace.py shadows the standard library's) off the
    # module search path.
    sys.path[0] = str(ROOT)

from bench import stats  # noqa: E402
from bench.child import CHECKS  # noqa: E402
from bench.trace import metric_specs  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
MANIFEST = ROOT / "BENCHMARK.json"
# A single pass must stay far inside the contract's 180 s per-run limit.
CHILD_TIMEOUT_SECONDS = 150
# Passes per run when a time budget is given: enough for a median set-up time.
MIN_TIMED_PASSES = 3
DEFAULT_REPEATS = 5


def load_manifest() -> Dict[str, object]:
    with open(MANIFEST, encoding="utf-8") as handle:
        return json.load(handle)


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    return env


def spawn_pass(
    workload: str, seed: int, scale: str, traced: bool = False
) -> Optional[Dict[str, object]]:
    """One pass in a fresh child; ``None`` (with the reason on stderr) if it died."""
    command = [sys.executable, "-m", "bench.child", "--workload", workload]
    command += ["--seed", str(seed), "--scale", scale]
    if traced:
        OUT.mkdir(parents=True, exist_ok=True)
        command += ["--traced", "--spans", str(OUT / f"trace-{workload}.jsonl")]
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_SECONDS,
        )
    except subprocess.TimeoutExpired:
        print(f"bench: {workload} pass exceeded {CHILD_TIMEOUT_SECONDS}s", file=sys.stderr)
        return None
    if done.returncode != 0 or not done.stdout.strip():
        print(f"bench: {workload} pass failed:\n{done.stderr}", file=sys.stderr)
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def machine_stamp() -> Dict[str, object]:
    """Where the numbers came from; a dirty tree is stamped, never hidden."""
    stamp: Dict[str, object] = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "platform": platform.platform(),
        "git_revision": None,
        "dirty": None,
        "dirty_paths": None,
    }
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return stamp
    if revision.returncode == 0 and status.returncode == 0:
        stamp["git_revision"] = revision.stdout.strip()
        # Top-level entries with uncommitted changes, so a reader can tell a
        # dirty benchmark directory from a dirty program.
        paths = sorted({line[3:].split("/")[0] for line in status.stdout.splitlines()})
        stamp["dirty"] = bool(paths)
        stamp["dirty_paths"] = paths
    return stamp


def summarize(
    name: str,
    manifest: Dict[str, object],
    untraced: List[Dict[str, object]],
    traced: List[Dict[str, object]],
    crashed: int,
) -> Dict[str, object]:
    """Fold one workload's passes into its report entry."""
    failures: List[str] = [f"{crashed} pass(es) crashed"] if crashed else []
    attempted = (len(untraced) + len(traced) + crashed) * len(CHECKS)
    failed = crashed * len(CHECKS)
    for index, result in enumerate(untraced + traced):
        for check, message in sorted(result["failures"].items()):
            failed += 1
            failures.append(f"pass {index} {check}: {message}")
    fingerprints = sorted({r["fingerprint"] for r in untraced + traced})
    if len(untraced) + len(traced) > 1:
        # Repeats, stepping and tracing must not change a seeded result.
        attempted += 1
        if len(fingerprints) != 1:
            failed += 1
            failures.append(f"fingerprint_repeatable: {fingerprints}")

    entry: Dict[str, object] = {
        "why": WORKLOADS[name].why,
        "passes": len(untraced),
        "traced_passes": len(traced),
        "result_fingerprint": fingerprints[0] if len(fingerprints) == 1 else None,
        "checks_attempted": attempted,
        "checks_failed": failed,
        "failures": failures,
        "end_to_end": {},
        "per_layer": {},
    }
    timed = untraced or traced
    if untraced:
        per_pass = {
            metric: [r["metrics"][metric] for r in untraced]
            for metric in untraced[0]["metrics"]
        }
        per_pass["interval_ms_p95"] = [
            stats.percentile(r["interval_ms"], 95) for r in untraced
        ]
        pooled = [r["interval_ms"] for r in untraced]
        for spec in manifest["end_to_end"]:
            metric = spec["name"]
            samples = per_pass[metric]
            entry["end_to_end"][metric] = {
                # The tail is taken over the intervals of all passes pooled.
                "value": stats.pooled_percentile(pooled, 95)
                if metric == "interval_ms_p95"
                else stats.median(samples),
                "unit": spec["unit"],
                "samples": samples,
                "spread": stats.spread(samples),
            }
    if timed:
        intervals = [r["interval_ms"] for r in timed]
        entry["interval_ms_p50"] = stats.pooled_percentile(intervals, 50)
        entry["interval_samples"] = sum(len(i) for i in intervals)
    if traced:
        layers: Dict[str, Optional[float]] = {}
        for metric in traced[0]["layers"]:
            values = [r["layers"][metric] for r in traced]
            layers[metric] = None if None in values else stats.median(values)
        layers["runtime.scheduler.interval_ms_p50"] = entry["interval_ms_p50"]
        traced_wall = stats.median([r["wall_s"] for r in traced])
        if untraced:
            plain_wall = stats.median([r["wall_s"] for r in untraced])
            layers["trace.overhead_pct"] = (traced_wall / plain_wall - 1.0) * 100.0
        else:
            layers["trace.overhead_pct"] = None
        entry["per_layer"] = {
            metric: {"value": layers[metric], "unit": unit}
            for metric, unit, _better in metric_specs()
        }
        entry["attributed_share"] = 1.0 - layers["runtime.scheduler.self_s"] / traced_wall
        entry["traced_wall_s"] = traced_wall
        entry["missing_entry_points"] = traced[0]["missing_entry_points"]
    return entry


def run_workloads(
    names: List[str],
    seed: int,
    scale: str,
    repeats: int,
    seconds: Optional[float],
    tracing: str,
    manifest: Dict[str, object],
) -> Dict[str, object]:
    """Run the passes and return the report.

    Args:
        repeats: rounds (one untraced pass per workload each) to run at least.
        seconds: keep adding rounds until every workload has measured this
            many wall seconds (``None``: exactly ``repeats`` rounds).
        tracing: ``"off"``; ``"after"`` — one traced pass per workload once
            the rounds are done (report mode); or ``"paired"`` — a traced pass
            next to every untraced one (contract ``--trace 1``, so the
            tracing overhead is a median of like-for-like neighbours).
        manifest: the parsed ``BENCHMARK.json``.
    """
    plain: Dict[str, List[Dict[str, object]]] = {name: [] for name in names}
    traced: Dict[str, List[Dict[str, object]]] = {name: [] for name in names}
    crashed = {name: 0 for name in names}

    def one(name: str, with_trace: bool) -> None:
        result = spawn_pass(name, seed, scale, traced=with_trace)
        if result is None:
            crashed[name] += 1
        else:
            (traced if with_trace else plain)[name].append(result)

    def measured(name: str) -> float:
        return sum(r["wall_s"] for r in plain[name] + traced[name])

    for name in names:
        # Discarded: warms the page cache and writes the .pyc files, so the
        # first measured set-up is not a cold one.
        spawn_pass(name, seed, "smoke")
    rounds = 0
    # Round-robin across workloads, so drift on a shared box spreads evenly.
    while rounds < repeats or (
        seconds is not None
        and any(measured(n) < seconds and not crashed[n] for n in names)
    ):
        for name in names:
            one(name, False)
            if tracing == "paired":
                one(name, True)
        rounds += 1
    if tracing == "after":
        for name in names:
            one(name, True)

    return {
        "schema": 1,
        "machine": machine_stamp(),
        "seed": seed,
        "scale": scale,
        "workloads": {
            name: summarize(name, manifest, plain[name], traced[name], crashed[name])
            for name in names
        },
    }


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "null"
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.6g}"


def print_report(report: Dict[str, object], manifest: Dict[str, object]) -> None:
    machine = report["machine"]
    print(
        f"machine: {machine['cpu_count']} CPUs, Python {machine['python']}, "
        f"NumPy {machine['numpy']}, revision {machine['git_revision']}"
        f"{' (dirty)' if machine['dirty'] else ''}; seed {report['seed']}, "
        f"scale {report['scale']}"
    )
    if machine["dirty"]:
        print(f"warning: uncommitted changes in {', '.join(machine['dirty_paths'])}")
    bounds = {spec["name"]: spec["bound"] for spec in manifest["end_to_end"]}
    for name, entry in report["workloads"].items():
        print(f"\n== {name}: {entry['passes']} pass(es), {entry['traced_passes']} traced ==")
        for metric, cell in entry["end_to_end"].items():
            spread = cell["spread"]
            print(
                f"  {metric:<24}{_fmt(cell['value']):>14} {cell['unit']:<6}"
                f" spread {'n/a' if spread is None else f'{spread:.2%}'}"
                f" (bound {bounds[metric]:.1%})"
            )
        if "interval_ms_p50" in entry:
            print(
                f"  {'interval_ms_p50':<24}{_fmt(entry['interval_ms_p50']):>14} ms    "
                f" over {entry['interval_samples']} intervals (not gated)"
            )
        print(f"  result_fingerprint      {entry['result_fingerprint']}")
        print(f"  checks                  {entry['checks_failed']} failed of {entry['checks_attempted']}")
        for failure in entry["failures"]:
            print(f"    FAILED {failure}")
        if entry["per_layer"]:
            wall = entry["traced_wall_s"]
            print(
                f"  traced wall {wall:.3f} s, {entry['attributed_share']:.1%} "
                f"attributed to named layers"
            )
            for metric, cell in entry["per_layer"].items():
                share = ""
                if metric.endswith(".self_s") and cell["value"] is not None:
                    share = f"  {cell['value'] / wall:6.1%} of wall"
                print(f"    {metric:<52}{_fmt(cell['value']):>14} {cell['unit']}{share}")
            for entry_point in entry["missing_entry_points"]:
                print(f"    missing entry point: {entry_point}")


def contract_line(entry: Dict[str, object], trace: int) -> str:
    cells = entry["per_layer"] if trace else entry["end_to_end"]
    return json.dumps(
        {
            "correct": entry["checks_failed"] == 0,
            "attempted": entry["checks_attempted"],
            "failed": entry["checks_failed"],
            "metrics": {
                metric: {"value": cell["value"], "unit": cell["unit"]}
                for metric, cell in cells.items()
            },
        }
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=list(WORKLOADS), help="default: all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, help=f"passes per workload (default {DEFAULT_REPEATS})")
    parser.add_argument("--seconds", type=float, help="measure at least this long per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="contract mode")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", help="write the JSON report here (default bench/out/report.json)")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"bench: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.trace is not None and args.workload is None:
        parser.error("--trace needs --workload")

    names = [args.workload] if args.workload else list(WORKLOADS)
    if args.repeats is not None:
        repeats = args.repeats
    elif args.trace == 1:
        repeats = 1
    elif args.seconds is not None:
        repeats = MIN_TIMED_PASSES
    else:
        repeats = DEFAULT_REPEATS
    manifest = load_manifest()
    report = run_workloads(
        names,
        args.seed,
        args.scale,
        repeats=repeats,
        seconds=args.seconds,
        tracing={None: "after", 0: "off", 1: "paired"}[args.trace],
        manifest=manifest,
    )
    print_report(report, manifest)
    out = Path(args.out) if args.out else OUT / "report.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"\nreport written to {out}")

    entries = report["workloads"]
    if any(
        not e["passes"] or (args.trace == 1 and not e["traced_passes"])
        for e in entries.values()
    ):
        print("bench: a workload produced no measurement", file=sys.stderr)
        return 1
    if args.trace is not None:
        print(contract_line(entries[args.workload], args.trace))
        return 0
    return 1 if any(e["checks_failed"] for e in entries.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
