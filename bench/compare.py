"""Compare two benchmark reports: ``python bench/compare.py A.json B.json``.

``A`` is the baseline (the parent commit), ``B`` the candidate.  Every
(workload, end-to-end metric) pair gets one row:

* ``worse`` — B's value is worse than A's by more than the metric's bound
  (``BENCHMARK.json``); the only verdict that fails the comparison;
* ``better`` — B is better by more than the bound;
* ``within-bound`` — the values agree to within the bound;
* ``unresolved`` — the run-to-run spread of either side is wider than the
  bound, so the pair cannot be called unchanged.  It resolves only when
  every pass of B reads better (``better``) or worse (``worse``) than every
  pass of A.

The share of failed output checks is compared too.  Exit status 1 on any
``worse`` row or a higher failure share, else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

__all__ = ["classify", "compare_reports", "main"]


def classify(
    base: Dict[str, object], cand: Dict[str, object], better: str, bound: float
) -> Tuple[str, float]:
    """Verdict and signed relative change (positive = worse) for one metric.

    ``base`` / ``cand`` are report cells (``value``, ``samples``, ``spread``).
    """
    sign = 1.0 if better == "lower" else -1.0
    # "+ 0.0" turns a negative zero into a plain one for printing.
    change = sign * (cand["value"] - base["value"]) / abs(base["value"]) + 0.0
    spreads = [s for s in (base.get("spread"), cand.get("spread")) if s is not None]
    if spreads and max(spreads) > bound:
        a = [sign * v for v in base["samples"]]
        b = [sign * v for v in cand["samples"]]
        if max(b) < min(a):
            return "better", change
        if min(b) > max(a) and change > bound:
            return "worse", change
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "within-bound", change


def _failure_share(entry: Dict[str, object]) -> float:
    return entry["checks_failed"] / max(1, entry["checks_attempted"])


def compare_reports(
    base: Dict[str, object], cand: Dict[str, object], manifest: Dict[str, object]
) -> Tuple[List[Tuple[str, str, str, Optional[float]]], bool]:
    """Rows ``(workload, metric, verdict, change)`` and whether B regressed."""
    rows: List[Tuple[str, str, str, Optional[float]]] = []
    regressed = False
    for workload in (w["name"] for w in manifest["workloads"]):
        a = base["workloads"].get(workload)
        b = cand["workloads"].get(workload)
        if a is None or b is None:
            # A baseline workload the candidate did not run is a regression;
            # one the baseline lacks has nothing to be compared with.
            rows.append((workload, "*", "missing", None))
            regressed = regressed or a is not None
            continue
        for spec in manifest["end_to_end"]:
            metric = spec["name"]
            verdict, change = classify(
                a["end_to_end"][metric], b["end_to_end"][metric],
                spec["better"], spec["bound"],
            )
            rows.append((workload, metric, verdict, change))
            regressed = regressed or verdict == "worse"
        # Not a verdict on its own: a PR that means to change results says so.
        fingerprints = {a["result_fingerprint"], b["result_fingerprint"]}
        same = len(fingerprints) == 1 and None not in fingerprints
        rows.append((workload, "result_fingerprint", "same" if same else "changed", None))
        share_a, share_b = _failure_share(a), _failure_share(b)
        verdict = "worse" if share_b > share_a else "within-bound"
        rows.append((workload, "checks_failed_share", verdict, share_b - share_a))
        regressed = regressed or verdict == "worse"
    return rows, regressed


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 2:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    reports = []
    for path in args:
        with open(path, encoding="utf-8") as handle:
            reports.append(json.load(handle))
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        manifest = json.load(handle)
    for label, report in zip("AB", reports):
        machine = report["machine"]
        print(
            f"{label}: revision {machine['git_revision']}"
            f"{' (dirty)' if machine['dirty'] else ''}, {machine['cpu_count']} CPUs, "
            f"seed {report['seed']}, scale {report['scale']}"
        )
    rows, regressed = compare_reports(reports[0], reports[1], manifest)
    for workload, metric, verdict, change in rows:
        shown = "" if change is None else f"{change:+8.2%}"
        print(f"{workload:<14}{metric:<24}{verdict:<14}{shown}")
    print("REGRESSION" if regressed else "no regression")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
