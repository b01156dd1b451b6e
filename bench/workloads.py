"""The four benchmark workloads.

Every workload is a seeded deployment of the *default* execution path under a
250 ms shedding interval and a 10 s STW.  Sources are open-loop in simulated
time (fixed rates: an overloaded node sheds, it never backs up), so in
wall-clock terms one pass is a batch job of a stated input size.

The deployment *shape* (query count, kinds, fragment counts, rates, placement)
is the same for every seed; ``--seed`` drives the source data only.  That
keeps the fairness and wire-cost metrics comparable across seeds (a seeded
fragment-count draw moves Jain's index on ``federation`` between 0.86 and
0.97 on its own; see ``child.SHEDDER_SEED`` for the shedders' RNGs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["Workload", "WORKLOADS", "WARMUP_INTERVALS", "SHEDDING_INTERVAL"]

SHEDDING_INTERVAL = 0.25
# 10 simulated seconds: fills the source time window before measuring.
WARMUP_INTERVALS = {"full": 40, "smoke": 4}

_AGGREGATE_KINDS = ("avg", "max", "count")
_COMPLEX_KINDS = ("avg-all", "top5", "cov")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name / why: identifier and the one-line reason the workload exists.
        nodes: federation size.
        capacity_fraction: node budget as a share of the offered load.
        latency: one-way network latency in seconds.
        intervals: measured shedding intervals per pass, per scale.
        build_queries: ``seed -> [WorkloadQuery]`` (fresh objects each call).
        reliable: run data/result traffic over the reliable channel.
        checkpoint_interval: federation-wide checkpoint cadence, if any.
        overloaded_share: ``(min, max)`` share of measured node rounds that
            must be overloaded — the check that the workload does what its
            name says.
    """

    name: str
    why: str
    nodes: int
    capacity_fraction: float
    latency: float
    intervals: Dict[str, int]
    build_queries: Callable[[int], List[object]]
    reliable: bool = False
    checkpoint_interval: Optional[float] = None
    overloaded_share: Tuple[float, float] = (0.0, 1.0)


def _aggregate_queries(
    count: int, rates: Tuple[float, ...], dataset: str
) -> Callable[[int], List[object]]:
    def build(seed: int) -> List[object]:
        from repro.workloads.aggregate import make_aggregate_query

        return [
            make_aggregate_query(
                _AGGREGATE_KINDS[i % len(_AGGREGATE_KINDS)],
                query_id=f"q{i:03d}",
                rate=float(rates[i % len(rates)]),
                dataset=dataset,
                seed=seed * 100_003 + i,
            )
            for i in range(count)
        ]

    return build


def _complex_queries(count: int, rate: float) -> Callable[[int], List[object]]:
    def build(seed: int) -> List[object]:
        from repro.workloads.complex import make_complex_query

        queries = []
        for i in range(count):
            kind = _COMPLEX_KINDS[i % len(_COMPLEX_KINDS)]
            # Every kind is deployed both unfragmented and as 3 fragments.
            shape: Dict[str, object] = {
                "num_fragments": (1, 3)[(i // len(_COMPLEX_KINDS)) % 2]
            }
            if kind == "avg-all":
                shape["sources_per_fragment"] = 4
            elif kind == "top5":
                shape["machines_per_fragment"] = 2
            queries.append(
                make_complex_query(
                    kind,
                    query_id=f"q{i:02d}-{kind}",
                    rate=rate,
                    dataset="gaussian",
                    seed=seed * 7919 + i,
                    **shape,
                )
            )
        return queries

    return build


_SKEWED_RATES = (500.0, 1000.0, 2000.0, 4500.0)  # 24 k tuples/s over 12 queries

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="overload",
            why=(
                "the paper's regime: 12 skewed aggregate queries at half "
                "capacity, every round does real water-filling, splitting "
                "and per-piece delivery"
            ),
            nodes=1,
            capacity_fraction=0.5,
            latency=0.005,
            intervals={"full": 160, "smoke": 8},
            build_queries=_aggregate_queries(12, _SKEWED_RATES, "uniform"),
            overloaded_share=(0.95, 1.0),
        ),
        Workload(
            name="headroom",
            why=(
                "same queries, rates and seed at 1.25x capacity: the shedder "
                "is never called, so it is the bypass for every shedding "
                "optimisation and the showcase for the columnar/fused path"
            ),
            nodes=1,
            capacity_fraction=1.25,
            latency=0.005,
            intervals={"full": 2400, "smoke": 40},
            build_queries=_aggregate_queries(12, _SKEWED_RATES, "uniform"),
            overloaded_share=(0.0, 0.0),
        ),
        Workload(
            name="many_queries",
            why=(
                "same offered load spread over 300 small gaussian queries: "
                "the shedder sees many tiny batches, and per-query state, "
                "updateSIC fan-out and scheduler events become visible"
            ),
            nodes=1,
            capacity_fraction=0.5,
            latency=0.005,
            intervals={"full": 40, "smoke": 4},
            build_queries=_aggregate_queries(
                300, (40.0, 80.0, 120.0, 80.0), "gaussian"
            ),
            overloaded_share=(0.95, 1.0),
        ),
        Workload(
            name="federation",
            why=(
                "the federated half: 8 nodes over a 50 ms WAN, 24 "
                "multi-fragment join/top-k/covariance queries, reliable "
                "delivery and 1 s checkpoint rounds; the shedder is ~1 %"
            ),
            nodes=8,
            capacity_fraction=0.5,
            latency=0.05,
            intervals={"full": 60, "smoke": 4},
            build_queries=_complex_queries(24, 100.0),
            reliable=True,
            checkpoint_interval=1.0,
        ),
    )
}
