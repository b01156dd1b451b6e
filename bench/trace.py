"""Outside-in tracing of the layers a benchmark pass crosses.

The tracer lives entirely in the benchmark: it wraps, at class level, the
public entry points listed in :data:`LAYERS` and records one span (layer,
start, end, parent) per call.  A layer's *self time* is its spans' duration
minus the part covered by child spans; it is accumulated as the run goes, so
only the raw spans of the first few measured intervals are kept in memory
(and written out as JSONL when the pass ends).

Wrappers must be installed *before* the federation is built — source routes
capture bound methods at deploy time — and are removed afterwards, restoring
the exact original class attributes.  An entry point that no longer exists is
skipped and counted; a layer with no surviving entry point reports ``None``
for every metric.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from bench.stats import percentile

__all__ = ["Layer", "LAYERS", "Tracer", "metric_specs"]

# (metric suffix, unit, better)
Extra = Tuple[str, str, str]
# hook(counters, args, result, duration_seconds): ``args`` holds the call's
# positional-or-keyword parameters in declaration order (``self`` first),
# defaults applied.
Hook = Callable[[Dict[str, float], tuple, object, float], None]


def _add(counters: Dict[str, float], key: str, amount: float) -> None:
    counters[key] = counters.get(key, 0) + amount


def _count_result_len(key: str) -> Hook:
    def hook(counters, args, result, duration):
        if result is not None:
            _add(counters, key, len(result))

    return hook


def _count_arg_len(key: str) -> Hook:
    def hook(counters, args, result, duration):
        _add(counters, key, len(args[1]))

    return hook


def _select_hook(counters, args, result, duration):
    _add(counters, "input_batches", len(args[1]))
    _add(counters, "kept_pieces", len(result.kept))
    _add(counters, "kept_tuples", result.kept_tuples)
    _add(counters, "shed_tuples", result.shed_tuples)


def _shed_round_hook(counters, args, result, duration):
    _add(counters, "overloaded_rounds", 1 if result.overloaded else 0)
    counters.setdefault("_round_ms", []).append(duration * 1e3)


def _run_prefix_hook(counters, args, result, duration):
    _add(counters, "fused_ticks", 1 if result else 0)


def _window_insert_hook(counters, args, result, duration):
    if len(args) == 2:  # insert(self, tuples)
        rows = len(args[1])
    else:  # insert_block(self, block, lo, hi)
        _, block, lo, hi = args
        rows = (len(block) if hi is None else hi) - lo
    _add(counters, "tuples", rows)


def _checkpoint_hook(counters, args, result, duration):
    _add(counters, "fragments", result)


def _ledger_hook(counters, args, result, duration):
    _add(counters, "deduped", 1 if result == "deduplicate" else 0)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _round_percentile(q: float) -> Callable[[Dict[str, float], int], float]:
    def derive(counters, calls):
        rounds = counters.get("_round_ms")
        return percentile(rounds, q) if rounds else 0.0

    return derive


# Extras computed from a layer's raw counters when the pass ends.
_DERIVED: Dict[str, Callable[[Dict[str, float], int], float]] = {
    # Waste ratio of the shedder: kept pieces per input batch.
    "pieces_per_batch": lambda c, calls: _ratio(
        c.get("kept_pieces", 0), c.get("input_batches", 0)
    ),
    "hit_ratio": lambda c, calls: _ratio(c.get("fused_ticks", 0), calls),
    "round_ms_p50": _round_percentile(50),
    "round_ms_p95": _round_percentile(95),
}


@dataclass(frozen=True)
class Layer:
    """One traced layer: its metric prefix, entry points and extra counters.

    ``moves`` names the end-to-end metric(s) the layer should move and the
    workloads on which it should show (see README.md for the measured shares).
    """

    name: str
    entry_points: Tuple[str, ...]
    moves: str
    extras: Tuple[Extra, ...] = ()
    hook: Optional[Hook] = None


_SOURCES = "repro.workloads.sources"
_WINDOWS = "repro.streaming.windows"
_FSPS = "repro.federation.fsps:FederatedSystem"

LAYERS: Tuple[Layer, ...] = (
    Layer(
        "workloads.generate",
        tuple(
            f"{_SOURCES}:{cls}.{method}"
            for cls in ("StreamSource", "BurstySource")
            for method in ("generate_block_fused", "generate_block", "generate")
        ),
        "tuples_per_s on headroom, many_queries, federation",
        (("tuples", "count", "higher"),),
        _count_result_len("tuples"),
    ),
    Layer(
        "core.sic.assign",
        ("repro.core.sic:SicAssigner.assign_block", "repro.core.sic:SicAssigner.assign"),
        "tuples_per_s on headroom",
        (("tuples", "count", "higher"),),
        _count_arg_len("tuples"),
    ),
    Layer(
        "core.balance_sic.select",
        ("repro.core.shedding:BalanceSicShedder.shed",),
        "tuples_per_s, interval_ms_p95 on overload, many_queries; 0 calls on headroom",
        (
            ("input_batches", "count", "lower"),
            ("kept_pieces", "count", "lower"),
            ("kept_tuples", "count", "higher"),
            ("shed_tuples", "count", "lower"),
            ("pieces_per_batch", "ratio", "lower"),
        ),
        _select_hook,
    ),
    Layer(
        "core.tuples.split",
        ("repro.core.tuples:Batch.split",),
        "tuples_per_s on overload",
    ),
    Layer(
        "federation.node.shed_round",
        ("repro.federation.node:FspsNode.on_shed_round",),
        "interval_ms_p95 on all workloads",
        (
            ("overloaded_rounds", "count", "lower"),
            ("round_ms_p50", "ms", "lower"),
            ("round_ms_p95", "ms", "lower"),
        ),
        _shed_round_hook,
    ),
    Layer(
        "federation.node.on_batch",
        ("repro.federation.node:FspsNode.on_batch",),
        "ingress glue on all workloads; watch for growth",
        (("tuples", "count", "higher"),),
        _count_arg_len("tuples"),
    ),
    Layer(
        "streaming.query.deliver",
        ("repro.streaming.query:QueryFragment.deliver",),
        "tuples_per_s on overload (one call per kept piece)",
    ),
    Layer(
        "streaming.query.process",
        ("repro.streaming.query:QueryFragment.process",),
        "tuples_per_s on federation, headroom",
    ),
    Layer(
        "streaming.fused.run_prefix",
        ("repro.streaming.fused:FusedPlan.run_prefix",),
        "tuples_per_s on headroom; on overload it falls with pieces_per_batch",
        (("fused_ticks", "count", "higher"), ("hit_ratio", "ratio", "higher")),
        _run_prefix_hook,
    ),
    Layer(
        "streaming.windows.insert",
        (
            f"{_WINDOWS}:TimeWindow.insert_block",
            f"{_WINDOWS}:TimeWindow.insert",
            f"{_WINDOWS}:ImmediateWindow.insert_block",
        ),
        "tuples_per_s on headroom, federation",
        (("tuples", "count", "higher"),),
        _window_insert_hook,
    ),
    Layer(
        "streaming.windows.advance",
        (f"{_WINDOWS}:TimeWindow.advance",),
        "tuples_per_s on headroom",
        (("panes", "count", "higher"),),
        _count_result_len("panes"),
    ),
    Layer(
        "streaming.operators.advance",
        ("repro.streaming.operators.base:Operator.advance_items",),
        "tuples_per_s, interval_ms_p95 on federation, headroom",
    ),
    Layer(
        "federation.fsps.source_route",
        (f"{_FSPS}.generate_source_route",),
        "tuples_per_s on headroom",
    ),
    Layer(
        "federation.fsps.dispatch",
        (f"{_FSPS}.dispatch",),
        "tuples_per_s on federation",
    ),
    Layer(
        "federation.network.send",
        ("repro.federation.network:Network.send",),
        "wire_bytes_per_tuple, tuples_per_s on federation, many_queries, headroom",
        (
            ("messages", "count", "lower"),
            ("bytes", "bytes", "lower"),
            ("retransmits", "count", "lower"),
            ("expired", "count", "lower"),
        ),
    ),
    Layer(
        "federation.network.deliver",
        ("repro.federation.network:Network.deliver_due",),
        "tuples_per_s on federation",
        (("messages", "count", "higher"),),
        _count_result_len("messages"),
    ),
    Layer(
        "federation.coordinator.on_result",
        ("repro.federation.coordinator:QueryCoordinator.on_result",),
        "tuples_per_s on many_queries",
    ),
    Layer(
        "federation.coordinator.update_round",
        (f"{_FSPS}.run_coordinator_round",),
        "wire_bytes_per_tuple, jain_index on many_queries, federation",
        (("sic_updates_sent", "count", "lower"),),
    ),
    Layer(
        "state.checkpoint",
        (f"{_FSPS}.checkpoint_all",),
        "interval_ms_p95, peak_rss_mb on federation only; 0 calls elsewhere",
        (("fragments", "count", "lower"),),
        _checkpoint_hook,
    ),
    Layer(
        "state.ledger.observe",
        ("repro.state.ledger:ResultLedger.observe",),
        "must stay ~0 % on all workloads",
        (("deduped", "count", "lower"),),
        _ledger_hook,
    ),
)

# Not a span: the scheduler's own time is the interval wall minus everything
# attributed above; its event count comes from run_until's return values.
_SCHEDULER_ENTRY_POINT = "repro.runtime.scheduler:EventScheduler.run_until"
_SCHEDULER_EXTRAS: Tuple[Extra, ...] = (
    ("events", "count", "lower"),
    ("interval_ms_p50", "ms", "lower"),
)
_TRACE_EXTRAS: Tuple[Extra, ...] = (
    ("overhead_pct", "%", "lower"),
    ("spans", "count", "lower"),
    ("missing_entry_points", "count", "lower"),
)


def metric_specs() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in report order."""
    specs: List[Tuple[str, str, str]] = []
    for layer in LAYERS:
        specs.append((f"{layer.name}.self_s", "s", "lower"))
        specs.append((f"{layer.name}.calls", "count", "lower"))
        specs.extend((f"{layer.name}.{n}", u, b) for n, u, b in layer.extras)
    specs.append(("runtime.scheduler.self_s", "s", "lower"))
    specs.append(("runtime.scheduler.calls", "count", "lower"))
    specs.extend((f"runtime.scheduler.{n}", u, b) for n, u, b in _SCHEDULER_EXTRAS)
    specs.extend((f"trace.{n}", u, b) for n, u, b in _TRACE_EXTRAS)
    return specs


_ABSENT = object()


def _resolve(entry_point: str) -> Optional[Tuple[type, str]]:
    """``"module:Class.method"`` → ``(class, method)`` or ``None`` if gone."""
    module_name, _, path = entry_point.partition(":")
    class_name, _, method = path.partition(".")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    cls = getattr(module, class_name, None)
    if not inspect.isclass(cls) or not inspect.isfunction(getattr(cls, method, None)):
        return None
    return cls, method


class _Placeholder:
    """Renders as a source expression inside a generated signature."""

    def __init__(self, expression: str) -> None:
        self.expression = expression

    def __repr__(self) -> str:
        return self.expression


# The parent's running child total is parked in a local while a span is open,
# so no explicit stack of frames is needed.  A layer re-entering itself (a
# bursty source delegating to its base source) is one call of the layer,
# counted at the outside.  Every name is prefixed so that none can collide
# with a parameter of the wrapped function.
_WRAPPER_SOURCE = """
def wrapper{header}:
    _sp_parent_children = _sp_open[0]
    _sp_parent_layer = _sp_open[1]
    _sp_open[0] = 0.0
    _sp_open[1] = _sp_index
    _sp_start = _sp_clock()
    try:
        _sp_result = _sp_original({call})
    finally:
        _sp_end = _sp_clock()
        _sp_duration = _sp_end - _sp_start
        _sp_self_s[_sp_index] += _sp_duration - _sp_open[0]
        _sp_open[0] = _sp_parent_children + _sp_duration
        _sp_open[1] = _sp_parent_layer
        if _sp_recording[0]:
            _sp_spans.append((_sp_index, _sp_start, _sp_end))
    if _sp_parent_layer != _sp_index:
        _sp_calls[_sp_index] += 1
        {hook}
    else:
        _sp_reentries[0] += 1
    return _sp_result
"""


class Tracer:
    """Class-level span wrappers plus running self-time accumulation.

    Args:
        layers: the layer table (tests pass synthetic ones).
        keep_intervals: raw spans are kept for this many measured intervals.
        clock: seconds counter (tests pass a fake one for exact self times).
    """

    def __init__(
        self,
        layers: Tuple[Layer, ...] = LAYERS,
        keep_intervals: int = 40,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.layers = layers
        self.keep_intervals = keep_intervals
        self.clock = clock
        count = len(layers)
        self.self_s: List[float] = [0.0] * count
        self.calls: List[int] = [0] * count
        self.extras: List[Dict[str, float]] = [{} for _ in range(count)]
        self.live: List[bool] = [False] * count
        self.missing: List[str] = []
        # Small lists so the wrappers mutate them without attribute lookups on
        # the tracer.  ``_open`` describes the innermost open span: the seconds
        # its children have covered so far and its layer (-1: no span is open,
        # and the first slot then totals the parentless spans).
        self._open: List[float] = [0.0, -1]
        self._reentries = [0]
        self._events = [0]
        self._recording = [False]
        # Kept raw spans, appended as they close: (layer, start, end).
        self._spans: List[Tuple[int, float, float]] = []
        self._intervals = 0
        self._origin = 0.0
        self._installed: List[Tuple[type, str, object]] = []

    # ------------------------------------------------------------ installation
    def install(self) -> None:
        """Wrap every resolvable entry point; count the ones that are gone."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        for index, layer in enumerate(self.layers):
            for entry_point in layer.entry_points:
                target = _resolve(entry_point)
                if target is None:
                    self.missing.append(entry_point)
                    continue
                self.live[index] = True
                self._patch(*target, self._span(index, getattr(*target), layer.hook))
        target = _resolve(_SCHEDULER_ENTRY_POINT)
        if target is None:
            self.missing.append(_SCHEDULER_ENTRY_POINT)
        else:
            self._patch(*target, self._event_counter(getattr(*target)))

    def _patch(self, cls: type, method: str, wrapper: Callable) -> None:
        self._installed.append((cls, method, cls.__dict__.get(method, _ABSENT)))
        setattr(cls, method, wrapper)

    def uninstall(self) -> None:
        """Restore the exact original class attributes."""
        while self._installed:
            cls, method, saved = self._installed.pop()
            if saved is _ABSENT:
                delattr(cls, method)
            else:
                setattr(cls, method, saved)

    def _event_counter(self, original: Callable) -> Callable:
        events = self._events

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            processed = original(*args, **kwargs)
            events[0] += processed
            return processed

        return wrapper

    def _span(self, index: int, original: Callable, hook: Optional[Hook]) -> Callable:
        """The span wrapper of one entry point, compiled for its signature.

        A generic ``(*args, **kwargs)`` wrapper costs about a third more per
        call than one that names the parameters; with ~5 000 spans per
        measured interval on ``overload`` that is the difference between a
        tracing overhead above and below a quarter of the run.
        """
        signature = inspect.signature(original)
        parameters = list(signature.parameters.values())
        defaults = [p.default for p in parameters]
        header = signature.replace(
            parameters=[
                p.replace(
                    annotation=inspect.Parameter.empty,
                    default=p.default
                    if p.default is inspect.Parameter.empty
                    else _Placeholder(f"_sp_defaults[{i}]"),
                )
                for i, p in enumerate(parameters)
            ],
            return_annotation=inspect.Signature.empty,
        )
        forms = {
            inspect.Parameter.VAR_POSITIONAL: "*{0}",
            inspect.Parameter.VAR_KEYWORD: "**{0}",
            inspect.Parameter.KEYWORD_ONLY: "{0}={0}",
        }
        call = ", ".join(forms.get(p.kind, "{0}").format(p.name) for p in parameters)
        positional = "".join(
            f"{p.name}, " for p in parameters if p.kind not in forms
        )
        source = _WRAPPER_SOURCE.format(
            header=header,
            call=call,
            hook="pass"
            if hook is None
            else f"_sp_hook(_sp_counters, ({positional}), _sp_result, _sp_duration)",
        )
        namespace = {
            "_sp_original": original,
            "_sp_index": index,
            "_sp_hook": hook,
            "_sp_defaults": defaults,
            "_sp_open": self._open,
            "_sp_self_s": self.self_s,
            "_sp_calls": self.calls,
            "_sp_counters": self.extras[index],
            "_sp_reentries": self._reentries,
            "_sp_recording": self._recording,
            "_sp_spans": self._spans,
            "_sp_clock": self.clock,
        }
        exec(compile(source, f"<span wrapper of {original.__qualname__}>", "exec"), namespace)
        return functools.update_wrapper(namespace["wrapper"], original)

    # --------------------------------------------------------------- measuring
    def start_measuring(self) -> None:
        """Zero everything accumulated so far (set-up and warm-up)."""
        count = len(self.layers)
        self.self_s[:] = [0.0] * count
        self.calls[:] = [0] * count
        for counters in self.extras:
            counters.clear()
        self._open[0] = 0.0
        self._reentries[0] = 0
        self._events[0] = 0
        del self._spans[:]
        self._intervals = 0
        self._recording[0] = self.keep_intervals > 0
        self._origin = self.clock()

    def end_interval(self) -> None:
        self._intervals += 1
        if self._intervals >= self.keep_intervals:
            self._recording[0] = False

    # ----------------------------------------------------------------- results
    @property
    def attributed_s(self) -> float:
        """Wall seconds covered by spans (the duration of parentless spans)."""
        return self._open[0]

    @property
    def span_count(self) -> int:
        return sum(self.calls) + self._reentries[0]

    @property
    def events(self) -> int:
        return self._events[0]

    def layer_metrics(self) -> Dict[str, Optional[float]]:
        """``<layer>.<counter>`` for every traced layer (``None`` if gone).

        Counters fed from outside the wrappers (``federation.network.send``'s
        ``NetworkStats`` deltas, ``sic_updates_sent``) are left for the
        caller to fill in.
        """
        metrics: Dict[str, Optional[float]] = {}
        for index, layer in enumerate(self.layers):
            live = self.live[index]
            counters = self.extras[index]
            calls = self.calls[index]
            metrics[f"{layer.name}.self_s"] = self.self_s[index] if live else None
            metrics[f"{layer.name}.calls"] = calls if live else None
            for key, _unit, _better in layer.extras:
                if not live:
                    value = None
                elif key in _DERIVED:
                    value = _DERIVED[key](counters, calls)
                else:
                    value = counters.get(key, 0)
                metrics[f"{layer.name}.{key}"] = value
        return metrics

    def write_spans(self, path) -> int:
        """Write the kept raw spans as JSONL; returns the number written.

        One object per line, in start order: ``id``, ``parent`` (0 = none),
        ``layer``, and ``start_us`` / ``end_us`` relative to the start of
        measurement.  Spans of one thread nest properly, so the parent of a
        span is the innermost span still open when it starts; it is
        reconstructed here rather than tracked on the hot path.
        """
        origin = self._origin
        # Outer spans first where starts tie: they end later, or were
        # appended later (a span closes after its children).
        order = sorted(
            range(len(self._spans)),
            key=lambda i: (self._spans[i][1], -self._spans[i][2], -i),
        )
        open_spans: List[Tuple[int, float]] = []  # (id, end)
        with open(path, "w", encoding="utf-8") as out:
            for span_id, position in enumerate(order, start=1):
                index, start, end = self._spans[position]
                while open_spans and (
                    open_spans[-1][1] < end or open_spans[-1][1] <= start < end
                ):
                    open_spans.pop()
                record = {
                    "id": span_id,
                    "parent": open_spans[-1][0] if open_spans else 0,
                    "layer": self.layers[index].name,
                    "start_us": round((start - origin) * 1e6, 3),
                    "end_us": round((end - origin) * 1e6, 3),
                }
                out.write(json.dumps(record))
                out.write("\n")
                open_spans.append((span_id, end))
        return len(self._spans)
