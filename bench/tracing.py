"""Spans and counters around bessarb's public functions, from outside the package.

`install()` replaces each traced function in every `bessarb` module that
holds a reference to it (``bessarb.cli`` imported its own ``settle``,
``dp_optimal`` ..., ``bessarb.evaluation`` its own ``ts1`` ... ``ts3_dual``),
so no call escapes the trace and nothing under ``src/`` is edited.

A span is ``[name, start, end, parent]``; its index in ``Tracer.spans`` is
its id and the tracer's ``op_id`` names the operation every span belongs to.
Spans stay in memory until the operation ends and the caller writes them.
Self time is a span's duration minus the durations of its child spans.

`per_layer()` turns the summaries of several traced operations (one per
process) into the per-layer metrics listed in ``PER_LAYER`` below.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
import statistics
import sys
import time
from fractions import Fraction

STRATEGIES = ("ts1", "ts2", "ts3", "ts3_dual")
EVAL_TIMED = (
    "settle", "settle_dual", "perfect_foresight", "perfect_foresight_dual",
    "dp_optimal", "dp_optimal_dual",
)

# (module, attribute, span name) of every traced function.  Several targets
# may share a span name; their time is summed under it.
SPAN_TARGETS = (
    [("bessarb.cli", "main", "cli")]
    + [("bessarb.market", f, f"market.{f}")
       for f in ("parse_price_csv", "parse_forecast_csv", "write_forecast_csv")]
    + [("bessarb.strategies", f, f"strategies.{f}") for f in STRATEGIES]
    + [("bessarb.evaluation", f, f"evaluation.{f}") for f in EVAL_TIMED]
    + [
        ("bessarb.evaluation", "run_sweep", "evaluation.run_sweep"),
        ("bessarb.evaluation", "score_forecasts", "evaluation.score_forecasts"),
        ("bessarb.evaluation", "write_report_csv", "evaluation.write_report"),
        ("bessarb.evaluation", "write_plot_csv", "evaluation.write_report"),
        ("bessarb.forecasting", "walk_forward", "forecasting.walk_forward"),
        ("bessarb.forecasting", "KnnQuantileForecaster.predict", "forecasting.predict"),
        ("bessarb.forecasting", "FeatureMatrix.from_csv", "forecasting.from_csv"),
    ]
)
# Functions too hot for a span: only their calls are counted.
COUNT_TARGETS = (
    ("bessarb.battery", "apply_trade", "battery.apply_trade_calls"),
    ("bessarb.battery", "ChargeTimeline.path", "battery.timeline_path_calls"),
)

SELF_MS = (
    ["cli", "evaluation.run_sweep", "evaluation.score_forecasts",
     "evaluation.write_report", "forecasting.walk_forward", "forecasting.from_csv"]
    + [f"market.{f}" for f in ("parse_price_csv", "parse_forecast_csv", "write_forecast_csv")]
)
CALL_STATS = [f"strategies.{s}" for s in STRATEGIES] + [f"evaluation.{f}" for f in EVAL_TIMED]

# Every per-layer metric, in report order: name -> (unit, better).
PER_LAYER: dict[str, tuple[str, str]] = {}
for _span in CALL_STATS:
    PER_LAYER[f"{_span}.self_ms"] = ("ms", "lower")
    PER_LAYER[f"{_span}.calls"] = ("count", "lower")
    PER_LAYER[f"{_span}.ms_p50"] = ("ms", "lower")
    PER_LAYER[f"{_span}.ms_p99"] = ("ms", "lower")
PER_LAYER.update({
    "strategies.orders": ("count", "lower"),
    "battery.timeline_path_calls": ("count", "lower"),
    "battery.apply_trade_calls": ("count", "lower"),
    "evaluation.dp.useful_ratio": ("ratio", "higher"),
    "evaluation.dp.distinct_windows": ("count", "lower"),
    "evaluation.pf.useful_ratio": ("ratio", "higher"),
    "evaluation.pf.distinct_pairs": ("count", "lower"),
    "evaluation.pool.parent_cpu_s": ("s", "lower"),
    "evaluation.pool.worker_cpu_s": ("s", "lower"),
    "market.rows_parsed": ("count", "lower"),
    "forecasting.predict.ms_per_row": ("ms", "lower"),
    "forecasting.predict.rows": ("count", "lower"),
    "forecasting.refits": ("count", "lower"),
})
for _span in SELF_MS:
    PER_LAYER[f"{_span}.self_ms"] = ("ms", "lower")
PER_LAYER["bench.trace_overhead_ms"] = ("ms", "lower")

# Sentinel counts printed with their bases: metric -> (numerator, denominator).
RATIO_BASES = {
    "evaluation.dp.useful_ratio": ("evaluation.dp.distinct_windows", "dp calls"),
    "evaluation.pf.useful_ratio": ("evaluation.pf.distinct_pairs", "pf calls"),
}


def _cpu(kind: int) -> float:
    r = resource.getrusage(kind)
    return r.ru_utime + r.ru_stime


def _problem_key(label: str, sig: inspect.Signature, args, kwargs) -> tuple:
    """Identity of one benchmark problem: price series stand for their window."""
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    parts = [label]
    for value in bound.arguments.values():
        parts.append(value.window if hasattr(value, "prices") else value)
    return tuple(parts)


def _rows_of(items) -> int:
    return sum(len(getattr(x, "prices", None) or x.values) for x in items)


class Tracer:
    """Spans and counts of one operation, kept in memory."""

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.problems: dict[str, set] = {"dp": set(), "pf": set()}
        self.pool_cpu = [0.0, 0.0]

    def reset(self, op_id: str) -> None:
        """Start a new operation; the wrappers keep the same containers."""
        self.op_id = op_id
        self.spans.clear()
        self._stack.clear()
        self.counts.clear()
        for seen in self.problems.values():
            seen.clear()
        self.pool_cpu[:] = [0.0, 0.0]

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def span(self, name: str, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(result, state)
            return result

        return traced

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    # hooks ------------------------------------------------------------------

    def _hooks(self, attr: str, fn):
        if attr in STRATEGIES:
            def after(result, _):
                schedules = result if isinstance(result, tuple) else (result,)
                self.count("strategies.orders", sum(len(s.orders) for s in schedules))
            return None, after
        if attr.startswith(("dp_optimal", "perfect_foresight")):
            kind = "dp" if attr.startswith("dp") else "pf"
            sig = inspect.signature(fn)
            seen = self.problems[kind]
            return (lambda a, k: seen.add(_problem_key(attr, sig, a, k))), None
        if attr.startswith("parse_"):
            return None, lambda result, _: self.count("market.rows_parsed", _rows_of(result))
        if attr == "run_sweep":
            sig = inspect.signature(fn)

            def before(a, k):
                jobs = sig.bind(*a, **k).arguments.get("jobs", 1)
                return jobs, _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)

            def after(_, state):
                jobs, parent0, child0 = state
                if jobs > 1:
                    self.pool_cpu[0] += _cpu(resource.RUSAGE_SELF) - parent0
                    self.pool_cpu[1] += _cpu(resource.RUSAGE_CHILDREN) - child0
            return before, after
        if attr == "KnnQuantileForecaster.predict":
            return None, lambda result, _: self.count("forecasting.predict.rows", len(result))
        if attr == "walk_forward":
            return None, lambda result, _: self.count("forecasting.refits", len(result.refits))
        return None, None

    # summary ----------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: self ms, calls and call durations; plus counts."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        by_name: dict[str, dict] = {}
        for sid, (name, start, end, _) in enumerate(self.spans):
            row = by_name.setdefault(name, {"self_ms": 0.0, "calls": 0, "ms": []})
            row["self_ms"] += (end - start - child_s[sid]) * 1e3
            row["calls"] += 1
            row["ms"].append((end - start) * 1e3)
        counts = dict(self.counts)
        counts["evaluation.dp.distinct_windows"] = len(self.problems["dp"])
        counts["evaluation.pf.distinct_pairs"] = len(self.problems["pf"])
        return {
            "op_id": self.op_id,
            "spans": by_name,
            "counts": counts,
            "pool_cpu_s": list(self.pool_cpu),
        }

    def dump(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, op."""
        import json

        with open(path, "w") as fh:
            for sid, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "op": self.op_id,
                }) + "\n")


def _resolve(module: str, attr: str):
    """(owner, leaf name, raw attribute) for `mod.func` or `mod.Class.method`."""
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf, inspect.getattr_static(owner, leaf)


def install(op_id: str) -> Tracer:
    """Wrap every target in every bessarb module that refers to it."""
    tracer = Tracer(op_id)
    plan = [(m, a, n, True) for m, a, n in SPAN_TARGETS]
    plan += [(m, a, n, False) for m, a, n in COUNT_TARGETS]
    for module, attr, name, timed in plan:
        owner, leaf, raw = _resolve(module, attr)
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        if timed:
            before, after = tracer._hooks(attr, fn)
            wrapped = tracer.span(name, fn, before, after)
        else:
            wrapped = tracer.counter(name, fn)
        if isinstance(raw, classmethod):
            wrapped = classmethod(wrapped)
        if isinstance(owner, type):
            setattr(owner, leaf, wrapped)
            continue
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "bessarb" or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is raw:
                    setattr(mod, key, wrapped)
    return tracer


def _percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_layer(summaries: list[dict], overhead_ms: float) -> dict[str, float]:
    """Per-layer metrics from the summaries of several traced operations.

    Times and counts are medians over the operations; call percentiles pool
    every call of every operation.
    """
    def med(values) -> float:
        return statistics.median(values) if values else 0.0

    def span_field(name, field):
        return [s["spans"].get(name, {}).get(field, 0) for s in summaries]

    def count(name):
        return med([s["counts"].get(name, 0) for s in summaries])

    out: dict[str, float] = {}
    for name in CALL_STATS:
        pooled = [ms for s in summaries for ms in s["spans"].get(name, {}).get("ms", [])]
        out[f"{name}.self_ms"] = med(span_field(name, "self_ms"))
        out[f"{name}.calls"] = med(span_field(name, "calls"))
        out[f"{name}.ms_p50"] = _percentile(pooled, 50)
        out[f"{name}.ms_p99"] = _percentile(pooled, 99)
    for name in ("strategies.orders", "battery.timeline_path_calls",
                 "battery.apply_trade_calls", "market.rows_parsed",
                 "forecasting.predict.rows", "forecasting.refits",
                 "evaluation.dp.distinct_windows", "evaluation.pf.distinct_pairs"):
        out[name] = count(name)
    dp_calls = out["evaluation.dp_optimal.calls"] + out["evaluation.dp_optimal_dual.calls"]
    pf_calls = (out["evaluation.perfect_foresight.calls"]
                + out["evaluation.perfect_foresight_dual.calls"])
    out["evaluation.dp.useful_ratio"] = (
        out["evaluation.dp.distinct_windows"] / dp_calls if dp_calls else 0.0)
    out["evaluation.pf.useful_ratio"] = (
        out["evaluation.pf.distinct_pairs"] / pf_calls if pf_calls else 0.0)
    out["evaluation.pool.parent_cpu_s"] = med([s["pool_cpu_s"][0] for s in summaries])
    out["evaluation.pool.worker_cpu_s"] = med([s["pool_cpu_s"][1] for s in summaries])
    rows = out["forecasting.predict.rows"]
    predict_ms = med(span_field("forecasting.predict", "self_ms"))
    out["forecasting.predict.ms_per_row"] = predict_ms / rows if rows else 0.0
    for name in SELF_MS:
        out[f"{name}.self_ms"] = med(span_field(name, "self_ms"))
    out["bench.trace_overhead_ms"] = overhead_ms
    return {name: out[name] for name in PER_LAYER}


def ratio_bases(metrics: dict[str, float]) -> dict[str, str]:
    """Each useful ratio as `distinct/calls`, exact."""
    calls = {
        "evaluation.dp.useful_ratio": metrics["evaluation.dp_optimal.calls"]
        + metrics["evaluation.dp_optimal_dual.calls"],
        "evaluation.pf.useful_ratio": metrics["evaluation.perfect_foresight.calls"]
        + metrics["evaluation.perfect_foresight_dual.calls"],
    }
    out = {}
    for name, (num, label) in RATIO_BASES.items():
        distinct, total = int(metrics[num]), int(calls[name])
        exact = f" = {Fraction(distinct, total)}" if total else ""
        out[name] = f"{distinct}/{total}{exact} (distinct / {label})"
    return out
