"""Outside-in span recorder for the traced benchmark run.

The recorder wraps statmap's public layer functions from the benchmark's own
code; statmap itself is not modified. Modules import several of these
functions by name (``from .gpmap import fit as gp_fit``), so wrapping the
defining module alone would miss most calls: ``install`` rebinds every name in
every loaded statmap module that refers to the original function object, and
``uninstall`` restores them all.

Spans stay in memory. Each has a parent link, the operation it belongs to
(-1 for set-up) and, for some functions, counters read from the arguments or
the returned object. ``layer_metrics`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "statmap"


def _samples(args, kwargs, result):
    return {"samples": result.size}


def _fit(args, kwargs, result):
    d = result.diagnostics
    return {"iterations": d.iterations, "lml": d.log_marginal_likelihood,
            "jitter_applied": float(d.jitter_applied)}


def _map_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _triplets(args, kwargs, result):
    triplets, skipped = result
    return {"kept": len(triplets), "skipped": skipped}


def _train(args, kwargs, result):
    triplets = args[1] if len(args) > 1 else kwargs["triplets"]
    return {"triplet_steps": len(triplets) * len(result.epoch_losses),
            "final_loss": result.epoch_losses[-1]}


# (module, attribute, probe): the public functions timed in a traced run.
TRACED = (
    ("propagation", "draw_power_samples", _samples),
    ("propagation", "draw_csi", None),
    ("stats", "capacity_from_power", None),
    ("stats", "empirical_quantile", None),
    ("stats", "EmpiricalDistribution.from_samples", None),
    ("gpmap", "fit", _fit),
    ("gpmap", "predict", None),
    ("gpmap", "build_map", None),
    ("dataio", "load_map", _map_bytes),
    ("dataio", "kernel_checksum", None),
    ("dataio", "write_csv", None),
    ("chart", "build_triplets", _triplets),
    ("chart", "train", _train),
    ("chart", "csi_features", None),
    ("chart", "forward", None),
    ("rateselect", "select_rate_map", None),
    ("rateselect", "select_rate_baseline", None),
    ("harness", "run_location_experiment", None),
    ("harness", "run_chart_experiment", None),
    ("harness", "write_report", None),
    ("cli", "main", None),
)


@dataclass
class Span:
    name: str
    parent: int
    op: int
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0          # children run nested and in sequence
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Wraps the TRACED functions of statmap while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn, probe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else -1, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if span.parent >= 0:
                    self.spans[span.parent].child_s += span.duration
            if probe is not None:
                span.info = probe(args, kwargs, result)
            return result
        return wrapper

    def _rebind(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def install(self) -> None:
        for module_name, _, _ in TRACED:
            importlib.import_module(f"{PACKAGE}.{module_name}")
        modules = [m for n, m in list(sys.modules.items()) if m is not None
                   and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for module_name, attr, probe in TRACED:
            owner = sys.modules[f"{PACKAGE}.{module_name}"]
            name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._rebind(cls, method, classmethod(
                    self._wrap(name, original.__func__, probe)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, probe)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)


class _Layer:
    """Totals of one traced function: set-up once plus one average operation."""

    def __init__(self, spans: list[Span], n_ops: int):
        self.spans = spans
        self.n_ops = max(n_ops, 1)

    def _total(self, value) -> float:
        setup = sum(value(s) for s in self.spans if s.op < 0)
        ops = sum(value(s) for s in self.spans if s.op >= 0)
        return setup + ops / self.n_ops

    @property
    def calls(self) -> float:
        return self._total(lambda s: 1)

    @property
    def time_s(self) -> float:
        return self._total(lambda s: s.duration)

    @property
    def self_s(self) -> float:
        return self._total(lambda s: s.duration - s.child_s)

    def count(self, key: str) -> float:
        return self._total(lambda s: s.info.get(key, 0))

    # Solver and quality counters come from set-up and operation 0 only:
    # later operations run other inputs, and how many fit in varies.
    def first(self, key: str) -> float:
        return sum(s.info.get(key, 0) for s in self.spans if s.op <= 0)

    def last(self, key: str) -> float:
        spans = [s for s in self.spans if s.op <= 0]
        return spans[-1].info.get(key, 0.0) if spans else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], n_ops: int) -> dict:
    """Per-layer metrics as {name: (value, unit)}.

    Counts and times are for the set-up plus one average operation, so they
    do not grow with the number of operations a run fits in. A layer that
    does not run on a workload reports 0.
    """
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def layer(name):
        return _Layer(by_name.get(name, []), n_ops)

    out = {}
    draw = layer("propagation.draw_power_samples")
    samples = draw.count("samples")
    out.update({
        "propagation.draw_power_samples.calls": (draw.calls, "count"),
        "propagation.draw_power_samples.samples": (samples, "count"),
        "propagation.draw_power_samples.time_s": (draw.time_s, "s"),
        "propagation.draw_power_samples.ns_per_sample":
            (_ratio(draw.time_s * 1e9, samples), "ns"),
        "propagation.draw_csi.calls": (layer("propagation.draw_csi").calls,
                                       "count"),
        "propagation.draw_csi.time_s": (layer("propagation.draw_csi").time_s,
                                        "s"),
    })
    fit = layer("gpmap.fit")
    out.update({
        "gpmap.fit.time_s": (fit.time_s, "s"),
        "gpmap.fit.iterations": (fit.first("iterations"), "count"),
        "gpmap.fit.ms_per_iteration":
            (_ratio(fit.time_s * 1e3, fit.count("iterations")), "ms"),
        "gpmap.fit.lml": (fit.last("lml"), "nats"),
        "gpmap.fit.jitter_applied": (min(fit.first("jitter_applied"), 1.0),
                                     "flag"),
    })
    predict = layer("gpmap.predict")
    out.update({
        "gpmap.predict.calls": (predict.calls, "count"),
        "gpmap.predict.time_s": (predict.time_s, "s"),
        "gpmap.predict.us_per_query": (_ratio(predict.time_s * 1e6,
                                              predict.calls), "us"),
    })
    load = layer("dataio.load_map")
    out.update({
        "dataio.load_map.calls": (load.calls, "count"),
        "dataio.load_map.time_s": (load.time_s, "s"),
        "dataio.load_map.bytes": (load.count("bytes"), "B"),
    })
    triplets = layer("chart.build_triplets")
    train = layer("chart.train")
    out.update({
        "chart.build_triplets.time_s": (triplets.time_s, "s"),
        "chart.build_triplets.kept": (triplets.first("kept"), "count"),
        "chart.build_triplets.skipped": (triplets.first("skipped"), "count"),
        "chart.train.time_s": (train.time_s, "s"),
        "chart.train.triplet_steps_per_s":
            (_ratio(train.count("triplet_steps"), train.time_s), "1/s"),
        "chart.train.final_loss": (train.last("final_loss"), "loss"),
    })
    for name in ("stats.capacity_from_power", "stats.empirical_quantile",
                 "stats.EmpiricalDistribution.from_samples",
                 "dataio.kernel_checksum", "gpmap.build_map",
                 "dataio.write_csv", "chart.csi_features", "chart.forward",
                 "rateselect.select_rate_map",
                 "rateselect.select_rate_baseline", "harness.write_report"):
        out[f"{name}.time_s"] = (layer(name).time_s, "s")
    for name in ("harness.run_location_experiment",
                 "harness.run_chart_experiment", "cli.main"):
        out[f"{name}.self_s"] = (layer(name).self_s, "s")
    out["bench.spans"] = (_Layer(spans, n_ops).calls, "count")
    return out
