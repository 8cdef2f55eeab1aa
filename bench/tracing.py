"""Span tracing around the package's public functions, installed from outside.

A probe rebinds one name where its caller looks it up (a module global such
as `mpcfolio.pilot.grad`, or a class attribute such as
`mpcfolio.autodiff.Node.backward`) to a wrapper that records a span, and puts
the original back when tracing ends. A probe whose module or name no longer
exists is skipped, so its span reports zero calls and the time moves into the
enclosing span's self time; a refactor never makes the benchmark fail here.

Spans record name, start, end, parent span, thread and episode or cell id.
They are kept in memory while the run lasts and written out at its end.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Probe:
    target: str            # "module:attr" or "module:Class.attr"
    span: str              # span name, "<layer>.<what>"
    opens_context: bool = False  # an episode or cell starts here
    counts_distinct_days: bool = False  # compute_features(series, t)


EXP = "mpcfolio.harness.experiment"
PROBES = (
    Probe(f"{EXP}:run_experiment", "harness.sweep", opens_context=True),
    Probe(f"{EXP}:write_artifacts", "harness.write"),
    Probe(f"{EXP}:build_base_forecaster", "forecast.fit"),
    Probe(f"{EXP}:CheatForecaster.calibrate", "forecast.fit"),
    Probe(f"{EXP}:fit_noise_calibration", "forecast.fit"),
    Probe(f"{EXP}:run_episode", "env.episode"),
    Probe(f"{EXP}:run_pilot", "pilot.run_pilot", opens_context=True),
    Probe(f"{EXP}:compute_report", "metrics.report"),
    Probe("mpcfolio.pilot:run_pilot", "pilot.run_pilot", opens_context=True),
    Probe("mpcfolio.metrics:compute_report", "metrics.report"),
    Probe("mpcfolio.pilot:build_trajectory", "forecast.trajectory"),
    Probe("mpcfolio.pilot:perturb", "forecast.perturb"),
    Probe("mpcfolio.pilot:value", "policy.value"),
    Probe("mpcfolio.pilot:act", "policy.act"),
    Probe("mpcfolio.policy:act", "policy.act"),
    Probe("mpcfolio.pilot:actor_weights_taped", "policy.forward"),
    Probe("mpcfolio.pilot:grad", "policy.grad"),
    Probe("mpcfolio.pilot:make_leaves", "policy.make_leaves"),
    Probe("mpcfolio.pilot:particle_return", "pilot.particle_return"),
    Probe("mpcfolio.pilot:_objective_value", "pilot.telemetry"),
    Probe("mpcfolio.pilot:step", "env.step"),
    Probe("mpcfolio.env:step", "env.step"),
    Probe("mpcfolio.autodiff:Node.backward", "autodiff.backward"),
    Probe("mpcfolio.marketdata:FeatureView.state", "marketdata.state"),
    Probe("mpcfolio.marketdata:compute_features", "marketdata.features",
          counts_distinct_days=True),
    Probe("mpcfolio.forecast:compute_features", "marketdata.features",
          counts_distinct_days=True),
    *(Probe(f"mpcfolio.forecast:{cls}.predict_movements", "forecast.predict")
      for cls in ("RidgeForecaster", "CheatForecaster", "PerfectForecaster",
                  "ZeroForecaster", "ContextMeanForecaster", "ExternalForecastSource")),
)

# Node objects built while tracing; counted, not spanned.
NODE_CLASS = "mpcfolio.autodiff:Node"


def _resolve(target: str):
    """(owner, attr) for a probe target, or None when it no longer exists."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr


class Tracer:
    """Records spans from the installed probes; one instance per traced phase.

    Install it just before each timed call and uninstall it right after, so
    set-up and result checking leave no spans.
    """

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, thread, ctx)
        self.distinct_days = set()
        self.nodes = 0  # Node objects built while installed
        self._ids = itertools.count()
        self._node_ids = None
        self._local = threading.local()
        self._outer = None  # (id, ctx) of the main thread's open root span
        self._contexts = itertools.count()
        self._restore = []
        self.installed = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, probe: Probe):
        tracer, name = self, probe.span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if probe.counts_distinct_days and len(args) >= 2:
                try:
                    tracer.distinct_days.add((id(args[0]), args[1]))
                except TypeError:  # a changed signature must not fail the run
                    pass
            stack = tracer._stack()
            if stack:
                parent, ctx = stack[-1][0], stack[-1][2]
            elif tracer._outer is not None:
                parent, ctx = tracer._outer
            else:
                parent, ctx = None, None
            if probe.opens_context:
                ctx = f"{name}#{next(tracer._contexts)}"
            sid = next(tracer._ids)
            is_outer = not stack and threading.current_thread() is threading.main_thread()
            if is_outer:
                tracer._outer = (sid, ctx)
            stack.append((sid, name, ctx))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if is_outer:
                    tracer._outer = None
                tracer.spans.append((sid, name, start, end, parent,
                                     threading.get_ident(), ctx))

        return traced

    def install(self) -> None:
        seen = set()
        self.installed.clear()
        for probe in PROBES:
            found = _resolve(probe.target)
            if found is None:
                continue
            owner, attr = found
            if (id(owner), attr) in seen:
                continue
            seen.add((id(owner), attr))
            raw = vars(owner)[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, probe))
            else:
                wrapped = self._wrap(raw, probe)
            setattr(owner, attr, wrapped)
            self._restore.append((owner, attr, raw))
            self.installed.append(probe.target)
        found = _resolve(NODE_CLASS + ".__init__")
        if found is not None:
            node_cls, _ = found
            init = vars(node_cls)["__init__"]
            counter = self._node_ids = itertools.count()

            def counting_init(node, *args, **kwargs):
                next(counter)
                init(node, *args, **kwargs)

            node_cls.__init__ = counting_init
            self._restore.append((node_cls, "__init__", init))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()
        if self._node_ids is not None:
            self.nodes += next(self._node_ids)  # the count of earlier next() calls
            self._node_ids = None

    # -- analysis -------------------------------------------------------------

    def layer_stats(self) -> dict:
        """Per span name: outermost calls, their total seconds, and self seconds.

        A call nested in a span of the same name (a blended forecaster asking
        its base source) is neither counted nor timed twice. Self time is a
        span's duration minus the union of its direct children's intervals.
        """
        by_id = {s[0]: s for s in self.spans}
        children = defaultdict(list)
        for s in self.spans:
            if s[4] is not None:
                children[s[4]].append((s[2], s[3]))
        stats = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for sid, name, start, end, parent, _, _ in self.spans:
            entry = stats[name]
            entry["self_s"] += (end - start) - _covered(children.get(sid, ()), start, end)
            parent_span = by_id.get(parent)
            if parent_span is None or parent_span[1] != name:
                entry["calls"] += 1
                entry["s"] += end - start
        return stats

    def step_durations_ms(self) -> list:
        """Wall time of each trading step inside each `run_pilot` span.

        A step ends when its `env.step` call returns, wherever below
        `run_pilot` that call sits; the first starts with the `run_pilot`
        span. This survives any refactor that keeps one environment step per
        trading step.
        """
        by_id = {s[0]: s for s in self.spans}
        ends = defaultdict(list)
        for _, name, _, end, parent, _, _ in self.spans:
            if name != "env.step":
                continue
            while parent is not None and by_id[parent][1] != "pilot.run_pilot":
                parent = by_id[parent][4]
            if parent is not None:
                ends[parent].append(end)
        out = []
        for sid, name, start, _, _, _, _ in self.spans:
            if name != "pilot.run_pilot":
                continue
            prev = start
            for end in sorted(ends.get(sid, ())):
                out.append(1000.0 * (end - prev))
                prev = end
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, thread, ctx in sorted(self.spans, key=lambda s: s[2]):
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "thread": thread, "ctx": ctx}) + "\n")


def _covered(intervals, start: float, end: float) -> float:
    """Length of the union of `intervals` clipped to [start, end]."""
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total
