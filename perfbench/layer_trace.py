"""Outside-in span tracing of the simulator's layers.

Nothing under ``src/`` knows it is being traced: :class:`LayerTracer`
replaces the public entry points of each module with timing wrappers,
patched where callers look the names up (the campaign runner's module
globals, the class attributes engines dispatch through, the module
attributes imported at call time), and puts every original back on
:meth:`LayerTracer.uninstall`.

Each span records its name, start, end, parent span and the index of the
scenario that was running.  Spans stay in typed in-memory arrays while
the campaign runs and are written out once, by :meth:`SpanLog.save`.
A span's *self time* is its duration minus the durations of its direct
children, so the self times of all spans add up exactly to the time
covered by top-level spans; :func:`layer_metrics` turns them into the
per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import importlib
import json
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

#: Engine lanes, as the campaign axes name them.
LANES = ("object", "array", "native", "net")

#: Byzantine strategy registry names, one ``resilience.strategy_s`` each.
STRATEGIES = ("crash", "frozen", "noisy", "oscillating", "random", "targeted")

#: Lanes the large-n step/advance replay measures.
REPLAY_LANES = ("array", "native")

#: Modules whose classes must exist before wrappers are installed (some
#: are imported lazily by the runner on first use).
_MODULES = (
    "repro.analysis.containment",
    "repro.analysis.monitors",
    "repro.analysis.stabilization",
    "repro.campaigns.runner",
    "repro.core.potential",
    "repro.faults.churn",
    "repro.faults.injection",
    "repro.model.adversary",
    "repro.model.array_engine",
    "repro.model.engine",
    "repro.model.execution",
    "repro.model.native_engine",
    "repro.model.replica_engine",
    "repro.model.rounds",
    "repro.model.scheduler",
    "repro.net.adapter",
    "repro.net.runtime",
    "repro.resilience.adversary",
    "repro.resilience.strategies",
)


class SpanLog:
    """Spans in compact parallel arrays plus the open-span stack."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.scenario = array("l")
        #: Indices of the open spans, innermost last (``-1`` = root).
        self.stack: List[int] = [-1]
        #: Name id of each open span, aligned with ``stack``.
        self.stack_names: List[int] = [-1]
        #: Index of the scenario currently running (``-1`` = none).
        self.current_scenario = -1

    def name_of(self, name: str) -> int:
        """The dense id of span name ``name``."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        """Start a span named ``nid`` under the innermost open span."""
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1])
        self.scenario.append(self.current_scenario)
        self.end.append(0.0)
        self.stack.append(index)
        self.stack_names.append(nid)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        """End span ``index`` (the innermost open one)."""
        self.end[index] = perf_counter()
        self.stack.pop()
        self.stack_names.pop()

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self) -> Dict[str, np.ndarray]:
        """The spans as numpy arrays (one entry per span)."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int_).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int_).copy(),
            "scenario": np.frombuffer(self.scenario, dtype=np.int_).copy(),
        }

    def save(self, path: str) -> None:
        """Write every span to ``path`` (numpy ``.npz``; span names in
        the ``names`` entry as a JSON list)."""
        np.savez(path, names=np.array(json.dumps(self.names)), **self.arrays())


def self_times(
    name_id: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
    parent: np.ndarray,
    name_count: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Per-name totals over a span set.

    Returns ``(self_s, inclusive_s, calls, covered_s)``: per name id, the
    summed self time (span minus its direct children), the summed span
    durations and the span count, plus the summed duration of top-level
    spans.  Summed over names, self time equals ``covered_s``.
    """
    duration = end - start
    nested = parent >= 0
    children = np.bincount(
        parent[nested], weights=duration[nested], minlength=len(duration)
    )
    own = duration - children
    self_s = np.bincount(name_id, weights=own, minlength=name_count)
    inclusive = np.bincount(name_id, weights=duration, minlength=name_count)
    calls = np.bincount(name_id, minlength=name_count)
    covered = float(duration[~nested].sum())
    return self_s, inclusive, calls, covered


def _lane_of(cls: type) -> str:
    """The campaign lane an execution class implements."""
    names = [klass.__name__ for klass in cls.__mro__]
    if "NetExecution" in names:
        return "net"
    if "_NativeKernelMixin" in names:
        return "native"
    if "ArrayExecution" in names:
        return "array"
    return "object"


def _defining_classes(base: type, attr: str) -> List[type]:
    """``base`` and its subclasses that define ``attr`` themselves."""
    found, todo, seen = [], [base], set()
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        if attr in vars(cls):
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return sorted(found, key=lambda c: (c.__module__, c.__qualname__))


class LayerTracer:
    """Installs span-recording wrappers on the simulator's entry points.

    Use as ``tracer.install()`` … ``tracer.uninstall()`` (in a
    ``finally``).  Besides spans it keeps plain counters for entry points the
    per-layer metrics count but do not time (``model.poke``,
    ``faults.churn_deltas``) and the net executions it saw created, whose
    message statistics it reads after the run.
    """

    def __init__(self) -> None:
        self.log = SpanLog()
        self.counters: Dict[str, int] = {"model.poke": 0, "faults.churn_deltas": 0}
        self.net_executions: list = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- wrapper factories ---------------------------------------------

    def _wrap(self, fn: Callable, name_id: Callable[[tuple], int]) -> Callable:
        """``fn`` inside a span named ``name_id(args)``."""
        log = self.log

        def traced(*args, **kwargs):
            nid = name_id(args)
            if log.stack_names[-1] == nid:  # an override calling its base
                return fn(*args, **kwargs)
            index = log.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                log.close(index)

        traced.__wrapped__ = fn
        return traced

    def _span(self, name: str, fn: Callable) -> Callable:
        nid = self.log.name_of(name)
        return self._wrap(fn, lambda args: nid)

    def _step(self, fn: Callable) -> Callable:
        """``step`` spans are named by the lane of the execution."""
        by_class: Dict[type, int] = {}

        def name_id(args) -> int:
            cls = type(args[0])
            nid = by_class.get(cls)
            if nid is None:
                nid = by_class[cls] = self.log.name_of(f"model.step.{_lane_of(cls)}")
            return nid

        return self._wrap(fn, name_id)

    def _scenario(self, name: str, fn: Callable) -> Callable:
        log = self.log
        span = self._span(name, fn)

        def traced(scenario_or_batch, *args, **kwargs):
            first = (
                scenario_or_batch[0]
                if isinstance(scenario_or_batch, (list, tuple))
                else scenario_or_batch
            )
            outer = log.current_scenario
            log.current_scenario = int(first.index)
            try:
                return span(scenario_or_batch, *args, **kwargs)
            finally:
                log.current_scenario = outer

        traced.__wrapped__ = fn
        return traced

    def _count(self, key: str, fn: Callable) -> Callable:
        counters = self.counters
        depth = [0]

        def counted(*args, **kwargs):
            if not depth[0]:
                counters[key] += 1
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1

        counted.__wrapped__ = fn
        return counted

    def _churn_deltas(self, fn: Callable) -> Callable:
        log = self.log
        counters = self.counters
        nid = log.name_of("faults.churn")

        def deltas(process, steps):
            # Time each draw separately: the consumer's own work (the
            # mutate and step calls between draws) must not nest here.
            stream = fn(process, steps)
            while True:
                index = log.open(nid)
                try:
                    delta = next(stream)
                except StopIteration:
                    return
                finally:
                    log.close(index)
                if delta is not None:
                    counters["faults.churn_deltas"] += 1
                yield delta

        deltas.__wrapped__ = fn
        return deltas

    def _net_create(self, fn: Callable) -> Callable:
        span = self._span("net.create", fn)
        created = self.net_executions

        def create(*args, **kwargs):
            execution = span(*args, **kwargs)
            created.append(execution)
            return execution

        create.__wrapped__ = fn
        return create

    # -- patching -------------------------------------------------------

    def _patch(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        raw = vars(owner)[attr]
        if isinstance(raw, staticmethod):
            replacement = staticmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def _patch_methods(self, base: type, attr: str, make) -> None:
        for cls in _defining_classes(base, attr):
            self._patch(cls, attr, make)

    def install(self) -> "LayerTracer":
        """Wrap every traced entry point; raises if already installed."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        mods = {name: importlib.import_module(name) for name in _MODULES}
        runner = mods["repro.campaigns.runner"]
        engine = mods["repro.model.engine"]
        span = self._span

        # campaigns: the runner's per-scenario entry points.
        self._patch(runner, "run_scenario",
                    lambda f: self._scenario("campaigns.run_scenario", f))
        self._patch(runner, "run_scenario_batch",
                    lambda f: self._scenario("campaigns.run_scenario_batch", f))
        # graphs, faults, analysis, model: names the runner imported.
        self._patch(runner, "make_graph", lambda f: span("graphs.make_graph", f))
        self._patch(runner, "create_execution",
                    lambda f: span("model.create_execution", f))
        for name in ("random_configuration", "uniform_configuration"):
            self._patch(runner, name, lambda f: span("faults.start", f))
        builders = vars(runner)["AU_START_BUILDERS"]
        self._patches.append((runner, "AU_START_BUILDERS", builders))
        runner.AU_START_BUILDERS = {
            key: span("faults.start", fn) for key, fn in builders.items()
        }
        for name in ("hop_distances", "execution_clean_mask", "radius_of_mask"):
            self._patch(runner, name, lambda f: span("analysis.containment", f))
        # Imported by the runner at call time: patch the source module.
        self._patch(mods["repro.analysis.stabilization"],
                    "measure_static_task_stabilization",
                    lambda f: span("analysis.static", f))
        self._patch(mods["repro.core.potential"], "disorder_potential",
                    lambda f: span("core.potential", f))
        self._patch(mods["repro.net.adapter"].NetAdapter, "create", self._net_create)

        # model: engine methods, dispatched through the class attributes.
        base = engine.ExecutionBase
        self._patch_methods(base, "step", self._step)
        self._patch_methods(base, "graph_is_good",
                            lambda f: span("model.goodness", f))
        self._patch_methods(base, "mutate_topology",
                            lambda f: span("model.mutate", f))
        self._patch_methods(base, "poke_states",
                            lambda f: self._count("model.poke", f))
        self._patch_methods(mods["repro.model.replica_engine"].ReplicaBatchExecution,
                            "run_ensemble", lambda f: span("model.ensemble", f))
        scheduler = mods["repro.model.scheduler"].Scheduler
        for attr in ("activations", "select"):
            self._patch_methods(scheduler, attr, lambda f: span("model.scheduler", f))
        tracker = mods["repro.model.rounds"].RoundTracker
        for attr in ("observe", "observe_all"):
            self._patch_methods(tracker, attr, lambda f: span("model.rounds", f))
        self._patch_methods(mods["repro.analysis.monitors"].MoveCounter, "on_step",
                            lambda f: span("analysis.monitor", f))

        # faults: storm injector and churn process.
        self._patch_methods(mods["repro.faults.injection"].TransientFaultInjector,
                            "__call__", lambda f: span("faults.storm", f))
        self._patch_methods(mods["repro.faults.churn"].ChurnProcess, "deltas",
                            self._churn_deltas)

        # resilience: the adversary intervention and each strategy.
        self._patch_methods(
            mods["repro.resilience.adversary"].PermanentFaultAdversary,
            "__call__", lambda f: span("resilience.intervene", f))
        strategies = mods["repro.resilience.strategies"]
        for cls in _defining_classes(strategies.ByzantineStrategy, "states_at"):
            if cls is strategies.ByzantineStrategy:
                continue
            self._patch(cls, "states_at",
                        lambda f, n=cls.name: span(f"resilience.strategy.{n}", f))
        return self

    def uninstall(self) -> None:
        """Put every original back, most recent patch first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def patched(self) -> List[Tuple[object, str]]:
        """The ``(owner, attribute)`` pairs currently replaced."""
        return [(owner, attr) for owner, attr, _ in self._patches]

    @contextmanager
    def region(self, name: str) -> Iterator[None]:
        """A span around the benchmark's own calls into a layer (the
        campaign and aggregation entry points it invokes directly)."""
        index = self.log.open(self.log.name_of(name))
        try:
            yield
        finally:
            self.log.close(index)

    # -- results --------------------------------------------------------

    def totals(self) -> Tuple[Dict[str, Tuple[float, float, int]], float]:
        """``({name: (self_s, inclusive_s, calls)}, covered_s)``."""
        a = self.log.arrays()
        count = len(self.log.names)
        self_s, inclusive, calls, covered = self_times(
            a["name_id"], a["start"], a["end"], a["parent"], count
        )
        by_name = {
            name: (float(self_s[i]), float(inclusive[i]), int(calls[i]))
            for i, name in enumerate(self.log.names)
        }
        return by_name, covered


#: Span names whose self time forms each ``*_s`` layer metric.  Every
#: span the tracer can record appears exactly once, so these metrics
#: plus ``trace.unattributed_s`` partition the traced wall time.
SELF_TIME_METRICS: Dict[str, Tuple[str, ...]] = {
    "campaigns.runner_self_s": (
        "campaigns.run_campaign",
        "campaigns.run_scenario",
        "campaigns.run_scenario_batch",
    ),
    "campaigns.aggregate_s": ("campaigns.aggregate",),
    "graphs.make_graph_s": ("graphs.make_graph",),
    "model.create_s": ("model.create_execution",),
    **{f"model.step_s.{lane}": (f"model.step.{lane}",) for lane in LANES},
    "model.goodness_s": ("model.goodness",),
    "model.scheduler_s": ("model.scheduler",),
    "model.rounds_s": ("model.rounds",),
    "model.mutate_s": ("model.mutate",),
    "model.ensemble_s": ("model.ensemble",),
    "faults.start_s": ("faults.start",),
    "faults.storm_s": ("faults.storm",),
    "faults.churn_s": ("faults.churn",),
    "net.create_s": ("net.create",),
    "resilience.intervene_s": ("resilience.intervene",),
    **{
        f"resilience.strategy_s.{name}": (f"resilience.strategy.{name}",)
        for name in STRATEGIES
    },
    "core.potential_s": ("core.potential",),
    "analysis.containment_s": ("analysis.containment",),
    "analysis.monitor_s": ("analysis.monitor",),
    "analysis.static_s": ("analysis.static",),
}

#: Call counts reported per layer: metric → span name.
CALL_METRICS: Dict[str, str] = {
    "resilience.intervene_calls": "resilience.intervene",
    "core.potential_calls": "core.potential",
    "graphs.make_graph_calls": "graphs.make_graph",
    **{f"model.step_calls.{lane}": f"model.step.{lane}" for lane in LANES},
    "model.goodness_calls": "model.goodness",
    "model.mutate_calls": "model.mutate",
}


def _unit(metric: str) -> str:
    if metric.endswith("_s") or "_s." in metric:
        return "s"
    if "_us." in metric:
        return "us"
    if metric.endswith("_frac") or metric.startswith("model.record_overhead"):
        return "ratio"
    if metric == "net.messages_per_step":
        return "msg/step"
    return "count"


def layer_metric_names() -> List[str]:
    """Every per-layer metric :func:`layer_metrics` reports, in order."""
    names = list(SELF_TIME_METRICS) + list(CALL_METRICS)
    names += [f"model.step_us.{lane}" for lane in LANES]
    names += [f"model.advance_us.{lane}" for lane in REPLAY_LANES]
    names += [f"model.record_overhead.{lane}" for lane in REPLAY_LANES]
    names += [
        "model.poke_calls",
        "faults.churn_deltas",
        "net.messages_sent",
        "net.messages_per_step",
        "campaigns.build_s",
        "trace.wall_s",
        "trace.overhead_frac",
        "trace.unattributed_s",
    ]
    return names


def layer_metrics(
    tracer: LayerTracer,
    passes: int,
    traced_wall_s: float,
    untraced_wall_s: float,
    build_s: float,
    replay: Optional[Dict[str, Tuple[float, float]]] = None,
) -> Dict[str, Dict[str, float]]:
    """The per-layer metrics of ``passes`` traced passes, per pass.

    ``traced_wall_s``/``untraced_wall_s`` are per-pass wall times with
    tracing on and off; ``build_s`` is the workload generation time;
    ``replay`` maps a lane to its untraced ``(step_us, advance_us)``
    from the step-versus-advance replay (large-n only).
    """
    totals, covered = tracer.totals()

    def total(name: str, column: int) -> float:
        return totals.get(name, (0.0, 0.0, 0))[column]

    values: Dict[str, float] = {}
    for metric, names in SELF_TIME_METRICS.items():
        values[metric] = sum(total(n, 0) for n in names) / passes
    for metric, name in CALL_METRICS.items():
        values[metric] = total(name, 2) / passes
    for lane in LANES:
        calls = total(f"model.step.{lane}", 2)
        inclusive = total(f"model.step.{lane}", 1)
        values[f"model.step_us.{lane}"] = inclusive / calls * 1e6 if calls else 0.0
    replay = replay or {}
    for lane in REPLAY_LANES:
        step_us, advance_us = replay.get(lane, (0.0, 0.0))
        values[f"model.advance_us.{lane}"] = advance_us
        values[f"model.record_overhead.{lane}"] = (
            step_us / advance_us if advance_us else 0.0
        )
    values["model.poke_calls"] = tracer.counters["model.poke"] / passes
    values["faults.churn_deltas"] = tracer.counters["faults.churn_deltas"] / passes
    sent = sum(e.stats.messages_sent for e in tracer.net_executions)
    net_steps = total("model.step.net", 2)
    values["net.messages_sent"] = sent / passes
    values["net.messages_per_step"] = sent / net_steps if net_steps else 0.0
    values["campaigns.build_s"] = build_s
    values["trace.wall_s"] = traced_wall_s
    values["trace.overhead_frac"] = traced_wall_s / untraced_wall_s - 1.0
    values["trace.unattributed_s"] = traced_wall_s - covered / passes
    return {
        name: {"value": values[name], "unit": _unit(name)}
        for name in layer_metric_names()
    }
