#!/usr/bin/env python3
"""The repository benchmark: serial campaign workloads, end to end and
layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload byzantine --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 15

``--trace 0`` measures the end-to-end metrics: the workload's scenarios
run serially through the public campaign API (``run_campaign`` with one
worker, serial dispatch, no result cache, no checkpoint, no timeout
guard) and are aggregated with ``aggregate_results``, pass after pass
until ``--seconds`` is used up.  ``--trace 1`` measures the per-layer
metrics instead: a few untraced passes, then traced passes with
:class:`layer_trace.LayerTracer` installed, then (on ``large-n``) a
``step()``-versus-``advance()`` replay of every cell.  End-to-end times
are rescaled to a reference host speed (:class:`HostSpeed`).

Every pass is checked: its aggregates must hash identically across the
passes of a run (and, at the default seed, to the pinned digest), and
lane-paired workloads must pass ``verify_engine_pairing``.  A run that
fails a check prints no timings and exits with status 1.  The last line
of standard output is one JSON object; a fuller record, including the
comparability fields and the trace spans, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
#: The compiled-kernel cache, kept inside the checkout.
NATIVE_CACHE = ROOT / ".bench_build" / "repro-native"
BASELINE = HERE / "baseline.json"
#: Fresh-process set-up measurements per run (the median is reported).
SETUP_PROBES = 5
#: In-process workload generations timed for ``campaigns.build_s``.
BUILD_REPEATS = 5
#: Duration of one :func:`speed_probe` on the reference host.  Reported
#: times are in seconds at that host speed (see :class:`HostSpeed`).
SPEED_REFERENCE_S = 1.0e-3
#: Seconds between speed probes during a pass.
SPEED_SEGMENT_S = 0.1

sys.path.insert(0, str(HERE))
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    PINNED_DIGESTS,
    WORKLOADS,
    Workload,
    aggregates_digest,
)


# ----------------------------------------------------------------------
# Host speed.
# ----------------------------------------------------------------------


def speed_probe() -> float:
    """The host's current speed: the fastest of three runs of a fixed
    interpreter loop that calls no repository code, in seconds."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        table: Dict[int, int] = {}
        total = 0
        for i in range(10_000):
            total += i * i
            table[i & 63] = total
        best = min(best, time.perf_counter() - started)
    return best


class HostSpeed:
    """Wall time rescaled to the reference host speed.

    A host that shares its cores with other tenants can drift in speed
    by 20-40% over tens of seconds, and within a single long scenario.
    While a pass runs, an interval timer (``SIGALRM``) interrupts it every
    ``SPEED_SEGMENT_S`` seconds to run :func:`speed_probe`, cutting the
    pass into segments; a segment's time counts at ``SPEED_REFERENCE_S``
    over the mean probe time at its two ends, and probe time counts as
    nothing.  Because the probe runs no repository code, a change to the
    simulator moves the rescaled time exactly as it moves the raw one.
    """

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.probes: List[float] = []
        #: ``(scenarios done, time)`` after every campaign job.
        self.completions: List[tuple] = []
        self._mark = 0.0
        self._busy = False

    def __enter__(self) -> "HostSpeed":
        self.probes.append(speed_probe())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SPEED_SEGMENT_S, SPEED_SEGMENT_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._close()

    def _close(self) -> None:
        self.starts.append(self._mark)
        self.ends.append(time.perf_counter())
        self.probes.append(speed_probe())
        self._mark = time.perf_counter()

    def _tick(self, signum, frame) -> None:
        if not self._busy:
            self._busy = True
            try:
                self._close()
            finally:
                self._busy = False

    def completed(self, done: int, total: int) -> None:
        """``run_campaign`` progress callback."""
        self.completions.append((done, time.perf_counter()))

    def _overlap(self, start: float, end: float):
        import numpy as np

        return np.clip(
            np.minimum(self.ends, end) - np.maximum(self.starts, start), 0.0, None
        )

    def raw(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` outside the probes."""
        return float(self._overlap(start, end).sum())

    def scaled(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` at the reference host speed."""
        import numpy as np

        probes = np.asarray(self.probes)
        rate = SPEED_REFERENCE_S * 2 / (probes[:-1] + probes[1:])
        return float((self._overlap(start, end) * rate).sum())

    def scenario_ms(self, results: list) -> List[float]:
        """Each result's ``elapsed_ms`` at the reference host speed: the
        window of that length ending when its job completed.  Serial
        dispatch completes scenarios in index order (replica-batch
        members are adjacent in every workload)."""
        scaled = []
        marks = iter(self.completions)
        done, end = 0, 0.0
        for i, result in enumerate(results):
            while done <= i:
                done, end = next(marks)
            scaled.append(self.scaled(end - result.elapsed_ms / 1000.0, end) * 1000.0)
        return scaled


# ----------------------------------------------------------------------
# Passes.
# ----------------------------------------------------------------------


@dataclass
class Passes:
    """What a sequence of workload passes measured and checked."""

    #: Pass times: rescaled to the reference host speed when the
    #: passes were speed-probed, raw otherwise (raw excludes probes).
    walls: List[float] = field(default_factory=list)
    raw_walls: List[float] = field(default_factory=list)
    steps: List[int] = field(default_factory=list)
    #: Per-scenario times, rescaled like ``walls``.
    elapsed_ms: List[float] = field(default_factory=list)
    digests: List[str] = field(default_factory=list)
    #: Steps per scenario index (identical in every pass).
    scenario_steps: Dict[int, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.walls)


def run_passes(
    workload: Workload,
    scenarios: list,
    seed: int,
    seconds: float,
    min_passes: int,
    tracer=None,
) -> Passes:
    """Run the workload pass after pass: at least ``min_passes``, then
    while another pass is expected to finish within ``seconds``.

    Untraced passes are speed-probed (:class:`HostSpeed`); traced passes
    are not, so that no probe runs inside a span."""
    from contextlib import nullcontext

    from repro.campaigns.aggregate import aggregate_results, verify_engine_pairing
    from repro.campaigns.runner import run_campaign

    def region(name: str):
        return tracer.region(name) if tracer is not None else nullcontext()

    out = Passes()
    deadline = time.perf_counter() + seconds
    while True:
        stats: Dict[str, object] = {}
        speed = HostSpeed() if tracer is None else None
        with speed if speed is not None else nullcontext():
            started = time.perf_counter()
            with region("campaigns.run_campaign"):
                results = run_campaign(
                    scenarios, workers=1, dispatch="serial", stats=stats,
                    progress=speed.completed if speed is not None else None,
                )
            with region("campaigns.aggregate"):
                aggregates = aggregate_results(workload.name, scenarios, results, seed)
                mismatches = (
                    verify_engine_pairing(aggregates["rows"]) if workload.paired else []
                )
            ended = time.perf_counter()
        if speed is not None:
            out.walls.append(speed.scaled(started, ended))
            out.raw_walls.append(speed.raw(started, ended))
            out.elapsed_ms.extend(speed.scenario_ms(results))
        else:
            out.walls.append(ended - started)
            out.raw_walls.append(ended - started)
            out.elapsed_ms.extend(r.elapsed_ms for r in results)
        out.steps.append(sum(r.steps for r in results))
        out.scenario_steps = {r.index: r.steps for r in results}
        out.digests.append(aggregates_digest(aggregates))
        out.attempted += len(results)
        out.failed += sum(1 for r in results if r.status in ("error", "timeout"))
        if stats.get("dispatch") != "serial" or stats.get("cache") is not None:
            out.problems.append(f"unclean run conditions: {stats}")
        out.problems.extend(f"pairing: {m}" for m in mismatches)

        now = time.perf_counter()
        if out.count >= min_passes and now + statistics.median(out.raw_walls) > deadline:
            return out


def check(workload: Workload, seed: int, passes: Passes, reference: str = "") -> List[str]:
    """Every correctness problem of a run's passes."""
    problems = list(passes.problems)
    digests = set(passes.digests) | ({reference} if reference else set())
    if len(digests) != 1:
        problems.append(f"aggregates differ between passes: {sorted(digests)}")
    pinned = PINNED_DIGESTS.get(workload.name)
    if seed == DEFAULT_SEED and pinned and passes.digests[0] != pinned:
        problems.append(
            f"aggregates digest {passes.digests[0]} != pinned {pinned} "
            f"at seed {seed}"
        )
    return problems


# ----------------------------------------------------------------------
# Set-up time, comparability.
# ----------------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> None:
    """The child side of :func:`measure_setup`: everything a run does
    before its first scenario, then a ``ready`` line."""
    import repro.campaigns.aggregate  # noqa: F401
    import repro.campaigns.runner  # noqa: F401
    from repro.core.algau_native import native_backend_name

    native_backend_name()
    WORKLOADS[workload].build(seed)
    print("ready", flush=True)


def measure_setup(workload: str, seed: int, probes: int) -> List[float]:
    """Seconds from spawning a fresh interpreter to its first scenario
    (imports, native-backend resolution with a warm kernel cache, and
    workload generation), once per probe, rescaled to the reference
    host speed by speed probes taken just before and after."""
    times = []
    command = [
        sys.executable, str(Path(__file__)), "--workload", workload,
        "--seed", str(seed), "--setup-probe",
    ]
    for _ in range(probes):
        before = speed_probe()
        started = time.perf_counter()
        child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - started
        finally:
            child.stdout.close()
            child.wait(timeout=120)
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
        times.append(elapsed * 2 * SPEED_REFERENCE_S / (before + speed_probe()))
    return times


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".py", ".c") and path.is_file():
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def comparability(backend: Optional[str]) -> Dict[str, object]:
    """What a result must share with the baseline to be compared."""
    import networkx
    import numpy

    record: Dict[str, object] = {
        "native_backend": backend,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
    }
    baseline_backend = None
    if BASELINE.exists():
        baseline_backend = json.loads(BASELINE.read_text())["comparability"][
            "native_backend"
        ]
    record["comparable"] = baseline_backend is None or baseline_backend == backend
    return record


# ----------------------------------------------------------------------
# Metrics.
# ----------------------------------------------------------------------


def end_to_end(
    workload: Workload, scenarios: list, passes: Passes, setup: List[float]
) -> Dict[str, Dict[str, float]]:
    import numpy as np

    tail = workload.tail_percentile(len(scenarios))
    rates = [s / w for s, w in zip(passes.steps, passes.walls)]
    return {
        "wall_s": {"value": statistics.median(passes.walls), "unit": "s"},
        "steps_per_s": {"value": statistics.median(rates), "unit": "1/s"},
        "scenario_ms_tail": {
            "value": float(np.percentile(passes.elapsed_ms, tail)),
            "unit": "ms",
            "percentile": tail,
            "samples": len(passes.elapsed_ms),
        },
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
    }


def replay_large_n(scenarios: list, passes_rows: Dict[int, int]) -> Dict[str, object]:
    """Replay every ``large-n`` cell with ``step()`` and with
    ``advance()`` for the campaign's step count, from the same start and
    seed, untraced; the final codes must be bit-identical.

    Returns per-lane ``(step_us, advance_us)`` totals (time over steps,
    summed across the lane's cells) and the per-cell figures.
    """
    import numpy as np

    from repro.campaigns.spec import ALGORITHM_FACTORIES, make_scheduler
    from repro.faults.injection import random_configuration
    from repro.graphs.generators import make_graph
    from repro.model.engine import create_execution

    lanes: Dict[str, List[float]] = {}
    cells = []
    for scenario in scenarios:
        steps = passes_rows[scenario.index]
        rng = np.random.default_rng(scenario.seed)
        topology = make_graph(scenario.graph, rng, **scenario.params())
        algorithm = ALGORITHM_FACTORIES[scenario.algorithm].make(
            scenario.diameter_bound, topology.n
        )
        initial = random_configuration(algorithm, topology, rng)
        twin = np.random.default_rng()
        twin.bit_generator.state = rng.bit_generator.state

        def build(stream):
            return create_execution(
                topology, algorithm, initial, make_scheduler(scenario.scheduler),
                rng=stream, engine=scenario.engine,
            )

        stepped = build(rng)
        started = time.perf_counter()
        for _ in range(steps):
            stepped.step()
        step_s = time.perf_counter() - started
        advanced = build(twin)
        started = time.perf_counter()
        advanced.advance(steps)
        advance_s = time.perf_counter() - started
        if not np.array_equal(stepped.codes, advanced.codes) or not (
            stepped.graph_is_good() and advanced.graph_is_good()
        ):
            raise RuntimeError(f"step/advance replay diverged on {scenario.scenario_id}")
        totals = lanes.setdefault(scenario.engine, [0.0, 0.0, 0])
        totals[0] += step_s
        totals[1] += advance_s
        totals[2] += steps
        cells.append(
            {
                "scenario": scenario.scenario_id,
                "steps": steps,
                "step_us": step_s / steps * 1e6,
                "advance_us": advance_s / steps * 1e6,
            }
        )
    per_lane = {
        lane: (step / steps * 1e6, advance / steps * 1e6)
        for lane, (step, advance, steps) in lanes.items()
    }
    return {"lanes": per_lane, "cells": cells}


# ----------------------------------------------------------------------
# Driver.
# ----------------------------------------------------------------------


def _emit(correct: bool, attempted: int, failed: int, metrics) -> None:
    plain = {
        name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()
    }
    print(json.dumps({
        "correct": correct, "attempted": max(1, attempted),
        "failed": failed, "metrics": plain,
    }))


def _fail(problems: List[str], attempted: int, failed: int) -> int:
    for problem in problems:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    _emit(False, attempted, failed, {})
    return 1


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[name]
    from repro.core.algau_native import native_backend_name

    # Lazily imported on first use by the runner: load them now so the
    # first timed pass pays no import.
    import repro.analysis.stabilization  # noqa: F401
    import repro.core.potential  # noqa: F401
    import repro.net.adapter  # noqa: F401

    backend = native_backend_name()  # compiles the kernels on a cold cache
    record = comparability(backend)
    builds = []
    for _ in range(BUILD_REPEATS):
        started = time.perf_counter()
        scenarios = workload.build(seed)
        builds.append(time.perf_counter() - started)

    result: Dict[str, object] = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "comparability": record,
    }
    if not trace:
        setup = measure_setup(name, seed, SETUP_PROBES)
        passes = run_passes(workload, scenarios, seed, seconds, workload.min_passes)
        problems = check(workload, seed, passes)
        if problems:
            return _fail(problems, passes.attempted, passes.failed)
        metrics = end_to_end(workload, scenarios, passes, setup)
        result.update(
            passes=passes.count, walls=passes.walls, raw_walls=passes.raw_walls,
            setup=setup,
        )
        attempted, failed = passes.attempted, passes.failed
    else:
        from layer_trace import LayerTracer, layer_metrics

        plain = run_passes(workload, scenarios, seed, seconds / 2, 1)
        tracer = LayerTracer().install()
        try:
            traced = run_passes(workload, scenarios, seed, seconds / 2, 1, tracer)
        finally:
            tracer.uninstall()
        problems = check(workload, seed, plain) + check(
            workload, seed, traced, reference=plain.digests[0]
        )
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
        if problems:
            return _fail(problems, attempted, failed)
        replay = None
        if name == "large-n":
            replay = replay_large_n(scenarios, plain.scenario_steps)
            result["replay_cells"] = replay["cells"]
        metrics = layer_metrics(
            tracer,
            traced.count,
            sum(traced.walls) / traced.count,
            statistics.median(plain.raw_walls),
            statistics.median(builds),
            replay["lanes"] if replay else None,
        )
        OUT.mkdir(exist_ok=True)
        tracer.log.save(str(OUT / f"trace-{name}-s{seed}.npz"))
        result.update(passes=plain.count, traced_passes=traced.count, spans=len(tracer.log))

    result["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}-s{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=2, sort_keys=True)
    )
    if not record["comparable"]:
        print(f"perfbench: INCOMPARABLE: native backend {backend!r} differs "
              "from the baseline's", file=sys.stderr)
    for metric, m in metrics.items():
        extra = ""
        if "percentile" in m:
            extra = f"  (p{m['percentile']} of {m['samples']} scenario runs)"
        print(f"{name:12s} {metric:34s} {m['value']:14.6f} {m['unit']}{extra}")
    _emit(True, attempted, failed, metrics)
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; one summary table."""
    status = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0:
            print(f"{name:12s} FAILED (exit {done.returncode})")
            status = 1
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    os.environ["REPRO_NATIVE_CACHE_DIR"] = str(NATIVE_CACHE)
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
