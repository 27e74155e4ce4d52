"""Engine throughput: object model vs vectorized array backend.

Times raw stepping (no stabilization predicate) of both execution
engines over synchronous-scheduler rings at ``n ∈ {100, 1k, 10k}`` from
identical seeded random starts, reporting steps/sec and the speedup.
Alongside the usual rendered table the benchmark persists
``benchmarks/results/BENCH_engine_throughput.json`` so future PRs can
track the performance trajectory machine-readably.

Acceptance gate: the array engine must be ≥ 10× faster than the object
engine at ``n = 10_000``.  On a shared 2-CPU host it lands at 16–26×:
the object engine pays a Python-level signal set and a δ-memo lookup
per dirty node, while the array engine pays a handful of numpy passes
per step.  Both sides return a ``StepRecord`` per step; neither decodes
change tuples that nothing reads (the array tier's records decode
lazily).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
from conftest import emit, peak_rss_bytes

from repro.analysis.tables import render_table, results_dir
from repro.core.algau import ThinUnison
from repro.faults.injection import random_configuration
from repro.graphs.generators import ring
from repro.model.engine import create_execution
from repro.model.scheduler import SynchronousScheduler

D = 2
NS = (100, 1_000, 10_000)
#: (timed steps, repeats) per (n, engine); best-of-repeats guards
#: against scheduler noise on loaded CI machines.
PLAN = {
    "object": {100: (50, 3), 1_000: (10, 3), 10_000: (3, 3)},
    "array": {100: (200, 3), 1_000: (200, 3), 10_000: (100, 3)},
}
SPEEDUP_FLOOR_AT_10K = 10.0


def _seconds_per_step(engine: str, n: int) -> float:
    """Best-of-repeats seconds/step of ``engine`` on the n-ring."""
    algorithm = ThinUnison(D)
    topology = ring(n)
    initial = random_configuration(algorithm, topology, np.random.default_rng(n))
    steps, repeats = PLAN[engine][n]
    best = float("inf")
    for _ in range(repeats):
        execution = create_execution(
            topology,
            algorithm,
            initial,
            SynchronousScheduler(),
            rng=np.random.default_rng(0),
            engine=engine,
        )
        execution.step()  # warmup: builds CSR / signal caches
        start = time.perf_counter()
        for _ in range(steps):
            execution.step()
        best = min(best, (time.perf_counter() - start) / steps)
    return best


def kernel():
    return _seconds_per_step("array", NS[-1])


def test_engine_throughput(benchmark):
    rows = []
    payload = {"D": D, "graph": "ring", "scheduler": "synchronous", "rows": []}
    speedups = {}
    for n in NS:
        object_sps = _seconds_per_step("object", n)
        array_sps = _seconds_per_step("array", n)
        speedup = object_sps / array_sps
        speedups[n] = speedup
        rows.append(
            (
                n,
                f"{1.0 / object_sps:,.0f}",
                f"{1.0 / array_sps:,.0f}",
                f"{speedup:.1f}x",
            )
        )
        payload["rows"].append(
            {
                "n": n,
                "object_steps_per_sec": 1.0 / object_sps,
                "array_steps_per_sec": 1.0 / array_sps,
                "speedup": speedup,
            }
        )

    table = render_table(
        ["n", "object steps/s", "array steps/s", "speedup"],
        rows,
        title=(
            f"Engine throughput — synchronous ring, D={D}: object model vs "
            "vectorized array backend (best-of-3, a StepRecord per step)"
        ),
    )
    emit("engine_throughput", table)

    rss = peak_rss_bytes()
    payload["meta"] = {
        "peak_rss_bytes": rss,
        "bytes_per_node_at_max_n": rss / NS[-1],
    }

    json_path = os.path.join(results_dir(), "BENCH_engine_throughput.json")
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
    print(f"[saved to {json_path}]")

    # The issue's acceptance gate.
    assert speedups[10_000] >= SPEEDUP_FLOOR_AT_10K, speedups

    benchmark.pedantic(kernel, rounds=2, iterations=1)
