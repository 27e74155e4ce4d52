"""Native kernel tier: compiled CSR-walking kernels at frontier scale.

Times raw synchronous stepping of the ``native`` engine over the
frontier graph families (ring, gnm, hub colony: numpy-built CSR arrays
wrapped by ``Topology.from_csr``) at ``n`` up to one million nodes,
reporting nanoseconds per node-step — the metric that stays comparable
across sizes and families.  The same workloads are
run once on the numpy array engine at ``n = 10^4`` and ``10^5`` (its
packed-signal δ would hold the million-node rows too; they stay
native-only to keep the benchmark short), giving the speedup column.

Acceptance gates:

* bit-identity — the native engine must reproduce the array engine's
  code vector exactly on a seeded frontier gnm run (the differential
  suite covers the small-graph grid; this reasserts it at benchmark
  shape);
* speedup — the native engine must keep at least half the array
  engine's speed at ``n = 10^5`` on the synchronous ring.  The array
  tier's packed-signal δ runs within 1.0–1.5× of the compiled walk
  there, so the floor catches a collapse of the compiled lane, not a
  margin.

Alongside the rendered table the benchmark persists
``benchmarks/results/BENCH_native_kernel.json`` whose ``meta`` block
records the resolved backend, peak RSS, and bytes/node so future PRs
can track the memory trajectory as well as the throughput one.

Skipped entirely when no native backend resolves (no numba, no C
compiler) — the fallback path is the array engine, and benchmarking it
against itself gates nothing.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest
from conftest import emit, peak_rss_bytes

from repro.analysis.tables import render_table, results_dir
from repro.core.algau import ThinUnison
from repro.core.algau_native import native_backend_name
from repro.graphs.frontier import FRONTIER_FAMILIES
from repro.model.engine import create_execution
from repro.model.scheduler import SynchronousScheduler

D = 2
NS = (10_000, 100_000, 1_000_000)
#: Sizes the array engine is timed at (the speedup denominators); the
#: million-node rows are native-only.
ARRAY_NS = (10_000, 100_000)
#: Timed steps per n (best-of-2 on top).
STEPS = {10_000: 60, 100_000: 15, 1_000_000: 4}
ARRAY_STEPS = {10_000: 20, 100_000: 5}
SPEEDUP_FLOOR_AT_100K = 0.5
GATE_N = 100_000


def _execution(engine: str, topology, seed: int = 5):
    algorithm = ThinUnison(D)
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, algorithm.encoding.size, topology.n)
    initial = algorithm.encoding.decode_configuration(topology, codes)
    return create_execution(
        topology,
        algorithm,
        initial,
        SynchronousScheduler(),
        rng=np.random.default_rng(0),
        engine=engine,
    )


def _seconds_per_step(engine: str, topology, steps: int, repeats: int = 2) -> float:
    best = float("inf")
    for _ in range(repeats):
        execution = _execution(engine, topology)
        execution.advance(1)  # warmup: CSR caches, scheduler frozenset
        start = time.perf_counter()
        execution.advance(steps)
        best = min(best, (time.perf_counter() - start) / steps)
    return best


def kernel():
    topology = FRONTIER_FAMILIES["ring"](GATE_N)
    return _seconds_per_step("native", topology, STEPS[GATE_N])


def test_native_kernel_frontier(benchmark):
    if native_backend_name() is None:
        pytest.skip("no native backend (numba not installed, no C compiler)")

    # Gate 1: bit-identity at benchmark shape.
    check = FRONTIER_FAMILIES["gnm"](4_000, seed=11)
    native = _execution("native", check)
    array = _execution("array", check)
    native.advance(50)
    array.advance(50)
    assert np.array_equal(native._codes, array._codes)
    assert native.graph_is_good() == array.graph_is_good()

    rows = []
    payload = {
        "D": D,
        "scheduler": "synchronous",
        "metric": "ns_per_node_step",
        "rows": [],
    }
    speedups = {}
    for family, build in sorted(FRONTIER_FAMILIES.items()):
        for n in NS:
            topology = build(n, seed=n)
            native_sps = _seconds_per_step("native", topology, STEPS[n])
            array_sps = (
                _seconds_per_step("array", topology, ARRAY_STEPS[n])
                if n in ARRAY_NS
                else None
            )
            ns_per_node = native_sps / n * 1e9
            speedup = array_sps / native_sps if array_sps else None
            if family == "ring":
                speedups[n] = speedup
            rows.append(
                (
                    family,
                    f"{n:,}",
                    f"{topology.m:,}",
                    f"{ns_per_node:.1f}",
                    f"{1.0 / native_sps:,.0f}",
                    f"{speedup:.1f}x" if speedup else "—",
                )
            )
            payload["rows"].append(
                {
                    "family": family,
                    "n": n,
                    "m": topology.m,
                    "native_ns_per_node_step": ns_per_node,
                    "native_steps_per_sec": 1.0 / native_sps,
                    "array_seconds_per_step": array_sps,
                    "speedup_vs_array": speedup,
                }
            )
            del topology

    rss = peak_rss_bytes()
    payload["meta"] = {
        "backend": native_backend_name(),
        "peak_rss_bytes": rss,
        "bytes_per_node_at_max_n": rss / max(NS),
    }

    table = render_table(
        ["family", "n", "m", "ns/node-step", "steps/s", "vs array"],
        rows,
        title=(
            f"Native kernel tier — synchronous frontier stepping, D={D} "
            f"(backend: {native_backend_name()}, best-of-2, record-free "
            "advance)"
        ),
    )
    emit("native_kernel", table)

    json_path = os.path.join(results_dir(), "BENCH_native_kernel.json")
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
    print(f"[saved to {json_path}]")

    # Gate 2: the compiled tier keeps pace with the array tier.
    assert speedups[GATE_N] >= SPEEDUP_FLOOR_AT_100K, speedups

    benchmark.pedantic(kernel, rounds=2, iterations=1)
