"""Sparse-activation throughput: the incremental step pipeline.

Under the asynchronous daemons the paper analyzes, a step activates a
handful of nodes, yet the naive engines re-derive every activated
node's Table 1 action from scratch and rescan the configuration for
stabilization — ~n× redundant work per step at n = 10k.  The
incremental pipeline (dirty-neighborhood guard caching + cached pending
actions + incremental goodness counts) makes sparse-schedule throughput
scale with *activity* instead of *n*.

This benchmark times the array engine's incremental pipeline against
its own naive full-recompute reference (``incremental=False`` — the
pre-pipeline behavior, bit-identical trajectories) at ``n = 10_000``
under the round-robin and laggard schedules on the ring and
``signaling_hub_colony`` families, with and without a per-step
stabilization poll.  Alongside the rendered table it persists
``benchmarks/results/BENCH_sparse_activation.json``.

Acceptance gates:

* the incremental pipeline is ≥ 1.5× faster under round-robin on the
  ring at n = 10k;
* both modes produce bit-identical ``StepRecord`` streams and final
  code vectors (checked here on every family × schedule cell);
* polling ``graph_is_good`` every step costs O(changes), not O(n):
  the polled incremental run must stay ≥ 1.5× the polled naive run on
  the gated cell.

The naive reference evaluates the one activated row with the batched
packed-signal δ, a few numpy calls over that row's neighborhood, so at
n = 10k it runs within 2–4× of the scalar incremental path; the floor
sits below the lowest ratio measured on a 2-CPU host (2.05× unpolled,
2.5× polled).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
from conftest import emit

from repro.analysis.tables import render_table, results_dir
from repro.core.algau import ThinUnison
from repro.faults.injection import random_configuration
from repro.graphs.biological import signaling_hub_colony
from repro.graphs.generators import ring
from repro.model.engine import create_execution
from repro.model.scheduler import LaggardScheduler, RoundRobinScheduler

D = 2
N = 10_000
#: (timed steps, repeats); best-of-repeats guards against scheduler
#: noise on loaded CI machines.  The naive reference pays O(n) per
#: step, so it gets fewer steps.
PLAN = {True: (4000, 3), False: (400, 3)}
DIFF_STEPS = 600
SPEEDUP_FLOOR = 1.5

GRAPHS = {
    "ring": lambda: ring(N),
    "signaling_hub_colony": lambda: signaling_hub_colony(
        N, np.random.default_rng(7), hubs=3
    ),
}

SCHEDULES = {
    "round-robin": RoundRobinScheduler,
    "laggard": lambda: LaggardScheduler(victim=0, period=6),
}


def _make(topology, incremental, scheduler_factory):
    algorithm = ThinUnison(D)
    initial = random_configuration(algorithm, topology, np.random.default_rng(N))
    return create_execution(
        topology,
        algorithm,
        initial,
        scheduler_factory(),
        rng=np.random.default_rng(0),
        engine="array",
        incremental=incremental,
    )


def _steps_per_second(topology, incremental, scheduler_factory, poll=False):
    steps, repeats = PLAN[incremental]
    best = float("inf")
    for _ in range(repeats):
        execution = _make(topology, incremental, scheduler_factory)
        execution.step()  # warmup: builds CSR / kernel / goodness caches
        execution.graph_is_good()
        start = time.perf_counter()
        if poll:
            for _ in range(steps):
                execution.step()
                execution.graph_is_good()
        else:
            for _ in range(steps):
                execution.step()
        best = min(best, (time.perf_counter() - start) / steps)
    return 1.0 / best


def _assert_bit_identical(topology, scheduler_factory):
    """The differential gate: incremental vs naive, step for step."""
    runs = []
    for incremental in (True, False):
        execution = _make(topology, incremental, scheduler_factory)
        records = [execution.step() for _ in range(DIFF_STEPS)]
        runs.append((records, execution.codes))
    (inc_records, inc_codes), (ref_records, ref_codes) = runs
    for a, b in zip(inc_records, ref_records):
        assert a.t == b.t
        assert a.activated == b.activated
        assert a.changed == b.changed
        assert a.completed_round == b.completed_round
    assert np.array_equal(inc_codes, ref_codes)


def kernel():
    topology = GRAPHS["ring"]()
    execution = _make(topology, True, SCHEDULES["round-robin"])
    for _ in range(2000):
        execution.step()


def test_sparse_activation_throughput(benchmark):
    rows = []
    payload = {"D": D, "n": N, "engine": "array", "rows": []}
    gated_speedup = None
    gated_polled = None
    for graph_name, make_graph in GRAPHS.items():
        topology = make_graph()
        for sched_name, factory in SCHEDULES.items():
            _assert_bit_identical(topology, factory)
            naive = _steps_per_second(topology, False, factory)
            incremental = _steps_per_second(topology, True, factory)
            naive_poll = _steps_per_second(topology, False, factory, poll=True)
            incremental_poll = _steps_per_second(topology, True, factory, poll=True)
            speedup = incremental / naive
            speedup_poll = incremental_poll / naive_poll
            if graph_name == "ring" and sched_name == "round-robin":
                gated_speedup = speedup
                gated_polled = speedup_poll
            rows.append(
                (
                    graph_name,
                    sched_name,
                    f"{naive:,.0f}",
                    f"{incremental:,.0f}",
                    f"{speedup:.1f}x",
                    f"{speedup_poll:.1f}x",
                )
            )
            payload["rows"].append(
                {
                    "graph": graph_name,
                    "scheduler": sched_name,
                    "naive_steps_per_sec": naive,
                    "incremental_steps_per_sec": incremental,
                    "speedup": speedup,
                    "naive_polled_steps_per_sec": naive_poll,
                    "incremental_polled_steps_per_sec": incremental_poll,
                    "polled_speedup": speedup_poll,
                    "bit_identical_steps": DIFF_STEPS,
                }
            )

    table = render_table(
        [
            "graph",
            "schedule",
            "naive steps/s",
            "incremental steps/s",
            "speedup",
            "w/ good() poll",
        ],
        rows,
        title=(
            f"Sparse-activation throughput — n={N}, D={D}, array engine: "
            "incremental dirty-set pipeline vs naive full-recompute "
            "reference (best-of-3, bit-identical trajectories)"
        ),
    )
    emit("sparse_activation", table)

    json_path = os.path.join(results_dir(), "BENCH_sparse_activation.json")
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
    print(f"[saved to {json_path}]")

    # The acceptance gates.
    assert gated_speedup is not None and gated_speedup >= SPEEDUP_FLOOR, payload
    assert gated_polled is not None and gated_polled >= SPEEDUP_FLOOR, payload

    benchmark.pedantic(kernel, rounds=2, iterations=1)
