"""Theorem 1.4 — AlgMIS: O(D) states, O((D + log n) log n) rounds whp.

The sweep is the ``thm14-mis-scaling`` campaign: ``n`` at fixed ``D``,
four synchronous random-start trials per point.  The measured rounds
divided by ``(D + log2 n) · log2 n`` must stay roughly flat.  The timed
kernel is one adversarial-start MIS computation.
"""

from __future__ import annotations

import math

import numpy as np
from conftest import emit, run_registry_campaign

from repro.analysis.stabilization import measure_static_task_stabilization
from repro.analysis.tables import render_table
from repro.campaigns import state_count, sweep_summaries
from repro.faults.injection import random_configuration
from repro.graphs.generators import damaged_clique
from repro.model.scheduler import SynchronousScheduler
from repro.tasks.mis import AlgMIS
from repro.tasks.spec import output_validator

REGISTRY = "thm14-mis-scaling"
D = 2


def kernel():
    rng = np.random.default_rng(0)
    topology = damaged_clique(16, D, rng, damage=0.4)
    algorithm = AlgMIS(D)
    result = measure_static_task_stabilization(
        algorithm,
        topology,
        random_configuration(algorithm, topology, rng),
        SynchronousScheduler(),
        rng,
        output_validator("mis", topology),
        max_rounds=60_000,
        confirm_rounds=30,
    )
    assert result.stabilized
    return result.rounds


def test_thm14_mis_scaling(benchmark):
    aggregates = run_registry_campaign(REGISTRY)
    rows = aggregates["rows"]
    trials = len({row["tags"]["trial"] for row in rows})
    by_n = sweep_summaries(rows, "n")
    states = {row["group"]: state_count(row) for row in rows}

    def bound(n: int) -> float:
        log_n = max(1.0, math.log2(n))
        return (D + log_n) * log_n

    ratios = [summary.mean / bound(n) for n, summary in by_n.items()]
    table = render_table(
        ["n", "states |Q|", "rounds", "(D+log n)·log n", "ratio"],
        [
            (
                n,
                states[f"n={n}"],
                str(summary),
                f"{bound(n):.0f}",
                f"{ratio:.2f}",
            )
            for (n, summary), ratio in zip(by_n.items(), ratios)
        ],
        title=(
            f"Thm 1.4 — AlgMIS rounds vs n at D={D} (campaign "
            f"'{REGISTRY}': synchronous schedule, {trials} random-start "
            "trials; O((D + log n) log n) ⇒ flat ratio)"
        ),
    )
    emit("thm14_mis_scaling", table)

    # Shape: the normalized ratio stays bounded (no super-bound growth).
    assert max(ratios) <= 5.0 * max(min(ratios), 0.2)
    # State space independent of n:
    assert len({state_count(row) for row in rows}) == 1

    benchmark.pedantic(kernel, rounds=3, iterations=1)
