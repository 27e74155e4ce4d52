"""Theorem 1.3 — AlgLE: O(D) states, O(D log n) rounds whp.

The sweep is the ``thm13-le-scaling`` campaign: rounds vs ``n`` at
fixed ``D`` (the ratio rounds/log2(n) must stay roughly flat) and
rounds vs ``D`` at fixed ``n`` (roughly linear growth, since an epoch is
D + 1 rounds), four synchronous random-start trials per point.  The
timed kernel is a single adversarial-start election.
"""

from __future__ import annotations

import numpy as np
from conftest import emit, run_registry_campaign

from repro.analysis.stabilization import measure_static_task_stabilization
from repro.analysis.stats import ratio_to_log
from repro.analysis.tables import render_table
from repro.campaigns import state_count, sweep_summaries
from repro.faults.injection import random_configuration
from repro.graphs.generators import damaged_clique
from repro.model.scheduler import SynchronousScheduler
from repro.tasks.le import AlgLE
from repro.tasks.spec import output_validator

REGISTRY = "thm13-le-scaling"


def kernel():
    rng = np.random.default_rng(0)
    topology = damaged_clique(16, 2, rng, damage=0.4)
    algorithm = AlgLE(2)
    result = measure_static_task_stabilization(
        algorithm,
        topology,
        random_configuration(algorithm, topology, rng),
        SynchronousScheduler(),
        rng,
        output_validator("le", topology),
        max_rounds=60_000,
        confirm_rounds=24,
    )
    assert result.stabilized
    return result.rounds


def test_thm13_le_scaling(benchmark):
    aggregates = run_registry_campaign(REGISTRY)
    rows = aggregates["rows"]
    trials = len({row["tags"]["trial"] for row in rows})
    by_n = sweep_summaries(rows, "n")
    by_d = sweep_summaries(rows, "D")
    ratios = ratio_to_log(list(by_n), [s.mean for s in by_n.values()])
    states = {row["group"]: state_count(row) for row in rows}

    table_n = render_table(
        ["n", "states |Q|", "rounds", "rounds / log2(n)"],
        [
            (n, states[f"n={n}"], str(summary), f"{ratio:.1f}")
            for (n, summary), ratio in zip(by_n.items(), ratios)
        ],
        title=(
            f"Thm 1.3 — AlgLE rounds vs n at D=2 (campaign '{REGISTRY}': "
            f"synchronous schedule, {trials} random-start trials; "
            "O(D log n) ⇒ flat ratio)"
        ),
    )
    table_d = render_table(
        ["D", "states |Q|", "rounds"],
        [(d, states[f"D={d}"], str(summary)) for d, summary in by_d.items()],
        title="Thm 1.3 — AlgLE rounds vs D at n=12 (epoch length = D + 1)",
    )
    emit("thm13_le_scaling", table_n + "\n\n" + table_d)

    # Shape checks: the per-log ratio must not blow up with n (allow a
    # generous 4x drift across an 8x range of n: genuinely super-log
    # growth like Θ(n) would drift ~10x).
    assert max(ratios) <= 4.0 * max(min(ratios), 1.0)
    # State space independent of n at fixed D:
    assert len({state_count(row) for row in rows if row["group"].startswith("n=")}) == 1

    benchmark.pedantic(kernel, rounds=3, iterations=1)
