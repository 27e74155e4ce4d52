"""Theorem 3.1 — module Restart: concurrent exit within t0 + O(D).

From random configurations containing at least one σ-state, all nodes
must exit Restart concurrently within ``O(D)`` synchronous rounds; the
sweep shows the linear growth in ``D``.  The timed kernel is one full
Restart convergence at D = 4.
"""

from __future__ import annotations

import numpy as np
from conftest import emit

from repro.analysis.stats import Summary, loglog_slope
from repro.analysis.tables import render_table
from repro.tasks.restart import restart_exit_time

DIAMETER_BOUNDS = (1, 2, 3, 4, 6, 8)
TRIALS = 15


def kernel():
    exit_time = restart_exit_time(4, 14, np.random.default_rng(0))
    assert exit_time is not None, "no concurrent exit"
    return exit_time


def test_thm31_restart(benchmark):
    times = {
        d: [
            restart_exit_time(d, 14, np.random.default_rng(100 * d + trial))
            for trial in range(TRIALS)
        ]
        for d in DIAMETER_BOUNDS
    }
    # A trial without a concurrent exit counts at the 10D + 20 budget.
    summaries = {
        d: Summary.of([10 * d + 20 if t is None else t for t in ts])
        for d, ts in times.items()
    }
    slope = loglog_slope(DIAMETER_BOUNDS, [summaries[d].mean for d in DIAMETER_BOUNDS])

    table = render_table(
        ["D", "σ-states (2D+1)", "exit time (rounds)", "bound 6D+4", "concurrent"],
        [
            (
                d,
                2 * d + 1,
                str(summaries[d]),
                6 * d + 4,
                "NO" if None in times[d] else "yes",
            )
            for d in DIAMETER_BOUNDS
        ],
        title=(
            "Thm 3.1 — Restart: all nodes exit concurrently within O(D) "
            f"rounds ({TRIALS} random starts per D; log-log slope "
            f"{slope:.2f}, paper: ≤ 1)"
        ),
    )
    emit("thm31_restart", table)

    for d in DIAMETER_BOUNDS:
        assert None not in times[d]
        assert summaries[d].maximum <= 6 * d + 4
    assert slope <= 1.25  # linear in D

    benchmark.pedantic(kernel, rounds=5, iterations=1)
