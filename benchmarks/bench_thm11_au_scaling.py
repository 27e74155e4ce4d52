"""Theorem 1.1 — AlgAU: state space O(D), stabilization O(D^3) rounds.

Registry-driven since the campaign subsystem landed: the sweep is the
``thm11-scaling`` campaign — one scenario per (D, trial, adversarial
start), enumerated declaratively and run through the sharded parallel
runner — and this benchmark folds the campaign rows back into the
paper's table: worst stabilization rounds over the adversarial-start
suite per trial, summarized per diameter bound.  The shape checks are
unchanged: the state count must equal ``12D + 6`` exactly (any n), and
the log-log slope of rounds vs ``D`` must stay at or below the paper's
cubic exponent.

The campaign aggregates are also persisted as
``BENCH_campaign_thm11-scaling.json`` so the sweep stays comparable
across PRs; the timed kernel is one registry cell through
``run_scenario``: the D = 2 sign-split start of trial 0.
"""

from __future__ import annotations

from conftest import emit, run_registry_campaign

from repro.analysis.stats import Summary, loglog_slope
from repro.analysis.tables import render_table
from repro.campaigns import build_campaign, fold_worst_rounds, run_scenario
from repro.core.algau import ThinUnison

REGISTRY = "thm11-scaling"
KERNEL_CELL = 25  # D = 2, trial 0, sign-split start


def kernel():
    result = run_scenario(build_campaign(REGISTRY)[KERNEL_CELL])
    assert result.stabilized
    return result.rounds


def test_thm11_au_scaling(benchmark):
    aggregates = run_registry_campaign(REGISTRY)
    worst = fold_worst_rounds(aggregates["rows"])
    diameter_bounds = sorted({int(row["diameter_bound"]) for row in aggregates["rows"]})
    summaries = {
        d: Summary.of(
            [rounds for (group, _), rounds in worst.items() if group == f"D={d}"]
        )
        for d in diameter_bounds
    }
    slope = loglog_slope(diameter_bounds, [summaries[d].mean for d in diameter_bounds])

    table_rows = []
    for d in diameter_bounds:
        algorithm = ThinUnison(d)
        k = algorithm.levels.k
        table_rows.append(
            (
                d,
                algorithm.state_space_size(),
                12 * d + 6,
                str(summaries[d]),
                k**3,
            )
        )
    trials = len({row["tags"]["trial"] for row in aggregates["rows"]})
    table = render_table(
        [
            "D",
            "states |Q|",
            "paper 12D+6",
            "rounds (worst over starts)",
            "paper bound k^3",
        ],
        table_rows,
        title=(
            "Thm 1.1 — AlgAU scaling in D (campaign 'thm11-scaling': "
            "bounded-diameter family targeting n=14, shuffled-round-robin "
            "scheduler, worst of 4 adversarial starts "
            f"× {trials} trials, {aggregates['scenario_count']} scenarios); "
            f"log-log slope of rounds vs D = {slope:.2f} (paper: ≤ 3)"
        ),
    )
    emit("thm11_au_scaling", table)

    # Shape checks.
    for d in diameter_bounds:
        algorithm = ThinUnison(d)
        assert algorithm.state_space_size() == 12 * d + 6  # exact, any n
        assert summaries[d].maximum <= algorithm.levels.k ** 3
    assert slope <= 3.2  # cubic upper bound with measurement noise

    benchmark.pedantic(kernel, rounds=3, iterations=1)
