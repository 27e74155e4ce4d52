"""Theorem 1.1, the headline qualifier — "irrespective of n".

The distinguishing feature of AlgAU over prior AU algorithms is that
both its state space and its stabilization-time bound depend on the
diameter bound ``D`` only.  The sweep is the ``thm11-n-independence``
campaign: ``D`` fixed at 2 while ``n`` grows by an order of magnitude,
one scenario per (n, trial, adversarial start), run through the sharded
parallel runner on the vectorized array engine.  The state count must
stay exactly ``12D + 6`` and the stabilization rounds must stay
essentially flat (the paper's bound has no ``n`` in it at all).

The timed kernel is one registry cell through ``run_scenario``: the
sign-split start of trial 0 at the largest ``n``, which also exercises
the simulator's per-step scaling.
"""

from __future__ import annotations

from conftest import emit, run_registry_campaign

from repro.analysis.stats import Summary
from repro.analysis.tables import render_table
from repro.campaigns import build_campaign, fold_worst_rounds, run_scenario
from repro.core.algau import ThinUnison

D = 2
REGISTRY = "thm11-n-independence"
KERNEL_CELL = 61  # n = 48, trial 0, sign-split start


def kernel():
    result = run_scenario(build_campaign(REGISTRY)[KERNEL_CELL])
    assert result.stabilized
    return result.rounds


def test_thm11_n_independence(benchmark):
    aggregates = run_registry_campaign(REGISTRY)
    algorithm = ThinUnison(D)
    worst = fold_worst_rounds(aggregates["rows"])
    ns = sorted({int(row["n"]) for row in aggregates["rows"]})
    table_rows = []
    means = []
    for n in ns:
        summary = Summary.of(
            [rounds for (group, _), rounds in worst.items() if group == f"n={n}"]
        )
        means.append(summary.mean)
        table_rows.append((n, algorithm.state_space_size(), str(summary)))

    table = render_table(
        ["n", "states |Q| (must stay 12D+6)", "rounds (worst over starts)"],
        table_rows,
        title=(
            f"Thm 1.1 — n-independence at D={D} (campaign '{REGISTRY}', "
            f"{aggregates['scenario_count']} scenarios): growing n by 8x "
            "leaves the state space untouched and stabilization "
            "essentially flat"
        ),
    )
    emit("thm11_n_independence", table)

    # The state space literally cannot depend on n (it's one object),
    # so the measured claim is about rounds: an 8x growth in n may not
    # even double the stabilization rounds.
    assert max(means) <= 2.0 * min(means)

    benchmark.pedantic(kernel, rounds=2, iterations=1)
