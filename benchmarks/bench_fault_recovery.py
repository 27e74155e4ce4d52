"""Application — fault-tolerant biological networks (the title claim).

Two experiments on biological topologies:

1. **AU recovery** — the ``fault-recovery`` campaign: a stabilized
   quorum-colony clock is hit by repeated transient fault bursts, one
   scenario per trial, run through the sharded parallel runner;
   recovery always succeeds (Thm 1.1) and small faults heal in far
   fewer rounds than the worst-case bound.
2. **MIS fault-tolerance contrast**: the same corrupted initial
   configurations are given to the paper's AlgMIS and to the
   non-self-stabilizing IDGreedyMIS comparator on proneural clusters —
   AlgMIS always converges to a valid SOP pattern, the baseline stays
   broken.

The timed kernel is one `fault-recovery` scenario through `run_scenario`.
"""

from __future__ import annotations

import numpy as np
from conftest import emit, run_registry_campaign

from repro.analysis.stabilization import measure_static_task_stabilization
from repro.analysis.stats import Summary
from repro.analysis.tables import render_table
from repro.baselines.luby_mis import IDGreedyMIS
from repro.campaigns import build_campaign, run_scenario
from repro.faults.injection import random_configuration
from repro.graphs.biological import proneural_cluster
from repro.model.execution import Execution
from repro.model.scheduler import SynchronousScheduler
from repro.tasks.mis import AlgMIS
from repro.tasks.spec import output_validator

TRIALS = 8
REGISTRY = "fault-recovery"


def kernel():
    result = run_scenario(build_campaign(REGISTRY)[0])
    assert result.recovered


def mis_contrast(trials: int):
    """Corrupted starts on a proneural cluster: AlgMIS vs IDGreedyMIS."""
    algmis_ok = 0
    baseline_ok = 0
    for trial in range(trials):
        rng = np.random.default_rng(1000 + trial)
        tissue = proneural_cluster(4, 3)
        d = tissue.diameter
        is_valid = output_validator("mis", tissue)

        algorithm = AlgMIS(d)
        result = measure_static_task_stabilization(
            algorithm,
            tissue,
            random_configuration(algorithm, tissue, rng),
            SynchronousScheduler(),
            rng,
            is_valid,
            max_rounds=80_000,
            confirm_rounds=10 * (d + 3),
        )
        if result.stabilized:
            algmis_ok += 1

        baseline = IDGreedyMIS(tissue.n)
        execution = Execution(
            tissue,
            baseline,
            random_configuration(baseline, tissue, rng),
            SynchronousScheduler(),
            rng=rng,
        )
        execution.run(max_rounds=200)
        out = execution.configuration.output_vector(baseline)
        if all(o is not None for o in out) and is_valid(out):
            baseline_ok += 1
    return algmis_ok, baseline_ok


def test_fault_recovery(benchmark):
    # 1. AU burst recovery on quorum colonies — the campaign.
    aggregates = run_registry_campaign(REGISTRY)
    trials = aggregates["scenario_count"]
    recovered = aggregates["groups"]["au-recovery"]["recovered"]
    recovery_summary = Summary.of(
        [
            row["recovery_rounds"]
            for row in aggregates["rows"]
            if row["recovery_rounds"] is not None
        ]
    )
    # 2. MIS contrast on proneural clusters.
    algmis_ok, baseline_ok = mis_contrast(TRIALS)

    table = render_table(
        ["experiment", "result"],
        [
            (
                f"AlgAU(D=2) n=16, 3 bursts @30% × {trials} trials "
                f"(campaign '{REGISTRY}')",
                f"{recovered}/{trials} runs recovered from "
                f"every burst; worst recovery rounds: {recovery_summary}",
            ),
            (
                f"AlgMIS on proneural(4x3), corrupted start × {TRIALS}",
                f"{algmis_ok}/{TRIALS} valid SOP patterns (self-stabilizing)",
            ),
            (
                f"IDGreedyMIS on proneural(4x3), corrupted start × {TRIALS}",
                f"{baseline_ok}/{TRIALS} valid patterns (no recovery "
                "mechanism)",
            ),
        ],
        title=(
            "Application — fault tolerance on biological topologies: "
            "the paper's algorithms heal, classic comparators do not"
        ),
    )
    emit("fault_recovery", table)

    assert recovered == trials  # every trial healed every burst
    assert algmis_ok == TRIALS
    assert baseline_ok < TRIALS  # the baseline demonstrably breaks

    benchmark.pedantic(kernel, rounds=2, iterations=1)
