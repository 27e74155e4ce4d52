"""Theorem 1.1 — AlgAU: state space O(D), stabilization O(D^3) rounds.

Registry-driven since the campaign subsystem landed: the sweep is the
``thm11-scaling`` campaign — one scenario per (D, trial, adversarial
start), enumerated declaratively and run through the sharded parallel
runner — and the claim (``THM11_SCALING`` in
:mod:`repro.analysis.claims`) folds the campaign rows back into the
paper's table: worst stabilization rounds over the adversarial-start
suite per trial, summarized per diameter bound.  The state count must
equal ``12D + 6`` exactly (any n), and the log-log slope of rounds vs
``D`` must stay at or below the paper's cubic exponent.

The campaign aggregates are also persisted as
``BENCH_campaign_thm11-scaling.json`` so the sweep stays comparable
across PRs; the timed kernel is one registry cell through
``run_scenario``: the D = 2 sign-split start of trial 0.
"""

from __future__ import annotations

from conftest import check_claim

from repro.analysis.claims import THM11_SCALING
from repro.campaigns import build_campaign, run_scenario

KERNEL_CELL = 25  # D = 2, trial 0, sign-split start


def kernel():
    result = run_scenario(build_campaign(THM11_SCALING.registry)[KERNEL_CELL])
    assert result.stabilized
    return result.rounds


def test_thm11_au_scaling(benchmark):
    check_claim(THM11_SCALING)
    benchmark.pedantic(kernel, rounds=3, iterations=1)
