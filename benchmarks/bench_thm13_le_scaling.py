"""Theorem 1.3 — AlgLE: O(D) states, O(D log n) rounds whp.

The sweep is the ``thm13-le-scaling`` campaign: rounds vs ``n`` at
fixed ``D`` (the ratio rounds/log2(n) must stay roughly flat) and
rounds vs ``D`` at fixed ``n`` (roughly linear growth, since an epoch is
D + 1 rounds), four synchronous random-start trials per point; the
claim is ``THM13`` in :mod:`repro.analysis.claims`.  The timed kernel is
one registry cell through ``run_scenario``: the n = 16 election of
trial 0.
"""

from __future__ import annotations

from conftest import check_claim

from repro.analysis.claims import THM13
from repro.campaigns import build_campaign, run_scenario

KERNEL_CELL = 8  # n = 16, trial 0


def kernel():
    result = run_scenario(build_campaign(THM13.registry)[KERNEL_CELL])
    assert result.stabilized
    return result.rounds


def test_thm13_le_scaling(benchmark):
    check_claim(THM13)
    benchmark.pedantic(kernel, rounds=3, iterations=1)
