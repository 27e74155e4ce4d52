"""Theorem 1.4 — AlgMIS: O(D) states, O((D + log n) log n) rounds whp.

The sweep is the ``thm14-mis-scaling`` campaign: ``n`` at fixed ``D``,
four synchronous random-start trials per point.  The claim (``THM14``
in :mod:`repro.analysis.claims`) requires the measured rounds divided
by ``(D + log2 n) · log2 n`` to stay roughly flat.  The timed kernel is
one registry cell through ``run_scenario``: the n = 16 MIS computation
of trial 0.
"""

from __future__ import annotations

from conftest import check_claim

from repro.analysis.claims import THM14
from repro.campaigns import build_campaign, run_scenario

KERNEL_CELL = 8  # n = 16, trial 0


def kernel():
    result = run_scenario(build_campaign(THM14.registry)[KERNEL_CELL])
    assert result.stabilized
    return result.rounds


def test_thm14_mis_scaling(benchmark):
    check_claim(THM14)
    benchmark.pedantic(kernel, rounds=3, iterations=1)
