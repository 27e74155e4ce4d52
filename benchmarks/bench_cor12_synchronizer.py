"""Corollary 1.2 — the synchronizer: Π (synchronous) vs Π* (asynchronous).

The sweep is the ``cor12-synchronizer`` campaign.  For AlgMIS and AlgLE
it compares stabilization rounds of the synchronous original against
its synchronizer lift under an adversarial asynchronous scheduler, each
trial a seed-paired couple of rows on one graph sample; the claim
(``COR12`` in :mod:`repro.analysis.claims`) verifies the exact product
state-space accounting ``|Q*| = |Q|^2 · (4k − 2) = O(D · |Q|^2)``.  The
timed kernel is one registry cell through ``run_scenario``: the
asynchronous Sync[AlgMIS] stabilization at n = 10 of trial 0.
"""

from __future__ import annotations

from conftest import check_claim

from repro.analysis.claims import COR12
from repro.campaigns import build_campaign, run_scenario

KERNEL_CELL = 7  # sync-alg-mis at n = 10, trial 0


def kernel():
    result = run_scenario(build_campaign(COR12.registry)[KERNEL_CELL])
    assert result.stabilized
    return result.rounds


def test_cor12_synchronizer(benchmark):
    check_claim(COR12)
    benchmark.pedantic(kernel, rounds=3, iterations=1)
