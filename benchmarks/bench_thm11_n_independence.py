"""Theorem 1.1, the headline qualifier — "irrespective of n".

The distinguishing feature of AlgAU over prior AU algorithms is that
both its state space and its stabilization-time bound depend on the
diameter bound ``D`` only.  The sweep is the ``thm11-n-independence``
campaign: ``D`` fixed at 2 while ``n`` grows by an order of magnitude,
one scenario per (n, trial, adversarial start), run through the
parallel runner on the vectorized array engine.  The claim
(``THM11_N_INDEPENDENCE`` in :mod:`repro.analysis.claims`) requires the
state count to stay exactly ``12D + 6`` and the stabilization rounds to
stay essentially flat (the paper's bound has no ``n`` in it at all).

The timed kernel is one registry cell through ``run_scenario``: the
sign-split start of trial 0 at the largest ``n``, which also exercises
the simulator's per-step scaling.
"""

from __future__ import annotations

from conftest import check_claim

from repro.analysis.claims import THM11_N_INDEPENDENCE
from repro.campaigns import build_campaign, run_scenario

KERNEL_CELL = 61  # n = 48, trial 0, sign-split start


def kernel():
    result = run_scenario(build_campaign(THM11_N_INDEPENDENCE.registry)[KERNEL_CELL])
    assert result.stabilized
    return result.rounds


def test_thm11_n_independence(benchmark):
    check_claim(THM11_N_INDEPENDENCE)
    benchmark.pedantic(kernel, rounds=2, iterations=1)
