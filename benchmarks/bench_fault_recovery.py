"""Application — fault-tolerant biological networks (the title claim).

Two experiments on biological topologies, checked together as
``FAULT_RECOVERY`` in :mod:`repro.analysis.claims`:

1. **AU recovery** — the ``fault-recovery`` campaign: a stabilized
   quorum-colony clock is hit by repeated transient fault bursts, one
   scenario per trial, run through the parallel runner;
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

from conftest import check_claim

from repro.analysis.claims import FAULT_RECOVERY
from repro.campaigns import build_campaign, run_scenario


def kernel():
    result = run_scenario(build_campaign(FAULT_RECOVERY.registry)[0])
    assert result.recovered


def test_fault_recovery(benchmark):
    check_claim(FAULT_RECOVERY)
    benchmark.pedantic(kernel, rounds=2, iterations=1)
