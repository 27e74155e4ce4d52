"""Figure 2 — the live-lock of the failed reset-based AU (Appendix A).

Replays the counterexample: on the 8-ring with c = 2, D = 2, the
rotating fair adversary keeps the reset-based algorithm in a
configuration cycle of period n forever, while AlgAU under the *same*
adversary on the *same* ring stabilizes (``FIGURE2`` in
:mod:`repro.analysis.claims`).  The timed kernel is one full live-lock
period (n rounds of the failed algorithm).
"""

from __future__ import annotations

from conftest import check_claim

from repro.analysis.claims import FIGURE2, livelock_replay
from repro.baselines.failed_reset_au import livelock_witness


def test_figure2_livelock(benchmark):
    witness = livelock_witness()
    benchmark(livelock_replay, witness, witness.topology.n)
    check_claim(FIGURE2)
