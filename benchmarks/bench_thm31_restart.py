"""Theorem 3.1 — module Restart: concurrent exit within t0 + O(D).

From random configurations containing at least one σ-state, all nodes
must exit Restart concurrently within ``O(D)`` synchronous rounds; the
sweep (``THM31`` in :mod:`repro.analysis.claims`) shows the linear
growth in ``D``.  The timed kernel is one full Restart convergence at
D = 4.
"""

from __future__ import annotations

import numpy as np
from conftest import check_claim

from repro.analysis.claims import THM31, THM31_NODES
from repro.tasks.restart import restart_exit_time


def kernel():
    exit_time = restart_exit_time(4, THM31_NODES, np.random.default_rng(0))
    assert exit_time is not None, "no concurrent exit"
    return exit_time


def test_thm31_restart(benchmark):
    check_claim(THM31)
    benchmark.pedantic(kernel, rounds=5, iterations=1)
