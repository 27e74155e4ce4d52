"""Observation 3.2 — max of n Geom(p) is Θ(log n).

This is the probabilistic engine behind RandPhase (AlgMIS) and
RandCount (AlgLE): the random phase/stage length is the maximum of n
independent geometric variables, which must grow logarithmically in n
(both the O(log n) upper and the c·log n lower whp).  The Monte-Carlo
sweep (``OBS32`` in :mod:`repro.analysis.claims`) checks both sides.
The timed kernel is the sampling routine.
"""

from __future__ import annotations

import numpy as np
from conftest import check_claim

from repro.analysis.claims import OBS32, OBS32_P
from repro.analysis.stats import max_geometric_sample


def kernel():
    rng = np.random.default_rng(0)
    return [max_geometric_sample(256, OBS32_P, rng) for _ in range(200)]


def test_obs32_geometric_max(benchmark):
    check_claim(OBS32)
    benchmark(kernel)
