"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.claims import CLAIMS
from repro.campaigns import build_campaign, run_campaign
from repro.core.algau import ThinUnison
from repro.graphs.generators import (
    complete_graph,
    damaged_clique,
    dumbbell,
    path,
    ring,
)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


@pytest.fixture
def k6() -> object:
    """The complete graph on 6 nodes (D = 1)."""
    return complete_graph(6)


@pytest.fixture
def small_clique_d2(rng) -> object:
    """A damaged clique with diameter <= 2."""
    return damaged_clique(10, 2, rng)


@pytest.fixture
def ring8() -> object:
    return ring(8)


@pytest.fixture
def path5() -> object:
    return path(5)


@pytest.fixture
def dumbbell_d4() -> object:
    return dumbbell(4, 2)


@pytest.fixture
def au_d1() -> ThinUnison:
    return ThinUnison(1)


@pytest.fixture
def au_d2() -> ThinUnison:
    return ThinUnison(2)


@pytest.fixture
def au_d4() -> ThinUnison:
    return ThinUnison(4)


@pytest.fixture(scope="session")
def trial_zero_runs() -> dict:
    """``registry -> (scenarios, results)`` over the trial-0 scenarios of
    every sweep claim's registry (the slice ``repro report --trials 1``
    folds), run once per session."""
    runs = {}
    for claim in CLAIMS:
        if claim.registry:
            scenarios = [
                s for s in build_campaign(claim.registry) if s.tag("trial") == "0"
            ]
            runs[claim.registry] = (scenarios, run_campaign(scenarios))
    return runs


def pytest_configure(config) -> None:
    """Register the ``timeout`` marker when pytest-timeout is absent.

    CI installs pytest-timeout (see requirements.txt), which enforces
    the per-test budgets on the net-runtime tests; on bare
    local environments the marker degrades to a registered no-op so
    ``-W error::pytest.PytestUnknownMarkWarning`` runs stay clean.
    """
    if not config.pluginmanager.hasplugin("timeout"):
        config.addinivalue_line(
            "markers",
            "timeout(seconds): per-test wall-clock budget "
            "(enforced by pytest-timeout when installed)",
        )
