"""The paper-claim campaign registries and the Thm 3.1 trial function.

The benchmarks run the full sweeps; these tests run the first trial of
each registry (the slice ``repro report`` uses) and check every claim's
invariants on those rows, so sweep regressions are caught in seconds.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.analysis.report import paper_campaign
from repro.campaigns import (
    aggregate_results,
    build_campaign,
    run_campaign,
    state_count,
)
from repro.tasks.restart import restart_exit_time


@pytest.fixture(scope="module")
def campaigns():
    """Trial-0 aggregates of every paper-claim registry, run once."""
    names = (
        "thm11-scaling",
        "thm13-le-scaling",
        "thm14-mis-scaling",
        "cor12-synchronizer",
        "fault-recovery",
    )
    return {name: paper_campaign(name, 1) for name in names}


@pytest.mark.parametrize(
    "name",
    [
        "thm11-scaling",
        "thm13-le-scaling",
        "thm14-mis-scaling",
        "cor12-synchronizer",
        "fault-recovery",
    ],
)
def test_trial_zero_slice_has_no_failed_rows(campaigns, name):
    aggregates = campaigns[name]
    assert aggregates["scenario_count"] > 0
    assert aggregates["failure_count"] == 0, aggregates["failures"]


class TestThm11:
    def test_exact_states_and_cubic_round_bound(self, campaigns):
        rows = campaigns["thm11-scaling"]["rows"]
        assert sorted({row["diameter_bound"] for row in rows}) == [1, 2, 3, 4, 5]
        for row in rows:
            d = row["diameter_bound"]
            assert state_count(row) == 12 * d + 6
            assert row["rounds"] <= (3 * d + 2) ** 3


class TestStaticTaskScaling:
    def test_le_sweep_points(self, campaigns):
        groups = set(campaigns["thm13-le-scaling"]["groups"])
        assert groups == {"n=4", "n=8", "n=16", "n=32", "D=1", "D=2", "D=3"}

    def test_le_state_space_does_not_depend_on_n(self, campaigns):
        rows = campaigns["thm13-le-scaling"]["rows"]
        n_sweep = [row for row in rows if row["group"].startswith("n=")]
        assert len({row["n"] for row in n_sweep}) == 4
        assert len({state_count(row) for row in n_sweep}) == 1

    def test_le_d1_point_runs_on_the_complete_graph(self, campaigns):
        rows = campaigns["thm13-le-scaling"]["rows"]
        (row,) = [row for row in rows if row["group"] == "D=1"]
        assert row["graph"] == "complete"
        assert row["m"] == row["n"] * (row["n"] - 1) // 2

    def test_mis_rounds_are_positive(self, campaigns):
        rows = campaigns["thm14-mis-scaling"]["rows"]
        assert len(rows) == 4
        assert all(row["rounds"] > 0 for row in rows)


class TestRestart:
    def test_concurrent_exit_within_6d_plus_4_growing_with_d(self):
        means = []
        for d in (1, 3):
            times = [
                restart_exit_time(d, 8, np.random.default_rng(100 * d + trial))
                for trial in range(5)
            ]
            assert None not in times  # every trial exits concurrently
            assert max(times) <= 6 * d + 4
            means.append(sum(times) / len(times))
        assert means[1] > means[0]


class TestCor12:
    def _pairs(self, campaigns):
        pairs = {}
        for row in campaigns["cor12-synchronizer"]["rows"]:
            pairs.setdefault(row["tags"]["pairing"], []).append(row)
        return pairs

    def test_product_state_accounting(self, campaigns):
        for sync, lifted in self._pairs(campaigns).values():
            assert lifted["algorithm"] == f"sync-{sync['algorithm']}"
            assert state_count(lifted) == state_count(sync) ** 2 * (12 * 2 + 6)

    def test_pairs_share_one_graph_sample(self, campaigns):
        pairs = self._pairs(campaigns)
        assert len(pairs) == 6  # 2 tasks x 3 sizes at trial 0
        for sync, lifted in pairs.values():
            assert (sync["scheduler"], lifted["scheduler"]) == (
                "synchronous",
                "shuffled-round-robin",
            )
            assert sync["seed"] == lifted["seed"]
            assert (sync["n"], sync["m"]) == (lifted["n"], lifted["m"])


class TestFaultRecovery:
    def test_every_burst_is_recovered(self, campaigns):
        rows = campaigns["fault-recovery"]["rows"]
        assert rows
        for row in rows:
            assert row["recovered"] is True
            assert row["recovery_rounds"] > 0


@pytest.mark.parametrize(
    "name", ["thm13-le-scaling", "thm14-mis-scaling", "cor12-synchronizer"]
)
def test_aggregates_identical_at_one_and_two_workers(name):
    scenarios = [s for s in build_campaign(name) if s.tag("trial") == "0"]
    serial = aggregate_results(name, scenarios, run_campaign(scenarios), 0)
    sharded = aggregate_results(
        name, scenarios, run_campaign(scenarios, workers=2, shard_size=2), 0
    )
    assert json.dumps(serial, sort_keys=True) == json.dumps(sharded, sort_keys=True)
