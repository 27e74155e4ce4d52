"""The paper-claim campaign registries and the claims that fold them.

The benchmarks run the full sweeps; these tests run the first trial of
each registry (the slice ``repro report`` uses) through the same claim
checks of :mod:`repro.analysis.claims`, plus the registry facts no claim
checks, so sweep regressions are caught in seconds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.analysis.claims import CLAIMS, THM31
from repro.analysis.stabilization import measure_static_task_stabilization
from repro.campaigns import (
    aggregate_results,
    build_campaign,
    make_scheduler,
    measured_payload,
    run_campaign,
    run_scenario,
)
from repro.campaigns.spec import ALGORITHM_FACTORIES
from repro.faults.injection import random_configuration
from repro.graphs.generators import make_graph
from repro.tasks.spec import output_validator

#: SHA-256 of the canonical JSON list of ``measured_payload`` over every
#: seed-0 row of the static-task scaling registries, in index order.
STATIC_REGISTRY_DIGESTS = {
    "thm13-le-scaling": (
        "7a934d005c25b92a391eb89ca4a1188fafc47205ccfb73cdabb089cc548eafaf"
    ),
    "thm14-mis-scaling": (
        "eb66092ef40399b643a3878a662e96ef96b6686f08578dd06f10e17503b27798"
    ),
}

SWEEP_CLAIMS = [claim for claim in CLAIMS if claim.registry]


@pytest.fixture(scope="module")
def campaigns(trial_zero_runs):
    """Trial-0 aggregates of every paper-claim registry."""
    return {
        name: aggregate_results(name, scenarios, results, 0)
        for name, (scenarios, results) in trial_zero_runs.items()
    }


@pytest.mark.parametrize("claim", SWEEP_CLAIMS, ids=lambda claim: claim.registry)
def test_claim_holds_on_the_trial_zero_slice(campaigns, claim):
    aggregates = campaigns[claim.registry]
    assert aggregates["scenario_count"] > 0
    check = claim.check(aggregates)
    assert not check.problems, check.problems


def test_thm31_claim_holds():
    check = THM31.check()
    assert not check.problems, check.problems


def test_thm11_sweeps_every_diameter_bound(campaigns):
    rows = campaigns["thm11-scaling"]["rows"]
    assert sorted({row["diameter_bound"] for row in rows}) == [1, 2, 3, 4, 5]


class TestStaticTaskScaling:
    def test_le_sweep_points(self, campaigns):
        groups = set(campaigns["thm13-le-scaling"]["groups"])
        assert groups == {"n=4", "n=8", "n=16", "n=32", "D=1", "D=2", "D=3"}

    def test_le_d1_point_runs_on_the_complete_graph(self, campaigns):
        rows = campaigns["thm13-le-scaling"]["rows"]
        (row,) = [row for row in rows if row["group"] == "D=1"]
        assert row["graph"] == "complete"
        assert row["m"] == row["n"] * (row["n"] - 1) // 2

    def test_mis_rounds_are_positive(self, campaigns):
        rows = campaigns["thm14-mis-scaling"]["rows"]
        assert len(rows) == 4
        assert all(row["rounds"] > 0 for row in rows)


class TestCor12:
    def _pairs(self, campaigns):
        pairs = {}
        for row in campaigns["cor12-synchronizer"]["rows"]:
            pairs.setdefault(row["tags"]["pairing"], []).append(row)
        return pairs

    def test_pairs_share_one_graph_sample(self, campaigns):
        pairs = self._pairs(campaigns)
        assert len(pairs) == 6  # 2 tasks x 3 sizes at trial 0
        for sync, lifted in pairs.values():
            assert (sync["scheduler"], lifted["scheduler"]) == (
                "synchronous",
                "shuffled-round-robin",
            )
            assert lifted["algorithm"] == f"sync-{sync['algorithm']}"
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
    pooled = aggregate_results(
        name, scenarios, run_campaign(scenarios, workers=2), 0
    )
    assert json.dumps(serial, sort_keys=True) == json.dumps(pooled, sort_keys=True)


class TestStaticTaskPipeline:
    """Static LE/MIS rows settle through the one scenario pipeline."""

    @pytest.mark.parametrize("name", sorted(STATIC_REGISTRY_DIGESTS))
    def test_seed_zero_payloads_are_pinned(self, name):
        payloads = [measured_payload(run_scenario(s)) for s in build_campaign(name)]
        text = json.dumps(payloads, sort_keys=True)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == STATIC_REGISTRY_DIGESTS[name]

    @pytest.mark.parametrize("max_rounds", [1, 3])
    def test_exhausted_budget_row(self, max_rounds):
        cell = build_campaign("thm13-le-scaling")[8]
        result = run_scenario(dataclasses.replace(cell, max_rounds=max_rounds))
        assert result.stabilized is False
        assert result.status == ""
        assert result.detail == "no valid output configuration reached"
        assert result.rounds == max_rounds  # the completed rounds
        assert result.steps == max_rounds  # synchronous: one step a round

    def test_timeout_row(self):
        cell = build_campaign("thm13-le-scaling")[8]
        result = run_scenario(cell, timeout_s=1e-9)
        assert result.status == "timeout"
        assert result.stabilized is False
        assert (result.rounds, result.steps, result.n, result.m) == (0, 0, 0, 0)
        assert result.detail == "scenario exceeded the 1e-09s wall-clock budget"

    @pytest.mark.parametrize(
        "name, index, expected",
        [
            ("thm13-le-scaling", 8, (30, 54, 863)),
            ("cor12-synchronizer", 7, (45, 680, 603)),
        ],
    )
    def test_wrapper_matches_the_pipeline(self, name, index, expected):
        scenario = build_campaign(name)[index]
        assert scenario.start == "random"
        rng = np.random.default_rng(scenario.seed)
        topology = make_graph(scenario.graph, rng, **scenario.params())
        algorithm = ALGORITHM_FACTORIES[scenario.algorithm].make(
            scenario.diameter_bound, topology.n
        )
        measured = measure_static_task_stabilization(
            algorithm,
            topology,
            random_configuration(algorithm, topology, rng),
            make_scheduler(scenario.scheduler),
            rng,
            output_validator(scenario.task, topology),
            max_rounds=scenario.max_rounds,
            confirm_rounds=8 * (scenario.diameter_bound + 1),
        )
        row = run_scenario(scenario)
        assert measured.stabilized and row.stabilized
        assert (measured.rounds, measured.steps, measured.moves) == expected
        assert (row.rounds, row.steps, row.moves) == expected
