"""The scenario-campaign subsystem.

Covers the declarative spec (validation, JSON round-trips), the
registries (determinism, uniqueness, the smoke campaign's CI
contract), the pooled runner (worker-count-independent bit-identical
aggregates, JSONL checkpointing, kill-and-resume), the new scenario
axes (dynamic-topology perturbations, heterogeneous-degree biological
graphs), and the campaign CLI.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.campaigns import (
    FaultPlan,
    Scenario,
    ScenarioResult,
    aggregate_results,
    build_campaign,
    load_checkpoint,
    registry_names,
    run_campaign,
    run_scenario,
    write_campaign_artifact,
)
from repro.campaigns import runner as runner_module
from repro.cli import main
from repro.core.algau import ThinUnison
from repro.faults.injection import (
    carry_configuration,
    perturb_topology,
    random_configuration,
)
from repro.graphs.generators import damaged_clique, make_graph, ring
from repro.model.engine import ENGINE_NAMES, create_execution
from repro.model.errors import ModelError
from repro.model.scheduler import SynchronousScheduler


def _scenario(**overrides) -> Scenario:
    base = dict(
        campaign="test",
        index=0,
        task="au",
        graph="complete",
        graph_params=(("n", 6),),
        diameter_bound=1,
        scheduler="synchronous",
        engine="array",
        start="random",
        seed=7,
        max_rounds=10_000,
    )
    base.update(overrides)
    return Scenario(**base)


class TestSpec:
    def test_roundtrip_through_json(self):
        scenario = _scenario(
            faults=FaultPlan(kind="storm", times=(3, 9), fraction=0.5),
            tags=(("trial", "2"),),
            group="g",
        )
        data = json.loads(json.dumps(scenario.to_dict()))
        assert Scenario.from_dict(data) == scenario

    def test_permanent_fault_plan_roundtrip(self):
        scenario = _scenario(
            faults=FaultPlan(
                kind="byzantine", strategy="oscillating", density=0.1, radius=4
            ),
        )
        data = json.loads(json.dumps(scenario.to_dict()))
        assert Scenario.from_dict(data) == scenario

    def test_result_roundtrip_ignores_unknown_fields(self):
        result = ScenarioResult(
            scenario_id="x",
            index=3,
            group="g",
            stabilized=True,
            rounds=10,
            steps=60,
            n=6,
            m=15,
            tags=(("trial", "0"),),
        )
        data = result.to_dict()
        data["future_field"] = "ignored"
        assert ScenarioResult.from_dict(data) == result

    @pytest.mark.parametrize(
        "overrides",
        [
            {"task": "nope"},
            {"engine": "simd"},
            {"task": "le", "engine": "array"},
            {"scheduler": "cosmic"},
            {"start": "sideways"},
            {"task": "le", "engine": "object", "start": "sign-split"},
            {
                "task": "mis",
                "engine": "object",
                "faults": FaultPlan(kind="bursts", bursts=1),
            },
            {"diameter_bound": 0},
            {"max_rounds": 0},
            # Replica batching: AU only, fault-free, the numpy array
            # engines, oblivious schedulers.
            {"batch_replicas": 0},
            {"task": "le", "engine": "object", "batch_replicas": 2},
            {
                "faults": FaultPlan(kind="bursts", bursts=1),
                "batch_replicas": 2,
            },
            {"engine": "object", "batch_replicas": 2},
            {"engine": "native", "batch_replicas": 2},
            {"scheduler": "enabled-only", "batch_replicas": 2},
        ],
    )
    def test_validation_rejects(self, overrides):
        with pytest.raises(ValueError):
            _scenario(**overrides)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "warp"},
            {"kind": "bursts", "bursts": 0},
            {"kind": "storm", "times": ()},
            {"kind": "rewire"},
            {"kind": "bursts", "bursts": 1, "fraction": 0.0},
            {"kind": "byzantine", "density": 0.1},  # no strategy
            {"kind": "byzantine", "strategy": "gaslight", "density": 0.1},
            # crash-stop has its own kind (the byzantine spelling would
            # silently drop the crash time).
            {"kind": "byzantine", "strategy": "crash", "density": 0.1},
            {"kind": "byzantine", "strategy": "frozen", "density": 0.0},
            {"kind": "byzantine", "strategy": "frozen", "density": 1.0},
            {"kind": "byzantine", "strategy": "frozen", "density": 0.1, "radius": -1},
            {"kind": "crash", "density": 0.2, "times": (3, 9)},
        ],
    )
    def test_fault_plan_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs)

    def test_permanent_fault_plan_labels(self):
        byz = FaultPlan(kind="byzantine", strategy="frozen", density=0.2, radius=3)
        assert byz.label == "byz-frozen(d=0.20,r=3)"
        crash = FaultPlan(kind="crash", density=0.125, times=(40,), radius=2)
        assert crash.label == "crash(d=0.12,t=40,r=2)"


class TestRegistry:
    def test_every_registry_builds_unique_deterministic_ids(self):
        for name in registry_names():
            first = build_campaign(name, seed=3)
            second = build_campaign(name, seed=3)
            assert first == second
            ids = [s.scenario_id for s in first]
            assert len(set(ids)) == len(ids)
            assert [s.index for s in first] == list(range(len(first)))

    def test_seed_changes_scenario_seeds_only(self):
        a = build_campaign("micro", seed=0)
        b = build_campaign("micro", seed=1)
        assert [s.seed for s in a] != [s.seed for s in b]

        def strip(s):
            return (s.task, s.graph, s.scheduler, s.start, s.faults)

        assert [strip(s) for s in a] == [strip(s) for s in b]

    def test_smoke_meets_the_ci_contract(self):
        scenarios = build_campaign("smoke")
        assert len(scenarios) >= 50
        assert {s.task for s in scenarios} == {"au", "le", "mis"}
        assert {s.engine for s in scenarios} == set(ENGINE_NAMES)
        kinds = {s.faults.kind for s in scenarios}
        assert kinds == {"none", "bursts", "storm", "rewire"}
        assert "hub-colony" in {s.graph for s in scenarios}

    def test_unknown_registry_lists_valid_names(self):
        with pytest.raises(ValueError, match="smoke"):
            build_campaign("nope")

    def test_byzantine_registry_is_engine_paired(self):
        scenarios = build_campaign("byzantine")
        assert all(s.faults.kind in ("byzantine", "crash") for s in scenarios)
        strategies = {
            s.faults.strategy for s in scenarios if s.faults.kind == "byzantine"
        }
        assert strategies == {"frozen", "random", "oscillating", "noisy", "targeted"}
        assert len({s.graph for s in scenarios}) >= 2
        pairs = {}
        for s in scenarios:
            pairs.setdefault(s.tag("pairing"), []).append(s)
        for paired in pairs.values():
            assert sorted(p.engine for p in paired) == ["array", "object"]
            assert len({p.seed for p in paired}) == 1  # shared derived seed
            assert len({p.graph for p in paired}) == 1
            assert len({p.faults for p in paired}) == 1


class TestRunner:
    def test_micro_campaign_all_stabilize(self):
        scenarios = build_campaign("micro")
        results = run_campaign(scenarios, workers=1)
        assert [r.index for r in results] == [s.index for s in scenarios]
        assert all(r.stabilized for r in results)
        by_kind = {s.faults.kind: r for s, r in zip(scenarios, results)}
        assert by_kind["bursts"].recovered
        assert by_kind["rewire"].recovered
        assert by_kind["rewire"].recovery_rounds > 0

    def test_error_scenarios_fold_into_failed_results(self):
        # regular(n=7, degree=3): odd n * odd degree is unrealizable.
        scenario = _scenario(graph="regular", graph_params=(("n", 7), ("degree", 3)))
        result = run_scenario(scenario)
        assert not result.stabilized
        assert "error:" in result.detail

    def test_aggregates_identical_across_worker_counts(self):
        scenarios = build_campaign("smoke")[:14]
        serial = run_campaign(scenarios, workers=1)
        pooled = run_campaign(scenarios, workers=2)
        a = aggregate_results("smoke", scenarios, serial, 0)
        b = aggregate_results("smoke", scenarios, pooled, 0)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_checkpoint_resume_skips_completed_scenarios(self, tmp_path, monkeypatch):
        scenarios = build_campaign("micro")
        checkpoint = str(tmp_path / "progress.jsonl")
        reference = aggregate_results(
            "micro", scenarios, run_campaign(scenarios, workers=1), 0
        )

        # First run "dies" after three scenarios (checkpoint survives).
        run_campaign(scenarios[:3], workers=1, checkpoint_path=checkpoint)
        assert len(load_checkpoint(checkpoint)) == 3

        calls = []
        real_run = run_scenario

        def counting_run(scenario, timeout_s=None, shared=None):
            calls.append(scenario.scenario_id)
            return real_run(scenario, timeout_s, shared)

        monkeypatch.setattr(runner_module, "run_scenario", counting_run)
        resumed = run_campaign(
            scenarios, workers=1, checkpoint_path=checkpoint, resume=True
        )
        assert len(calls) == len(scenarios) - 3  # completed work not redone
        assert len(load_checkpoint(checkpoint)) == len(scenarios)
        merged = aggregate_results("micro", scenarios, resumed, 0)
        assert json.dumps(merged, sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )

    def test_recovery_failure_fails_the_campaign(self):
        import dataclasses

        scenarios = build_campaign("micro")
        results = run_campaign(scenarios, workers=1)
        broken = [
            dataclasses.replace(r, recovered=False) if r.recovered else r
            for r in results
        ]
        aggregates = aggregate_results("micro", scenarios, broken, 0)
        # bursts + rewire scenarios: a recovery regression must surface
        # as campaign failures even though stabilization succeeded.
        assert aggregates["failure_count"] == 2
        assert len(aggregates["failures"]) == 2

    def test_fold_worst_rounds_requires_the_tag(self):
        from repro.campaigns import fold_worst_rounds

        scenarios = build_campaign("micro")
        results = run_campaign(scenarios, workers=1)
        aggregates = aggregate_results("micro", scenarios, results, 0)
        with pytest.raises(ValueError, match="trial"):
            fold_worst_rounds(aggregates["rows"])

    def test_byzantine_slice_pairs_and_worker_counts_agree(self):
        """The acceptance property on a fast slice: containment results
        are engine-paired bit-identical and worker-count independent
        (the nightly CI shard re-verifies the full registry)."""
        from repro.campaigns import verify_engine_pairing

        scenarios = build_campaign("byzantine")[:4]  # two engine pairs
        serial = run_campaign(scenarios, workers=1)
        pooled = run_campaign(scenarios, workers=2)
        a = aggregate_results("byzantine", scenarios, serial, 0)
        b = aggregate_results("byzantine", scenarios, pooled, 0)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert a["failure_count"] == 0
        assert verify_engine_pairing(a["rows"]) == []
        for row in a["rows"]:
            assert row["containment_radius"] is not None
            assert 0.0 <= row["clean_fraction"] <= 1.0
            assert row["recovered"] is None  # containment, not recovery

    def test_verify_engine_pairing_raises_on_unpaired_rows(self):
        from repro.campaigns import verify_engine_pairing

        scenarios = build_campaign("micro")[:1]
        results = run_campaign(scenarios, workers=1)
        rows = aggregate_results("micro", scenarios, results, 0)["rows"]
        with pytest.raises(ValueError, match="pairing"):
            verify_engine_pairing(rows)

    def test_verify_engine_pairing_flags_mismatches(self):
        from repro.campaigns import verify_engine_pairing

        scenarios = build_campaign("byzantine")[:2]  # one pair
        results = run_campaign(scenarios, workers=1)
        rows = aggregate_results("byzantine", scenarios, results, 0)["rows"]
        assert verify_engine_pairing(rows) == []
        rows[1]["rounds"] += 1
        mismatches = verify_engine_pairing(rows)
        assert len(mismatches) == 1 and "rounds" in mismatches[0]

    def test_checkpoint_tolerates_truncated_tail(self, tmp_path):
        scenarios = build_campaign("micro")[:2]
        checkpoint = str(tmp_path / "progress.jsonl")
        run_campaign(scenarios, workers=1, checkpoint_path=checkpoint)
        with open(checkpoint, "a", encoding="utf-8") as handle:
            handle.write('{"scenario_id": "half-written')  # killed mid-write
        assert len(load_checkpoint(checkpoint)) == 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_finished_job_is_checkpointed_before_progress(
        self, tmp_path, workers
    ):
        # A kill between two progress calls loses at most the jobs in
        # flight: every call finds exactly `done` rows on disk.
        scenarios = build_campaign("micro")
        checkpoint = str(tmp_path / "progress.jsonl")
        seen = []

        def progress(done, total):
            with open(checkpoint, encoding="utf-8") as handle:
                seen.append((done, sum(1 for _ in handle)))

        run_campaign(
            scenarios, workers=workers, checkpoint_path=checkpoint, progress=progress
        )
        assert [done for done, _ in seen] == sorted(done for done, _ in seen)
        assert all(done == rows for done, rows in seen)
        assert seen[-1][0] == len(scenarios)
        assert len(seen) == len(runner_module._make_jobs(scenarios, batch=True))

    def test_fresh_run_invalidates_stale_checkpoint(self, tmp_path):
        scenarios = build_campaign("micro")[:2]
        checkpoint = str(tmp_path / "progress.jsonl")
        run_campaign(scenarios, workers=1, checkpoint_path=checkpoint)
        run_campaign(scenarios, workers=1, checkpoint_path=checkpoint)
        assert len(load_checkpoint(checkpoint)) == 2  # not appended twice

    def test_resume_after_kill_mid_write_is_bit_identical(self, tmp_path):
        """Regression: a checkpoint killed mid-write leaves a
        truncated, newline-less tail; the resumed run used to append its
        first row onto that garbage, silently destroying both rows (so a
        later resume re-ran — and duplicated — the scenario).  The
        append path now repairs the tail and the loader dedupes by
        index, so a kill-and-resume cycle aggregates bit-identically
        with an uninterrupted run."""
        scenarios = build_campaign("micro")
        reference = aggregate_results(
            "micro", scenarios, run_campaign(scenarios, workers=1), 0
        )
        checkpoint = str(tmp_path / "progress.jsonl")
        run_campaign(scenarios[:3], workers=1, checkpoint_path=checkpoint)
        with open(checkpoint, "a", encoding="utf-8") as handle:
            # killed mid-job, mid-write: no trailing newline
            handle.write('{"scenario_id": "half", "index": 3, "stabilized"')
        resumed = run_campaign(
            scenarios, workers=1, checkpoint_path=checkpoint, resume=True
        )
        merged = aggregate_results("micro", scenarios, resumed, 0)
        assert json.dumps(merged, sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )
        # Every scenario kept exactly one parseable row (the first row
        # appended after the kill did not merge into the garbage tail).
        done = load_checkpoint(checkpoint)
        assert len(done) == len(scenarios)
        parsed_indices = []
        with open(checkpoint, "r", encoding="utf-8") as handle:
            for line in handle:
                try:
                    parsed_indices.append(json.loads(line)["index"])
                except ValueError:
                    continue
        assert sorted(parsed_indices) == [s.index for s in scenarios]

    def test_checkpoint_duplicate_rows_keep_the_last_write(self, tmp_path):
        """Duplicate rows for one scenario index (a re-run after an
        interrupted write) resolve last-write-wins on load."""
        import dataclasses

        scenarios = build_campaign("micro")[:2]
        checkpoint = str(tmp_path / "progress.jsonl")
        results = run_campaign(scenarios, workers=1, checkpoint_path=checkpoint)
        stale = dataclasses.replace(
            results[0], rounds=999, detail="stale interrupted write"
        )
        renamed = dataclasses.replace(stale, scenario_id="some-older-spelling")
        with open(checkpoint, "r", encoding="utf-8") as handle:
            real_rows = handle.read()
        with open(checkpoint, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(renamed.to_dict(), sort_keys=True) + "\n")
            handle.write(json.dumps(stale.to_dict(), sort_keys=True) + "\n")
            handle.write(real_rows)
        done = load_checkpoint(checkpoint)
        assert len(done) == len(scenarios)  # one row per index survives
        assert done[scenarios[0].scenario_id].rounds == results[0].rounds
        assert "some-older-spelling" not in done

    def test_failed_scenarios_keep_a_traceback(self):
        """Regression: the error fold kept only ``str(exc)``, losing the
        raising frame; the detail now carries a truncated traceback and
        still aggregates bit-identically across worker counts."""
        scenarios = [
            _scenario(
                index=i,
                seed=i,
                graph="regular",
                graph_params=(("n", 7), ("degree", 3)),
            )
            for i in range(3)
        ]
        result = run_scenario(scenarios[0])
        assert not result.stabilized
        assert result.detail.startswith("error: TopologyError")
        # The raising frame survives truncation (that is the point of
        # carrying the traceback at all)...
        assert 'raise TopologyError(f"regular graph needs n * d even' in result.detail
        # ...but deep stacks stay bounded.
        assert len(result.detail) < runner_module.TRACEBACK_LIMIT + 200
        serial = run_campaign(scenarios, workers=1)
        pooled = run_campaign(scenarios, workers=2)
        a = aggregate_results("test", scenarios, serial, 0)
        b = aggregate_results("test", scenarios, pooled, 0)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert a["failure_count"] == 3

    def test_error_detail_is_checkout_independent(self, tmp_path):
        """Regression: error rows embedded ``traceback.format_exc()``,
        whose absolute file paths made ``detail`` (an aggregate column)
        depend on where the code was checked out.  The same failing cell
        run from two copies of the package must fold identically."""
        import shutil
        import subprocess
        import sys

        import repro

        # On a complete graph, perturb_topology has no non-edge to add.
        scenario = _scenario(
            graph_params=(("n", 8),), faults=FaultPlan("rewire", add=1)
        )
        script = (
            "import json, sys\n"
            "import repro\n"
            "from repro.campaigns import Scenario, run_scenario\n"
            "scenario = Scenario.from_dict(json.loads(sys.argv[1]))\n"
            "print(json.dumps([repro.__file__, run_scenario(scenario).detail]))\n"
        )
        package = os.path.dirname(repro.__file__)
        details = []
        for name in ("one", "two"):
            root = tmp_path / name / "src"
            shutil.copytree(
                package, root / "repro", ignore=shutil.ignore_patterns("__pycache__")
            )
            out = subprocess.run(
                [sys.executable, "-c", script, json.dumps(scenario.to_dict())],
                env=dict(os.environ, PYTHONPATH=str(root)),
                cwd=tmp_path,
                capture_output=True,
                text=True,
                check=True,
            )
            imported_from, detail = json.loads(out.stdout)
            assert imported_from.startswith(str(root))
            details.append(detail)
        assert details[0] == details[1]
        assert details[0].startswith("error: ModelError: could not perturb")
        assert "repro/campaigns/runner.py, in _rewire" in details[0]
        assert str(tmp_path) not in details[0]
        assert not any(token.startswith("/") for token in details[0].split())


class TestNewAxes:
    def test_perturb_topology_keeps_connectivity_and_nodes(self):
        rng = np.random.default_rng(0)
        topology = damaged_clique(10, 2, rng, damage=0.4)
        perturbation = perturb_topology(
            topology, rng, remove=2, add=2, diameter_bound=3
        )
        assert perturbation.topology.n == topology.n
        assert perturbation.topology.diameter <= 3
        assert len(perturbation.removed) == 2
        assert len(perturbation.added) == 2
        for u, v in perturbation.removed:
            assert not perturbation.topology.has_edge(u, v)
        for u, v in perturbation.added:
            assert perturbation.topology.has_edge(u, v)

    def test_perturb_topology_rejects_impossible_requests(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ModelError):
            # A ring cannot lose an edge and keep diameter <= 4.
            perturb_topology(ring(8), rng, remove=1, add=0, diameter_bound=4)

    def test_perturb_topology_never_under_delivers(self):
        rng = np.random.default_rng(0)
        # A complete graph has no non-edges: add=1 must raise instead of
        # silently returning the graph unchanged (which would make the
        # rewire recovery measurement vacuous).
        from repro.graphs.generators import complete_graph

        with pytest.raises(ModelError):
            perturb_topology(complete_graph(6), rng, remove=0, add=1)
        # An added edge may never be one of the just-removed edges.
        for seed in range(5):
            rng = np.random.default_rng(seed)
            topology = damaged_clique(10, 2, rng, damage=0.4)
            perturbation = perturb_topology(topology, rng, remove=2, add=2)
            assert len(perturbation.removed) == 2
            assert len(perturbation.added) == 2
            assert not set(perturbation.removed) & set(perturbation.added)

    def test_carry_configuration_preserves_states(self):
        rng = np.random.default_rng(1)
        topology = damaged_clique(8, 2, rng, damage=0.4)
        algorithm = ThinUnison(2)
        configuration = random_configuration(algorithm, topology, rng)
        perturbation = perturb_topology(topology, rng, remove=1, add=1)
        carried = carry_configuration(configuration, perturbation.topology)
        assert carried.states() == configuration.states()
        with pytest.raises(ModelError):
            carry_configuration(configuration, ring(5))

    def test_hub_colony_is_heterogeneous(self):
        rng = np.random.default_rng(0)
        topology = make_graph("hub-colony", rng, n=30, hubs=2)
        degrees = sorted(topology.degree(v) for v in topology.nodes)
        assert degrees[-1] == topology.n - 1  # a true broadcast hub
        assert degrees[0] <= 6  # while most cells stay sparse
        assert topology.diameter <= 2

    def test_make_graph_unknown_family_lists_names(self):
        with pytest.raises(ValueError, match="hub-colony"):
            make_graph("klein-bottle", np.random.default_rng(0))

    def test_create_execution_unknown_engine_is_value_error(self):
        rng = np.random.default_rng(0)
        topology = ring(6)
        algorithm = ThinUnison(3)
        initial = random_configuration(algorithm, topology, rng)
        with pytest.raises(ValueError, match="'object', 'array'"):
            create_execution(
                topology,
                algorithm,
                initial,
                SynchronousScheduler(),
                engine="simd",
            )


class TestCampaignCLI:
    def test_list(self, capsys):
        assert main(["campaign", "list"]) == 0
        out = capsys.readouterr().out
        assert "smoke" in out and "micro" in out

    def test_run_and_report(self, capsys, tmp_path):
        artifact = str(tmp_path / "BENCH_campaign_micro.json")
        assert (
            main(
                [
                    "campaign",
                    "run",
                    "--registry",
                    "micro",
                    "--workers",
                    "1",
                    "--output",
                    artifact,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "6/6 scenarios stabilized" in out
        assert os.path.exists(artifact)
        with open(artifact, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["aggregates"]["failure_count"] == 0
        assert payload["meta"]["workers"] == 1

        assert main(["campaign", "report", "--input", artifact]) == 0
        assert "micro" in capsys.readouterr().out

    def test_run_resume_needs_checkpoint(self):
        assert (main(["campaign", "run", "--registry", "micro", "--resume"]) == 2)

    def test_engine_flag_rejects_typos(self):
        with pytest.raises(SystemExit):
            main(["au", "--engine", "simd"])

    def test_artifact_writer_is_deterministic(self, tmp_path):
        scenarios = build_campaign("micro")[:2]
        results = run_campaign(scenarios, workers=1)
        aggregates = aggregate_results("micro", scenarios, results, 0)
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        write_campaign_artifact(aggregates, a, meta={"workers": 1})
        write_campaign_artifact(aggregates, b, meta={"workers": 1})
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()


class TestReplicaBatching:
    """The replica-batched campaign path: seed ensembles fused into one
    ReplicaBatchExecution run with per-scenario results bit-identical to
    solo and pooled execution."""

    def test_smoke_ensemble_aggregates_identical_across_strategies(self):
        scenarios = [s for s in build_campaign("smoke") if s.batch_replicas > 1]
        assert len(scenarios) >= 2  # the smoke registry ships an ensemble
        # One fused ensemble, on the replica-batch engine.
        assert len({s.batch_key() for s in scenarios}) == 1
        assert {s.engine for s in scenarios} == {"replica-batch"}
        assert len(runner_module._make_jobs(scenarios, batch=True)) == 1
        batched = run_campaign(scenarios, workers=1)
        solo = run_campaign(scenarios, workers=1, batch=False)
        pooled = run_campaign(scenarios, workers=2)
        a = aggregate_results("smoke", scenarios, batched, 0)
        b = aggregate_results("smoke", scenarios, solo, 0)
        c = aggregate_results("smoke", scenarios, pooled, 0)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert json.dumps(a, sort_keys=True) == json.dumps(c, sort_keys=True)
        assert a["failure_count"] == 0

    def test_thm11_slice_batches_and_stays_bit_identical(self):
        scenarios = build_campaign("thm11-scaling")[:24]  # D=1: 6 trials x 4 starts
        jobs = runner_module._make_jobs(scenarios, batch=True)
        assert sorted(len(job) for job in jobs) == [6, 6, 6, 6]
        assert runner_module._make_jobs(scenarios, batch=False) == [
            [s] for s in scenarios
        ]
        batched = run_campaign(scenarios, workers=1)
        solo = run_campaign(scenarios, workers=1, batch=False)
        a = aggregate_results("thm11-scaling", scenarios, batched, 0)
        b = aggregate_results("thm11-scaling", scenarios, solo, 0)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_batch_chunks_respect_the_declared_width(self):
        scenarios = [
            _scenario(index=i, seed=10 + i, batch_replicas=2, scheduler="round-robin")
            for i in range(5)
        ]
        jobs = runner_module._make_jobs(scenarios, batch=True)
        assert [len(job) for job in jobs] == [2, 2, 1]
        # Jobs keep the campaign order: leaders sit at their first
        # member's position.
        assert [job[0].index for job in jobs] == [0, 2, 4]

    def test_run_scenario_batch_rejects_mixed_keys(self):
        from repro.campaigns import run_scenario_batch

        a = _scenario(index=0, seed=1, batch_replicas=2)
        b = _scenario(index=1, seed=2, batch_replicas=2, start="all-faulty")
        with pytest.raises(ValueError, match="batch key"):
            run_scenario_batch([a, b])

    def test_batch_member_error_folds_without_sinking_the_batch(self, monkeypatch):
        """A replica whose graph sample raises folds into a failed row;
        the rest of the ensemble still runs batched and stays
        bit-identical to solo runs."""
        from repro.campaigns import run_scenario_batch

        scenarios = [
            _scenario(
                index=i,
                seed=100 + i,
                graph="damaged-clique",
                graph_params=(("n", 8), ("diameter_bound", 2), ("damage", 0.4)),
                diameter_bound=2,
                batch_replicas=3,
                scheduler="round-robin",
            )
            for i in range(3)
        ]
        solos = [run_scenario(s) for s in scenarios]
        real_make_graph = runner_module.make_graph
        calls = {"count": 0}

        def flaky(family, rng, **params):
            calls["count"] += 1
            # Calls 1-3 build the members in order; call 4 is the failed
            # member's solo delegation.  Member 1 raises in both, so it
            # fails deterministically while the others stay healthy.
            if calls["count"] in (2, 4):
                raise RuntimeError("synthetic unusable sample")
            return real_make_graph(family, rng, **params)

        monkeypatch.setattr(runner_module, "make_graph", flaky)
        results = run_scenario_batch(scenarios)
        assert [r.index for r in results] == [0, 1, 2]
        assert not results[1].stabilized
        assert results[1].detail.startswith("error: RuntimeError")
        assert "synthetic unusable sample" in results[1].detail
        # The failure row is byte-identical to what a solo (--no-batch)
        # run would record: the delegation routes it through
        # run_scenario, so the traceback frames in `detail` (which
        # enters the aggregates) match exactly.
        calls["count"] = 1  # re-arm: the next make_graph call raises
        solo_failure = run_scenario(scenarios[1])
        assert results[1].detail == solo_failure.detail
        for batched, solo in ((results[0], solos[0]), (results[2], solos[2])):
            assert (
                batched.stabilized,
                batched.rounds,
                batched.steps,
                batched.n,
                batched.m,
                batched.detail,
            ) == (solo.stabilized, solo.rounds, solo.steps, solo.n, solo.m, solo.detail)

    def test_batch_run_failure_falls_back_to_solo_runs(self, monkeypatch):
        """If the fused ensemble itself dies, the group degrades to
        per-scenario execution instead of sinking every member."""
        from repro.campaigns import run_scenario_batch
        from repro.model.replica_engine import ReplicaBatchExecution

        scenarios = [
            _scenario(index=i, seed=50 + i, batch_replicas=2, scheduler="round-robin")
            for i in range(2)
        ]
        expected = [run_scenario(s) for s in scenarios]

        def boom(self, max_rounds):
            raise RuntimeError("fused pass died")

        monkeypatch.setattr(ReplicaBatchExecution, "run_ensemble", boom)
        results = run_scenario_batch(scenarios)
        for got, want in zip(results, expected):
            assert (got.stabilized, got.rounds, got.steps) == (
                want.stabilized,
                want.rounds,
                want.steps,
            )

    def test_cli_no_batch_flag_matches_batched_run(self, tmp_path):
        batched_path = str(tmp_path / "batched.json")
        solo_path = str(tmp_path / "solo.json")
        for path, extra in ((batched_path, []), (solo_path, ["--no-batch"])):
            assert (
                main(
                    [
                        "campaign",
                        "run",
                        "--registry",
                        "micro",
                        "--output",
                        path,
                    ]
                    + extra
                )
                == 0
            )
        with open(batched_path) as fa, open(solo_path) as fb:
            a, b = json.load(fa), json.load(fb)
        assert json.dumps(a["aggregates"], sort_keys=True) == json.dumps(
            b["aggregates"], sort_keys=True
        )
        assert a["meta"]["batched"] is True
        assert b["meta"]["batched"] is False
