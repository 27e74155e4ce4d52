"""The content-addressed result cache and the runner's worker pool.

Covers the canonical scenario content hash (golden pinned values over
every engine, the net runtime, and the permanent-fault plans; hypothesis
round-trip and no-collision properties), the sharded on-disk result
store (atomicity, integrity verification, uncacheable statuses, gc,
temp files of interrupted writes), the worker pool (bit-identical
aggregates against the inline run), the runner's cache integration
(cold vs. warm bit-identity, hit/miss stats), and the ``repro cache``
CLI.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaigns import (
    CONTENT_HASH_VERSION,
    FaultPlan,
    ResultCache,
    Scenario,
    ScenarioResult,
    aggregate_results,
    build_campaign,
    default_cache_dir,
    load_checkpoint,
    measured_payload,
    run_campaign,
    run_scenario,
)
from repro.campaigns import runner as runner_module
from repro.campaigns.cache import UNCACHEABLE_STATUS
from repro.cli import main


def scenario(**overrides) -> Scenario:
    """A small valid AU scenario with the given axis overrides."""
    base = dict(
        campaign="golden",
        index=0,
        task="au",
        graph="complete",
        graph_params=(("n", 8),),
        diameter_bound=2,
        scheduler="synchronous",
        engine="object",
        start="sign-split",
        seed=7,
        max_rounds=500,
    )
    base.update(overrides)
    return Scenario(**base)


# ----------------------------------------------------------------------
# The canonical content hash.
# ----------------------------------------------------------------------

#: Pinned canonical hashes of representative scenarios across every
#: engine, both runtimes, and the fault-plan repertoire.  A mismatch
#: means the hash function changed semantics: if that was intentional,
#: bump CONTENT_HASH_VERSION in spec.py (invalidating all caches) and
#: re-pin; if not, you just silently corrupted every existing cache.
GOLDEN_HASHES = {
    "object-sync": "7205164e0b4761f12d2dd6f768f3e3c21aa9141cd515a06e046231f7ae9152f3",
    "array-engine": "2468207b4a939a23a3603f4cb0b876f269f6ca29fc38ddf284f6c8f67858ff33",
    "replica-batch-engine": "88227a3708b88267e3331cfac12930a503b8f16904bc17ad50a61f1a717b36ce",
    "native-engine": "4c4dbe8bdbbf9c069fa155bd507021761d0f156c25ea8ffa23795f59a536612e",
    "ring-laggard": "8dafb7b6b192bc677a47bd35c7c8f45c72e14f8d3cce057d15fad2bb9235cc1d",
    "net-ideal": "2eb2be7d6d6802a185af799216b6226c37dc2012cc35885e65ad2e5656968ac9",
    "net-lossy": "a9417d7b531505542eb57ba0c209fa211a46a288de53dbaaaf5e75c19c1d7eee",
    "byzantine": "dc4c0697c7f1653cdc3fd31708ba3906eea22c1dab9ee7d12136fb65285de4c0",
    "crash": "a1105688997cbd3721f089e341da5f765b28bcf6fe9543a0332c4c9c181d9767",
    "bursts": "412824dfa92c2155744aa7e73e226de946b60dbb3b1a84c6fe31b4b037e2052f",
    "le-task": "fc88c0c2db210c030f39305c4e90e8c5f716c9cba7dd0b7a7503b801bf5d27fb",
    "mis-baseline": "d751f6ca24b50b379cab496b36e4d5ee338d9add646906e6f8dd7ed55a908394",
    "reset-tail": "92c7c5b4259282497f1cbcd3fb1030004f03247c69369c2877f4e776fdc65f40",
    "storm": "956b162b95d64a618c84ab722305736052badcdcf75c5caf8deaac98964ba168",
    "rewire": "008ec8bbc8aac07377f4ebdd4b37b7d720b673d2a2c270e42d083eb031caa536",
    "churn": "ef5c945ed248ceea47f8bcee9269d295117cede47a04437af04fde747fc981fb",
    "membership": "e23dff58ca664c8cdc473b41917322df3f4d75d5bc7a38b8b904e83a19b4a48c",
}

#: Pinned SHA-256 digests of ``measured_payload(run_scenario(s))`` (as
#: canonical JSON) for every golden scenario.  The cache serves a stored
#: row for as long as the scenario's content hash matches, so a code
#: change that moves any measured column must fail here: either it is a
#: regression, or CONTENT_HASH_VERSION must be bumped (invalidating every
#: stale cached row) and these payloads re-pinned.
GOLDEN_PAYLOADS = {
    "object-sync": "83d3f8f4f2cb30609a5dddc5048de9670e7682d42612240661e114df40973be2",
    "array-engine": "83d3f8f4f2cb30609a5dddc5048de9670e7682d42612240661e114df40973be2",
    "replica-batch-engine": "c238f952deb3bbff2e3107da93d49b675c20a9a980262c51f06c893c826313a2",
    "native-engine": "83d3f8f4f2cb30609a5dddc5048de9670e7682d42612240661e114df40973be2",
    "ring-laggard": "ac0e53a8139f313ffb69c72baceb7977fd6a733eac91bf04aa1ee6635bbe2dab",
    "net-ideal": "c238f952deb3bbff2e3107da93d49b675c20a9a980262c51f06c893c826313a2",
    "net-lossy": "339088f8e16576d51e91f74eb3869eee7877f838759c98ace509ecd1de4b1598",
    "byzantine": "802c515bc1bf035ec484725843eaff1f03dac13117e51b39ea699bffbc54abd7",
    "crash": "5511aa15b243bf619c9776482d353ea4e4076d3ab1fc749933884d1dc41b7162",
    "bursts": "b741c821689565ea45d82039fc245da527cab92d1ab336d2cae6ad626070de85",
    "le-task": "bce6c9b8d006cbf961da2955655db2795e15b20832c94cdab22b060b9392fb5c",
    "mis-baseline": "bb890a6b88981f6efcfbff6bd86f9a133dd473f7a8c42c8eb4d26fcfb2c72388",
    "reset-tail": "8b13f26c4fc6d11a10861016e78ff753deb7771ef03efb85c7387ad84b63d99d",
    "storm": "52baa33e1f6a594a2c865f13c5a95b9f4a2234082dfdfe3dcc5286d77f65b583",
    "rewire": "231187e72af1ab7492f7a4f1678b5c3c65d7ce05af3dad57052fd5bcd85c41b2",
    "churn": "86f0b9cc3dcc921dcc21621aeaa4a1e6edf116746e16ea75ec71cd9a9061e608",
    "membership": "2ba712b4ed59292fa1c90c2090103e3778c4ac55aa3d28645297e1a431fd6908",
}


def golden_scenarios():
    """The representative scenarios behind :data:`GOLDEN_HASHES`."""
    return {
        "object-sync": scenario(),
        "array-engine": scenario(engine="array"),
        "replica-batch-engine": scenario(
            engine="replica-batch", scheduler="round-robin"
        ),
        "native-engine": scenario(engine="native"),
        "ring-laggard": scenario(
            graph="ring",
            graph_params=(("n", 12),),
            diameter_bound=6,
            scheduler="laggard",
            start="clock-tear",
        ),
        "net-ideal": scenario(runtime="net", scheduler="round-robin"),
        "net-lossy": scenario(
            runtime="net",
            scheduler="round-robin",
            net_params=(("delay", 1.0), ("loss", 0.1)),
        ),
        "byzantine": scenario(
            faults=FaultPlan(
                kind="byzantine", strategy="targeted", density=0.1, radius=2
            )
        ),
        "crash": scenario(
            faults=FaultPlan(kind="crash", density=0.1, times=(5,), radius=1)
        ),
        "bursts": scenario(faults=FaultPlan(kind="bursts", bursts=2, fraction=0.25)),
        "le-task": scenario(
            task="le",
            algorithm="alg-le",
            start="random",
            graph="star",
            graph_params=(("n", 9),),
        ),
        "mis-baseline": scenario(
            task="mis",
            algorithm="luby-mis",
            start="uniform",
            graph="grid",
            graph_params=(("rows", 3), ("cols", 3)),
        ),
        "reset-tail": scenario(
            algorithm="reset-tail-unison", start="random", engine="array"
        ),
        "storm": scenario(
            scheduler="round-robin",
            faults=FaultPlan(kind="storm", times=(4, 9), fraction=0.25),
        ),
        # perturb_topology needs a non-edge to add: not a complete graph.
        "rewire": scenario(
            graph="grid",
            graph_params=(("rows", 3), ("cols", 3)),
            diameter_bound=4,
            scheduler="round-robin",
            faults=FaultPlan(kind="rewire", remove=1, add=1),
        ),
        "churn": scenario(
            graph="ring",
            graph_params=(("n", 12),),
            diameter_bound=6,
            start="random",
            faults=FaultPlan(kind="churn", rate=2.0, times=(12,)),
        ),
        "membership": scenario(
            start="random",
            faults=FaultPlan(kind="membership", rate=2.0, times=(12,)),
        ),
    }


class TestContentHash:
    def test_golden_hashes(self):
        scenarios = golden_scenarios()
        assert set(scenarios) == set(GOLDEN_HASHES)
        for name, scn in scenarios.items():
            assert scn.content_hash() == GOLDEN_HASHES[name], name

    @pytest.mark.parametrize("name", sorted(GOLDEN_PAYLOADS))
    def test_golden_measured_payloads(self, name):
        result = run_scenario(golden_scenarios()[name])
        text = json.dumps(measured_payload(result), sort_keys=True)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == GOLDEN_PAYLOADS[name]

    def test_golden_payloads_cover_every_golden_scenario(self):
        assert set(GOLDEN_PAYLOADS) == set(golden_scenarios())

    def test_golden_scenarios_collision_free(self):
        hashes = list(GOLDEN_HASHES.values())
        assert len(set(hashes)) == len(hashes)

    def test_version_salt_in_payload(self):
        assert scenario().content_payload()["version"] == CONTENT_HASH_VERSION

    def test_labels_do_not_shape_the_hash(self):
        # campaign/index/group/tags are bookkeeping, batch_replicas is
        # a pure execution strategy: the same experiment reached from
        # two campaigns must address the same cache entry.
        reference = scenario().content_hash()
        assert scenario(campaign="other").content_hash() == reference
        assert scenario(index=99).content_hash() == reference
        assert scenario(group="sweep").content_hash() == reference
        assert scenario(tags=(("trial", "3"),)).content_hash() == reference
        batched = scenario(engine="array", batch_replicas=4)
        assert (
            batched.content_hash()
            == scenario(engine="array").content_hash()
        )

    @pytest.mark.parametrize(
        "axis",
        [
            {"seed": 8},
            {"max_rounds": 501},
            {"diameter_bound": 3},
            {"graph_params": (("n", 9),)},
            {"scheduler": "round-robin"},
            {"engine": "array"},
            {"start": "clock-tear"},
            {"faults": FaultPlan(kind="bursts", bursts=1)},
        ],
    )
    def test_semantic_axes_shape_the_hash(self, axis):
        assert scenario(**axis).content_hash() != scenario().content_hash()

    def test_graph_param_order_is_canonicalized(self):
        a = scenario(
            task="mis",
            algorithm="luby-mis",
            start="uniform",
            graph="grid",
            graph_params=(("rows", 3), ("cols", 4)),
        )
        b = scenario(
            task="mis",
            algorithm="luby-mis",
            start="uniform",
            graph="grid",
            graph_params=(("cols", 4), ("rows", 3)),
        )
        assert a.content_hash() == b.content_hash()

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 64),
        diameter_bound=st.integers(1, 8),
        max_rounds=st.integers(1, 10_000),
        scheduler=st.sampled_from(["synchronous", "round-robin", "laggard"]),
        start=st.sampled_from(["sign-split", "clock-tear", "uniform"]),
        engine=st.sampled_from(["object", "array", "native"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_json_round_trip_hashes_identically(
        self, seed, n, diameter_bound, max_rounds, scheduler, start, engine
    ):
        original = scenario(
            seed=seed,
            graph_params=(("n", n),),
            diameter_bound=diameter_bound,
            max_rounds=max_rounds,
            scheduler=scheduler,
            start=start,
            engine=engine,
        )
        rebuilt = Scenario.from_dict(
            json.loads(json.dumps(original.to_dict()))
        )
        assert rebuilt.content_hash() == original.content_hash()

    @given(
        axes=st.lists(
            st.tuples(
                st.integers(0, 50),  # seed
                st.integers(2, 20),  # n
                st.integers(1, 5),  # diameter bound
                st.sampled_from(["synchronous", "round-robin"]),
                st.sampled_from(["sign-split", "uniform"]),
            ),
            min_size=2,
            max_size=20,
            unique=True,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_distinct_scenarios_never_collide(self, axes):
        hashes = [
            scenario(
                seed=seed,
                graph_params=(("n", n),),
                diameter_bound=diameter,
                scheduler=scheduler,
                start=start,
            ).content_hash()
            for seed, n, diameter, scheduler, start in axes
        ]
        assert len(set(hashes)) == len(hashes)


# ----------------------------------------------------------------------
# The result store.
# ----------------------------------------------------------------------


def result_for(scn: Scenario, **overrides) -> ScenarioResult:
    """A plausible measured result row for ``scn``."""
    base = dict(
        scenario_id=scn.scenario_id,
        index=scn.index,
        group=scn.group,
        stabilized=True,
        rounds=11,
        steps=88,
        n=8,
        m=28,
        moves=40,
        state_bits=4.9,
        tags=scn.tags,
        elapsed_ms=123.0,
    )
    base.update(overrides)
    return ScenarioResult(**base)


class TestResultCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        scn = scenario()
        stored = result_for(scn)
        assert cache.put(scn, stored)
        hit = cache.get(scn)
        assert hit is not None
        assert measured_payload(hit) == measured_payload(stored)
        # Hits did no compute: wall-clock must not be replayed.
        assert hit.elapsed_ms == 0.0
        assert cache.run_stats.hits == 1
        assert cache.run_stats.saved_ms == 123.0

    def test_identity_labels_come_from_the_requesting_scenario(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        producer = scenario(campaign="nightly", index=3, group="D=2")
        cache.put(producer, result_for(producer))
        consumer = scenario(
            campaign="adhoc", index=41, group="other", tags=(("trial", "9"),)
        )
        hit = cache.get(consumer)
        assert hit is not None
        assert hit.scenario_id == consumer.scenario_id
        assert hit.index == 41
        assert hit.group == "other"
        assert hit.tag("trial") == "9"

    def test_miss_on_empty_store(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert cache.get(scenario()) is None
        assert cache.run_stats.misses == 1

    @pytest.mark.parametrize("status", UNCACHEABLE_STATUS)
    def test_timeout_and_error_rows_are_refused(self, tmp_path, status):
        cache = ResultCache(str(tmp_path))
        scn = scenario()
        assert not cache.put(scn, result_for(scn, status=status, stabilized=False))
        assert cache.get(scn) is None

    def test_tampered_entry_is_a_miss_and_verify_reports_it(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        scn = scenario()
        cache.put(scn, result_for(scn))
        path = cache.entry_path(scn.content_hash())
        entry = json.loads(open(path).read())
        entry["key"]["seed"] = 999  # payload no longer re-hashes to the name
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(entry, handle)
        assert cache.get(scn) is None
        problems = cache.verify()
        assert len(problems) == 1 and path in problems[0]
        assert cache.verify(remove=True) == problems
        assert not os.path.exists(path)
        assert cache.verify() == []

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        scn = scenario()
        cache.put(scn, result_for(scn))
        path = cache.entry_path(scn.content_hash())
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"hash": "torn')
        assert cache.get(scn) is None

    def test_wrong_version_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        scn = scenario()
        cache.put(scn, result_for(scn))
        path = cache.entry_path(scn.content_hash())
        entry = json.loads(open(path).read())
        entry["version"] = CONTENT_HASH_VERSION + 1
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(entry, handle)
        assert cache.get(scn) is None

    def test_stats_and_gc(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        for seed in range(3):
            scn = scenario(seed=seed)
            cache.put(scn, result_for(scn))
        stats = cache.stats()
        assert stats["entries"] == 3 and stats["bytes"] > 0
        # Nothing is older than a day.
        assert cache.gc(86400.0) == {"removed": 0, "kept": 3, "freed_bytes": 0}
        swept = cache.gc(0.0)
        assert swept["removed"] == 3 and swept["freed_bytes"] > 0
        assert cache.stats()["entries"] == 0

    def test_temp_file_of_an_interrupted_put_is_not_an_entry(self, tmp_path):
        # A writer killed between mkstemp and os.replace leaves its temp
        # file in the shard directory.
        cache = ResultCache(str(tmp_path))
        for seed in range(2):
            scn = scenario(seed=seed)
            cache.put(scn, result_for(scn))
        shard = os.path.dirname(cache._entry_paths()[0])
        temp = os.path.join(shard, ".tmp-killed.json")
        with open(temp, "w", encoding="utf-8") as handle:
            handle.write('{"half": ')
        assert cache.stats()["entries"] == 2
        assert cache.verify() == []
        assert cache.gc(86400.0) == {"removed": 0, "kept": 2, "freed_bytes": 0}
        assert os.path.exists(temp)
        old = os.path.getmtime(temp) - 7200.0
        os.utime(temp, (old, old))
        swept = cache.gc(3600.0)
        assert swept == {"removed": 0, "kept": 2, "freed_bytes": 9}
        assert not os.path.exists(temp)

    def test_sharded_layout(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        scn = scenario()
        content_hash = scn.content_hash()
        cache.put(scn, result_for(scn))
        expected = os.path.join(
            str(tmp_path), "objects", content_hash[:2], f"{content_hash}.json"
        )
        assert os.path.exists(expected)

    def test_default_cache_dir_honors_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        assert default_cache_dir() == str(tmp_path / "store")
        monkeypatch.delenv("REPRO_CACHE_DIR")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == str(tmp_path / "xdg" / "repro-results")


# ----------------------------------------------------------------------
# The worker pool.
# ----------------------------------------------------------------------


class TestDispatch:
    def test_empty_job_list(self):
        assert run_campaign([], workers=1) == []
        assert run_campaign([], workers=2) == []

    @pytest.mark.parametrize(
        "dispatch", [pytest.param(None, id="implied"), "queue"]
    )
    def test_backends_agree_with_serial(self, dispatch):
        # The pool is the one backend above one worker; naming it or
        # leaving it implied runs the same pool and reports its name.
        scenarios = build_campaign("micro")[:6]
        reference = run_campaign(scenarios, workers=1)
        stats = {}
        pooled = run_campaign(scenarios, workers=2, dispatch=dispatch, stats=stats)
        assert stats["dispatch"] == "queue"
        baseline = aggregate_results("micro", scenarios, reference, 0)
        candidate = aggregate_results("micro", scenarios, pooled, 0)
        assert json.dumps(baseline, sort_keys=True) == json.dumps(
            candidate, sort_keys=True
        )

    @pytest.mark.parametrize(
        "workers, dispatch", [(1, "queue"), (2, "serial"), (2, "shards")]
    )
    def test_dispatch_must_name_what_the_worker_count_implies(
        self, workers, dispatch
    ):
        with pytest.raises(ValueError, match="valid values"):
            run_campaign(
                build_campaign("micro")[:1], workers=workers, dispatch=dispatch
            )


# ----------------------------------------------------------------------
# Runner integration.
# ----------------------------------------------------------------------


class TestRunnerCacheIntegration:
    def test_cold_then_warm_is_bit_identical(self, tmp_path):
        scenarios = build_campaign("micro")[:6]
        cache = ResultCache(str(tmp_path))
        cold_stats: dict = {}
        warm_stats: dict = {}
        cold = run_campaign(scenarios, cache=cache, stats=cold_stats)
        warm = run_campaign(scenarios, cache=cache, stats=warm_stats)
        assert json.dumps(
            aggregate_results("micro", scenarios, cold, 0), sort_keys=True
        ) == json.dumps(
            aggregate_results("micro", scenarios, warm, 0), sort_keys=True
        )
        assert cold_stats["cache"] == {
            "hits": 0,
            "misses": len(scenarios),
            "hit_rate": 0.0,
            "saved_compute_s": cold_stats["cache"]["saved_compute_s"],
        }
        assert warm_stats["cache"]["hits"] == len(scenarios)
        assert warm_stats["cache"]["misses"] == 0
        assert warm_stats["cache"]["hit_rate"] == 1.0
        assert warm_stats["cache"]["saved_compute_s"] > 0.0
        assert cache.load_last_run()["hits"] == len(scenarios)

    def test_warm_run_across_dispatchers(self, tmp_path):
        scenarios = build_campaign("micro")[:4]
        cache = ResultCache(str(tmp_path))
        cold = run_campaign(scenarios, cache=cache)
        stats: dict = {}
        warm = run_campaign(
            scenarios, workers=2, dispatch="queue", cache=cache, stats=stats
        )
        assert stats["cache"]["hits"] == len(scenarios)
        assert [r.to_dict() for r in cold] == [
            dict(r.to_dict(), elapsed_ms=cold[i].elapsed_ms)
            for i, r in enumerate(warm)
        ]

    def test_hits_stream_into_the_checkpoint(self, tmp_path):
        scenarios = build_campaign("micro")[:4]
        cache = ResultCache(str(tmp_path / "store"))
        run_campaign(scenarios, cache=cache)
        checkpoint = str(tmp_path / "progress.jsonl")
        run_campaign(scenarios, checkpoint_path=checkpoint, cache=cache)
        done = load_checkpoint(checkpoint)
        assert set(done) == {s.scenario_id for s in scenarios}

    def test_timeout_rows_are_not_cached(self, tmp_path, monkeypatch):
        scenarios = build_campaign("micro")[:2]

        def timed_out(scn, timeout_s=None, shared=None):
            return result_for(scn, scenario_id=scn.scenario_id, status="timeout")

        monkeypatch.setattr(runner_module, "run_scenario", timed_out)
        cache = ResultCache(str(tmp_path))
        run_campaign(scenarios, cache=cache, batch=False)
        assert cache.stats()["entries"] == 0
        stats: dict = {}
        run_campaign(scenarios, cache=cache, batch=False, stats=stats)
        assert stats["cache"]["hits"] == 0

    def test_stats_without_cache(self):
        scenarios = build_campaign("micro")[:2]
        stats: dict = {}
        run_campaign(scenarios, stats=stats)
        assert stats == {"dispatch": "serial", "cache": None}

    def test_unknown_dispatch_name_fails_fast(self):
        with pytest.raises(ValueError, match="valid values"):
            run_campaign(build_campaign("micro")[:1], dispatch="bogus")


class TestCheckpointRobustness:
    def test_skipped_lines_are_logged_not_silent(self, tmp_path, caplog):
        path = str(tmp_path / "progress.jsonl")
        scn = scenario()
        row = result_for(scn)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(row.to_dict(), sort_keys=True) + "\n")
            handle.write("{torn json\n")
            handle.write("{}\n")
        with caplog.at_level(logging.WARNING, logger="repro.campaigns.runner"):
            done = load_checkpoint(path)
        assert set(done) == {scn.scenario_id}
        assert "skipped 2 unparsable line(s)" in caplog.text

    def test_append_is_single_write_with_tail_repair(self, tmp_path):
        path = str(tmp_path / "progress.jsonl")
        scn_a, scn_b = scenario(index=0, seed=1), scenario(index=1, seed=2)
        row_a = result_for(scn_a, scenario_id=scn_a.scenario_id)
        with open(path, "w", encoding="utf-8") as handle:
            # A torn trailing line with no newline, as a killed writer
            # leaves behind.
            handle.write(json.dumps(row_a.to_dict(), sort_keys=True))
        row_b = result_for(scn_b, scenario_id=scn_b.scenario_id, index=1)
        runner_module._append_checkpoint(path, [row_b])
        done = load_checkpoint(path)
        assert set(done) == {scn_a.scenario_id, scn_b.scenario_id}


# ----------------------------------------------------------------------
# The CLI surface.
# ----------------------------------------------------------------------


class TestCacheCLI:
    def run_micro(self, tmp_path, *extra):
        artifact = str(tmp_path / "artifact.json")
        code = main(
            [
                "campaign",
                "run",
                "--registry",
                "micro",
                "--limit",
                "2",
                "--output",
                artifact,
                *extra,
            ]
        )
        assert code == 0
        return json.loads(open(artifact).read())

    def test_campaign_run_with_cache_dir(self, tmp_path):
        store = str(tmp_path / "store")
        cold = self.run_micro(tmp_path, "--cache-dir", store)
        warm = self.run_micro(tmp_path, "--cache-dir", store)
        assert cold["meta"]["cache"]["misses"] == 2
        assert warm["meta"]["cache"]["hits"] == 2
        assert json.dumps(cold["aggregates"], sort_keys=True) == json.dumps(
            warm["aggregates"], sort_keys=True
        )

    def test_no_cache_beats_the_env_var(self, tmp_path, monkeypatch):
        store = str(tmp_path / "store")
        monkeypatch.setenv("REPRO_CACHE_DIR", store)
        self.run_micro(tmp_path)
        warm = self.run_micro(tmp_path, "--no-cache")
        assert warm["meta"]["cache"] is None

    def test_workers_flag_reports_the_pool(self, tmp_path):
        artifact = self.run_micro(tmp_path, "--workers", "2")
        assert artifact["meta"]["dispatch"] == "queue"

    def test_cache_stats_verify_gc(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        self.run_micro(tmp_path, "--cache-dir", store)
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", store]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 2
        assert stats["last_run"]["misses"] == 2
        assert main(["cache", "verify", "--cache-dir", store]) == 0
        capsys.readouterr()
        assert main(["cache", "gc", "--older-than", "30", "--cache-dir", store]) == 0
        assert json.loads(capsys.readouterr().out)["kept"] == 2
        assert main(["cache", "gc", "--older-than", "0", "--cache-dir", store]) == 0
        assert json.loads(capsys.readouterr().out)["removed"] == 2

    def test_cache_verify_flags_corruption(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        self.run_micro(tmp_path, "--cache-dir", store)
        cache = ResultCache(store)
        path = cache._entry_paths()[0]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("not json")
        assert main(["cache", "verify", "--cache-dir", store]) == 1
        capsys.readouterr()
        assert main(["cache", "verify", "--remove", "--cache-dir", store]) == 1
        assert main(["cache", "verify", "--cache-dir", store]) == 0
