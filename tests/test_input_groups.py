"""Pairings and input groups.

A registry *pairing* runs one cell once per lane under one shared seed
(:meth:`CampaignBuilder.add_paired`); the runner turns each run of
index-adjacent scenarios sharing seed, graph family and graph
parameters into one *input group* job that samples the graph, the start
configuration and the churn stream once.  Grouping is an execution
strategy: every grouped row must equal the row of a solo
:func:`run_scenario` call, field for field, except ``elapsed_ms``.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.campaigns import (
    ResultCache,
    build_campaign,
    registry_names,
    run_campaign,
    run_scenario,
)
from repro.campaigns import runner as runner_module
from repro.faults.churn import ChurnProcess
from repro.graphs.dynamic import DynamicTopology, TopologyDelta

#: Registries whose pairings are engine or runtime lanes of one cell.
LANE_PAIRED = (
    "byzantine",
    "churn-phase",
    "enabled-daemons",
    "native-pairing",
    "net-smoke",
    "pareto-unison",
)

#: Scenario fields the lanes of a lane pairing may differ in.
LANE_FIELDS = ("engine", "runtime", "index")

#: sha256 over ``(index, scenario_id, seed, group, tags, content_hash())``
#: of every scenario of ``build_campaign(name, 0)``.
REGISTRY_DIGESTS = {
    "byzantine": "915b27d10668e44637816f580c91a2aea7511264f810f73ccd227deb3db52864",
    "churn-phase": "50d50360d19b21914db25bd48849c80b0d759eed83d751ae9ecf93e476053b40",
    "cor12-synchronizer": (
        "3ae3453c16779be9e4f2b2fee39295dd2072cf1d21c5b932a77817248933776d"
    ),
    "dispatch-straggler": (
        "287b42083c2491cdb19e5a5ca13f6d71192d2e321352bd38fccb241cbf7a467a"
    ),
    "enabled-daemons": (
        "230b180bda816cdbe11b3f7e1b9f99d3722214166998dbd68a7f2504ea7c6e64"
    ),
    "fault-recovery": (
        "7ebfc300f1a87946f8bca9ba9faec265db7904d4db287f070027b970100f12de"
    ),
    "micro": "cc75717a5817badee84be4af5cb2bfdd0d65adf66d223b04c0281d6cedde56eb",
    "native-pairing": (
        "9b2ad5234cc2467e1955c633df87341a11cecfc6ec6564700a5cf15ce9ad2281"
    ),
    "net-smoke": "561ba09e567bfbf690f37bf6a6054d677a7ebd8738486a7c106988c4437e76cb",
    "pareto-unison": (
        "3007ec142bd8db578280865e1ae42a55455627aec0cac9c8ab5bea2f07cec477"
    ),
    "smoke": "02ad01ee5ddaf05c90054f244eaa33d06ff040ba76118f16faf2f9b24cb2015a",
    "thm11-n-independence": (
        "8a0083420e072efb95b159caac9b55dc66d8c81d799ad43d16cc4abdc1bae752"
    ),
    "thm11-scaling": (
        "ccbba84e08096573f7a0a02513f9affaf6ec340495946e2e60219aae1ee6f927"
    ),
    "thm13-le-scaling": (
        "3735ad7102581a615f48b07362da1b03d15a7bcff8eba413495f4c0c12bc8559"
    ),
    "thm14-mis-scaling": (
        "9e023ff61d3393e66978a03228c613951a86ac8325816b1bafea2dbab66e6421"
    ),
}


def _pairings(scenarios):
    pairs = {}
    for scenario in scenarios:
        if scenario.tag("pairing") is not None:
            pairs.setdefault(scenario.tag("pairing"), []).append(scenario)
    return pairs


#: The campaigns the differential tests run grouped against solo.
SLICES = {
    "byzantine": lambda: build_campaign("byzantine"),
    "churn-phase": lambda: build_campaign("churn-phase"),
    "cor12-synchronizer": lambda: [
        s for s in build_campaign("cor12-synchronizer") if s.tag("trial") == "0"
    ],
}


def _rows(results):
    """Result rows with the wall-clock column blanked."""
    return [dataclasses.replace(r, elapsed_ms=0.0) for r in results]


class TestPairingStructure:
    @pytest.mark.parametrize("name", sorted(REGISTRY_DIGESTS))
    def test_registry_scenarios_are_pinned(self, name):
        digest = hashlib.sha256()
        for s in build_campaign(name, 0):
            fields = (s.index, s.scenario_id, s.seed, s.group, s.tags)
            digest.update(repr(fields + (s.content_hash(),)).encode())
        assert digest.hexdigest() == REGISTRY_DIGESTS[name]

    def test_every_registry_is_pinned(self):
        assert set(REGISTRY_DIGESTS) == set(registry_names())

    @pytest.mark.parametrize("name", registry_names())
    def test_pairings_are_adjacent_and_share_their_inputs(self, name):
        for members in _pairings(build_campaign(name)).values():
            first = members[0].index
            assert [s.index for s in members] == list(
                range(first, first + len(members))
            )
            assert len({runner_module._input_key(s) for s in members}) == 1

    @pytest.mark.parametrize("name", LANE_PAIRED)
    def test_lane_pairings_differ_only_in_the_lane(self, name):
        def cell(scenario):
            fields = dataclasses.asdict(scenario)
            return {k: v for k, v in fields.items() if k not in LANE_FIELDS}

        pairs = _pairings(build_campaign(name))
        assert pairs
        for members in pairs.values():
            assert all(cell(s) == cell(members[0]) for s in members)
            lanes = {(s.engine, s.runtime) for s in members}
            assert len(lanes) == len(members)

    def test_only_known_registries_pair(self):
        paired = {name for name in registry_names() if _pairings(build_campaign(name))}
        assert paired == set(LANE_PAIRED) | {"cor12-synchronizer"}

    def test_cor12_pairs_algorithms(self):
        for sync, lifted in _pairings(build_campaign("cor12-synchronizer")).values():
            assert lifted.algorithm == f"sync-{sync.algorithm}"
            assert (sync.scheduler, lifted.scheduler) == (
                "synchronous",
                "shuffled-round-robin",
            )
            assert (sync.engine, sync.runtime) == (lifted.engine, lifted.runtime)


class TestJobs:
    def test_pairings_become_one_job_each(self):
        for name in LANE_PAIRED + ("cor12-synchronizer",):
            scenarios = build_campaign(name)
            expected, last = [], None
            for s in scenarios:
                pair = s.tag("pairing")
                if pair is not None and pair == last:
                    expected[-1].append(s)
                else:
                    expected.append([s])
                last = pair
            assert runner_module._make_jobs(scenarios, batch=True) == expected

    def test_groups_form_after_the_cache_lookup(self):
        scenarios = build_campaign("churn-phase")[:8]
        pending = scenarios[1:3] + scenarios[4:]  # two rows already cached
        jobs = runner_module._make_jobs(pending, batch=True)
        assert [[s.index for s in job] for job in jobs] == [[1, 2], [4, 5, 6, 7]]

    def test_ensembles_stay_apart_from_groups(self):
        scenarios = build_campaign("smoke")
        for batch in (True, False):
            for job in runner_module._make_jobs(scenarios, batch):
                if job[0].batch_replicas > 1:
                    assert all(s.batch_replicas > 1 for s in job)
                    assert batch or len(job) == 1
                else:
                    assert all(s.batch_replicas == 1 for s in job)

    def test_a_group_builds_its_inputs_once(self, monkeypatch):
        """Each group samples its graph and draws its churn stream once,
        and resolves each non-empty delta once: the lanes only replay,
        so no lane validates a delta in ``apply_delta``."""
        scenarios = build_campaign("churn-phase")[:8]  # two 4-lane pairings
        graphs, streams, drawn, resolved, lane_applies = [], [], [], [], []
        real_make_graph = runner_module.make_graph
        real_deltas = ChurnProcess.deltas
        real_resolve = DynamicTopology.resolve
        real_apply_delta = DynamicTopology.apply_delta
        resolving = []

        def make_graph(family, rng, **params):
            graphs.append(family)
            return real_make_graph(family, rng, **params)

        def deltas(process, steps):
            streams.append(steps)
            for delta in real_deltas(process, steps):
                if delta is not None:
                    drawn.append(delta)
                yield delta

        def resolve(topology, delta):
            resolved.append(delta)
            resolving.append(topology)
            try:
                return real_resolve(topology, delta)
            finally:
                resolving.pop()

        def apply_delta(topology, delta):
            if not resolving:
                lane_applies.append(delta)
            return real_apply_delta(topology, delta)

        monkeypatch.setattr(runner_module, "make_graph", make_graph)
        monkeypatch.setattr(ChurnProcess, "deltas", deltas)
        monkeypatch.setattr(DynamicTopology, "resolve", resolve)
        monkeypatch.setattr(DynamicTopology, "apply_delta", apply_delta)
        run_campaign(scenarios)
        assert len(graphs) == len(streams) == 2
        assert drawn and [id(d) for d in resolved] == [id(d) for d in drawn]
        assert lane_applies == []


class TestGroupedRowsEqualSolo:
    @pytest.fixture(scope="class")
    def solo(self):
        slices = {name: build() for name, build in SLICES.items()}
        return {
            name: (scenarios, [run_scenario(s) for s in scenarios])
            for name, scenarios in slices.items()
        }

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", sorted(SLICES))
    def test_rows_equal_solo(self, solo, name, workers):
        scenarios, expected = solo[name]
        assert len(runner_module._make_jobs(scenarios, True)) < len(scenarios)
        grouped = run_campaign(scenarios, workers=workers)
        assert _rows(grouped) == _rows(expected)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_failed_graph_folds_like_solo(self, monkeypatch, workers):
        scenarios = build_campaign("byzantine")[:6]  # three engine pairs
        bad = np.random.default_rng(scenarios[2].seed).bit_generator.state
        real_make_graph = runner_module.make_graph

        def flaky(family, rng, **params):
            if rng.bit_generator.state == bad:
                raise RuntimeError("synthetic unusable sample")
            return real_make_graph(family, rng, **params)

        monkeypatch.setattr(runner_module, "make_graph", flaky)
        solo = [run_scenario(s) for s in scenarios]
        grouped = run_campaign(scenarios, workers=workers)
        assert [r.status for r in grouped] == ["", "", "error", "error", "", ""]
        assert "synthetic unusable sample" in grouped[3].detail
        assert _rows(grouped) == _rows(solo)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_an_invalid_delta_folds_like_solo(self, monkeypatch, workers):
        """A delta that does not fit the graph stays unresolved, so every
        lane reaches it and fails in ``apply_delta``, grouped or not."""
        scenarios = build_campaign("churn-phase")[:4]  # one 4-lane pairing
        real_deltas = ChurnProcess.deltas

        def deltas(process, steps):
            stream = list(real_deltas(process, steps))
            stream[steps // 2] = TopologyDelta(leave=(10**6,))
            return iter(stream)

        monkeypatch.setattr(ChurnProcess, "deltas", deltas)
        solo = [run_scenario(s) for s in scenarios]
        grouped = run_campaign(scenarios, workers=workers)
        assert [r.status for r in grouped] == ["error"] * 4
        assert "TopologyError: leave names unknown node 1000000" in grouped[0].detail
        assert "in mutate_topology" in grouped[0].detail  # a lane's frame
        assert "in apply_delta" in grouped[0].detail
        assert _rows(grouped) == _rows(solo)

    def test_a_partial_cache_hit_equals_solo(self, tmp_path, monkeypatch):
        scenarios = build_campaign("churn-phase")[:8]
        expected = [run_scenario(s) for s in scenarios]
        cache = ResultCache(str(tmp_path))
        run_campaign([scenarios[0]], cache=cache)  # the group's first lane
        ran = []
        real_run = runner_module.run_scenario

        def counting(scenario, timeout_s=None, shared=None):
            ran.append(scenario.index)
            return real_run(scenario, timeout_s, shared)

        monkeypatch.setattr(runner_module, "run_scenario", counting)
        results = run_campaign(scenarios, cache=cache)
        assert ran == list(range(1, 8))
        assert _rows(results) == _rows(expected)

    @pytest.mark.parametrize("timeout_s", [1e-9, 600.0])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_timeout_rows_are_deterministic(self, timeout_s, workers):
        scenarios = build_campaign("churn-phase")[:8]
        expected = [run_scenario(s, timeout_s) for s in scenarios]
        results = run_campaign(scenarios, workers=workers, timeout_s=timeout_s)
        assert _rows(results) == _rows(expected)
        timed_out = {r.status == "timeout" for r in results}
        assert timed_out == {timeout_s < 1.0}
