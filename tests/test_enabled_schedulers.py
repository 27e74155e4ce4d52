"""Enabled-aware daemons, quiescence detection, and the scheduler
contract extensions (``select`` hook).

The enabled-aware schedulers consume the engines' incrementally
maintained enabled-set view, so these tests double as end-to-end checks
of the dirty-set invariant: if the view ever went stale, the daemons
would activate the wrong nodes and the engine-pairing assertions would
diverge.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaigns import FaultPlan, Scenario, run_scenario
from repro.core.algau import ThinUnison
from repro.faults.injection import random_configuration
from repro.graphs.generators import complete_graph, damaged_clique, ring
from repro.model.adversary import greedy_au_adversary
from repro.model.algorithm import Algorithm
from repro.model.engine import create_execution
from repro.model.errors import ScheduleError
from repro.model.execution import Execution
from repro.model.scheduler import (
    EnabledOnlyScheduler,
    LocallyCentralScheduler,
    SynchronousScheduler,
)


class _Inert(Algorithm[int, int]):
    """δ = identity: every configuration is quiescent."""

    name = "inert"
    deterministic = True

    def is_output_state(self, state):
        return True

    def output(self, state):
        return state

    def delta(self, state, signal):
        return state

    def initial_state(self):
        return 0

    def random_state(self, rng):
        return int(rng.integers(3))


def _au_execution(scheduler, engine="object", seed=0, n=9):
    algorithm = ThinUnison(2)
    topology = ring(n)
    initial = random_configuration(algorithm, topology, np.random.default_rng(seed))
    return create_execution(
        topology,
        algorithm,
        initial,
        scheduler,
        rng=np.random.default_rng(seed + 1),
        engine=engine,
    )


class TestEnabledOnlyScheduler:
    @pytest.mark.parametrize("engine", ["object", "array"])
    def test_activates_exactly_the_enabled_set(self, engine):
        execution = _au_execution(EnabledOnlyScheduler(), engine=engine, seed=3)
        for _ in range(40):
            expected = execution.enabled_nodes()
            record = execution.step()
            assert record.activated == (
                expected if expected else frozenset(execution.topology.nodes)
            )

    def test_quiescent_fallback_activates_everyone(self):
        algorithm = _Inert()
        topology = ring(6)
        initial = random_configuration(algorithm, topology, np.random.default_rng(0))
        execution = Execution(
            topology,
            algorithm,
            initial,
            EnabledOnlyScheduler(),
            rng=np.random.default_rng(1),
        )
        assert execution.is_quiescent()
        record = execution.step()
        assert record.activated == frozenset(topology.nodes)
        assert record.completed_round  # the fallback keeps rounds alive
        assert record.changed == ()

    def test_needs_an_execution(self):
        with pytest.raises(ScheduleError, match="enabled view"):
            EnabledOnlyScheduler().activations(0, (0, 1, 2), np.random.default_rng(0))

    @pytest.mark.parametrize("engine", ["object", "array"])
    def test_algau_stabilizes_under_the_daemon(self, engine):
        execution = _au_execution(EnabledOnlyScheduler(), engine=engine, seed=7)
        result = execution.run(max_rounds=50_000, until=lambda e: e.graph_is_good())
        assert result.stopped_by_predicate
        # Unison never quiesces: a good graph keeps pulsing.
        assert not execution.is_quiescent()


class TestLocallyCentralScheduler:
    @pytest.mark.parametrize("engine", ["object", "array"])
    @pytest.mark.parametrize("seed", range(3))
    def test_never_activates_two_neighbors(self, engine, seed):
        execution = _au_execution(LocallyCentralScheduler(), engine=engine, seed=seed)
        topology = execution.topology
        for _ in range(60):
            record = execution.step()
            active = sorted(record.activated)
            for i, u in enumerate(active):
                for v in active[i + 1 :]:
                    assert not topology.has_edge(u, v), (u, v)

    @pytest.mark.parametrize("engine", ["object", "array"])
    def test_activations_are_maximal_within_the_enabled_set(self, engine):
        execution = _au_execution(LocallyCentralScheduler(), engine=engine, seed=11)
        topology = execution.topology
        for _ in range(40):
            enabled = execution.enabled_nodes()
            record = execution.step()
            if enabled:
                assert record.activated <= enabled
                # Maximality: every unchosen enabled node has a chosen
                # neighbor.
                for v in enabled - record.activated:
                    chosen = record.activated
                    assert any(u in chosen for u in topology.neighbors(v)), v

    def test_needs_binding(self):
        scheduler = LocallyCentralScheduler()
        with pytest.raises(ScheduleError, match="not bound"):
            scheduler.select(0, (0, 1), np.random.default_rng(0), frozenset((0,)))

    def test_algau_stabilizes_under_the_daemon(self):
        execution = _au_execution(LocallyCentralScheduler(), seed=13)
        result = execution.run(max_rounds=50_000, until=lambda e: e.graph_is_good())
        assert result.stopped_by_predicate


class TestQuiescenceTracking:
    @pytest.mark.parametrize("engine", ["object", "array", "native"])
    def test_enabled_count_matches_the_enabled_set_after_every_step(self, engine):
        execution = _au_execution(SynchronousScheduler(), engine=engine, seed=17)
        for _ in range(25):
            execution.step()
            assert execution.enabled_count() == len(execution.enabled_nodes())

    def test_masked_nodes_are_never_enabled(self):
        execution = _au_execution(SynchronousScheduler(), seed=19)
        enabled = execution.enabled_nodes()
        assert enabled
        victim = min(enabled)
        execution.mask_nodes((victim,))
        assert victim not in execution.enabled_nodes()
        execution.mask_nodes(())
        assert victim in execution.enabled_nodes()

    def test_inert_algorithm_is_quiescent_and_stays_so(self):
        algorithm = _Inert()
        topology = complete_graph(5)
        initial = random_configuration(algorithm, topology, np.random.default_rng(2))
        execution = Execution(
            topology,
            algorithm,
            initial,
            SynchronousScheduler(),
            rng=np.random.default_rng(3),
        )
        assert execution.is_quiescent()
        assert execution.enabled_count() == 0
        execution.run(max_steps=5)
        assert execution.is_quiescent()


class TestSchedulerContract:
    def test_other_missing_attributes_raise_plainly(self):
        with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
            SynchronousScheduler().frobnicate

    def test_rebinding_a_bound_adversary_raises(self):
        algorithm = ThinUnison(2)
        adversary = greedy_au_adversary(algorithm)
        first = damaged_clique(8, 2, np.random.default_rng(0))
        Execution(
            first,
            algorithm,
            random_configuration(algorithm, first, np.random.default_rng(1)),
            adversary,
            rng=np.random.default_rng(2),
        )
        other = ring(7)
        with pytest.raises(ScheduleError, match="already bound"):
            Execution(
                other,
                algorithm,
                random_configuration(algorithm, other, np.random.default_rng(3)),
                adversary,
                rng=np.random.default_rng(4),
            )
        # ... and manual bind() calls surface the same guard.
        another = _au_execution(SynchronousScheduler(), seed=29)
        with pytest.raises(ScheduleError, match="already bound"):
            adversary.bind(another)

    def test_oblivious_schedulers_ignore_the_enabled_view(self):
        scheduler = SynchronousScheduler()
        nodes = (0, 1, 2, 3)
        rng = np.random.default_rng(0)
        assert scheduler.select(0, nodes, rng, frozenset((1,))) == frozenset(nodes)


class TestCampaignIntegration:
    @pytest.mark.parametrize("scheduler", ["enabled-only", "locally-central"])
    def test_scenarios_round_trip_and_pair_across_engines(self, scheduler):
        results = {}
        for engine in ("object", "array"):
            scenario = Scenario(
                campaign="test",
                index=0,
                task="au",
                graph="complete",
                graph_params=(("n", 6),),
                diameter_bound=1,
                scheduler=scheduler,
                engine=engine,
                start="random",
                seed=321,
                max_rounds=30_000,
                faults=FaultPlan(),
            )
            assert Scenario.from_dict(scenario.to_dict()) == scenario
            result = run_scenario(scenario)
            assert result.stabilized, result.detail
            results[engine] = (result.stabilized, result.rounds, result.steps)
        assert results["object"] == results["array"]

    def test_enabled_daemons_registry_builds(self):
        from repro.campaigns import build_campaign

        scenarios = build_campaign("enabled-daemons")
        assert len(scenarios) >= 20
        assert {s.scheduler for s in scenarios} == {
            "enabled-only",
            "locally-central",
        }
        assert {s.engine for s in scenarios} == {"object", "array"}
        # Engine-paired: every pairing tag appears exactly twice with
        # the same derived seed.
        by_pair = {}
        for s in scenarios:
            by_pair.setdefault(s.tag("pairing"), []).append(s)
        for pair, members in by_pair.items():
            assert len(members) == 2, pair
            assert members[0].seed == members[1].seed
            assert {m.engine for m in members} == {"object", "array"}
