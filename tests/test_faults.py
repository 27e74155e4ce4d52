"""Fault injection and recovery — the paper's headline application."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.algau import ThinUnison
from repro.core.predicates import is_good_graph
from repro.faults.injection import (
    TransientFaultInjector,
    au_adversarial_suite,
    au_all_faulty,
    au_clock_tear,
    au_sign_split,
    random_configuration,
    uniform_configuration,
)
from repro.graphs.biological import quorum_colony
from repro.graphs.generators import complete_graph, damaged_clique, ring
from repro.model.errors import ModelError
from repro.model.execution import Execution
from repro.model.scheduler import ShuffledRoundRobinScheduler, SynchronousScheduler


class TestInitializers:
    def test_random_configuration_covers_state_space(self):
        rng = np.random.default_rng(0)
        alg = ThinUnison(1)
        topology = complete_graph(30)
        config = random_configuration(alg, topology, rng)
        assert len(config.state_set()) > 5

    def test_uniform_configuration(self):
        alg = ThinUnison(1)
        topology = ring(5)
        config = uniform_configuration(alg, topology)
        assert config.state_set() == {alg.initial_state()}

    def test_sign_split_has_both_signs(self):
        rng = np.random.default_rng(0)
        alg = ThinUnison(2)
        config = au_sign_split(alg, ring(6), rng)
        signs = {1 if config[v].level > 0 else -1 for v in range(6)}
        assert signs == {-1, 1}

    def test_all_faulty_is_all_faulty(self):
        rng = np.random.default_rng(0)
        alg = ThinUnison(2)
        config = au_all_faulty(alg, ring(6), rng)
        assert all(config[v].faulty for v in range(6))

    def test_clock_tear_is_output_configuration(self):
        rng = np.random.default_rng(0)
        alg = ThinUnison(2)
        config = au_clock_tear(alg, ring(6), rng)
        assert all(config[v].able for v in range(6))

    def test_suite_names(self):
        rng = np.random.default_rng(0)
        alg = ThinUnison(1)
        suite = au_adversarial_suite(alg, ring(5), rng)
        assert set(suite) == {"random", "sign-split", "clock-tear", "all-faulty"}


class TestTransientFaultInjector:
    def test_fires_at_scheduled_times(self):
        rng = np.random.default_rng(0)
        alg = ThinUnison(1)
        topology = complete_graph(8)
        injector = TransientFaultInjector(
            alg, times=(3, 7), fraction=0.5, rng=np.random.default_rng(1)
        )
        execution = Execution(
            topology,
            alg,
            uniform_configuration(alg, topology),
            SynchronousScheduler(),
            rng=rng,
            intervention=injector,
        )
        execution.run(max_rounds=10)
        assert [e.t for e in injector.events] == [3, 7]
        assert all(len(e.nodes) == 4 for e in injector.events)

    def test_periodic_schedule(self):
        rng = np.random.default_rng(0)
        alg = ThinUnison(1)
        topology = ring(6)
        injector = TransientFaultInjector(
            alg, times=range(2, 13, 5), fraction=0.2, rng=np.random.default_rng(2)
        )
        execution = Execution(
            topology,
            alg,
            uniform_configuration(alg, topology),
            SynchronousScheduler(),
            rng=rng,
            intervention=injector,
        )
        execution.run(max_rounds=13)
        assert [e.t for e in injector.events] == [2, 7, 12]
        assert all(len(e.nodes) == 2 for e in injector.events)  # ceil(0.2 * 6)

    def test_fraction_validation(self):
        alg = ThinUnison(1)
        with pytest.raises(ModelError):
            TransientFaultInjector(alg, times=(1,), fraction=0.0)


class TestRecovery:
    @pytest.mark.parametrize("seed", range(4))
    def test_au_recovers_from_mid_run_bursts(self, seed):
        """Stabilize, corrupt 30% of a quorum colony, re-stabilize —
        repeatedly.  This is the fault-tolerant biological clock."""
        rng = np.random.default_rng(seed)
        topology = quorum_colony(12, 2, rng)
        alg = ThinUnison(2)
        execution = Execution(
            topology,
            alg,
            random_configuration(alg, topology, rng),
            ShuffledRoundRobinScheduler(),
            rng=rng,
        )
        for burst in range(3):
            result = execution.run(
                max_rounds=execution.completed_rounds + 20_000,
                until=lambda e: is_good_graph(alg, e.configuration),
            )
            assert result.stopped_by_predicate
            victims = rng.choice(topology.n, size=4, replace=False)
            execution.replace_configuration(
                execution.configuration.replace(
                    {int(v): alg.random_state(rng) for v in victims}
                )
            )
        result = execution.run(
            max_rounds=execution.completed_rounds + 20_000,
            until=lambda e: is_good_graph(alg, e.configuration),
        )
        assert result.stopped_by_predicate

    def test_recovery_time_is_small_for_small_faults(self):
        """A single corrupted node on a good graph heals in O(D)-ish
        rounds, far below the full O(D^3) worst case."""
        rng = np.random.default_rng(9)
        topology = damaged_clique(10, 2, rng)
        alg = ThinUnison(2)
        execution = Execution(
            topology,
            alg,
            random_configuration(alg, topology, rng),
            ShuffledRoundRobinScheduler(),
            rng=rng,
        )
        execution.run(
            max_rounds=20_000,
            until=lambda e: is_good_graph(alg, e.configuration),
        )
        recovery_rounds = []
        for _ in range(5):
            execution.replace_configuration(
                execution.configuration.replace({0: alg.random_state(rng)})
            )
            start = execution.completed_rounds
            execution.run(
                max_rounds=start + 5000,
                until=lambda e: is_good_graph(alg, e.configuration),
            )
            recovery_rounds.append(execution.completed_rounds - start)
        k = alg.levels.k
        assert max(recovery_rounds) <= 3 * k  # far below k^3
