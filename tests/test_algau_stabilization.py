"""Integration tests for Theorem 1.1 — AlgAU self-stabilization.

From arbitrary adversarial initial configurations, under synchronous and
asynchronous fair schedulers, the graph must become good within
``O(k^3)`` rounds, stay good, and then satisfy the AU safety/liveness
conditions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.monitors import AlgAUInvariantMonitor
from repro.analysis.stabilization import measure_au_stabilization, settle
from repro.core.algau import ThinUnison, TransitionType
from repro.core.clock import CyclicClock
from repro.core.predicates import is_good_graph
from repro.faults.injection import (
    au_adversarial_suite,
    au_all_faulty,
    au_clock_tear,
    au_sign_split,
    random_configuration,
)
from repro.graphs.generators import (
    caterpillar,
    complete_graph,
    damaged_clique,
    dumbbell,
    path,
    ring,
    star,
)
from repro.graphs.topology import single_node_topology
from repro.model.engine import create_execution, graph_is_good
from repro.model.execution import Execution
from repro.model.scheduler import (
    LaggardScheduler,
    RandomSubsetScheduler,
    RotatingScheduler,
    RoundRobinScheduler,
    ShuffledRoundRobinScheduler,
    SynchronousScheduler,
)
from repro.tasks.spec import check_au_safety, check_au_update_is_pulse


def stabilize(topology, d, scheduler, initial_factory, seed=0, max_factor=200):
    rng = np.random.default_rng(seed)
    alg = ThinUnison(d)
    initial = initial_factory(alg, topology, rng)
    result = measure_au_stabilization(
        alg,
        topology,
        initial,
        scheduler,
        rng,
        max_rounds=max_factor * (3 * d + 2) ** 3,
        confirm_rounds=10,
    )
    assert result.stabilized, result.detail
    return result


GRAPHS = [
    (lambda rng: complete_graph(6), 1),
    (lambda rng: star(7), 2),
    (lambda rng: damaged_clique(10, 2, rng), 2),
    (lambda rng: dumbbell(4, 2), 4),
    (lambda rng: ring(8), 4),
    (lambda rng: path(6), 5),
    (lambda rng: caterpillar(4, 1), 5),
]

SCHEDULERS = [
    SynchronousScheduler,
    RoundRobinScheduler,
    ShuffledRoundRobinScheduler,
    lambda: RandomSubsetScheduler(0.5),
    lambda: LaggardScheduler(victim=0, period=6),
]


class TestStabilizationMatrix:
    @pytest.mark.parametrize("graph_factory,d", GRAPHS)
    @pytest.mark.parametrize("scheduler_factory", SCHEDULERS)
    def test_random_start(self, graph_factory, d, scheduler_factory):
        rng = np.random.default_rng(1)
        topology = graph_factory(rng)
        stabilize(topology, d, scheduler_factory(), random_configuration, seed=2)

    @pytest.mark.parametrize(
        "initial_factory",
        [au_sign_split, au_clock_tear, au_all_faulty],
        ids=["sign-split", "clock-tear", "all-faulty"],
    )
    @pytest.mark.parametrize("graph_factory,d", GRAPHS[:5])
    def test_adversarial_starts(self, graph_factory, d, initial_factory):
        rng = np.random.default_rng(3)
        topology = graph_factory(rng)
        stabilize(
            topology,
            d,
            ShuffledRoundRobinScheduler(),
            initial_factory,
            seed=4,
        )

    def test_single_node(self):
        topology = single_node_topology()
        stabilize(topology, 1, SynchronousScheduler(), random_configuration)

    def test_oversized_diameter_bound_is_fine(self):
        """Running with D far above diam(G) still stabilizes (the bound
        is only an upper bound)."""
        topology = complete_graph(5)
        stabilize(topology, 6, SynchronousScheduler(), random_configuration)


class TestStabilizationBound:
    """The measured stabilization stays well inside the paper's O(k^3)
    budget on every instance we try (constants unspecified in the
    paper; we check against 1·k^3 which empirically leaves huge slack).
    """

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_rounds_within_k_cubed(self, d):
        rng = np.random.default_rng(5)
        topology = complete_graph(8) if d == 1 else damaged_clique(10, d, rng)
        alg = ThinUnison(d)
        k = alg.levels.k
        for name, initial in au_adversarial_suite(alg, topology, rng).items():
            result = measure_au_stabilization(
                alg,
                topology,
                initial,
                ShuffledRoundRobinScheduler(),
                rng,
                max_rounds=k**3,
            )
            assert result.stabilized, (d, name)
            assert result.rounds <= k**3


class TestPostStabilizationBehavior:
    """After stabilization: safety (neighbor clocks adjacent), updates
    are +1 pulses, and every node keeps pulsing (liveness)."""

    def test_safety_and_pulses(self):
        rng = np.random.default_rng(6)
        d = 2
        topology = damaged_clique(9, d, rng)
        alg = ThinUnison(d)
        group = CyclicClock(alg.levels.group_order)
        execution = Execution(
            topology,
            alg,
            random_configuration(alg, topology, rng),
            ShuffledRoundRobinScheduler(),
            rng=rng,
        )
        execution.run(
            max_rounds=50_000,
            until=lambda e: is_good_graph(alg, e.configuration),
        )
        assert is_good_graph(alg, execution.configuration)
        pulses = [0] * topology.n
        window = topology.diameter + 12
        for _ in range(window * topology.n):
            record = execution.step()
            config = execution.configuration
            clocks = [alg.output(config[v]) for v in topology.nodes]
            assert check_au_safety(topology, clocks, group).valid
            for node, old, new in record.changed:
                assert check_au_update_is_pulse(
                    group, alg.output(old), alg.output(new)
                ).valid
                if alg.classify_change(old, new) is TransitionType.AA:
                    pulses[node] += 1
        assert min(pulses) >= 1  # everyone advanced

    def test_goodness_is_reached_and_closed(self):
        """Lem 2.10: once good, the graph stays good — the invariant
        monitor raises on any step that loses goodness."""
        rng = np.random.default_rng(7)
        alg = ThinUnison(1)
        topology = complete_graph(5)
        execution = Execution(
            topology,
            alg,
            random_configuration(alg, topology, rng),
            SynchronousScheduler(),
            rng=rng,
            monitors=(AlgAUInvariantMonitor(alg),),
        )
        assert settle(execution, graph_is_good, 2000) is not None
        execution.run(max_rounds=2000)
        assert execution.graph_is_good()

    def test_settle_rounds_goodness_reached_mid_round(self):
        """Regression: goodness first holding partway through a round
        counts the round in progress (the paper's smallest ``i`` with a
        good graph by ``R(i)``)."""
        rng = np.random.default_rng(0)
        alg = ThinUnison(1)
        topology = complete_graph(5)
        execution = Execution(
            topology,
            alg,
            random_configuration(alg, topology, rng),
            ShuffledRoundRobinScheduler(),
            rng=rng,
        )
        assert settle(execution, graph_is_good, 50) == 8
        assert execution.t == 39  # mid-round: R(7) = 35 < 39, round 8 open
        assert execution.rounds.boundary(7) == 35

    @pytest.mark.parametrize("engine", ["object", "array"])
    @pytest.mark.parametrize(
        "graph_factory,d,scheduler_factory,seed",
        [
            (lambda: complete_graph(5), 1, ShuffledRoundRobinScheduler, 0),
            (lambda: ring(6), 3, SynchronousScheduler, 1),
            (lambda: path(5), 4, RoundRobinScheduler, 2),
            (lambda: star(6), 2, lambda: RandomSubsetScheduler(0.5), 3),
        ],
        ids=["k5-shuffled", "ring6-sync", "path5-round-robin", "star6-subset"],
    )
    def test_settle_is_the_first_round_with_a_good_graph(
        self, graph_factory, d, scheduler_factory, seed, engine
    ):
        """``settle`` agrees with the paper's definition computed from
        the step records alone: the smallest ``i`` whose boundary
        ``R(i)`` is at or after the first step with a good graph."""
        alg = ThinUnison(d)
        topology = graph_factory()
        initial = random_configuration(alg, topology, np.random.default_rng(seed))

        def fresh():
            return create_execution(
                topology,
                alg,
                initial,
                scheduler_factory(),
                rng=np.random.default_rng(seed),
                engine=engine,
            )

        execution = fresh()
        if is_good_graph(alg, execution.configuration):
            expected = 0
        else:
            expected, completed, good = None, 0, False
            while expected is None:
                record = execution.step()
                good = good or is_good_graph(alg, execution.configuration)
                completed += record.completed_round
                if good and record.completed_round:
                    expected = completed
        assert settle(fresh(), graph_is_good, 10_000) == expected


class TestAdversarialRotatingScheduler:
    """AlgAU stabilizes even under the rotating adversary that
    live-locks the Appendix-A algorithm on the same ring."""

    def test_stabilizes_on_livelock_instance(self):
        from repro.baselines.failed_reset_au import livelock_witness

        witness = livelock_witness(2, 2)
        topology = witness.topology
        rng = np.random.default_rng(8)
        alg = ThinUnison(topology.diameter)
        scheduler = RotatingScheduler(witness.base_order, shift=witness.shift)
        execution = Execution(
            topology,
            alg,
            random_configuration(alg, topology, rng),
            scheduler,
            rng=rng,
        )
        result = execution.run(
            max_rounds=50_000,
            until=lambda e: is_good_graph(alg, e.configuration),
        )
        assert result.stopped_by_predicate


class TestDeterminism:
    """AlgAU is deterministic: same initial configuration + schedule
    give identical executions."""

    def test_reproducible_runs(self):
        rng = np.random.default_rng(9)
        topology = ring(6)
        alg = ThinUnison(3)
        initial = random_configuration(alg, topology, rng)
        trajectories = []
        for _ in range(2):
            execution = Execution(
                topology,
                alg,
                initial,
                RoundRobinScheduler(),
                rng=np.random.default_rng(0),
            )
            states = []
            for _ in range(100):
                execution.step()
                states.append(execution.configuration.states())
            trajectories.append(states)
        assert trajectories[0] == trajectories[1]
