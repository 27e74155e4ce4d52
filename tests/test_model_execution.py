"""Tests for schedulers, the round operator and the execution engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.algau import ThinUnison
from repro.core.turns import able
from repro.graphs.generators import ring
from repro.model.configuration import Configuration
from repro.model.errors import ModelError, ScheduleError
from repro.model.execution import Execution, Monitor
from repro.model.rounds import RoundTracker
from repro.model.scheduler import (
    ExplicitScheduler,
    LaggardScheduler,
    RandomSubsetScheduler,
    RotatingScheduler,
    RoundRobinScheduler,
    ShuffledRoundRobinScheduler,
    SynchronousScheduler,
)


class TestRoundTracker:
    def test_synchronous_rounds(self):
        tracker = RoundTracker((0, 1, 2))
        for t in range(5):
            completed = tracker.observe((0, 1, 2))
            assert completed
        assert tracker.boundaries == (0, 1, 2, 3, 4, 5)
        assert tracker.completed_rounds == 5

    def test_round_robin_rounds(self):
        tracker = RoundTracker((0, 1, 2))
        pattern = [(0,), (1,), (2,), (0,), (1,), (2,)]
        boundaries = [t + 1 for t, a in enumerate(pattern) if tracker.observe(a)]
        assert boundaries == [3, 6]

    def test_partial_activations(self):
        tracker = RoundTracker((0, 1, 2, 3))
        assert not tracker.observe((0, 1))
        assert not tracker.observe((0, 1))
        assert tracker.observe((2, 3))
        assert tracker.boundary(1) == 3

    def test_observe_sequence_matches_single_observes(self):
        nodes = (0, 1, 2, 3, 4)
        bulk, single = RoundTracker(nodes), RoundTracker(nodes)
        for order in ([3, 1, 4, 0, 2], [2, 0], [1, 4, 3], [4, 3, 2, 1, 0]):
            assert bulk.at_boundary == single.at_boundary
            expected = [single.observe((v,)) for v in order][-1]
            assert bulk.observe_sequence(np.array(order)) == expected
            assert bulk.boundaries == single.boundaries
            assert bulk.time == single.time
        assert bulk.at_boundary and bulk.completed_rounds == 3

    def test_round_of_time(self):
        tracker = RoundTracker((0, 1))
        tracker.observe((0,))
        tracker.observe((1,))  # R(1) = 2
        tracker.observe((0, 1))  # R(2) = 3
        assert tracker.round_of_time(0) == 0
        assert tracker.round_of_time(1) == 1
        assert tracker.round_of_time(2) == 1
        assert tracker.round_of_time(3) == 2
        with pytest.raises(IndexError):
            tracker.round_of_time(4)
        # A time inside the round still in progress (past R(2) = 3 but
        # within the clock) belongs to the next round, R(3) >= t.
        tracker.observe((0,))
        tracker.observe((0,))  # time 5, R(3) not yet determined
        assert tracker.completed_rounds == 2
        assert tracker.round_of_time(4) == 3
        assert tracker.round_of_time(5) == 3
        with pytest.raises(IndexError):
            tracker.round_of_time(6)


class TestSchedulers:
    def test_synchronous_activates_everyone(self):
        sched = SynchronousScheduler()
        rng = np.random.default_rng(0)
        assert sched.activations(0, (0, 1, 2), rng) == {0, 1, 2}

    def test_round_robin_cycles(self):
        sched = RoundRobinScheduler()
        rng = np.random.default_rng(0)
        picks = [sched.activations(t, (0, 1, 2), rng) for t in range(6)]
        assert picks == [{0}, {1}, {2}, {0}, {1}, {2}]

    def test_round_robin_custom_order(self):
        sched = RoundRobinScheduler(order=(2, 0, 1))
        rng = np.random.default_rng(0)
        picks = [sched.activations(t, (0, 1, 2), rng) for t in range(3)]
        assert picks == [{2}, {0}, {1}]

    def test_round_robin_rejects_bad_order(self):
        sched = RoundRobinScheduler(order=(0, 0, 1))
        rng = np.random.default_rng(0)
        with pytest.raises(ScheduleError):
            sched.activations(0, (0, 1, 2), rng)

    def test_shuffled_round_robin_is_fair(self):
        sched = ShuffledRoundRobinScheduler()
        rng = np.random.default_rng(0)
        seen = []
        for t in range(9):
            (v,) = sched.activations(t, (0, 1, 2), rng)
            seen.append(v)
        # Every window of 3 is a permutation.
        for i in range(0, 9, 3):
            assert sorted(seen[i : i + 3]) == [0, 1, 2]

    def test_random_subset_nonempty(self):
        sched = RandomSubsetScheduler(0.1)
        rng = np.random.default_rng(0)
        for t in range(50):
            assert sched.activations(t, (0, 1, 2), rng)

    def test_random_subset_validates_p(self):
        with pytest.raises(ScheduleError):
            RandomSubsetScheduler(0.0)

    def test_explicit_replays_then_falls_back(self):
        sched = ExplicitScheduler([(0,), (1,)])
        rng = np.random.default_rng(0)
        assert sched.activations(0, (0, 1), rng) == {0}
        assert sched.activations(1, (0, 1), rng) == {1}
        assert sched.activations(2, (0, 1), rng) == {0, 1}

    def test_explicit_repeat(self):
        sched = ExplicitScheduler([(0,), (1,)], repeat=True)
        rng = np.random.default_rng(0)
        assert sched.activations(5, (0, 1), rng) == {1}

    def test_rotating_shifts_per_traversal(self):
        sched = RotatingScheduler((0, 2, 1), shift=1)
        rng = np.random.default_rng(0)
        first = [sched.activations(t, (0, 1, 2), rng) for t in range(3)]
        second = [sched.activations(t, (0, 1, 2), rng) for t in range(3, 6)]
        assert first == [{0}, {2}, {1}]
        assert second == [{1}, {0}, {2}]

    def test_laggard_starves_victim(self):
        sched = LaggardScheduler(victim=0, period=4)
        rng = np.random.default_rng(0)
        activations = [sched.activations(t, (0, 1, 2), rng) for t in range(8)]
        victim_steps = [t for t, a in enumerate(activations) if 0 in a]
        assert victim_steps == [3, 7]
        assert all({1, 2} <= a for a in activations)


class RecordingMonitor(Monitor):
    def __init__(self):
        self.started = False
        self.steps = []

    def on_start(self, execution):
        self.started = True

    def on_step(self, execution, record):
        self.steps.append(record)


class TestExecution:
    def make(self, scheduler=None, seed=0):
        rng = np.random.default_rng(seed)
        topology = ring(4)
        alg = ThinUnison(2)
        config = Configuration.uniform(topology, able(1))
        return Execution(
            topology,
            alg,
            config,
            scheduler or SynchronousScheduler(),
            rng=rng,
        )

    def test_synchronous_step_uses_pre_step_configuration(self):
        """Simultaneous updates: everyone reads C_t, not intermediate
        states.  All nodes at level 1 advance together to level 2."""
        execution = self.make()
        execution.step()
        assert all(
            execution.configuration[v] == able(2)
            for v in execution.topology.nodes
        )

    def test_non_activated_nodes_keep_state(self):
        execution = self.make(RoundRobinScheduler())
        execution.step()  # only node 0 moves
        assert execution.configuration[0] == able(2)
        assert execution.configuration[1] == able(1)

    def test_run_until_predicate(self):
        execution = self.make()
        result = execution.run(
            max_rounds=100,
            until=lambda e: e.configuration[0] == able(4),
        )
        assert result.stopped_by_predicate
        assert execution.configuration[0] == able(4)

    def test_run_respects_round_budget(self):
        execution = self.make(RoundRobinScheduler())
        result = execution.run(max_rounds=3)
        assert result.reason == "max_rounds"
        assert execution.completed_rounds == 3
        assert execution.t == 12  # 4 nodes per round

    def test_run_requires_a_budget(self):
        execution = self.make()
        with pytest.raises(ModelError):
            execution.run()

    def test_monitors_invoked(self):
        execution = self.make()
        monitor = RecordingMonitor()
        execution.monitors = (monitor,)
        execution.run(max_rounds=3)
        assert monitor.started
        assert len(monitor.steps) == 3
        assert all(rec.completed_round for rec in monitor.steps)

    def test_step_records_changes(self):
        execution = self.make()
        record = execution.step()
        assert len(record.changed) == 4
        for node, old, new in record.changed:
            assert old == able(1)
            assert new == able(2)

    def test_intervention_replaces_configuration(self):
        execution = self.make()

        def corrupt(e):
            if e.t == 2:
                return e.configuration.replace({0: able(1)})
            return None

        execution.intervention = corrupt
        execution.run(max_rounds=3)
        # The corruption before step t=2 put node 0 back to level 1,
        # where it is blocked (its neighbors sit at level 3).
        assert execution.configuration[0] == able(1)

    def test_replace_configuration_validates_topology(self):
        execution = self.make()
        other = Configuration.uniform(ring(4), able(1))
        with pytest.raises(ModelError):
            execution.replace_configuration(other)

    def test_initial_configuration_topology_mismatch(self):
        rng = np.random.default_rng(0)
        alg = ThinUnison(2)
        with pytest.raises(ModelError):
            Execution(
                ring(4),
                alg,
                Configuration.uniform(ring(5), able(1)),
                SynchronousScheduler(),
                rng=rng,
            )

    def test_pre_satisfied_until(self):
        execution = self.make()
        result = execution.run(max_rounds=5, until=lambda e: True)
        assert result.stopped_by_predicate
        assert result.steps == 0


class TestEngineMoves:
    """Every lane counts its own moves: ``execution.moves`` equals an
    attached :class:`MoveCounter` through step() and advance(), and
    out-of-band writes are never billed."""

    @pytest.mark.parametrize("scheduler", ["shuffled-rr", "synchronous"])
    @pytest.mark.parametrize("engine", ["object", "array", "native", "net"])
    def test_moves_equal_the_move_counter(self, engine, scheduler):
        from repro.analysis.monitors import MoveCounter
        from repro.core.algau_native import native_backend
        from repro.core.turns import faulty
        from repro.faults.injection import random_configuration
        from repro.graphs.generators import damaged_clique
        from repro.model.engine import create_execution
        from repro.net import NetExecution

        if engine == "native" and native_backend() is None:
            pytest.skip("no native backend")
        topology = damaged_clique(10, 2, np.random.default_rng(31))
        algorithm = ThinUnison(2)
        initial = random_configuration(algorithm, topology, np.random.default_rng(32))
        make = {
            "shuffled-rr": ShuffledRoundRobinScheduler,
            "synchronous": SynchronousScheduler,
        }[scheduler]

        def build(monitors):
            if engine == "net":
                return NetExecution(
                    topology, algorithm, initial, make(),
                    rng=np.random.default_rng(33), monitors=monitors,
                )
            return create_execution(
                topology, algorithm, initial, make(),
                rng=np.random.default_rng(33), engine=engine, monitors=monitors,
            )

        counter = MoveCounter()
        stepped, bulk = build((counter,)), build(())
        for phase in range(3):
            for _ in range(13):
                stepped.step()
            bulk.advance(13)
            assert stepped.moves == counter.moves == bulk.moves
            before = counter.moves
            for execution in (stepped, bulk):
                execution.poke_states({phase: faulty(2), phase + 4: able(-1)})
                execution.replace_configuration(
                    execution.configuration.replace({phase + 1: faulty(-2)})
                )
                assert execution.moves == before
        assert counter.moves > 0


#: Runs in a fresh interpreter: an object-lane AlgAU execution, cached
#: and naive, through goodness polling, a poke and a topology delta.
_OBJECT_LANE_PROGRAM = """
import sys

import numpy as np

from repro.core.algau import ThinUnison
from repro.core.turns import faulty
from repro.faults.injection import random_configuration
from repro.graphs.dynamic import TopologyDelta
from repro.graphs.generators import ring
from repro.model.engine import create_execution, graph_is_good
from repro.model.scheduler import ShuffledRoundRobinScheduler

algorithm = ThinUnison(2)
topology = ring(8)
initial = random_configuration(algorithm, topology, np.random.default_rng(1))
for incremental in (True, False):
    execution = create_execution(
        topology, algorithm, initial, ShuffledRoundRobinScheduler(),
        rng=np.random.default_rng(2), engine="object", incremental=incremental,
    )
    execution.run(max_steps=40, until=graph_is_good)
    execution.poke_states({0: faulty(3)})
    execution.mutate_topology(
        TopologyDelta(remove_edges=((0, 1),), add_edges=((0, 2),))
    )
    execution.run(max_steps=40, until=graph_is_good)
    execution.enabled_count()
loaded = [
    name
    for name in ("repro.core.algau_vec", "repro.core.algau_native",
                 "repro.core.encoding")
    if name in sys.modules
]
print(",".join(loaded))
"""


def test_object_lane_never_loads_the_array_kernels():
    """The object lane is the oracle the array tiers are checked
    against, so it must not lean on their encoding or kernels."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    paths = (src, os.environ.get("PYTHONPATH", ""))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    result = subprocess.run(
        [sys.executable, "-c", _OBJECT_LANE_PROGRAM],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == ""
