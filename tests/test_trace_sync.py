"""Step-record traces, schedule replay and ``sync/`` invariants.

The records that ``step()`` returns must describe an execution
faithfully enough to replay it (schedule fidelity) and to answer
per-node history queries; the synchronizer's product state must
preserve the inner algorithm's output discipline while its pulses —
:meth:`Synchronizer.pulse_advanced` over the records' changes — count
exactly the type-AA clock advances.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core.algau import ThinUnison, TransitionType
from repro.core.predicates import is_good_graph
from repro.faults.injection import random_configuration
from repro.graphs.generators import complete_graph, ring
from repro.model.configuration import Configuration
from repro.model.engine import create_execution
from repro.model.execution import Execution
from repro.model.scheduler import (
    ExplicitScheduler,
    RandomSubsetScheduler,
    ShuffledRoundRobinScheduler,
    SynchronousScheduler,
)
from repro.net.runtime import NetExecution
from repro.sync.synchronizer import SyncState, Synchronizer


def _recorded_run(steps=40, seed=5, scheduler=None):
    algorithm = ThinUnison(2)
    topology = complete_graph(6)
    rng = np.random.default_rng(seed)
    execution = Execution(
        topology,
        algorithm,
        random_configuration(algorithm, topology, rng),
        scheduler if scheduler is not None else ShuffledRoundRobinScheduler(),
        rng=rng,
    )
    initial = execution.configuration
    records = [execution.step() for _ in range(steps)]
    return execution, initial, records


class TestStepRecords:
    def test_changes_chain_into_a_per_node_history(self):
        _, initial, records = _recorded_run()
        node = 0
        history = [
            (old, new)
            for record in records
            for v, old, new in record.changed
            if v == node
        ]
        # Consecutive changes chain: each old state is the previous new.
        for (_, prev_new), (old, _) in zip(history, history[1:]):
            assert old == prev_new
        # The chain starts at the initial state.
        if history:
            assert history[0][0] == initial[node]

    def test_activation_counts_total_matches_steps(self):
        _, _, records = _recorded_run()
        counts = Counter(v for record in records for v in record.activated)
        assert sum(counts.values()) == sum(len(r.activated) for r in records)
        # Shuffled round-robin is one node per step, fair per round.
        assert max(counts.values()) - min(counts.values()) <= 1


class TestScheduleReplay:
    def test_replay_reproduces_the_trajectory_exactly(self):
        execution, _, records = _recorded_run(steps=30, seed=11)
        schedule = ExplicitScheduler([sorted(r.activated) for r in records])
        replay, _, replayed = _recorded_run(steps=30, seed=11, scheduler=schedule)

        def steps(rs):
            return [(r.t, r.activated, r.changed, r.completed_round) for r in rs]

        assert steps(replayed) == steps(records)
        # (Configuration equality is topology-identity-aware, and the
        # replay holds a fresh Topology instance — the final state
        # vectors are the right cross-run comparison.)
        assert replay.configuration.states() == execution.configuration.states()

    @pytest.mark.parametrize("engine", ["object", "array", "net"])
    def test_a_recorded_schedule_replays_on_every_engine(self, engine):
        """AlgAU is deterministic, so the activation sets alone fix the
        trajectory: the object engine's schedule, replayed on any
        engine, reproduces its step records and final states."""
        execution, initial, records = _recorded_run(
            steps=40, seed=2, scheduler=RandomSubsetScheduler(0.4)
        )
        assert any(r.changed for r in records)
        schedule = ExplicitScheduler([sorted(r.activated) for r in records])
        build = NetExecution if engine == "net" else create_execution
        extra = {} if engine == "net" else {"engine": engine}
        replay = build(
            execution.topology,
            execution.algorithm,
            initial,
            schedule,
            rng=np.random.default_rng(0),
            **extra,
        )
        replayed = [replay.step() for _ in records]

        def steps(rs):
            return [(r.t, r.activated, r.changed, r.completed_round) for r in rs]

        assert steps(replayed) == steps(records)
        assert replay.configuration.states() == execution.configuration.states()


def _run_counting_pulses(synchronizer, execution, rounds, pulses):
    """Run ``rounds`` more rounds, adding each node's pulses (type-AA
    advances of its AU coordinate) to ``pulses``."""
    target = execution.completed_rounds + rounds
    while execution.completed_rounds < target:
        for node, old, new in execution.step().changed:
            pulses[node] += synchronizer.pulse_advanced(old, new)


def _au_layer_is_good(synchronizer, execution):
    turns = Configuration.from_function(
        execution.topology, lambda v: execution.configuration[v].turn
    )
    return is_good_graph(synchronizer.unison, turns)


class TestSynchronizerInvariants:
    def _sync_execution(self, seed=0):
        inner = ThinUnison(1)
        synchronizer = Synchronizer(inner, diameter_bound=2)
        topology = ring(6)
        rng = np.random.default_rng(seed)
        initial = random_configuration(synchronizer, topology, rng)
        execution = Execution(
            topology,
            synchronizer,
            initial,
            SynchronousScheduler(),
            rng=rng,
        )
        return synchronizer, execution

    def test_state_space_is_inner_squared_times_unison(self):
        synchronizer, _ = self._sync_execution()
        inner = synchronizer.inner.state_space_size()
        assert synchronizer.state_space_size() == (
            inner * inner * synchronizer.unison.state_space_size()
        )

    def test_output_discipline_follows_the_inner_algorithm(self):
        synchronizer, execution = self._sync_execution()
        for v in execution.topology.nodes:
            state = execution.configuration[v]
            assert isinstance(state, SyncState)
            if synchronizer.is_output_state(state):
                assert state.turn.able
                assert synchronizer.output(state) == (
                    synchronizer.inner.output(state.current)
                )

    def test_pulses_are_the_aa_transitions_of_the_au_layer(self):
        synchronizer, execution = self._sync_execution(seed=3)
        pulses, aa = Counter(), Counter()
        while execution.completed_rounds < 60:
            for node, old, new in execution.step().changed:
                pulses[node] += synchronizer.pulse_advanced(old, new)
                kind = synchronizer.unison.classify_change(old.turn, new.turn)
                aa[node] += kind is TransitionType.AA
        assert max(pulses.values()) > 0
        assert pulses == aa

    def test_au_layer_stabilizes_and_pulses_keep_flowing(self):
        synchronizer, execution = self._sync_execution(seed=7)
        pulses = Counter({v: 0 for v in execution.topology.nodes})
        _run_counting_pulses(synchronizer, execution, 80, pulses)
        assert _au_layer_is_good(synchronizer, execution)
        before = min(pulses.values())
        _run_counting_pulses(synchronizer, execution, 10, pulses)
        # Liveness: after AU stabilization every node keeps pulsing
        # (the paper's AU condition delivers i pulses by round D + i).
        assert min(pulses.values()) > before
