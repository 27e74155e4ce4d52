"""The synchronizer transformer — Corollary 1.2."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.stabilization import measure_static_task_stabilization
from repro.core.predicates import is_good_graph
from repro.core.turns import able, faulty
from repro.faults.injection import random_configuration, uniform_configuration
from repro.graphs.generators import complete_graph, damaged_clique, ring
from repro.model.configuration import Configuration
from repro.model.execution import Execution
from repro.model.scheduler import (
    LaggardScheduler,
    RandomSubsetScheduler,
    ShuffledRoundRobinScheduler,
)
from repro.model.signal import Signal
from repro.sync.synchronizer import Synchronizer, SyncState
from repro.tasks.le import AlgLE
from repro.tasks.mis import AlgMIS
from repro.tasks.restart import StandaloneRestart
from repro.tasks.spec import check_le_output, check_mis_output


class TestProductStructure:
    def test_state_space_formula(self):
        inner = AlgMIS(2)
        sync = Synchronizer(inner, 2)
        q = inner.state_space_size()
        # |Q*| = |Q|^2 * (4k - 2) with k = 3*2 + 2 = 8.
        assert sync.state_space_size() == q * q * 30

    def test_output_states(self):
        inner = AlgMIS(1)
        sync = Synchronizer(inner, 1)
        q_in = inner.initial_state()
        decided = type(q_in)(
            membership="I",
            flag=False,
            step=0,
            parity=0,
            candidate=False,
            coin=False,
            tid=1,
        )
        assert sync.is_output_state(SyncState(decided, q_in, able(1)))
        assert not sync.is_output_state(SyncState(decided, q_in, faulty(2)))
        assert not sync.is_output_state(SyncState(q_in, q_in, able(1)))
        assert sync.output(SyncState(decided, q_in, able(1))) == 1

    def test_initial_state(self):
        inner = AlgLE(1)
        sync = Synchronizer(inner, 1)
        s0 = sync.initial_state()
        assert s0.current == inner.initial_state()
        assert s0.turn == sync.unison.initial_state()


class TestSimulationMechanics:
    def test_no_pulse_without_aa(self):
        """While the AU layer repairs itself, the inner state freezes."""
        inner = StandaloneRestart(1)  # any simple inner algorithm
        sync = Synchronizer(inner, 1)
        q = inner.initial_state()
        me = SyncState(q, q, able(3))
        neighbor = SyncState(q, q, able(5))  # non-adjacent: AF fires
        result = sync.delta(me, Signal((me, neighbor)))
        assert result.turn == faulty(3)
        assert result.current == q and result.previous == q

    def test_pulse_advances_inner_state(self):
        """An AA transition runs one simulated round of Π."""
        inner = AlgLE(1)
        sync = Synchronizer(inner, 1)
        q0 = inner.initial_state()  # r = 0: epoch start, tosses coins
        me = SyncState(q0, q0, able(1))
        result = sync.delta(me, Signal((me,)))
        # The AU layer advances 1 -> 2 and Π tosses its epoch coins.
        support = result.support if hasattr(result, "support") else {result}
        assert all(s.turn == able(2) for s in support)
        assert all(s.previous == q0 for s in support)
        assert all(s.current.r == 1 for s in support)

    def test_simulated_signal_uses_current_of_same_pulse(self):
        """A neighbor at the same clock contributes its current state; a
        neighbor one pulse ahead contributes its previous state."""
        inner = StandaloneRestart(2)
        sync = Synchronizer(inner, 2)
        idle = inner.initial_state()
        from repro.tasks.restart import RestartState

        behind_partner = SyncState(RestartState(0), idle, able(1))
        ahead_partner = SyncState(idle, RestartState(0), able(2))
        me = SyncState(idle, idle, able(1))
        # Same-pulse neighbor exposes σ(0): rule 1 pulls us in.
        result = sync.delta(me, Signal((me, behind_partner)))
        assert result.current == RestartState(0)
        # One-ahead neighbor exposes its previous σ(0): same effect.
        result = sync.delta(me, Signal((me, ahead_partner)))
        assert result.current == RestartState(0)

    def test_pulse_advanced_detector(self):
        inner = StandaloneRestart(1)
        sync = Synchronizer(inner, 1)
        q = inner.initial_state()
        old = SyncState(q, q, able(1))
        new = SyncState(q, q, able(2))
        assert sync.pulse_advanced(old, new)
        assert not sync.pulse_advanced(old, SyncState(q, q, faulty(2)))


@pytest.mark.parametrize(
    "scheduler_factory",
    [
        ShuffledRoundRobinScheduler,
        lambda: RandomSubsetScheduler(0.4),
        lambda: LaggardScheduler(victim=0, period=5),
    ],
    ids=["shuffled", "random-subset", "laggard"],
)
class TestEndToEndAsynchronous:
    def test_mis_stabilizes(self, scheduler_factory):
        rng = np.random.default_rng(21)
        topology = damaged_clique(9, 2, rng)
        inner = AlgMIS(2)
        sync = Synchronizer(inner, 2)
        result = measure_static_task_stabilization(
            sync,
            topology,
            random_configuration(sync, topology, rng),
            scheduler_factory(),
            rng,
            lambda out: check_mis_output(topology, out).valid,
            max_rounds=150_000,
            confirm_rounds=40,
        )
        assert result.stabilized, result.detail

    def test_le_stabilizes(self, scheduler_factory):
        rng = np.random.default_rng(22)
        topology = complete_graph(8)
        inner = AlgLE(1)
        sync = Synchronizer(inner, 1)
        result = measure_static_task_stabilization(
            sync,
            topology,
            random_configuration(sync, topology, rng),
            scheduler_factory(),
            rng,
            lambda out: check_le_output(out).valid,
            max_rounds=150_000,
            confirm_rounds=40,
        )
        assert result.stabilized, result.detail


class TestPulses:
    def test_pulse_counts_stay_within_one_neighborhood_gap(self):
        """Post-AU-stabilization, neighboring pulse counters differ by
        at most ... they track the AU clocks, whose neighborhood gap is
        1; globally the spread is bounded by the diameter."""
        rng = np.random.default_rng(23)
        topology = ring(6)
        inner = AlgLE(3)
        sync = Synchronizer(inner, 3)
        execution = Execution(
            topology,
            sync,
            uniform_configuration(sync, topology),
            ShuffledRoundRobinScheduler(),
            rng=rng,
        )
        pulses = [0] * topology.n
        while execution.completed_rounds < 60:
            for node, old, new in execution.step().changed:
                pulses[node] += sync.pulse_advanced(old, new)
        assert max(pulses) > 0
        assert max(pulses) - min(pulses) <= topology.diameter + 1
        turns = Configuration.from_function(
            topology, lambda v: execution.configuration[v].turn
        )
        assert is_good_graph(sync.unison, turns)
