"""Task specifications and output verifiers (repro.tasks.spec)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.luby_mis import IDGreedyMIS, IDState
from repro.core.clock import CyclicClock
from repro.graphs.generators import complete_graph, path, ring, star
from repro.model.configuration import Configuration
from repro.model.errors import ModelError
from repro.model.execution import Execution
from repro.model.scheduler import SynchronousScheduler
from repro.tasks.spec import (
    check_au_liveness_counts,
    check_au_safety,
    check_au_update_is_pulse,
    check_le_output,
    check_mis_output,
)


class TestCyclicClock:
    def test_arithmetic(self):
        clock = CyclicClock(10)
        assert clock.plus(9) == 0
        assert clock.minus(0) == 9
        assert clock.plus(3, 4) == 7

    def test_distance_and_adjacency(self):
        clock = CyclicClock(10)
        assert clock.distance(0, 9) == 1
        assert clock.distance(2, 7) == 5
        assert clock.adjacent(0, 9)
        assert not clock.adjacent(0, 2)

    def test_increment_is_plus_one(self):
        clock = CyclicClock(10)
        assert clock.increment_is_plus_one(9, 0)
        assert not clock.increment_is_plus_one(0, 9)
        assert not clock.increment_is_plus_one(3, 5)

    def test_order_validation(self):
        with pytest.raises(ModelError):
            CyclicClock(1)


class TestAUSafety:
    def test_adjacent_clocks_pass(self):
        topology = path(3)
        group = CyclicClock(10)
        assert check_au_safety(topology, [4, 5, 5], group).valid

    def test_wraparound_adjacency_passes(self):
        topology = path(2)
        group = CyclicClock(10)
        assert check_au_safety(topology, [9, 0], group).valid

    def test_gap_fails(self):
        topology = path(2)
        group = CyclicClock(10)
        verdict = check_au_safety(topology, [3, 5], group)
        assert not verdict.valid
        assert "violates safety" in verdict.reason

    def test_missing_output_fails(self):
        topology = path(2)
        group = CyclicClock(10)
        assert not check_au_safety(topology, [3, None], group).valid

    def test_update_is_pulse(self):
        group = CyclicClock(10)
        assert check_au_update_is_pulse(group, 3, 4).valid
        assert check_au_update_is_pulse(group, 3, 3).valid
        assert check_au_update_is_pulse(group, 9, 0).valid
        assert not check_au_update_is_pulse(group, 3, 5).valid
        assert not check_au_update_is_pulse(group, 3, 2).valid

    def test_liveness_counts(self):
        assert check_au_liveness_counts([5, 6, 7], 8, diameter=3).valid
        verdict = check_au_liveness_counts([5, 4, 7], 8, diameter=3)
        assert not verdict.valid
        assert "node 1" in verdict.reason
        # Windows shorter than the diameter are vacuous.
        assert check_au_liveness_counts([0, 0], 2, diameter=3).valid


class TestLEVerifier:
    def test_exactly_one_leader(self):
        assert check_le_output([0, 1, 0]).valid

    def test_zero_leaders(self):
        assert not check_le_output([0, 0, 0]).valid

    def test_two_leaders(self):
        verdict = check_le_output([1, 0, 1])
        assert not verdict.valid
        assert "[0, 2]" in verdict.reason

    def test_missing_output(self):
        assert not check_le_output([1, None, 0]).valid

    def test_non_binary_output(self):
        assert not check_le_output([1, 2, 0]).valid


class TestMISVerifier:
    def test_valid_mis_on_path(self):
        topology = path(4)  # 0-1-2-3
        assert check_mis_output(topology, [1, 0, 1, 0]).valid
        assert check_mis_output(topology, [0, 1, 0, 1]).valid

    def test_adjacent_members_fail(self):
        topology = path(3)
        verdict = check_mis_output(topology, [1, 1, 0])
        assert not verdict.valid
        assert "both in MIS" in verdict.reason

    def test_non_maximal_fails(self):
        topology = path(4)
        verdict = check_mis_output(topology, [1, 0, 0, 0])
        assert not verdict.valid
        assert "not maximal" in verdict.reason

    def test_missing_output_fails(self):
        topology = path(2)
        assert not check_mis_output(topology, [1, None]).valid

    def test_star_center_alone_is_valid(self):
        topology = star(6)
        center_only = [1] + [0] * 5
        assert check_mis_output(topology, center_only).valid
        leaves_only = [0] + [1] * 5
        assert check_mis_output(topology, leaves_only).valid

    def test_clique_needs_exactly_one(self):
        topology = complete_graph(4)
        assert check_mis_output(topology, [0, 0, 1, 0]).valid
        assert not check_mis_output(topology, [0, 0, 0, 0]).valid
        assert not check_mis_output(topology, [1, 0, 1, 0]).valid


def greedy_outputs(topology, identifiers):
    """The MIS that greedy-by-identifier picks: run the ID-greedy
    baseline from an all-undecided start until every node decides."""
    algorithm = IDGreedyMIS(max(identifiers.values()) + 1)
    execution = Execution(
        topology,
        algorithm,
        Configuration.from_function(
            topology, lambda v: IDState("U", identifiers[v])
        ),
        SynchronousScheduler(),
        rng=np.random.default_rng(0),
    )
    result = execution.run(
        max_rounds=topology.n + 1,
        until=lambda e: e.configuration.is_output_configuration(algorithm),
    )
    assert result.stopped_by_predicate
    return execution.configuration.output_vector(algorithm)


class TestGreedyOracle:
    @pytest.mark.parametrize(
        "topology_factory",
        [lambda: path(7), lambda: ring(8), lambda: complete_graph(5), lambda: star(6)],
        ids=["path7", "ring8", "k5", "star6"],
    )
    def test_greedy_mis_is_valid(self, topology_factory):
        topology = topology_factory()
        outputs = greedy_outputs(topology, {v: v for v in topology.nodes})
        assert check_mis_output(topology, outputs).valid
        # An MIS is flip-critical: dropping a member breaks maximality,
        # adding a non-member breaks independence.
        for v in topology.nodes:
            flipped = list(outputs)
            flipped[v] = 1 - flipped[v]
            assert not check_mis_output(topology, flipped).valid, v

    def test_greedy_respects_order(self):
        topology = path(3)
        chosen = greedy_outputs(topology, {0: 0, 1: 2, 2: 1})
        assert {v for v in topology.nodes if chosen[v]} == {1}
        chosen = greedy_outputs(topology, {0: 2, 1: 0, 2: 1})
        assert {v for v in topology.nodes if chosen[v]} == {0, 2}
