"""Unit and property tests for the level arithmetic of Sec. 2.2."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.levels import LevelSystem, k_for_diameter_bound
from repro.model.errors import ModelError


def levels_for(d: int) -> LevelSystem:
    return LevelSystem(d)


class TestParameters:
    def test_k_is_3d_plus_2(self):
        assert k_for_diameter_bound(1) == 5
        assert k_for_diameter_bound(2) == 8
        assert k_for_diameter_bound(10) == 32

    def test_rejects_nonpositive_diameter(self):
        with pytest.raises(ModelError):
            LevelSystem(0)

    def test_level_set(self):
        ls = levels_for(1)
        assert ls.levels == (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)
        assert ls.group_order == 10

    def test_zero_is_not_a_level(self):
        ls = levels_for(2)
        assert not ls.is_level(0)
        with pytest.raises(ModelError):
            ls.require_level(0)

    def test_out_of_range_is_not_a_level(self):
        ls = levels_for(1)
        assert not ls.is_level(6)
        assert not ls.is_level(-6)


class TestForwardOperator:
    def test_minus_one_wraps_to_one(self):
        ls = levels_for(2)
        assert ls.forward(-1) == 1

    def test_k_wraps_to_minus_k(self):
        ls = levels_for(2)
        assert ls.forward(ls.k) == -ls.k

    def test_ordinary_increment(self):
        ls = levels_for(2)
        assert ls.forward(3) == 4
        assert ls.forward(-4) == -3

    def test_backward_inverts_forward(self):
        ls = levels_for(3)
        for level in ls.levels:
            assert ls.backward(ls.forward(level)) == level

    def test_forward_power(self):
        ls = levels_for(1)
        # Walking 2k steps returns to the start.
        for level in ls.levels:
            assert ls.forward(level, ls.group_order) == level

    def test_forward_negative_exponent(self):
        ls = levels_for(2)
        for level in ls.levels:
            assert ls.forward(ls.forward(level, -3), 3) == level

    def test_full_cycle_visits_every_level(self):
        ls = levels_for(2)
        cursor = -ls.k
        visited = []
        for _ in range(ls.group_order):
            visited.append(cursor)
            cursor = ls.forward(cursor)
        assert sorted(visited) == sorted(ls.levels)
        assert cursor == -ls.k


class TestAdjacency:
    def test_self_adjacent(self):
        ls = levels_for(2)
        for level in ls.levels:
            assert ls.adjacent(level, level)

    def test_forward_neighbors_adjacent(self):
        ls = levels_for(2)
        for level in ls.levels:
            assert ls.adjacent(level, ls.forward(level))
            assert ls.adjacent(ls.forward(level), level)

    def test_two_apart_not_adjacent(self):
        ls = levels_for(2)
        for level in ls.levels:
            assert not ls.adjacent(level, ls.forward(level, 2))

    def test_wraparound_adjacency(self):
        ls = levels_for(1)
        assert ls.adjacent(ls.k, -ls.k)
        assert ls.adjacent(-1, 1)
        assert not ls.adjacent(-1, 2)

    @pytest.mark.parametrize(
        "ls",
        [LevelSystem(d) for d in range(1, 9)] + [LevelSystem(3, k=4)],
        ids=[f"D={d}" for d in range(1, 9)] + ["D=3,k=4"],
    )
    def test_adjacency_table_equals_the_definition(self, ls):
        table = ls.adjacency
        assert set(table) == set(ls.levels)
        for a in ls.levels:
            for b in ls.levels:
                assert (b in table[a]) == ls.adjacent(a, b), (a, b)

    def test_executions_share_the_level_systems_table(self):
        import numpy as np

        from repro.core.algau import ThinUnison
        from repro.faults.injection import random_configuration
        from repro.graphs.generators import ring
        from repro.model.execution import Execution
        from repro.model.scheduler import SynchronousScheduler

        algorithm = ThinUnison(2)
        topology = ring(6)
        initial = random_configuration(algorithm, topology, np.random.default_rng(0))
        table = algorithm.levels.adjacency
        executions = [
            Execution(topology, algorithm, initial, SynchronousScheduler())
            for _ in range(2)
        ]
        for execution in executions:
            execution.run(max_steps=5)
            execution.graph_is_good()
            assert execution._adjacency is table
        assert algorithm.levels.adjacency is table


class TestOutwardsOperator:
    def test_sign_preserved(self):
        ls = levels_for(2)
        assert ls.outwards(3, 2) == 5
        assert ls.outwards(-3, 2) == -5
        assert ls.outwards(3, -2) == 1
        assert ls.outwards(-3, -2) == -1

    def test_undefined_beyond_k(self):
        ls = levels_for(1)
        with pytest.raises(ModelError):
            ls.outwards(ls.k, 1)

    def test_undefined_through_zero(self):
        ls = levels_for(1)
        with pytest.raises(ModelError):
            ls.outwards(2, -2)

    def test_strictly_outwards(self):
        ls = levels_for(1)  # k = 5
        assert ls.strictly_outwards(3) == {4, 5}
        assert ls.strictly_outwards(-3) == {-4, -5}
        assert ls.strictly_outwards(5) == frozenset()

    def test_outwards_gg_drops_one_step(self):
        ls = levels_for(1)
        assert ls.outwards_gg(3) == {5}
        assert ls.outwards_gg(5) == frozenset()
        assert ls.outwards_gg(4) == frozenset()

    def test_outwards_ge_includes_self(self):
        ls = levels_for(1)
        assert ls.outwards_ge(4) == {4, 5}

    def test_strictly_inwards(self):
        ls = levels_for(1)
        assert ls.strictly_inwards(3) == {1, 2}
        assert ls.strictly_inwards(1) == frozenset()
        assert ls.strictly_inwards(-4) == {-1, -2, -3}

    def test_inwards_ll_drops_one_step(self):
        ls = levels_for(1)
        assert ls.inwards_ll(3) == {1}
        assert ls.inwards_ll(2) == frozenset()
        assert ls.inwards_ll(1) == frozenset()


class TestDistance:
    def test_distance_zero_iff_equal(self):
        ls = levels_for(2)
        for a in ls.levels:
            for b in ls.levels:
                assert (ls.distance(a, b) == 0) == (a == b)

    def test_distance_one_iff_forward_adjacent(self):
        ls = levels_for(1)
        for a in ls.levels:
            assert ls.distance(a, ls.forward(a)) == 1
            assert ls.distance(a, ls.backward(a)) == 1

    def test_symmetric(self):
        ls = levels_for(2)
        for a in ls.levels:
            for b in ls.levels:
                assert ls.distance(a, b) == ls.distance(b, a)

    def test_triangle_inequality(self):
        ls = levels_for(1)
        for a in ls.levels:
            for b in ls.levels:
                for c in ls.levels:
                    assert ls.distance(a, c) <= ls.distance(a, b) + ls.distance(b, c)

    def test_max_distance_is_k(self):
        ls = levels_for(2)
        assert (max(ls.distance(a, b) for a in ls.levels for b in ls.levels) == ls.k)

    def test_matches_recursive_definition(self):
        """Cross-check against the paper's recurrence on a small system."""
        ls = levels_for(1)

        def recursive(a: int, b: int, budget: int) -> int:
            if a == b:
                return 0
            if budget == 0:
                return 10**9
            return 1 + min(
                recursive(a, ls.backward(b), budget - 1),
                recursive(a, ls.forward(b), budget - 1),
            )

        for a in ls.levels:
            for b in ls.levels:
                assert ls.distance(a, b) == recursive(a, b, ls.k)

    @pytest.mark.parametrize("method", ["distance", "adjacent"])
    def test_rejects_non_levels_in_either_argument(self, method):
        ls = levels_for(2)
        check = getattr(ls, method)
        for bad in (0, ls.k + 1, -(ls.k + 1), 1.0):
            with pytest.raises(ModelError):
                check(bad, 1)
            with pytest.raises(ModelError):
                check(1, bad)


class TestClockIdentification:
    def test_bijection(self):
        ls = levels_for(3)
        clocks = [ls.clock_value(level) for level in ls.levels]
        assert sorted(clocks) == list(range(ls.group_order))
        for level in ls.levels:
            assert ls.level_of_clock(ls.clock_value(level)) == level

    def test_forward_is_plus_one(self):
        ls = levels_for(2)
        for level in ls.levels:
            assert (
                ls.clock_value(ls.forward(level))
                == (ls.clock_value(level) + 1) % ls.group_order
            )

    def test_clock_wraps(self):
        ls = levels_for(1)
        assert ls.level_of_clock(ls.group_order) == ls.level_of_clock(0)
        assert ls.level_of_clock(-1) == ls.level_of_clock(ls.group_order - 1)


@settings(max_examples=200)
@given(d=st.integers(1, 8), j=st.integers(-40, 40), data=st.data())
def test_property_forward_composition(d, j, data):
    """φ^{a+b} = φ^a ∘ φ^b for arbitrary integers."""
    ls = LevelSystem(d)
    level = data.draw(st.sampled_from(ls.levels))
    a = data.draw(st.integers(-20, 20))
    assert ls.forward(ls.forward(level, a), j) == ls.forward(level, a + j)


@settings(max_examples=200)
@given(d=st.integers(1, 8), data=st.data())
def test_property_distance_equals_min_walk(d, data):
    """dist(a, b) = min walk length along the φ cycle."""
    ls = LevelSystem(d)
    a = data.draw(st.sampled_from(ls.levels))
    steps = data.draw(st.integers(0, ls.group_order))
    b = ls.forward(a, steps)
    assert ls.distance(a, b) == min(steps, ls.group_order - steps)


@settings(max_examples=100)
@given(d=st.integers(1, 8), data=st.data())
def test_property_outwards_inverse(d, data):
    """ψ^{-j}(ψ^{j}(ℓ)) = ℓ whenever both sides are defined."""
    ls = LevelSystem(d)
    level = data.draw(st.sampled_from(ls.levels))
    j = data.draw(st.integers(-(abs(level) - 1), ls.k - abs(level)))
    assert ls.outwards(ls.outwards(level, j), -j) == level
