"""Unit-speed flooding, the growth-rate fact behind the AlgLE/AlgMIS
epochs (``D + 1`` rounds reach everyone), checked on the synchronous
max-identifier flood of :class:`~repro.baselines.id_flood_le.IDFloodLE`.

Under the synchronous daemon a node's ``best`` after ``r`` rounds is the
maximum identifier over its ``r``-ball ``B(v, r)``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.id_flood_le import FloodState, IDFloodLE
from repro.graphs.generators import (
    complete_graph,
    grid,
    path,
    ring,
    star,
)
from repro.model.configuration import Configuration
from repro.model.execution import Execution
from repro.model.scheduler import SynchronousScheduler


def seeded_configuration(topology, identifiers):
    """Every node starts with ``best`` equal to its own identifier."""
    return Configuration.from_function(
        topology, lambda v: FloodState(identifiers[v], identifiers[v])
    )


def run_rounds(topology, identifiers, rounds, bound=None, seed=0):
    algorithm = IDFloodLE(bound if bound is not None else topology.n)
    execution = Execution(
        topology,
        algorithm,
        seeded_configuration(topology, identifiers),
        SynchronousScheduler(),
        rng=np.random.default_rng(seed),
    )
    execution.run(max_rounds=rounds)
    return execution


def best_of(execution):
    configuration = execution.configuration
    return {v: configuration[v].best for v in execution.topology.nodes}


class TestMaxFlood:
    def test_radius_grows_one_hop_per_round(self):
        """The exact growth-rate fact the D+1-round epochs rely on."""
        topology = path(6)
        identifiers = {v: v for v in topology.nodes}  # node 5 holds the max
        for rounds in range(6):
            best = best_of(run_rounds(topology, identifiers, rounds))
            for v in topology.nodes:
                expected = topology.distance(5, v) <= rounds
                assert (best[v] == 5) == expected, (rounds, v)

    def test_diameter_rounds_reach_everyone(self):
        for topology in (ring(7), star(6), grid(3, 3), complete_graph(5)):
            identifiers = {v: (v + 3) % topology.n for v in topology.nodes}
            execution = run_rounds(topology, identifiers, topology.diameter)
            assert set(best_of(execution).values()) == {topology.n - 1}

    def test_flooded_configuration_is_silent(self):
        topology = ring(6)
        identifiers = {v: v for v in topology.nodes}
        execution = run_rounds(topology, identifiers, topology.diameter)
        for _ in range(10 * topology.n):
            assert execution.step().changed == ()
        assert set(best_of(execution).values()) == {topology.n - 1}

    def test_multiple_sources_union(self):
        topology = path(7)
        identifiers = {0: 9, 1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 6: 9}
        best = best_of(run_rounds(topology, identifiers, 2, bound=10))
        reached = {v for v in topology.nodes if best[v] == 9}
        assert reached == {0, 1, 2, 4, 5, 6}

    def test_identifiers_never_change(self):
        topology = ring(5)
        identifiers = {v: (2 * v) % 5 for v in topology.nodes}
        execution = run_rounds(topology, identifiers, 8)
        for v in topology.nodes:
            assert execution.configuration[v].identifier == identifiers[v]


class TestBallMaximum:
    def test_max_propagates_at_unit_speed(self):
        topology = path(5)
        identifiers = {0: 3, 1: 0, 2: 7, 3: 0, 4: 5}
        best = best_of(run_rounds(topology, identifiers, 2, bound=9))
        # After 2 rounds each node holds the max over its 2-ball.
        for v in topology.nodes:
            ball = topology.ball(v, 2)
            assert best[v] == max(identifiers[u] for u in ball)

    def test_global_max_after_diameter_rounds(self):
        topology = grid(3, 4)
        rng = np.random.default_rng(0)
        identifiers = {v: int(rng.integers(10)) for v in topology.nodes}
        execution = run_rounds(topology, identifiers, topology.diameter, bound=10)
        global_max = max(identifiers.values())
        assert set(best_of(execution).values()) == {global_max}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 1000), rounds=st.integers(0, 6))
def test_property_flood_equals_ball_max_on_a_ring(seed, rounds):
    """best(v) after r rounds == max identifier over B(v, r)."""
    rng = np.random.default_rng(seed)
    topology = ring(8)
    identifiers = {v: int(rng.integers(8)) for v in topology.nodes}
    best = best_of(run_rounds(topology, identifiers, rounds, bound=8, seed=seed))
    for v in topology.nodes:
        assert best[v] == max(identifiers[u] for u in topology.ball(v, rounds))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 1000), rounds=st.integers(0, 5))
def test_property_flood_equals_ball_max_on_a_path(seed, rounds):
    rng = np.random.default_rng(seed)
    topology = path(7)
    identifiers = {v: int(rng.integers(8)) for v in topology.nodes}
    best = best_of(run_rounds(topology, identifiers, rounds, bound=8, seed=seed))
    for v in topology.nodes:
        assert best[v] == max(identifiers[u] for u in topology.ball(v, rounds))
