"""The paper's proved invariants (Obs 2.1–2.9, Lem 2.10/2.11/2.16),
checked mechanically on randomized executions.

These are the load-bearing facts of the stabilization proof; a violation
in simulation would mean the implementation diverges from the paper.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.monitors import AlgAUInvariantMonitor
from repro.core.algau import ThinUnison, TransitionType
from repro.core.predicates import (
    edge_protected,
    is_good_graph,
    is_level_out_protected,
    is_out_protected_graph,
    is_protected_graph,
    protected_edges,
    unjustifiably_faulty_nodes,
)
from repro.core.turns import able, faulty
from repro.faults.injection import random_configuration
from repro.graphs.generators import complete_graph, damaged_clique, path, ring
from repro.model.configuration import Configuration
from repro.model.execution import Execution
from repro.model.scheduler import (
    RandomSubsetScheduler,
    ShuffledRoundRobinScheduler,
    SynchronousScheduler,
)
from repro.tasks.spec import check_au_liveness_counts


def run_with_invariant_monitor(topology, d, seed, rounds, scheduler):
    rng = np.random.default_rng(seed)
    alg = ThinUnison(d)
    initial = random_configuration(alg, topology, rng)
    monitor = AlgAUInvariantMonitor(alg)
    execution = Execution(
        topology, alg, initial, scheduler, rng=rng, monitors=(monitor,)
    )
    execution.run(max_rounds=rounds)
    return alg, execution


class TestInvariantMonitorOnExecutions:
    """Obs 2.3 (out-protection is closed), Lem 2.16 (no new
    unjustifiably faulty nodes after out-protection), Lem 2.10 (goodness
    is closed) on random executions.  The monitor raises on violation.
    """

    @pytest.mark.parametrize("seed", range(5))
    def test_sync_on_ring(self, seed):
        run_with_invariant_monitor(ring(6), 3, seed, 40, SynchronousScheduler())

    @pytest.mark.parametrize("seed", range(5))
    def test_async_on_clique(self, seed):
        run_with_invariant_monitor(
            complete_graph(5), 1, seed, 40, ShuffledRoundRobinScheduler()
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_random_subsets_on_path(self, seed):
        run_with_invariant_monitor(path(5), 4, seed, 40, RandomSubsetScheduler(0.6))


class TestObservation21:
    """Obs 2.1: a protected edge (not the {−k, k} seam) stays protected."""

    @pytest.mark.parametrize("seed", range(8))
    def test_protected_edges_persist(self, seed):
        rng = np.random.default_rng(seed)
        alg = ThinUnison(2)
        topology = damaged_clique(8, 2, rng)
        config = random_configuration(alg, topology, rng)
        execution = Execution(topology, alg, config, SynchronousScheduler(), rng=rng)
        k = alg.levels.k
        for _ in range(30):
            before = execution.configuration
            persisting = {
                (u, v)
                for (u, v) in protected_edges(alg, before)
                if {before[u].level, before[v].level} != {-k, k}
            }
            execution.step()
            after_protected = protected_edges(alg, execution.configuration)
            assert persisting <= after_protected


class TestObservation25:
    """Obs 2.5: endpoints of a non-protected edge move towards each
    other (lower endpoint never decreases, higher never increases,
    and they never cross)."""

    @pytest.mark.parametrize("seed", range(8))
    def test_gap_narrows(self, seed):
        rng = np.random.default_rng(seed)
        alg = ThinUnison(2)
        topology = damaged_clique(8, 2, rng)
        config = random_configuration(alg, topology, rng)
        execution = Execution(topology, alg, config, SynchronousScheduler(), rng=rng)
        for _ in range(30):
            before = execution.configuration
            watched = [
                (u, v)
                for (u, v) in topology.edges
                if not edge_protected(alg, before, u, v)
                and before[u].level < before[v].level
            ]
            execution.step()
            after = execution.configuration
            for u, v in watched:
                assert before[u].level <= after[u].level
                assert after[u].level < after[v].level
                assert after[v].level <= before[v].level


class TestObservation26:
    """Obs 2.6: ℓ-out-protectedness is closed under steps."""

    @pytest.mark.parametrize("seed", range(6))
    def test_level_out_protection_persists(self, seed):
        rng = np.random.default_rng(seed)
        alg = ThinUnison(1)
        topology = ring(5)
        config = random_configuration(alg, topology, rng)
        execution = Execution(
            topology, alg, config, ShuffledRoundRobinScheduler(), rng=rng
        )
        for _ in range(60):
            before = execution.configuration
            held = [
                level
                for level in alg.levels.levels
                if abs(level) >= 2
                and is_level_out_protected(alg, before, level)
            ]
            execution.step()
            after = execution.configuration
            for level in held:
                assert is_level_out_protected(alg, after, level), (
                    f"{level}-out-protection lost"
                )


class TestObservation28:
    """Obs 2.8: a fully protected graph occupies a contiguous φ-window
    of width ≤ D."""

    @pytest.mark.parametrize("seed", range(10))
    def test_protected_graph_is_contiguous(self, seed):
        rng = np.random.default_rng(seed)
        alg = ThinUnison(2)
        topology = damaged_clique(8, 2, rng)
        execution = Execution(
            topology,
            alg,
            random_configuration(alg, topology, rng),
            SynchronousScheduler(),
            rng=rng,
        )
        execution.run(
            max_rounds=5000,
            until=lambda e: is_protected_graph(alg, e.configuration),
        )
        config = execution.configuration
        assert is_protected_graph(alg, config)
        levels_present = {config[v].level for v in topology.nodes}
        # Some level ℓ reaches every other present level within D
        # forward steps.
        ls = alg.levels
        assert any(
            all(
                other in {ls.forward(base, j) for j in range(ls.diameter_bound + 1)}
                for other in levels_present
            )
            for base in levels_present
        )


class TestLemma210AND211:
    """Lem 2.10: goodness is closed.  Lem 2.11: after goodness, every
    node performs ≥ i AA transitions within D + i rounds."""

    @pytest.mark.parametrize(
        "topology_factory, d",
        [
            (lambda: complete_graph(6), 1),
            (lambda: ring(6), 3),
            (lambda: path(4), 3),
        ],
    )
    def test_liveness_after_goodness(self, topology_factory, d):
        rng = np.random.default_rng(99)
        topology = topology_factory()
        alg = ThinUnison(d)
        execution = Execution(
            topology,
            alg,
            random_configuration(alg, topology, rng),
            ShuffledRoundRobinScheduler(),
            rng=rng,
        )
        result = execution.run(
            max_rounds=20_000,
            until=lambda e: is_good_graph(alg, e.configuration),
        )
        assert result.stopped_by_predicate
        pulses = [0] * topology.n
        window = topology.diameter + 10
        target = execution.completed_rounds + window
        while execution.completed_rounds < target:
            for node, old, new in execution.step().changed:
                if alg.classify_change(old, new) is TransitionType.AA:
                    pulses[node] += 1
        assert is_good_graph(alg, execution.configuration)  # Lem 2.10
        # Lem 2.11 with i = window - D; one round of slack because the
        # counting window starts mid-round (the ϱ operator from an
        # arbitrary time t reaches the next boundary late).
        assert check_au_liveness_counts(pulses, window - 1, d).valid


class TestLemma218:
    """Lem 2.18: once justified, protected implies good — verified as:
    any protected configuration reached from far along an execution has
    no faulty nodes."""

    @pytest.mark.parametrize("seed", range(6))
    def test_protected_implies_good_eventually(self, seed):
        rng = np.random.default_rng(seed)
        alg = ThinUnison(2)
        topology = damaged_clique(7, 2, rng)
        execution = Execution(
            topology,
            alg,
            random_configuration(alg, topology, rng),
            SynchronousScheduler(),
            rng=rng,
        )
        execution.run(
            max_rounds=20_000,
            until=lambda e: is_protected_graph(alg, e.configuration)
            and is_out_protected_graph(alg, e.configuration)
            and not unjustifiably_faulty_nodes(alg, e.configuration),
        )
        config = execution.configuration
        if is_protected_graph(alg, config):
            assert is_good_graph(alg, config)


class TestHandCraftedScenarios:
    """Targeted micro-scenarios for the closing-the-gap mechanics."""

    def test_two_node_discrepancy_resolves_inwards(self):
        """A torn edge (levels 2 vs -2) must meet at {−1, 1}."""
        import networkx as nx
        from repro.graphs.topology import Topology

        topology = Topology(nx.path_graph(2))
        alg = ThinUnison(1)
        config = Configuration(topology, {0: able(3), 1: able(-3)})
        rng = np.random.default_rng(0)
        execution = Execution(topology, alg, config, SynchronousScheduler(), rng=rng)
        result = execution.run(
            max_rounds=200,
            until=lambda e: is_good_graph(alg, e.configuration),
        )
        assert result.stopped_by_predicate

    def test_faulty_relay_propagates_inwards(self):
        """Sensing ψ-1(ℓ)̂ pulls a node into the detour (Lem 2.12's
        relay): 2̂ at one end of a path infects the 3-level node."""
        import networkx as nx
        from repro.graphs.topology import Topology

        topology = Topology(nx.path_graph(2))
        alg = ThinUnison(1)
        config = Configuration(topology, {0: faulty(2), 1: able(3)})
        rng = np.random.default_rng(0)
        execution = Execution(topology, alg, config, SynchronousScheduler(), rng=rng)
        execution.step()
        assert execution.configuration[1] == faulty(3)
