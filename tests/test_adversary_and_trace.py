"""The greedy adaptive adversary, and step records as a replayable trace."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core.algau import ThinUnison
from repro.core.predicates import is_good_graph
from repro.core.turns import able
from repro.faults.injection import au_sign_split, random_configuration
from repro.graphs.generators import complete_graph, damaged_clique, ring
from repro.model.adversary import GreedyAdversary, greedy_au_adversary
from repro.model.configuration import Configuration
from repro.model.errors import ScheduleError
from repro.model.execution import Execution
from repro.model.scheduler import ExplicitScheduler, ShuffledRoundRobinScheduler


class TestGreedyAdversary:
    def test_requires_binding(self):
        adversary = GreedyAdversary(lambda config: 0.0)
        with pytest.raises(ScheduleError):
            adversary.activations(0, (0, 1), np.random.default_rng(0))

    def test_rebinding_to_another_execution_raises(self):
        rng = np.random.default_rng(0)
        alg = ThinUnison(1)
        adversary = greedy_au_adversary(alg)
        topology = ring(5)
        Execution(
            topology,
            alg,
            random_configuration(alg, topology, rng),
            adversary,
            rng=rng,
        )
        other = ring(7)
        with pytest.raises(ScheduleError, match="already bound"):
            Execution(
                other,
                alg,
                random_configuration(alg, other, rng),
                adversary,
                rng=rng,
            )

    def test_is_fair_one_node_per_step_round_structure(self):
        rng = np.random.default_rng(0)
        alg = ThinUnison(1)
        topology = ring(5)
        adversary = greedy_au_adversary(alg)
        execution = Execution(
            topology,
            alg,
            random_configuration(alg, topology, rng),
            adversary,  # binds itself at construction — no attach() call
            rng=rng,
        )
        activated = []
        for _ in range(15):  # three rounds of five
            record = execution.step()
            (v,) = record.activated
            activated.append(v)
        for start in range(0, 15, 5):
            assert sorted(activated[start : start + 5]) == list(topology.nodes)

    @pytest.mark.parametrize("seed", range(4))
    def test_algau_stabilizes_despite_greedy_adversary(self, seed):
        """Thm 1.1 quantifies over all fair schedules — including an
        adaptive one-step-lookahead adversary."""
        rng = np.random.default_rng(seed)
        alg = ThinUnison(2)
        topology = damaged_clique(8, 2, rng)
        adversary = greedy_au_adversary(alg)
        execution = Execution(
            topology,
            alg,
            au_sign_split(alg, topology, rng),
            adversary,
            rng=rng,
        )
        result = execution.run(
            max_rounds=(3 * 2 + 2) ** 3,
            until=lambda e: is_good_graph(alg, e.configuration),
        )
        assert result.stopped_by_predicate

    def test_greedy_adversary_slows_stabilization(self):
        """The adversary should be at least as slow as a benign
        schedule on average (it maximizes disorder)."""
        alg = ThinUnison(1)
        greedy_rounds = []
        benign_rounds = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            topology = complete_graph(6)
            initial = au_sign_split(alg, topology, rng)

            adversary = greedy_au_adversary(alg)
            execution = Execution(
                topology, alg, initial, adversary, rng=np.random.default_rng(seed)
            )
            execution.run(
                max_rounds=2000,
                until=lambda e: is_good_graph(alg, e.configuration),
            )
            greedy_rounds.append(execution.completed_rounds)

            execution = Execution(
                topology,
                alg,
                initial,
                ShuffledRoundRobinScheduler(),
                rng=np.random.default_rng(seed),
            )
            execution.run(
                max_rounds=2000,
                until=lambda e: is_good_graph(alg, e.configuration),
            )
            benign_rounds.append(execution.completed_rounds)
        assert np.mean(greedy_rounds) >= np.mean(benign_rounds) - 1


class TestStepRecordTrace:
    def make_run(self, rounds=5):
        rng = np.random.default_rng(3)
        alg = ThinUnison(1)
        topology = ring(4)
        execution = Execution(
            topology,
            alg,
            Configuration.uniform(topology, able(1)),
            ShuffledRoundRobinScheduler(),
            rng=rng,
        )
        records = []
        while execution.completed_rounds < rounds:
            records.append(execution.step())
        return alg, topology, records, execution

    def test_records_cover_steps_and_rounds(self):
        _, _, records, execution = self.make_run()
        assert len(records) == execution.t
        assert sum(r.completed_round for r in records) == 5

    def test_activation_counts_fair(self):
        _, topology, records, _ = self.make_run()
        counts = Counter(v for r in records for v in r.activated)
        assert set(counts) == set(topology.nodes)
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_changes_of_node(self):
        _, _, records, _ = self.make_run()
        changes = [
            (old, new) for r in records for v, old, new in r.changed if v == 0
        ]
        assert changes  # node 0 advanced at least once
        for old, new in changes:
            assert old != new

    def test_schedule_replay_reproduces_deterministic_run(self):
        """Replaying a recorded schedule on the deterministic AlgAU
        reproduces the exact final configuration."""
        alg, topology, records, execution = self.make_run()
        replay = Execution(
            topology,
            alg,
            Configuration.uniform(topology, able(1)),
            ExplicitScheduler([r.activated for r in records]),
            rng=np.random.default_rng(999),  # rng is irrelevant: δ is pure
        )
        replay.run(max_steps=execution.t)
        assert replay.configuration == execution.configuration
