"""Analysis layer: the output monitor, stabilization measurement,
statistics and table rendering."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.analysis.monitors import OutputChangeMonitor
from repro.analysis.stabilization import (
    measure_au_stabilization,
    measure_static_task_stabilization,
)
from repro.analysis.stats import (
    Summary,
    geometric_max_statistics,
    loglog_slope,
    max_geometric_sample,
    ratio_to_log,
)
from repro.analysis.tables import render_table
from repro.core.algau import ThinUnison, TransitionType
from repro.core.predicates import good_nodes
from repro.faults.injection import random_configuration, uniform_configuration
from repro.graphs.generators import complete_graph, ring
from repro.model.execution import Execution
from repro.model.scheduler import ShuffledRoundRobinScheduler, SynchronousScheduler
from repro.tasks.le import AlgLE
from repro.tasks.spec import check_le_output


class TestSummaryAndFits:
    def test_summary(self):
        s = Summary.of([1, 2, 3, 4])
        assert s.mean == pytest.approx(2.5)
        assert s.median == pytest.approx(2.5)
        assert s.minimum == 1 and s.maximum == 4
        assert s.count == 4

    def test_summary_single_value(self):
        s = Summary.of([7])
        assert s.std == 0.0

    def test_summary_rejects_empty(self):
        with pytest.raises(ValueError):
            Summary.of([])

    def test_loglog_slope_cubic(self):
        xs = [1, 2, 4, 8]
        ys = [x**3 for x in xs]
        assert loglog_slope(xs, ys) == pytest.approx(3.0)

    def test_loglog_slope_needs_two_points(self):
        with pytest.raises(ValueError):
            loglog_slope([1], [1])

    def test_ratio_to_log(self):
        ratios = ratio_to_log([4, 16], [10, 20])
        assert ratios[0] == pytest.approx(5.0)
        assert ratios[1] == pytest.approx(5.0)

    def test_max_geometric_sample_grows_with_n(self):
        rng = np.random.default_rng(0)
        small = np.mean([max_geometric_sample(4, 0.5, rng) for _ in range(300)])
        large = np.mean([max_geometric_sample(256, 0.5, rng) for _ in range(300)])
        assert large > small + 3  # roughly log2(256/4) = 6 apart

    def test_geometric_max_statistics(self):
        s = geometric_max_statistics(64, 0.5, trials=200, seed=1)
        # E[max of 64 Geom(1/2)] ≈ log2(64) ± a couple.
        assert 4 < s.mean < 10


class TestMonitors:
    def test_synchronous_round_is_one_aa_pulse_per_node(self):
        rng = np.random.default_rng(0)
        alg = ThinUnison(1)
        topology = complete_graph(4)
        execution = Execution(
            topology,
            alg,
            uniform_configuration(alg, topology),
            SynchronousScheduler(),
            rng=rng,
        )
        pulses = [0] * topology.n
        while execution.completed_rounds < 5:
            for node, old, new in execution.step().changed:
                kind = alg.classify_change(old, new)
                assert kind is TransitionType.AA
                pulses[node] += 1
        assert sum(pulses) == 20  # 4 nodes × 5 rounds
        assert pulses[0] == 5

    def test_round_records_sample_a_predicate_once_per_round(self):
        """A per-round timeline of a predicate, sampled at the steps
        whose record closes a round, lands exactly on ``R(0..10)``."""
        rng = np.random.default_rng(0)
        alg = ThinUnison(1)
        topology = ring(5)
        execution = Execution(
            topology,
            alg,
            random_configuration(alg, topology, rng),
            ShuffledRoundRobinScheduler(),
            rng=rng,
        )
        timeline = [(0, execution.t, len(good_nodes(alg, execution.configuration)))]
        while execution.completed_rounds < 10:
            if execution.step().completed_round:
                good = len(good_nodes(alg, execution.configuration))
                timeline.append((execution.completed_rounds, execution.t, good))
        assert [r for r, _, _ in timeline] == list(range(11))
        boundaries = [execution.rounds.boundary(i) for i in range(11)]
        assert [t for _, t, _ in timeline] == boundaries
        # Shuffled round robin activates one node per step.
        assert boundaries == [5 * i for i in range(11)]

    def test_output_change_monitor(self):
        rng = np.random.default_rng(0)
        alg = AlgLE(1)
        topology = complete_graph(5)
        monitor = OutputChangeMonitor(alg)
        execution = Execution(
            topology,
            alg,
            uniform_configuration(alg, topology),
            SynchronousScheduler(),
            rng=rng,
            monitors=(monitor,),
        )
        execution.run(max_rounds=400)
        assert monitor.currently_complete or monitor.current_vector is not None

    def test_output_change_monitor_sees_out_of_band_mutations(self):
        """The monitor folds its vector forward from step records, but
        pokes/replacements happen outside the records — the state-epoch
        fallback must re-snapshot so corruption is never missed."""
        rng = np.random.default_rng(1)
        alg = AlgLE(1)
        topology = complete_graph(5)
        monitor = OutputChangeMonitor(alg)
        execution = Execution(
            topology,
            alg,
            uniform_configuration(alg, topology),
            SynchronousScheduler(),
            rng=rng,
            monitors=(monitor,),
        )
        execution.run(max_rounds=400, until=lambda e: monitor.currently_complete)
        assert monitor.currently_complete
        marker = monitor.last_change_time
        # Corrupt one node out-of-band (a non-output state) and step.
        execution.poke_states({0: alg.initial_state()})
        execution.step()
        expected = execution.configuration.is_output_configuration(alg)
        assert monitor.currently_complete == expected
        assert monitor.current_vector == execution.configuration.output_vector(alg)
        if not expected:
            assert monitor.last_change_time > marker

    @pytest.mark.parametrize("engine", ["object", "array", "replica-batch"])
    def test_output_change_monitor_poke_during_step(self, engine):
        """Regression: a poke landing in the *same* step as a tracked
        delta used to vanish — the epoch fallback re-snapshotted, saw a
        net-unchanged vector (the δ undid the poke), and never advanced
        ``last_change_time`` even though the output passed through a
        different value.  Construction: on K2 with node 0 masked, node 1
        settles one clock ahead of its frozen neighbor and stops; the
        intervention pokes it back to the start turn, and the very same
        step's AA transition re-advances it — output disturbed, net
        vector unchanged."""
        from repro.model.engine import create_execution

        alg = ThinUnison(1)
        topology = complete_graph(2)
        initial = uniform_configuration(alg, topology)
        start_state = initial[1]
        poke_at = 5

        def poke(execution):
            if execution.t == poke_at:
                execution.poke_states({1: start_state})
            return None

        monitor = OutputChangeMonitor(alg)
        execution = create_execution(
            topology,
            alg,
            initial,
            SynchronousScheduler(),
            rng=np.random.default_rng(0),
            monitors=(monitor,),
            intervention=poke,
            engine=engine,
        )
        execution.mask_nodes((0,))
        records = [execution.step() for _ in range(poke_at + 3)]
        # The construction holds: node 1 moves once at t=0, idles until
        # the poke step, and the poke step's record carries the
        # counter-acting delta.
        assert records[0].changed
        assert all(not r.changed for r in records[1:poke_at])
        assert records[poke_at].changed
        assert all(not r.changed for r in records[poke_at + 1 :])
        assert monitor.last_change_time == poke_at + 1


class TestStabilizationMeasurement:
    def test_au_measurement(self):
        rng = np.random.default_rng(0)
        alg = ThinUnison(1)
        topology = complete_graph(6)
        result = measure_au_stabilization(
            alg,
            topology,
            random_configuration(alg, topology, rng),
            SynchronousScheduler(),
            rng,
            max_rounds=2000,
            confirm_rounds=5,
        )
        assert result.stabilized
        assert result.rounds <= 125  # k^3 for D = 1

    def test_au_measurement_budget_exhaustion(self):
        rng = np.random.default_rng(0)
        alg = ThinUnison(1)
        topology = complete_graph(6)
        from repro.faults.injection import au_sign_split

        result = measure_au_stabilization(
            alg,
            topology,
            au_sign_split(alg, topology, rng),
            SynchronousScheduler(),
            rng,
            max_rounds=1,  # hopeless budget
        )
        assert not result.stabilized

    def test_static_measurement_le(self):
        rng = np.random.default_rng(0)
        alg = AlgLE(1)
        topology = complete_graph(6)
        result = measure_static_task_stabilization(
            alg,
            topology,
            uniform_configuration(alg, topology),
            SynchronousScheduler(),
            rng,
            lambda out: check_le_output(out).valid,
            max_rounds=30_000,
            confirm_rounds=20,
        )
        assert result.stabilized
        assert result.rounds > 0


class TestTables:
    def test_render_table(self):
        table = render_table(["a", "b"], [(1, "x"), (22, "yy")], title="T")
        assert "### T" in table
        assert "| a " in table
        assert "| 22 | yy |" in table

    def test_persist_table(self, tmp_path, monkeypatch):
        import repro.analysis.tables as tables_module

        monkeypatch.setattr(tables_module, "results_dir", lambda: str(tmp_path))
        path = tables_module.persist_table("unit-test", "content")
        assert os.path.exists(path)
        with open(path) as handle:
            assert handle.read().strip() == "content"
