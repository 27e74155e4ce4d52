"""Dynamic topology: deltas, churn processes, engine differentials and
re-stabilization analytics.

Covers the mutable-topology substrate end to end:

* :class:`~repro.graphs.dynamic.TopologyDelta` validation and
  :class:`~repro.graphs.dynamic.DynamicTopology` incremental semantics
  (tombstoned leaves, consecutive joins, patched metrics);
* :class:`~repro.graphs.dynamic.MutableCSR` splicing against a
  from-scratch rebuild;
* :class:`~repro.graphs.dynamic.ResolvedDelta` replay against applying
  the same :class:`~repro.faults.churn.ChurnProcess` stream, on the
  ``churn-phase`` colony families;
* :class:`~repro.faults.churn.ChurnProcess` determinism and
  internal-consistency invariants;
* engine differentials: object/array/native step-for-step under one
  churn stream, and the zero-noise net runtime against the sim lanes
  through :func:`~repro.campaigns.run_scenario`;
* the ``rewire`` fault plan's incremental path against the old
  rebuild-and-carry flow, plus the exact-delivery contract of
  :func:`~repro.faults.injection.perturb_topology`;
* :mod:`repro.analysis.restabilization` unit behavior and the churn
  scenario columns (``clean_fraction``, ``churn_events``,
  ``pulse_tightness``) they feed.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.restabilization import (
    RestabilizationTracker,
    churn_phase_boundary,
    pulse_tightness,
)
from repro.campaigns import FaultPlan, Scenario, run_scenario
from repro.campaigns.aggregate import MEASURED_COLUMNS, measured_payload
from repro.campaigns.registry import CHURN_GRAPHS, registry_names
from repro.core import algau_native
from repro.core.algau import ThinUnison
from repro.core.algau_native import NativeBackendError
from repro.core.turns import Turn
from repro.faults.churn import JOIN_DEGREE, ChurnProcess
from repro.faults.injection import (
    carry_configuration,
    perturb_topology,
    random_configuration,
)
from repro.graphs.dynamic import (
    DynamicTopology,
    MutableCSR,
    TopologyDelta,
    TopologyError,
    canonical_edge,
)
from repro.graphs.generators import complete_graph, make_graph, ring
from repro.graphs.properties import diameter, summary
from repro.model.engine import create_execution
from repro.model.errors import ModelError
from repro.model.native_engine import NativeExecution
from repro.model.scheduler import RoundRobinScheduler, SynchronousScheduler


def _delta_stream(topology, *, seed, steps, membership, algorithm=None):
    kwargs = dict(edge_add_rate=0.2, edge_remove_rate=0.2)
    if membership:
        kwargs.update(
            join_rate=0.15,
            leave_rate=0.15,
            initial_state=(algorithm or ThinUnison(2)).initial_state,
        )
    return list(ChurnProcess(topology, seed=seed, **kwargs).deltas(steps))


def _execution(engine, topology, algorithm, initial, scheduler=None, seed=0):
    return create_execution(
        topology,
        algorithm,
        initial,
        scheduler or SynchronousScheduler(),
        rng=np.random.default_rng(seed),
        engine=engine,
    )


def _states(execution):
    configuration = execution.configuration
    return tuple(configuration[v] for v in execution.topology.nodes)


class TestTopologyDelta:
    def test_edges_are_canonicalized(self):
        delta = TopologyDelta(add_edges=((3, 1),), remove_edges=((5, 2),))
        assert delta.add_edges == ((1, 3),)
        assert delta.remove_edges == ((2, 5),)

    def test_self_loops_are_rejected(self):
        with pytest.raises(TopologyError):
            canonical_edge(4, 4)
        with pytest.raises(TopologyError):
            TopologyDelta(add_edges=((2, 2),))

    def test_duplicate_and_conflicting_edges_are_rejected(self):
        with pytest.raises(TopologyError):
            TopologyDelta(add_edges=((1, 2), (2, 1)))
        with pytest.raises(TopologyError):
            TopologyDelta(remove_edges=((0, 1), (1, 0)))
        with pytest.raises(TopologyError):
            TopologyDelta(add_edges=((0, 1),), remove_edges=((1, 0),))

    def test_membership_conflicts_are_rejected(self):
        with pytest.raises(TopologyError):
            TopologyDelta(leave=(3, 3))
        with pytest.raises(TopologyError):
            TopologyDelta(
                join=((6, (0,), None), (6, (1,), None)), leave=()
            )
        with pytest.raises(TopologyError):
            TopologyDelta(join=((6, (0,), None),), leave=(6,))

    def test_emptiness(self):
        assert TopologyDelta().is_empty
        assert not TopologyDelta()
        assert TopologyDelta(add_edges=((0, 1),))


class TestDynamicTopology:
    def _dyn(self, n=6):
        return DynamicTopology(ring(n))

    def test_reads_match_the_base_topology(self):
        base = ring(6)
        dyn = self._dyn(6)
        assert dyn.n == base.n
        assert dyn.m == base.m
        assert dyn.nodes == base.nodes
        for v in base.nodes:
            assert dyn.neighbors(v) == base.neighbors(v)
            assert dyn.inclusive_neighbors(v) == base.inclusive_neighbors(v)
            assert dyn.degree(v) == base.degree(v)
        assert dyn.diameter == base.diameter
        assert dyn.version == 0

    def test_edge_add_and_remove_update_structure(self):
        dyn = self._dyn(6)
        applied = dyn.apply_delta(TopologyDelta(add_edges=((0, 3),)))
        assert applied.added_edges == ((0, 3),)
        assert applied.touched == (0, 3)
        assert dyn.has_edge(0, 3)
        assert dyn.m == 7
        assert dyn.version == 1
        dyn.apply_delta(TopologyDelta(remove_edges=((0, 3),)))
        assert not dyn.has_edge(0, 3)
        assert dyn.m == 6
        assert dyn.version == 2

    def test_leave_tombstones_without_renumbering(self):
        dyn = self._dyn(6)
        applied = dyn.apply_delta(TopologyDelta(leave=(2,)))
        assert applied.left == (2,)
        assert set(applied.removed_edges) == {(1, 2), (2, 3)}
        assert dyn.left_nodes == frozenset({2})
        assert dyn.alive_nodes == (0, 1, 3, 4, 5)
        assert dyn.n == 6  # ids never shrink
        assert dyn.degree(2) == 0
        assert dyn.inclusive_neighbors(2) == (2,)
        assert dyn.is_connected()  # the alive part is the path 1-0-5-4-3

    def test_join_semantics_and_id_discipline(self):
        dyn = self._dyn(4)
        state = object()
        applied = dyn.apply_delta(TopologyDelta(join=((4, (0, 2), state),)))
        assert applied.joined == ((4, state),)
        assert dyn.n == 5
        assert dyn.neighbors(4) == (0, 2)
        assert dyn.has_edge(0, 4) and dyn.has_edge(2, 4)
        with pytest.raises(TopologyError):  # ids must be consecutive
            dyn.apply_delta(TopologyDelta(join=((9, (0,), state),)))
        with pytest.raises(TopologyError):  # at least one attachment
            dyn.apply_delta(TopologyDelta(join=((5, (), state),)))

    def test_invalid_deltas_are_rejected_atomically(self):
        dyn = self._dyn(6)
        with pytest.raises(TopologyError):
            dyn.apply_delta(TopologyDelta(remove_edges=((0, 3),)))  # absent
        with pytest.raises(TopologyError):
            dyn.apply_delta(TopologyDelta(add_edges=((0, 1),)))  # existing
        with pytest.raises(TopologyError):
            dyn.apply_delta(
                TopologyDelta(remove_edges=((1, 2),), leave=(2,))
            )  # leave-incident edges are implicit
        dyn.apply_delta(TopologyDelta(leave=(2,)))
        with pytest.raises(TopologyError):
            dyn.apply_delta(TopologyDelta(add_edges=((2, 4),)))  # tombstone
        with pytest.raises(TopologyError):
            dyn.apply_delta(TopologyDelta(leave=(2,)))  # already left

    def test_metrics_follow_mutations(self):
        dyn = self._dyn(8)
        assert dyn.diameter == 4
        dyn.apply_delta(TopologyDelta(add_edges=((0, 4), (2, 6))))
        assert dyn.diameter == 3  # the two crossing chords shrink the ring
        assert dyn.distance(0, 4) == 1
        assert dyn.ball(0, 1) == frozenset({0, 1, 4, 7})
        with pytest.raises(TopologyError):
            dyn.check_diameter_bound(2)

    def test_csr_stays_in_sync_with_rows(self):
        dyn = self._dyn(6)
        csr = dyn.inclusive_csr()
        deltas = [
            TopologyDelta(add_edges=((0, 2), (1, 4))),
            TopologyDelta(leave=(5,)),
            TopologyDelta(join=((6, (0, 3), None),)),
            TopologyDelta(remove_edges=((0, 2),)),
        ]
        for delta in deltas:
            dyn.apply_delta(delta)
            rebuilt = MutableCSR.from_rows(
                [list(dyn.inclusive_neighbors(v)) for v in dyn.nodes]
            )
            assert csr is dyn.inclusive_csr()  # patched in place
            assert np.array_equal(csr.indptr, rebuilt.indptr)
            assert np.array_equal(csr.indices, rebuilt.indices)


class TestMutableCSR:
    def test_patch_matches_from_scratch_rebuild(self):
        rows = [[0, 1, 2], [1, 0], [2, 0, 3], [3, 2]]
        csr = MutableCSR.from_rows(rows)
        rows[1] = [1, 0, 2, 3]
        rows[3] = [3]
        rows.append([4, 0, 1])
        csr.patch({1: rows[1], 3: rows[3]}, appended=[rows[4]])
        rebuilt = MutableCSR.from_rows(rows)
        assert np.array_equal(csr.indptr, rebuilt.indptr)
        assert np.array_equal(csr.indices, rebuilt.indices)
        assert np.array_equal(csr.row_index, rebuilt.row_index)

    def test_buffer_growth_preserves_contents(self):
        rows = [[v] for v in range(4)]
        csr = MutableCSR.from_rows(rows)
        # Repeatedly widen one row far past the initial slack.
        for width in (8, 32, 128):
            rows[2] = [2] + list(range(100, 100 + width))
            csr.patch({2: rows[2]})
            rebuilt = MutableCSR.from_rows(rows)
            assert np.array_equal(csr.indptr, rebuilt.indptr)
            assert np.array_equal(csr.indices, rebuilt.indices)

    def test_empty_patch_is_a_no_op(self):
        csr = MutableCSR.from_rows([[0, 1], [1, 0]])
        indptr, indices = csr.indptr.copy(), csr.indices.copy()
        csr.patch({})
        assert np.array_equal(csr.indptr, indptr)
        assert np.array_equal(csr.indices, indices)


def _churn_graph(graph, seed):
    family, params, _ = graph
    return make_graph(family, np.random.default_rng(seed), **dict(params))


def _churn_stream(topology, *, seed, rate, membership, steps):
    """A ``churn-phase``-style stream: ``rate`` split evenly between the
    two event kinds of the regime, ``None`` on quiet steps."""
    half = rate / 2.0
    if membership:
        rates = dict(
            join_rate=half, leave_rate=half, initial_state=ThinUnison(2).initial_state
        )
    else:
        rates = dict(edge_add_rate=half, edge_remove_rate=half)
    return list(ChurnProcess(topology, seed=seed, **rates).deltas(steps))


def _churn_deltas(topology, **stream):
    """The non-empty deltas of :func:`_churn_stream`."""
    return [delta for delta in _churn_stream(topology, **stream) if delta is not None]


def _assert_same_topology(got, want):
    assert got._rows == want._rows
    assert got.left_nodes == want.left_nodes
    assert (got.n, got.m, got.version, got.nodes) == (
        want.n,
        want.m,
        want.version,
        want.nodes,
    )
    assert got.edges == want.edges
    got_csr, want_csr = got.inclusive_csr(), want.inclusive_csr()
    for name in ("indptr", "indices", "row_index"):
        assert np.array_equal(getattr(got_csr, name), getattr(want_csr, name)), name
    assert got_csr.neighbor_lists() is got._rows


class TestResolvedReplay:
    """One topology resolves a stream; another, on the same base graph,
    replays it and must end up exactly where applying the stream puts a
    third."""

    @settings(max_examples=30, deadline=None)
    @given(
        graph=st.sampled_from(CHURN_GRAPHS),
        membership=st.booleans(),
        rate=st.floats(min_value=0.05, max_value=4.0),
        seed=st.integers(min_value=0, max_value=2**16),
        prefix=st.integers(min_value=0, max_value=40),
        built=st.booleans(),
    )
    def test_replay_matches_apply(self, graph, membership, rate, seed, prefix, built):
        """``prefix`` deltas replay, the rest apply as plain deltas on
        top of the adopted arrays; ``built`` says whether the replaying
        topology has its CSR before the stream (the array lanes) or
        builds it lazily afterwards (the object lane)."""
        base = _churn_graph(graph, seed)
        deltas = _churn_deltas(
            base, seed=seed, rate=rate, membership=membership, steps=40
        )
        # The whole stream resolves first, as the runner's does.
        resolver = DynamicTopology(base)
        stream = [resolver.resolve(delta) for delta in deltas[:prefix]]
        applied, replayed = DynamicTopology(base), DynamicTopology(base)
        applied.inclusive_csr()
        if built:
            replayed.inclusive_csr()
        for i, delta in enumerate(deltas):
            want = applied.apply_delta(delta)
            if i < prefix:
                resolved = stream[i]
                assert resolved.version == i and resolved.base is base
                assert replayed.replay(resolved) == want
            else:
                assert replayed.apply_delta(delta) == want
            if built:
                _assert_same_topology(replayed, applied)
        _assert_same_topology(replayed, applied)

    def _resolved(self, base, count=2):
        deltas = _churn_deltas(base, seed=3, rate=1.0, membership=True, steps=40)
        resolver = DynamicTopology(base)
        return [resolver.resolve(delta) for delta in deltas[:count]]

    def test_replay_out_of_order_raises(self):
        base = _churn_graph(CHURN_GRAPHS[0], 3)
        first, second = self._resolved(base)
        dyn = DynamicTopology(base)
        with pytest.raises(TopologyError):
            dyn.replay(second)
        dyn.replay(first)
        with pytest.raises(TopologyError):
            dyn.replay(first)  # already past it
        assert dyn.version == 1
        dyn.replay(second)
        assert dyn.version == 2

    def test_replay_onto_another_base_graph_raises(self):
        base = _churn_graph(CHURN_GRAPHS[1], 3)
        (first,) = self._resolved(base, count=1)
        twin = _churn_graph(CHURN_GRAPHS[1], 3)  # equal graph, other object
        assert twin.edges == base.edges
        with pytest.raises(TopologyError):
            DynamicTopology(twin).replay(first)
        algorithm = ThinUnison(2)
        start = random_configuration(algorithm, twin, np.random.default_rng(0))
        lane = _execution("array", twin, algorithm, start)
        with pytest.raises(TopologyError):
            lane.mutate_topology(first)

    @pytest.mark.parametrize("backend", ["python", "cc", "numba"])
    def test_lanes_step_alike_on_one_resolution(self, backend):
        """The object, array and native lanes replay one resolved stream
        and step like an object lane that applies it plain, so the
        numpy δ and each native backend run on the adopted read-only
        arrays."""
        try:
            kernels = algau_native._BUILDERS[backend]()
        except (ImportError, OSError, NativeBackendError):
            pytest.skip(f"the {backend} backend is unavailable")
        algorithm = ThinUnison(2)
        base = _churn_graph(CHURN_GRAPHS[1], 7)
        start = random_configuration(algorithm, base, np.random.default_rng(7))
        stream = _churn_stream(base, seed=7, rate=1.0, membership=True, steps=60)
        resolver = DynamicTopology(base)
        reference = _execution("object", base, algorithm, start)
        lanes = [_execution(e, base, algorithm, start) for e in ("object", "array")]
        # The compiled kernel is built during construction, from the
        # resolved backend.
        with mock.patch.object(algau_native, "_RESOLVED", kernels):
            native = NativeExecution(base, algorithm, start, SynchronousScheduler())
        assert native._native.backend is kernels
        lanes.append(native)
        for step, delta in enumerate(stream):
            if delta is not None:
                reference.mutate_topology(delta)
                resolved = resolver.resolve(delta)
                for lane in lanes:
                    lane.mutate_topology(resolved)
            reference.step()
            for lane in lanes:
                lane.step()
                assert _states(lane) == _states(reference), (type(lane), step)
                assert lane.graph_is_good() == reference.graph_is_good()

    def test_stored_arrays_are_read_only(self):
        base = _churn_graph(CHURN_GRAPHS[2], 5)
        for resolved in self._resolved(base):
            for array in (resolved.indptr, resolved.indices, resolved.row_index):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 1


class TestChurnProcess:
    def test_same_seed_same_stream(self):
        algorithm = ThinUnison(2)
        topology = make_graph("hub-colony", np.random.default_rng(1), n=24)
        streams = [
            _delta_stream(
                topology, seed=55, steps=60, membership=True, algorithm=algorithm
            )
            for _ in range(2)
        ]
        def key(d):
            if d is None:
                return None
            return (
                d.add_edges,
                d.remove_edges,
                tuple((v, hood) for v, hood, _ in d.join),
                d.leave,
            )

        assert [key(d) for d in streams[0]] == [key(d) for d in streams[1]]
        assert any(d is not None for d in streams[0])

    def test_high_rate_stream_applies_cleanly(self):
        # Regression: a step's additions must never re-add an edge the
        # same step removed (the mirror already reflects the removal, so
        # only the delta-level exclusion prevents it).
        algorithm = ThinUnison(2)
        topology = make_graph("hub-colony", np.random.default_rng(2), n=20)
        churn = ChurnProcess(
            topology,
            seed=7,
            edge_add_rate=3.0,
            edge_remove_rate=3.0,
            join_rate=1.0,
            leave_rate=1.0,
            initial_state=algorithm.initial_state,
        )
        dyn = DynamicTopology(topology)
        applied_events = 0
        for delta in churn.deltas(40):
            if delta is None:
                continue
            applied = dyn.apply_delta(delta)  # raises on inconsistency
            applied_events += (
                len(delta.add_edges)
                + len(delta.remove_edges)
                + len(delta.join)
                + len(delta.leave)
            )
        assert applied_events == churn.events > 0
        assert dyn.is_connected() or dyn.left_nodes

    def test_mirror_tracks_the_applied_graph(self):
        topology = ring(10)
        churn = ChurnProcess(topology, seed=3, edge_add_rate=1.0, edge_remove_rate=1.0)
        dyn = DynamicTopology(topology)
        for delta in churn.deltas(30):
            if delta is not None:
                dyn.apply_delta(delta)
        assert churn.edge_count == dyn.m
        assert churn.alive_count == len(dyn.alive_nodes)

    def test_leaves_and_removals_never_disconnect_the_alive_part(self):
        # A removal- and leave-heavy stream on a ring: nearly every
        # candidate would cut the graph, so only the connectivity check
        # keeps it whole, and it must hold after every delta.
        algorithm = ThinUnison(2)
        churn = ChurnProcess(
            ring(12),
            seed=5,
            edge_add_rate=0.3,
            edge_remove_rate=2.0,
            join_rate=0.3,
            leave_rate=1.0,
            initial_state=algorithm.initial_state,
        )
        dyn = DynamicTopology(ring(12))
        removals = 0
        for delta in churn.deltas(80):
            if delta is None:
                continue
            dyn.apply_delta(delta)
            removals += len(delta.remove_edges) + len(delta.leave)
            assert dyn.is_connected()
        assert removals > 0
        assert churn.skipped_events > 0

    def test_joins_attach_to_join_degree_alive_nodes(self):
        algorithm = ThinUnison(2)
        topology = make_graph("hub-colony", np.random.default_rng(4), n=16)
        churn = ChurnProcess(
            topology,
            seed=9,
            join_rate=1.0,
            leave_rate=0.5,
            initial_state=algorithm.initial_state,
        )
        dyn = DynamicTopology(topology)
        joins = 0
        for delta in churn.deltas(40):
            if delta is None:
                continue
            alive = set(dyn.alive_nodes)
            for _, hood, state in delta.join:
                assert len(hood) == len(set(hood)) == JOIN_DEGREE
                assert set(hood) <= alive
                assert state == algorithm.initial_state()
                joins += 1
            dyn.apply_delta(delta)
        assert joins > 0

    def test_parameter_validation(self):
        topology = ring(5)
        with pytest.raises(ValueError):
            ChurnProcess(topology, seed=0, edge_add_rate=-1.0)
        with pytest.raises(ValueError):
            ChurnProcess(topology, seed=0, join_rate=0.5)  # no initial_state


class TestEngineChurnDifferential:
    @pytest.mark.parametrize("membership", [False, True], ids=["edges", "members"])
    def test_object_array_native_step_for_step(self, membership):
        algorithm = ThinUnison(2)
        topology = make_graph("hub-colony", np.random.default_rng(17), n=30, hubs=3)
        initial = random_configuration(algorithm, topology, np.random.default_rng(5))
        deltas = _delta_stream(
            topology, seed=23, steps=50, membership=membership, algorithm=algorithm
        )
        engines = ("object", "array", "native")
        lanes = {
            engine: _execution(engine, topology, algorithm, initial)
            for engine in engines
        }
        for step, delta in enumerate(deltas):
            for lane in lanes.values():
                if delta is not None:
                    lane.mutate_topology(delta)
                lane.step()
            reference = _states(lanes["object"])
            for engine in engines[1:]:
                assert _states(lanes[engine]) == reference, (engine, step)
        reference = lanes["object"]
        for engine in engines[1:]:
            assert lanes[engine].graph_is_good() == reference.graph_is_good()
            assert lanes[engine].topology_version == reference.topology_version
            assert lanes[engine].topology_version > 0

    @pytest.mark.parametrize("kind", ["churn", "membership"])
    def test_all_four_scenario_lanes_agree(self, kind):
        base = dict(
            campaign="t",
            index=0,
            task="au",
            graph="complete",
            graph_params=(("n", 6),),
            diameter_bound=1,
            scheduler="synchronous",
            start="random",
            seed=11,
            max_rounds=4000,
            faults=FaultPlan(kind=kind, rate=0.6, times=(30,)),
        )
        lanes = [
            Scenario(engine="object", **base),
            Scenario(engine="array", **base),
            Scenario(engine="native", **base),
            Scenario(engine="array", runtime="net", **base),
        ]
        results = [run_scenario(scenario) for scenario in lanes]
        reference = measured_payload(results[0])
        assert results[0].stabilized
        assert results[0].churn_events > 0
        assert 0.0 <= results[0].clean_fraction <= 1.0
        assert results[0].pulse_tightness is not None
        for result in results[1:]:
            assert measured_payload(result) == reference, result.engine


class TestRewireMutatePath:
    def _stabilized_lane(self, topology, algorithm, initial, seed):
        lane = create_execution(
            topology,
            algorithm,
            initial,
            RoundRobinScheduler(),
            rng=np.random.default_rng(seed),
            engine="array",
        )
        run = lane.run(max_rounds=4000, until=lambda e: e.graph_is_good())
        assert run.stopped_by_predicate
        return lane

    def test_incremental_rewire_matches_rebuild_and_carry(self):
        """The runner's mutate_topology + poke + reset_schedule rewire
        path reproduces the old rebuild-and-carry flow bit for bit
        (same rng consumption order, same scheduler restart)."""
        algorithm = ThinUnison(2)
        topology = make_graph("hub-colony", np.random.default_rng(3), n=20, hubs=2)
        initial = random_configuration(algorithm, topology, np.random.default_rng(9))

        incremental = self._stabilized_lane(topology, algorithm, initial, seed=77)
        pre_steps = incremental.t
        perturbation = perturb_topology(topology, incremental.rng, remove=2, add=2)
        incremental.mutate_topology(
            TopologyDelta(
                add_edges=perturbation.added, remove_edges=perturbation.removed
            )
        )
        touched = sorted(
            {v for edge in perturbation.removed + perturbation.added for v in edge}
        )
        incremental.poke_states(
            {v: algorithm.random_state(incremental.rng) for v in touched}
        )
        incremental.reset_schedule(RoundRobinScheduler())
        run = incremental.run(max_rounds=4000, until=lambda e: e.graph_is_good())
        assert run.stopped_by_predicate

        reference = self._stabilized_lane(topology, algorithm, initial, seed=77)
        ref_pert = perturb_topology(topology, reference.rng, remove=2, add=2)
        assert ref_pert.removed == perturbation.removed
        assert ref_pert.added == perturbation.added
        carried = carry_configuration(reference.configuration, ref_pert.topology)
        rebuilt = create_execution(
            ref_pert.topology,
            algorithm,
            carried,
            RoundRobinScheduler(),
            rng=reference.rng,
            engine="array",
        )
        rebuilt.poke_states(
            {v: algorithm.random_state(rebuilt.rng) for v in touched}
        )
        ref_run = rebuilt.run(max_rounds=4000, until=lambda e: e.graph_is_good())
        assert ref_run.stopped_by_predicate

        assert incremental.t == pre_steps + rebuilt.t
        for v in rebuilt.topology.nodes:
            assert incremental.state_of(v) == rebuilt.state_of(v), v

    def test_perturbation_is_delivered_exactly(self):
        # Bridge-heavy graph: two hubs joined by one bridge — removals
        # must route around the bridge, never under-deliver.
        rng = np.random.default_rng(13)
        topology = make_graph("hub-colony", rng, n=18, hubs=2)
        for seed in range(5):
            perturbation = perturb_topology(
                topology, np.random.default_rng(seed), remove=2, add=2
            )
            assert len(perturbation.removed) == 2
            assert len(perturbation.added) == 2
            assert not set(perturbation.removed) & set(perturbation.added)
            assert perturbation.topology.n == topology.n

    def test_unsatisfiable_perturbations_raise(self):
        # A ring cannot lose two edges and stay connected.
        with pytest.raises(ModelError):
            perturb_topology(ring(8), np.random.default_rng(0), remove=2, add=0)
        # A complete graph has no non-edges, and the just-removed edge
        # is off limits — exact delivery must raise, not silently re-add.
        with pytest.raises(ModelError):
            perturb_topology(
                complete_graph(5), np.random.default_rng(0), remove=1, add=1
            )


class TestRestabilizationAnalytics:
    def test_tracker_episode_lifecycle(self):
        tracker = RestabilizationTracker()
        assert tracker.mean_time() is None and tracker.max_time() is None
        tracker.on_step(0, good=True)  # good steps without events: no-op
        tracker.on_event(3)
        tracker.on_event(5)  # clustered event extends the open episode
        tracker.on_step(4, good=False)
        tracker.on_step(9, good=True)
        assert tracker.episodes == [(3, 9)]
        tracker.on_event(12)
        assert tracker.unresolved
        tracker.on_step(14, good=True)
        assert not tracker.unresolved
        assert tracker.times() == [6, 2]
        assert tracker.mean_time() == 4.0
        assert tracker.max_time() == 6

    def test_pulse_tightness_limits(self):
        algorithm = ThinUnison(2)
        group = algorithm.levels.group_order

        def turn_with_clock(clock):
            level = clock - group // 2
            if level >= 0:
                level += 1
            return Turn(level=level, faulty=False)

        # Perfect pulse: every clock equal.
        assert pulse_tightness(algorithm, [turn_with_clock(3)] * 4) == 0.0
        # A surviving faulty turn means no pulse at all.
        states = [turn_with_clock(0), Turn(level=2, faulty=True)]
        assert pulse_tightness(algorithm, states) == 1.0
        # Two adjacent clocks: minimal covering arc of length 1.
        states = [turn_with_clock(0), turn_with_clock(1)]
        assert pulse_tightness(algorithm, states) == pytest.approx(1.0 / group)
        # The arc is cyclic: clocks 0 and 2k-1 are adjacent too.
        states = [turn_with_clock(0), turn_with_clock(group - 1)]
        assert pulse_tightness(algorithm, states) == pytest.approx(1.0 / group)
        # Fully smeared clocks approach (but never reach) 1.
        states = [turn_with_clock(c) for c in range(group)]
        assert pulse_tightness(algorithm, states) == pytest.approx(
            (group - 1.0) / group
        )
        # Algorithms without a level system yield no measurement.
        assert pulse_tightness(object(), states) is None

    def test_phase_boundary_extraction(self):
        sweep = [(0.1, 1.0), (0.1, 0.9), (0.5, 0.8), (2.0, 0.2), (2.0, 0.1)]
        assert churn_phase_boundary(sweep) == pytest.approx(1.25)
        assert churn_phase_boundary([(0.1, 1.0), (0.5, 0.9)]) is None
        assert churn_phase_boundary([(0.1, 0.2), (0.5, 0.1)]) == pytest.approx(0.1)
        assert churn_phase_boundary([]) is None


class TestChurnScenarioSpec:
    def test_dynamic_plans_require_rate_and_window(self):
        with pytest.raises(ValueError):
            FaultPlan(kind="churn", times=(30,))  # no rate
        with pytest.raises(ValueError):
            FaultPlan(kind="membership", rate=0.5)  # no window
        with pytest.raises(ValueError):
            FaultPlan(kind="bursts", rate=0.5)  # rate is churn-only
        plan = FaultPlan(kind="churn", rate=0.5, times=(30,))
        assert plan.label == "churn(r=0.5,w=30)"

    def test_churn_phase_campaign_is_registered(self):
        assert "churn-phase" in registry_names()

    def test_churn_columns_are_measured(self):
        assert "churn_events" in MEASURED_COLUMNS
        assert "pulse_tightness" in MEASURED_COLUMNS


class TestPropertiesUnderChurn:
    def test_property_helpers_on_a_mutated_topology(self):
        base = ring(8)
        assert diameter(base) == 4
        assert base.diameter <= 4
        assert not base.diameter <= 3
        assert "n=8 m=8" in summary(base)
        dyn = DynamicTopology(base)
        dyn.apply_delta(TopologyDelta(add_edges=((0, 4), (2, 6))))
        assert dyn.diameter == 3  # properties track incremental edits
