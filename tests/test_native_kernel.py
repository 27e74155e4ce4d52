"""Differential validation of the compiled native kernel tier.

The ``native`` engine reroutes the kernel seams of the array tier —
batched δ, the full goodness scan, the round-sequence kernel, and the
replica lane's pair-goodness fold — to the CSR-walking kernels of
:mod:`repro.core.algau_native`.  Everything here checks the same
contract the array engine owes the object model: *bit identity*.
Three layers:

* kernel lanes — the pure-Python reference lane, the resolved compiled
  backend, the packed-signal ``delta_rows``, and the scalar
  ``delta_one`` must agree pointwise (property-tested on random codes
  over random inclusive-CSR neighborhoods); ``run_sequence`` adds the
  array tier's list kernel as a lane;
* engines — :class:`NativeExecution` must reproduce
  :class:`ArrayExecution` step for step across graphs, schedulers,
  and every fault regime (storms, Byzantine pokes, crash masks), the
  record-free ``advance()`` bulk path must land on the same state as
  the step loop, and both engines' whole-round
  ``run(until=graph_is_good)`` must equal the per-step run;
* plumbing — registry, CLI, fallback-when-unavailable, the frontier
  CSR builders, and the replica-batch lane.

Compiled-backend tests skip when no backend resolves (no numba, no C
compiler); the Python and list lanes keep the kernel logic covered
regardless, and the array engine's round path runs on every lane.
"""

from __future__ import annotations

import itertools
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.reset_tail_unison import ResetTailUnison
from repro.core import algau_native
from repro.core.algau import ThinUnison
from repro.core.algau_native import (
    NativeBackendError,
    NativeKernel,
    _PythonBackend,
    native_backend,
    native_backend_name,
)
from repro.core.turns import able, faulty
from repro.campaigns.spec import FaultPlan
from repro.faults.injection import (
    TransientFaultInjector,
    random_configuration,
    uniform_configuration,
)
from repro.graphs.csr import CSRAdjacency
from repro.graphs.dynamic import DynamicTopology, TopologyDelta
from repro.graphs.frontier import (
    FRONTIER_FAMILIES,
    frontier_colony,
    frontier_gnm,
    frontier_ring,
)
from repro.graphs.generators import damaged_clique, random_connected, ring
from repro.graphs.topology import Topology
from repro.model.array_engine import ArrayExecution
from repro.model.engine import (
    ENGINE_NAMES,
    Monitor,
    RunResult,
    create_execution,
    graph_is_good,
)
from repro.model.errors import TopologyError
from repro.model.native_engine import (
    NativeExecution,
    NativeReplicaBatchExecution,
    native_execution_class,
    replica_batch_execution_class,
)
from repro.model.replica_engine import ReplicaBatchExecution, ReplicaSpec
from repro.model.scheduler import (
    EnabledOnlyScheduler,
    LaggardScheduler,
    RandomSubsetScheduler,
    RoundRobinScheduler,
    ShuffledRoundRobinScheduler,
    SynchronousScheduler,
)

needs_backend = pytest.mark.skipif(
    native_backend() is None,
    reason="no native backend (numba not installed, no C compiler)",
)


# ----------------------------------------------------------------------
# Kernel-lane agreement (property-tested).
# ----------------------------------------------------------------------


def _random_inclusive_csr(rng: np.random.Generator, n: int) -> CSRAdjacency:
    """An arbitrary symmetric inclusive-CSR adjacency (connectivity not
    required — the kernels are row-local)."""
    upper = rng.random((n, n)) < rng.uniform(0.15, 0.7)
    adj = np.triu(upper, k=1)
    adj = adj | adj.T
    indptr = [0]
    indices = []
    for v in range(n):
        row = [v] + sorted(int(u) for u in np.flatnonzero(adj[v]))
        indices.extend(row)
        indptr.append(len(indices))
    return CSRAdjacency(
        np.asarray(indptr, dtype=np.int64), np.asarray(indices, dtype=np.int64)
    )


def _lanes(kernel):
    lanes = {"python": NativeKernel(kernel, backend=_PythonBackend())}
    if native_backend() is not None:
        lanes[native_backend_name()] = NativeKernel(kernel)
    return lanes


def _sequence_lanes(kernel):
    """The ``run_sequence`` lanes: the native ones plus the array tier's
    list kernel (:meth:`VectorKernel.run_sequence`), which needs no
    backend."""
    return {"list": kernel, **_lanes(kernel)}


def _churned(csr: CSRAdjacency) -> CSRAdjacency:
    """The :class:`MutableCSR` of ``csr`` as a dynamic topology, patched
    in place by one delta that tombstones node 0 (its row collapses to
    ``[0]``) and joins node ``n`` attached to up to three survivors."""
    n = csr.n
    base = SimpleNamespace(
        name="random",
        nodes=tuple(range(n)),
        m=(len(csr.indices) - n) // 2,
        inclusive_csr=lambda: csr,
    )
    dynamic = DynamicTopology(base)
    mutable = dynamic.inclusive_csr()
    dynamic.apply_delta(
        TopologyDelta(leave=(0,), join=((n, tuple(range(1, min(n, 4))), None),))
    )
    return mutable


@settings(max_examples=80, deadline=None)
@given(
    d=st.sampled_from([1, 2, 3, 4, 5, 11]),
    n=st.integers(min_value=1, max_value=11),
    algorithm_name=st.sampled_from(["algau", "algau-plain-af", "reset-tail"]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_delta_lanes_agree_property(d, n, algorithm_name, seed):
    """delta_one == delta_rows on packed signal words == python lane ==
    compiled lane on random codes over random inclusive neighborhoods:
    AlgAU tables of one to three words (|Q| = 18 … 138) and the
    reset-tail kernel, full calls and row subsets, on a frozen CSR and
    on a MutableCSR after a leave and a join."""
    rng = np.random.default_rng(seed)
    if algorithm_name == "reset-tail":
        algorithm = ResetTailUnison.for_diameter_bound(d)
    else:
        algorithm = ThinUnison(d, cautious_af=algorithm_name == "algau")
    kernel = algorithm.vector_kernel()
    lanes = {"packed": kernel}
    if isinstance(algorithm, ThinUnison):  # the compiled tables are AlgAU's
        lanes.update(_lanes(kernel))
    frozen = _random_inclusive_csr(rng, n)
    for csr in [frozen, _churned(frozen)] if n >= 2 else [frozen]:
        codes = rng.integers(0, algorithm.encoding.size, csr.n)
        scalar = np.array(
            [kernel.delta_one(codes, row) for row in csr.neighbor_lists()],
            dtype=np.int64,
        )
        # Partial row sets too — the incremental engines' call shape —
        # on both sides of the sparse-gather threshold.
        rows = np.flatnonzero(rng.random(csr.n) < rng.random()).astype(np.int64)
        for name, lane in lanes.items():
            assert np.array_equal(lane.delta_rows(codes, csr), scalar), name
            assert np.array_equal(
                lane.delta_rows(codes, csr, rows), scalar[rows]
            ), name


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=3),
    n=st.integers(min_value=2, max_value=10),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_goodness_and_fold_lanes_agree_property(d, n, seed):
    """goodness_counts and the pair fold agree across lanes, and the
    fold equals the brute-force goodness difference of the step."""
    rng = np.random.default_rng(seed)
    algorithm = ThinUnison(d)
    kernel = algorithm.vector_kernel()
    csr = _random_inclusive_csr(rng, n)
    codes = rng.integers(0, algorithm.encoding.size, n)
    expected_counts = kernel.goodness_counts(codes, csr)
    for name, lane in _lanes(kernel).items():
        assert lane.goodness_counts(codes, csr) == tuple(expected_counts), name

    # A synthetic step: activate a random subset, take its δ.
    new = kernel.delta_rows(codes, csr)
    new = np.where(rng.random(n) < 0.5, new, codes)
    diff = np.flatnonzero(new != codes).astype(np.int64)
    if not len(diff):
        return
    old_diff, new_diff = codes[diff], new[diff]
    new_code_of = codes.copy()
    new_code_of[diff] = new_diff
    in_diff = np.zeros(n, dtype=bool)
    cols, counts, delta, col_changed = kernel.pair_deltas(
        codes, csr, diff, old_diff, new_diff, in_diff, new_code_of
    )
    vec_fold = int(delta.sum()) + int(delta[~col_changed].sum())
    bad_before = kernel.goodness_counts(codes, csr)[1]
    bad_after = kernel.goodness_counts(new, csr)[1]
    assert vec_fold == bad_after - bad_before
    owner = np.zeros(n, dtype=np.int64)  # one replica owns every node
    for name, lane in _lanes(kernel).items():
        scratch = np.zeros(n, dtype=bool)
        bad_out = np.zeros(1, dtype=np.int64)
        lane.fold_pair_delta_by_owner(
            codes, csr, diff, old_diff, new_diff, scratch, new_code_of, owner, bad_out
        )
        assert bad_out[0] == vec_fold, name
        assert not scratch.any(), name  # restored on exit


def _backend_lanes():
    """Every backend, each constructed directly (not the resolved one):
    ``python`` always, ``cc`` with a C compiler, ``numba`` when
    installed; an unavailable one is a skipped case."""
    lanes = []
    for name in ("python", "cc", "numba"):
        try:
            backend = algau_native._BUILDERS[name]()
        except (ImportError, OSError, NativeBackendError):
            skip = pytest.mark.skip(reason=f"the {name} backend is unavailable")
            lanes.append(pytest.param(None, id=name, marks=skip))
        else:
            lanes.append(pytest.param(backend, id=name))
    return lanes


@pytest.mark.parametrize("backend", _backend_lanes())
@pytest.mark.parametrize("d", [1, 3])
def test_bound_tables_agree_with_per_call_binding(backend, d):
    """A :class:`NativeKernel` binds its tables once; its δ, goodness
    and fold equal a fresh per-call binding (every pointer taken at the
    call, as before binding existed) on random codes, also after
    :meth:`MutableCSR.patch` swaps and regrows the CSR buffers."""
    from repro.graphs.dynamic import MutableCSR

    rng = np.random.default_rng(d)
    kernel = ThinUnison(d).vector_kernel()
    bound = NativeKernel(kernel, backend=backend)
    size = kernel.size

    def unbound():
        return backend.bind(algau_native.NativeTables.from_kernel(kernel))

    n = 8
    csr = MutableCSR.from_rows([[v, (v - 1) % n, (v + 1) % n] for v in range(n)])
    buffer = csr._buf
    complete = {v: [v] + [u for u in range(n) if u != v] for v in range(n)}
    for phase in range(3):
        if phase == 1:
            csr.patch({v: sorted(row) for v, row in complete.items()})
        elif phase == 2:
            csr.patch({}, appended=[[n, 0, 1]])
            csr.patch({0: sorted(complete[0] + [n]), 1: sorted(complete[1] + [n])})
        for _ in range(20):
            codes = rng.integers(0, size, csr.n)
            rows = np.flatnonzero(rng.random(csr.n) < 0.6).astype(np.int64)
            out = np.empty(len(rows), dtype=np.int64)
            unbound().delta_rows(codes, csr.indptr, csr.indices, rows, out)
            assert np.array_equal(bound.delta_rows(codes, csr, rows), out)
            assert np.array_equal(
                bound.delta_rows(codes, csr), kernel.delta_rows(codes, csr)
            )
            assert bound.goodness_counts(codes, csr) == unbound().goodness_counts(
                codes, csr.indptr, csr.indices
            )
            diff = rows[: max(1, len(rows) // 2)]
            new_diff = rng.integers(0, size, len(diff))
            scratch = np.zeros(csr.n, dtype=bool)
            new_code_of = np.zeros(csr.n, dtype=np.int64)
            owner = np.zeros(csr.n, dtype=np.int64)  # one replica
            folds = np.zeros((2, 1), dtype=np.int64)
            bound.fold_pair_delta_by_owner(
                codes, csr, diff, codes[diff], new_diff, scratch, new_code_of,
                owner, folds[0],
            )
            unbound().fold_pairs_owner(
                codes, csr.indptr, csr.indices, diff, codes[diff], new_diff,
                scratch.view(np.uint8), new_code_of, owner, folds[1],
            )
            assert folds[0, 0] == folds[1, 0]
    assert len(csr._buf) > len(buffer)  # the patches regrew the buffers


def _sequence_reference(kernel, codes, csr, order):
    """``run_sequence`` by the definition: one ``delta_one`` per
    activation, a full ``goodness_counts`` rescan after each, stopping
    after the first activation that leaves the graph good."""
    codes = codes.copy()
    hoods = csr.neighbor_lists()
    moves = 0
    counts = tuple(kernel.goodness_counts(codes, csr))
    applied = 0
    for v in order.tolist():
        applied += 1
        new = kernel.delta_one(codes, hoods[v])
        if new != codes[v]:
            codes[v] = new
            moves += 1
            counts = tuple(kernel.goodness_counts(codes, csr))
        if counts == (0, 0):
            break
    return applied, codes, (*counts, moves)


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=3),
    n=st.integers(min_value=1, max_value=9),
    cautious=st.booleans(),
    rounds=st.integers(min_value=1, max_value=12),
    dirty=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_run_sequence_lanes_agree_property(d, n, cautious, rounds, dirty, seed):
    """Every lane's run_sequence equals the per-activation reference on
    random codes (a ``dirty`` fraction corrupting a uniform start, so
    both stopping and exhausted orders occur), random CSR rows and
    random multi-round orders — capped at every stop index."""
    rng = np.random.default_rng(seed)
    algorithm = ThinUnison(d, cautious_af=cautious)
    kernel = algorithm.vector_kernel()
    csr = _random_inclusive_csr(rng, n)
    codes = np.zeros(n, dtype=np.int64)
    hit = rng.random(n) < dirty
    codes[hit] = rng.integers(0, algorithm.encoding.size, int(hit.sum()))
    order = np.concatenate([rng.permutation(n) for _ in range(rounds)])
    full = _sequence_reference(kernel, codes, csr, order)
    for name, lane in _sequence_lanes(kernel).items():
        for stop in range(full[0] + 1):
            applied, expected, counts = _sequence_reference(
                kernel, codes, csr, order[:stop]
            )
            got = codes.copy()
            start = kernel.goodness_counts(codes, csr)
            state = np.array([*start, 0], dtype=np.int64)
            assert lane.run_sequence(got, csr, order[:stop], state) == applied, name
            assert np.array_equal(got, expected), (name, stop)
            assert tuple(state.tolist()) == counts, (name, stop)


def test_run_sequence_stops_on_the_first_good_configuration():
    """A single corrupted node on a uniform path heals within a few
    rounds; the kernel returns the activation that healed it."""
    algorithm = ThinUnison(2)
    kernel = algorithm.vector_kernel()
    topology = ring(7)
    csr = topology.inclusive_csr()
    codes = np.zeros(7, dtype=np.int64)
    codes[3] = algorithm.encoding.encode(faulty(2))
    order = np.tile(np.arange(7, dtype=np.int64), 20)
    applied, expected, counts = _sequence_reference(kernel, codes, csr, order)
    assert applied < len(order) and counts[:2] == (0, 0)
    for name, lane in _sequence_lanes(kernel).items():
        got = codes.copy()
        state = np.array([*kernel.goodness_counts(codes, csr), 0], dtype=np.int64)
        assert lane.run_sequence(got, csr, order, state) == applied, name
        assert np.array_equal(got, expected) and tuple(state) == counts, name


def test_run_sequence_rejects_out_of_range_orders():
    """Orders are bounds-checked before any lane sees a raw pointer."""
    kernel = ThinUnison(1).vector_kernel()
    csr = ring(5).inclusive_csr()
    for lane in _sequence_lanes(kernel).values():
        for order in ([0, 5], [-1]):
            codes = np.zeros(5, dtype=np.int64)
            counts = np.array([1, 0, 0], dtype=np.int64)
            with pytest.raises(ValueError, match="outside"):
                lane.run_sequence(codes, csr, np.array(order), counts)
            assert not codes.any() and counts.tolist() == [1, 0, 0]


# ----------------------------------------------------------------------
# Backend resolution and graceful degradation.
# ----------------------------------------------------------------------


@pytest.fixture
def fresh_resolution(monkeypatch):
    """Reset the memoized backend so env overrides take effect, and
    restore the real resolution afterwards."""
    monkeypatch.setattr(algau_native, "_RESOLVED", algau_native._UNRESOLVED)
    yield monkeypatch


class TestBackendResolution:
    def test_resolved_name_is_known(self):
        assert native_backend_name() in (None, "numba", "cc", "python")

    def test_python_lane_forced_by_env(self, fresh_resolution):
        fresh_resolution.setenv("REPRO_NATIVE_BACKEND", "python")
        assert native_backend_name() == "python"

    def test_env_none_disables_the_tier(self, fresh_resolution):
        fresh_resolution.setenv("REPRO_NATIVE_BACKEND", "none")
        assert native_backend() is None
        with pytest.raises(NativeBackendError):
            NativeKernel(ThinUnison(1).vector_kernel())

    def test_fallback_to_array_engine_warns(self, monkeypatch):
        monkeypatch.setattr(algau_native, "_RESOLVED", None)
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert native_execution_class() is ArrayExecution
        with pytest.warns(RuntimeWarning, match="fall back"):
            cls = replica_batch_execution_class("native")
        assert cls is ReplicaBatchExecution
        # create_execution(engine="native") rides the same fallback.
        topology = ring(6)
        algorithm = ThinUnison(1)
        initial = random_configuration(
            algorithm, topology, np.random.default_rng(0)
        )
        with pytest.warns(RuntimeWarning):
            execution = create_execution(
                topology,
                algorithm,
                initial,
                SynchronousScheduler(),
                rng=np.random.default_rng(1),
                engine="native",
            )
        assert type(execution) is ArrayExecution
        execution.step()

    @needs_backend
    def test_available_backend_selects_native_classes(self):
        assert native_execution_class() is NativeExecution
        assert replica_batch_execution_class("native") is NativeReplicaBatchExecution
        assert replica_batch_execution_class("replica-batch") is ReplicaBatchExecution


# ----------------------------------------------------------------------
# Engine differential: native vs array, step for step.
# ----------------------------------------------------------------------

GRAPHS = {
    "ring9": lambda seed: ring(9),
    "damaged10": lambda seed: damaged_clique(10, 2, np.random.default_rng(seed)),
    "gnp12": lambda seed: random_connected(12, 0.35, np.random.default_rng(seed)),
}

SCHEDULERS = {
    "sync": lambda topo: SynchronousScheduler(),
    "shuffled-rr": lambda topo: ShuffledRoundRobinScheduler(),
    "random-subset": lambda topo: RandomSubsetScheduler(0.4),
    "laggard": lambda topo: LaggardScheduler(victim=1, period=5),
}

FAULT_KINDS = ("none", "storm", "byz-frozen", "byz-random", "byz-oscillating", "crash")

CASES = [
    (graph, sched, FAULT_KINDS[i % len(FAULT_KINDS)], 7000 + 13 * i)
    for i, (graph, sched) in enumerate(
        itertools.product(sorted(GRAPHS), sorted(SCHEDULERS))
    )
]


def _make_variant(topology, initial, sched_key, fault_kind, seed, engine):
    from repro.resilience.adversary import PermanentFaultAdversary
    from repro.resilience.strategies import Crash, make_strategy

    algorithm = ThinUnison(2)
    intervention = None
    if fault_kind == "storm":
        intervention = TransientFaultInjector(
            algorithm,
            times=(3, 9, 21),
            fraction=0.3,
            rng=np.random.default_rng(seed + 2),
        )
    elif fault_kind.startswith("byz-") or fault_kind == "crash":
        if fault_kind == "crash":
            strategy = Crash(at=7)
        else:
            strategy = make_strategy(fault_kind[len("byz-") :])
        nodes = (1, topology.n - 2)
        intervention = PermanentFaultAdversary(
            strategy, nodes, rng=np.random.default_rng(seed + 2)
        )
    return create_execution(
        topology,
        algorithm,
        initial,
        SCHEDULERS[sched_key](topology),
        rng=np.random.default_rng(seed + 3),
        intervention=intervention,
        engine=engine,
    )


@needs_backend
class TestNativeEngineDifferential:
    @pytest.mark.parametrize(
        "graph_key, sched_key, fault_kind, seed",
        CASES,
        ids=[f"{g}-{s}-{f}" for g, s, f, _ in CASES],
    )
    def test_step_for_step_equivalence(self, graph_key, sched_key, fault_kind, seed):
        topology = GRAPHS[graph_key](seed)
        initial = random_configuration(
            ThinUnison(2), topology, np.random.default_rng(seed + 1)
        )
        reference = _make_variant(
            topology, initial, sched_key, fault_kind, seed, "array"
        )
        native = _make_variant(
            topology, initial, sched_key, fault_kind, seed, "native"
        )
        assert type(native) is NativeExecution
        for step in range(45):
            ref_record = reference.step()
            nat_record = native.step()
            assert nat_record == ref_record, step
            assert native.graph_is_good() == reference.graph_is_good(), step
            assert native.enabled_count() == reference.enabled_count(), step
        assert np.array_equal(native.codes, reference.codes)
        assert native.masked_nodes == reference.masked_nodes
        assert native.rounds.boundaries == reference.rounds.boundaries

    def test_pokes_and_masks_stay_in_lockstep(self):
        topology = ring(9)
        algorithm = ThinUnison(2)
        initial = random_configuration(algorithm, topology, np.random.default_rng(5))
        pair = [
            create_execution(
                topology,
                algorithm,
                initial,
                RoundRobinScheduler(),
                rng=np.random.default_rng(6),
                engine=engine,
            )
            for engine in ("array", "native")
        ]
        for burst in range(4):
            for execution in pair:
                execution.poke_states({burst: faulty(3), (burst + 4) % 9: able(-2)})
                execution.mask_nodes((burst,))
            for step in range(12):
                records = [execution.step() for execution in pair]
                assert records[0] == records[1], (burst, step)
                assert pair[0].graph_is_good() == pair[1].graph_is_good()
                assert pair[0].enabled_count() == pair[1].enabled_count()
            for execution in pair:
                execution.mask_nodes(())
        assert np.array_equal(pair[0].codes, pair[1].codes)

    @pytest.mark.parametrize("engine", ["array", "native"])
    def test_advance_equals_the_step_loop(self, engine):
        """The record-free bulk path must land on exactly the state the
        step loop reaches — codes, time, and round boundaries."""
        topology = damaged_clique(10, 2, np.random.default_rng(11))
        algorithm = ThinUnison(2)
        initial = random_configuration(algorithm, topology, np.random.default_rng(12))
        bulk, looped = [
            create_execution(
                topology,
                algorithm,
                initial,
                ShuffledRoundRobinScheduler(),
                rng=np.random.default_rng(13),
                engine=engine,
            )
            for _ in range(2)
        ]
        bulk.advance(37)
        for _ in range(37):
            looped.step()
        assert bulk.t == looped.t == 37
        assert np.array_equal(bulk.codes, looped.codes)
        assert bulk.rounds.boundaries == looped.rounds.boundaries
        assert bulk.completed_rounds == looped.completed_rounds
        assert bulk.graph_is_good() == looped.graph_is_good()
        # advance composes with step() afterwards.
        assert bulk.step() == looped.step()

    def test_advance_with_intervention_takes_the_recording_path(self):
        """Monitored/intervened runs cannot drop StepRecords; advance
        must still be equivalent (it degrades to the step loop)."""
        topology = ring(9)
        algorithm = ThinUnison(2)
        initial = random_configuration(algorithm, topology, np.random.default_rng(1))

        def build(engine):
            return create_execution(
                topology,
                algorithm,
                initial,
                SynchronousScheduler(),
                rng=np.random.default_rng(2),
                intervention=TransientFaultInjector(
                    algorithm,
                    times=(4, 11),
                    fraction=0.3,
                    rng=np.random.default_rng(3),
                ),
                engine=engine,
            )

        bulk, looped = build("native"), build("native")
        bulk.advance(30)
        for _ in range(30):
            looped.step()
        assert np.array_equal(bulk.codes, looped.codes)
        assert bulk.rounds.boundaries == looped.rounds.boundaries

    def test_stabilization_measurements_agree(self):
        from repro.analysis.stabilization import measure_au_stabilization

        d = 2
        algorithm = ThinUnison(d)
        topology = damaged_clique(12, d, np.random.default_rng(7))
        initial = random_configuration(algorithm, topology, np.random.default_rng(8))
        results = [
            measure_au_stabilization(
                algorithm,
                topology,
                initial,
                ShuffledRoundRobinScheduler(),
                np.random.default_rng(9),
                max_rounds=100_000,
                engine=engine,
            )
            for engine in ("array", "native")
        ]
        assert results[0].stabilized and results[1].stabilized
        assert results[0].rounds == results[1].rounds
        assert results[0].steps == results[1].steps


# ----------------------------------------------------------------------
# Whole-round runs: run(until=graph_is_good) on both array-tier engines.
# ----------------------------------------------------------------------

ROUND_ORDER_SCHEDULERS = {
    "round-robin": RoundRobinScheduler,
    "shuffled-rr": ShuffledRoundRobinScheduler,
}

#: The engines whose ``run(until=graph_is_good)`` goes by whole rounds:
#: the numpy tier on the list kernel, the native tier on the compiled
#: one.
ROUND_ENGINES = [pytest.param("native", marks=needs_backend), "array"]


@pytest.fixture
def sequence_calls(monkeypatch):
    """The order lengths of every :meth:`ArrayExecution._run_sequence`
    call — the proof that a run took the round path."""
    calls = []
    original = ArrayExecution._run_sequence

    def counted(self, order):
        calls.append(len(order))
        return original(self, order)

    monkeypatch.setattr(ArrayExecution, "_run_sequence", counted)
    return calls


def _stepped_run(execution, max_steps=None, max_rounds=None):
    """``run(until=graph_is_good)`` spelled out over :meth:`step` — the
    per-step loop the round loop must reproduce."""
    if execution.graph_is_good():
        return RunResult(0, execution.completed_rounds, True, "pre-satisfied")
    steps = 0
    while True:
        if max_steps is not None and steps >= max_steps:
            return RunResult(steps, execution.completed_rounds, False, "max_steps")
        if max_rounds is not None and execution.completed_rounds >= max_rounds:
            return RunResult(steps, execution.completed_rounds, False, "max_rounds")
        execution.step()
        steps += 1
        if execution.graph_is_good():
            return RunResult(steps, execution.completed_rounds, True, "predicate")


def _run_pair(engine, topology, algorithm, initial, sched_key, seed, **kwargs):
    """The ``engine`` execution under test and a same-seeded array
    reference for :func:`_stepped_run`."""
    return [
        create_execution(
            topology,
            algorithm,
            initial,
            ROUND_ORDER_SCHEDULERS[sched_key](),
            rng=np.random.default_rng(seed),
            engine=name,
            **kwargs,
        )
        for name in (engine, "array")
    ]


def _assert_same_state(execution, reference):
    assert execution.t == reference.t
    assert execution.completed_rounds == reference.completed_rounds
    assert execution.rounds.boundaries == reference.rounds.boundaries
    time = execution.rounds.time
    assert time == reference.rounds.time
    assert execution.rounds.round_of_time(time) == reference.rounds.round_of_time(time)
    assert execution.moves == reference.moves
    assert np.array_equal(execution.codes, reference.codes)
    assert execution.rng.bit_generator.state == reference.rng.bit_generator.state
    kernel = execution.algorithm.vector_kernel()
    counts = tuple(
        kernel.goodness_counts(execution.codes, execution.topology.inclusive_csr())
    )
    assert execution.graph_is_good() == reference.graph_is_good() == (counts == (0, 0))
    assert execution._ledger.counts == counts


@pytest.mark.parametrize("engine", ROUND_ENGINES)
class TestCompiledRounds:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=16),
        d=st.integers(min_value=1, max_value=3),
        sched_key=st.sampled_from(sorted(ROUND_ORDER_SCHEDULERS)),
        start=st.sampled_from(["random", "uniform"]),
        max_steps=st.one_of(st.none(), st.integers(min_value=0, max_value=300)),
        max_rounds=st.integers(min_value=0, max_value=40),
        tail=st.integers(min_value=0, max_value=25),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_run_matches_the_step_loop(
        self, engine, n, d, sched_key, start, max_steps, max_rounds, tail, seed
    ):
        """On generated connected graphs, run(until=good) equals the
        array engine's step()-driven run: the RunResult, time, rounds,
        moves, codes, rng stream and goodness counts — also under
        budgets that cut a round, a resumed second run after a burst
        (which starts mid-round), and ``tail`` further identical
        step()s."""
        rng = np.random.default_rng(seed)
        topology = random_connected(n, 0.3, rng)
        algorithm = ThinUnison(d)
        if start == "random":
            initial = random_configuration(algorithm, topology, rng)
        else:
            initial = uniform_configuration(algorithm, topology)
        execution, reference = _run_pair(
            engine, topology, algorithm, initial, sched_key, seed + 1
        )
        result = execution.run(
            max_steps=max_steps, max_rounds=max_rounds, until=graph_is_good
        )
        assert result == _stepped_run(reference, max_steps, max_rounds)
        _assert_same_state(execution, reference)

        burst = {
            int(v): algorithm.random_state(rng)
            for v in rng.choice(n, size=max(1, n // 3), replace=False)
        }
        for run in (execution, reference):
            run.replace_configuration(run.configuration.replace(burst))
        budget = reference.completed_rounds + 30
        result = execution.run(max_rounds=budget, until=graph_is_good)
        assert result == _stepped_run(reference, None, budget)
        _assert_same_state(execution, reference)
        for _ in range(tail):
            assert execution.step().activated == reference.step().activated
        _assert_same_state(execution, reference)

    def test_mid_round_stop_resumes_the_same_shuffled_round(
        self, engine, sequence_calls
    ):
        """A stop inside a round hands the unapplied tail back: later
        step()s replay it, then reshuffle from the same rng stream."""
        topology = damaged_clique(12, 2, np.random.default_rng(3))
        algorithm = ThinUnison(2)
        initial = random_configuration(algorithm, topology, np.random.default_rng(4))
        execution, reference = _run_pair(
            engine, topology, algorithm, initial, "shuffled-rr", 5
        )
        result = execution.run(max_rounds=10_000, until=graph_is_good)
        assert result == _stepped_run(reference, None, 10_000)
        assert result.stopped_by_predicate and not execution.rounds.at_boundary
        assert sequence_calls
        _assert_same_state(execution, reference)
        for _ in range(3 * topology.n):
            assert execution.step() == reference.step()
        _assert_same_state(execution, reference)

    def test_max_steps_cut_then_resume(self, engine, sequence_calls):
        """Successive step-capped runs tile one long run exactly."""
        topology = ring(11)
        algorithm = ThinUnison(3)
        initial = random_configuration(algorithm, topology, np.random.default_rng(8))
        execution, reference = _run_pair(
            engine, topology, algorithm, initial, "shuffled-rr", 9
        )
        for cap in (5, 17, 1, 11, 40, 3, 1000):
            result = execution.run(max_steps=cap, until=graph_is_good)
            assert result == _stepped_run(reference, cap)
            _assert_same_state(execution, reference)
            if result.stopped_by_predicate:
                break
        assert result.stopped_by_predicate
        assert sequence_calls
        assert execution.step() == reference.step()

    def test_max_rounds_exhaustion(self, engine, sequence_calls):
        topology = ring(15)
        algorithm = ThinUnison(2)
        initial = random_configuration(algorithm, topology, np.random.default_rng(2))
        execution, reference = _run_pair(
            engine, topology, algorithm, initial, "round-robin", 3
        )
        result = execution.run(max_rounds=2, until=graph_is_good)
        assert result == _stepped_run(reference, None, 2)
        assert result.reason == "max_rounds" and execution.t == 2 * topology.n
        assert sequence_calls == [topology.n, topology.n]
        _assert_same_state(execution, reference)
        assert execution.step() == reference.step()

    @pytest.mark.parametrize("sched_key", sorted(ROUND_ORDER_SCHEDULERS))
    def test_rewired_topology_walks_the_mutable_csr(
        self, engine, sched_key, sequence_calls
    ):
        """After a ``mutate_topology`` rewire (no joins or leaves, cut
        mid-round) the round path walks the engine's private
        :class:`~repro.graphs.dynamic.MutableCSR` and still equals the
        step loop."""
        from repro.graphs.dynamic import MutableCSR, TopologyDelta

        topology = ring(12)
        algorithm = ThinUnison(6)
        initial = random_configuration(algorithm, topology, np.random.default_rng(6))
        execution, reference = _run_pair(
            engine, topology, algorithm, initial, sched_key, 7
        )
        result = execution.run(max_steps=7, until=graph_is_good)
        assert result == _stepped_run(reference, 7)
        delta = TopologyDelta(add_edges=((0, 6), (3, 9)), remove_edges=((0, 1),))
        for run in (execution, reference):
            run.mutate_topology(delta)
        assert isinstance(execution._csr, MutableCSR)
        result = execution.run(max_rounds=10_000, until=graph_is_good)
        assert result == _stepped_run(reference, None, 10_000)
        assert result.stopped_by_predicate and sequence_calls
        _assert_same_state(execution, reference)
        for _ in range(2 * topology.n):
            assert execution.step() == reference.step()


def test_round_order_tail_matches_the_per_step_pops():
    """Partly consumed shuffled rounds are returned, not redrawn, and a
    handed-back tail is popped in order."""
    nodes = tuple(range(9))
    stepped, bulk = ShuffledRoundRobinScheduler(), ShuffledRoundRobinScheduler()
    rng_a, rng_b = np.random.default_rng(1), np.random.default_rng(1)
    head = [next(iter(stepped.activations(t, nodes, rng_a))) for t in range(4)]
    for t in range(4):
        bulk.activations(t, nodes, rng_b)
    tail = bulk.round_activation_order(nodes, rng_b)
    assert len(tail) == 5 and set(head).isdisjoint(tail.tolist())
    bulk.hand_back(tail[2:])
    rest = [next(iter(stepped.activations(t, nodes, rng_a))) for t in range(4, 9)]
    assert rest[:2] == tail[:2].tolist()
    assert rest[2:] == [
        next(iter(bulk.activations(t, nodes, rng_b))) for t in range(6, 9)
    ]
    assert np.array_equal(
        bulk.round_activation_order(nodes, rng_b),
        stepped.round_activation_order(nodes, rng_a),
    )


def test_forced_fallback_takes_the_round_path(monkeypatch, sequence_calls):
    """With no native backend, ``engine="native"`` builds the array
    engine, whose run(until=graph_is_good) still goes by whole rounds
    (on the list kernel) and still equals the step loop."""
    monkeypatch.setattr(algau_native, "_RESOLVED", None)
    topology = damaged_clique(12, 2, np.random.default_rng(3))
    algorithm = ThinUnison(2)
    initial = random_configuration(algorithm, topology, np.random.default_rng(4))
    with pytest.warns(RuntimeWarning, match="falling back"):
        fallback, reference = _run_pair(
            "native", topology, algorithm, initial, "shuffled-rr", 5
        )
    assert type(fallback) is ArrayExecution
    result = fallback.run(max_rounds=10_000, until=graph_is_good)
    assert result == _stepped_run(reference, None, 10_000)
    assert result.stopped_by_predicate and sequence_calls
    _assert_same_state(fallback, reference)
    assert fallback.step() == reference.step()


@pytest.mark.parametrize("engine", ROUND_ENGINES)
class TestCompiledRoundFallbacks:
    """Every disqualifier keeps the per-step paths — and still matches
    the per-step reference (the same execution run with a lambda
    ``until``, which is never recognized as the shared predicate)."""

    @staticmethod
    def _good_lambda(execution):
        return execution.graph_is_good()

    CASES = {
        "compiled": {},
        "monitor": {"monitors": (Monitor(),)},
        "intervention": {"intervention": lambda e: None},
        "mask": {"mask": (2,)},
        "enabled-aware": {"scheduler": EnabledOnlyScheduler},
        "predicate": {"until": "lambda"},
        "naive": {"incremental": False},
        "round-check": {"check_until_each_step": False},
        "synchronous": {"scheduler": SynchronousScheduler},
        "random-subset": {"scheduler": lambda: RandomSubsetScheduler(0.4)},
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_disqualifier_falls_back(self, engine, case, sequence_calls):
        spec = dict(self.CASES[case])
        topology = damaged_clique(10, 2, np.random.default_rng(21))
        algorithm = ThinUnison(2)
        initial = random_configuration(algorithm, topology, np.random.default_rng(22))
        make_scheduler = spec.pop("scheduler", ShuffledRoundRobinScheduler)
        mask = spec.pop("mask", ())
        until = graph_is_good
        if spec.pop("until", None):
            until = self._good_lambda
        each_step = spec.pop("check_until_each_step", True)
        pair = []
        for name in (engine, "array"):
            execution = create_execution(
                topology,
                algorithm,
                initial,
                make_scheduler(),
                rng=np.random.default_rng(23),
                engine=name,
                **spec,
            )
            execution.mask_nodes(mask)
            pair.append(execution)
        execution, reference = pair
        result = execution.run(
            max_steps=4000, until=until, check_until_each_step=each_step
        )
        assert bool(sequence_calls) == (case == "compiled")
        expected = reference.run(
            max_steps=4000, until=self._good_lambda, check_until_each_step=each_step
        )
        assert result == expected
        assert execution.t == reference.t and execution.moves == reference.moves
        assert np.array_equal(execution.codes, reference.codes)
        assert execution.rounds.boundaries == reference.rounds.boundaries
        assert execution.rng.bit_generator.state == reference.rng.bit_generator.state


@pytest.mark.parametrize("engine", ROUND_ENGINES)
class TestCompiledRoundScenarios:
    """No registry carries bursts or edge churn under a sequential
    daemon on the array tier; these cells pin the round path to the
    object reference lane through the whole scenario pipeline (a
    burst's recovery run starts mid-round)."""

    @pytest.mark.parametrize(
        "graph, params, d, scheduler, faults",
        [
            (
                "damaged-clique",
                (("n", 12), ("diameter_bound", 2), ("damage", 0.4)),
                2,
                "shuffled-round-robin",
                FaultPlan(kind="bursts", bursts=3, fraction=0.3),
            ),
            (
                "quorum-colony",
                (("n", 12), ("diameter_bound", 2)),
                2,
                "round-robin",
                FaultPlan(kind="bursts", bursts=2, fraction=0.5),
            ),
            (
                "quorum-colony",
                (("n", 12), ("diameter_bound", 2)),
                2,
                "shuffled-round-robin",
                FaultPlan(kind="churn", rate=0.25, times=(160,)),
            ),
            (
                "hub-colony",
                (("n", 12), ("hubs", 2)),
                2,
                "round-robin",
                FaultPlan(kind="churn", rate=1.0, times=(160,)),
            ),
        ],
        ids=["bursts-shuffled", "bursts-rr", "churn-shuffled", "churn-rr"],
    )
    def test_scenario_equals_the_object_lane(
        self, engine, graph, params, d, scheduler, faults, sequence_calls
    ):
        from repro.campaigns.aggregate import measured_payload
        from repro.campaigns.registry import CampaignBuilder
        from repro.campaigns.runner import run_scenario

        builder = CampaignBuilder("compiled-rounds", 7)
        for name in (engine, "object"):
            builder.add_au(
                graph,
                params,
                d,
                scheduler=scheduler,
                engine=name,
                faults=faults,
                seed_index=0,
            )
        rows = [run_scenario(s) for s in builder.scenarios]
        assert rows[0].status == rows[1].status == ""
        assert rows[0].stabilized
        assert measured_payload(rows[0]) == measured_payload(rows[1])
        assert sequence_calls


@needs_backend
class TestNativeReplicaBatch:
    def test_ensemble_outcomes_match_numpy_ensemble(self):
        algorithm = ThinUnison(2)
        families = [
            lambda rng: ring(9),
            lambda rng: damaged_clique(10, 2, rng, damage=0.4),
        ]
        batches = []
        for cls in (ReplicaBatchExecution, NativeReplicaBatchExecution):
            specs = []
            for i in range(6):
                rng = np.random.default_rng(4000 + 11 * i)
                topology = families[i % 2](rng)
                initial = random_configuration(algorithm, topology, rng)
                scheduler = (
                    SynchronousScheduler()
                    if i % 3 == 0
                    else ShuffledRoundRobinScheduler()
                )
                specs.append(ReplicaSpec(topology, initial, scheduler, rng))
            batches.append(cls.from_replicas(algorithm, specs))
        numpy_outcomes = batches[0].run_ensemble(max_rounds=4000)
        native_outcomes = batches[1].run_ensemble(max_rounds=4000)
        assert native_outcomes == numpy_outcomes

    def test_runner_selects_the_native_batch_class(self):
        from repro.campaigns.registry import build_campaign
        from repro.campaigns.runner import run_campaign

        scenarios = [
            s
            for s in build_campaign("smoke")
            if s.engine == "native" and s.batch_replicas > 1
        ]
        assert scenarios, "smoke must carry a native replica ensemble"
        solo = run_campaign(scenarios, workers=1, batch=False)
        batched = run_campaign(scenarios, workers=1, batch=True)
        assert [r.stabilized for r in solo] == [r.stabilized for r in batched]
        assert [r.rounds for r in solo] == [r.rounds for r in batched]
        assert [r.steps for r in solo] == [r.steps for r in batched]


# ----------------------------------------------------------------------
# Frontier CSR builders.
# ----------------------------------------------------------------------


class TestFrontierTopologies:
    def test_ring_matches_the_networkx_build(self):
        built, wrapped = ring(12), frontier_ring(12)
        reference, frontier = built.inclusive_csr(), wrapped.inclusive_csr()
        assert np.array_equal(reference.indptr, frontier.indptr)
        assert np.array_equal(reference.indices, frontier.indices)
        assert sorted(built.edges) == list(wrapped.edges)
        assert wrapped.diameter == built.diameter == 6

    @pytest.mark.parametrize(
        "build",
        [
            lambda: frontier_ring(50),
            lambda: frontier_gnm(60, 90, seed=5),
            lambda: frontier_colony(55, hubs=3),
        ],
        ids=["ring", "gnm", "colony"],
    )
    def test_csr_invariants(self, build):
        """Self-first rows, ascending open neighborhoods, symmetry, and
        an edge count consistent with the row lengths."""
        topology = build()
        assert isinstance(topology, Topology)
        csr = topology.inclusive_csr()
        neighbor_sets = {}
        for v in range(topology.n):
            row = csr.neighborhood(v)
            assert row[0] == v
            rest = [int(u) for u in row[1:]]
            assert rest == sorted(set(rest)) and v not in rest
            neighbor_sets[v] = set(rest)
        for v, peers in neighbor_sets.items():
            for u in peers:
                assert v in neighbor_sets[u], (u, v)
        assert sum(len(s) for s in neighbor_sets.values()) == 2 * topology.m
        assert len(topology.edges) == topology.m
        assert all(topology.has_edge(u, v) for u, v in topology.edges)
        assert topology.nodes is topology.nodes  # identity-stable
        assert len(topology) == topology.n
        assert topology.inclusive_neighbors(1)[0] == 1
        assert topology.degree(1) == len(topology.neighbors(1))

    def test_colony_shape(self):
        colony = frontier_colony(100, hubs=2)
        assert colony.degree(0) == 99 and colony.degree(1) == 99
        assert colony.degree(50) == 4  # ring + both hubs

    def test_small_n_rejected(self):
        with pytest.raises(TopologyError):
            frontier_ring(2)
        with pytest.raises(TopologyError):
            frontier_colony(4, hubs=0)

    def test_families_registry(self):
        assert set(FRONTIER_FAMILIES) == {"ring", "gnm", "colony"}
        for build in FRONTIER_FAMILIES.values():
            assert build(40, seed=1).n == 40

    @needs_backend
    def test_engines_agree_on_frontier_graphs(self):
        algorithm = ThinUnison(2)
        for family, build in sorted(FRONTIER_FAMILIES.items()):
            topology = build(300, seed=17)
            rng = np.random.default_rng(18)
            codes = rng.integers(0, algorithm.encoding.size, topology.n)
            initial = algorithm.encoding.decode_configuration(topology, codes)
            pair = [
                create_execution(
                    topology,
                    algorithm,
                    initial,
                    SynchronousScheduler(),
                    rng=np.random.default_rng(19),
                    engine=engine,
                )
                for engine in ("array", "native")
            ]
            pair[0].advance(25)
            pair[1].advance(25)
            assert np.array_equal(pair[0].codes, pair[1].codes), family
            assert pair[0].graph_is_good() == pair[1].graph_is_good(), family


# ----------------------------------------------------------------------
# Registry / CLI plumbing.
# ----------------------------------------------------------------------


class TestNativePlumbing:
    def test_native_is_a_registered_engine(self):
        assert "native" in ENGINE_NAMES

    def test_native_pairing_registry_is_engine_paired(self):
        from repro.campaigns.registry import build_campaign

        scenarios = build_campaign("native-pairing")
        kinds = {s.faults.kind for s in scenarios}
        assert {"none", "storm", "rewire", "byzantine", "crash"} <= kinds
        pairs = {}
        for s in scenarios:
            pairs.setdefault(s.tag("pairing"), []).append(s)
        for paired in pairs.values():
            assert sorted(p.engine for p in paired) == ["array", "native"]
            assert len({p.seed for p in paired}) == 1
            assert len({p.graph for p in paired}) == 1
            assert len({p.faults for p in paired}) == 1

    @needs_backend
    def test_native_pairing_slice_verifies(self):
        from repro.campaigns.aggregate import aggregate_results, verify_engine_pairing
        from repro.campaigns.registry import build_campaign
        from repro.campaigns.runner import run_campaign

        scenarios = build_campaign("native-pairing")[:8]
        results = run_campaign(scenarios, workers=1)
        rows = aggregate_results("native-pairing", scenarios, results, 0)["rows"]
        assert verify_engine_pairing(rows) == []

    def test_engines_cli_subcommand(self, capsys):
        from repro.cli import main

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["engines"]) == 0
        out = capsys.readouterr().out
        for name in ENGINE_NAMES:
            assert name in out
        assert "available" in out
