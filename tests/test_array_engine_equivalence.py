"""Differential validation: the array engine vs the object-model reference.

The vectorized :class:`ArrayExecution` must be *bit-identical* to the
readable :class:`Execution` — same activation sets, same per-step
change-sets, same round boundaries, same configurations — for every
(graph, scheduler, D, fault-schedule) combination.  AlgAU is
deterministic and the rng stream is consumed only by the scheduler and
the fault injector, so running both engines from the same seeds must
produce the same trajectory; this suite checks that step for step on a
seeded matrix of 25+ combos, and property-tests the turn encoding the
array engine is built on.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.reset_tail_unison import ResetTailUnison
from repro.core.algau import ThinUnison
from repro.core.algau_native import native_backend
from repro.core.encoding import TurnEncoding
from repro.core.predicates import is_good_graph
from repro.core.turns import Turn, able, faulty
from repro.faults.injection import (
    TransientFaultInjector,
    au_adversarial_suite,
    random_configuration,
)
from repro.graphs.generators import (
    damaged_clique,
    dumbbell,
    random_connected,
    ring,
    star,
    torus,
)
from repro.model.array_engine import ArrayExecution, supports_array_engine
from repro.model.engine import StepRecord, create_execution
from repro.model.errors import ModelError
from repro.model.execution import Execution
from repro.model.scheduler import (
    ExplicitScheduler,
    LaggardScheduler,
    RandomSubsetScheduler,
    RotatingScheduler,
    RoundRobinScheduler,
    ShuffledRoundRobinScheduler,
    SynchronousScheduler,
)
from repro.model.signal import Signal
from repro.tasks.le import AlgLE


# ----------------------------------------------------------------------
# The differential matrix.
# ----------------------------------------------------------------------

GRAPHS = {
    "ring9": lambda seed: ring(9),
    "damaged10": lambda seed: damaged_clique(10, 2, np.random.default_rng(seed)),
    "torus3x4": lambda seed: torus(3, 4),
    "star7": lambda seed: star(7),
    "dumbbell": lambda seed: dumbbell(4, 2),
    "gnp12": lambda seed: random_connected(12, 0.35, np.random.default_rng(seed)),
}

SCHEDULERS = {
    "sync": lambda topo: SynchronousScheduler(),
    "round-robin": lambda topo: RoundRobinScheduler(),
    "shuffled-rr": lambda topo: ShuffledRoundRobinScheduler(),
    "random-subset": lambda topo: RandomSubsetScheduler(0.4),
    "laggard": lambda topo: LaggardScheduler(victim=1, period=5),
    "rotating": lambda topo: RotatingScheduler(list(topo.nodes), shift=1),
    "explicit": lambda topo: ExplicitScheduler(
        [tuple(topo.nodes[:2]), tuple(topo.nodes[2:]), tuple(topo.nodes)],
        repeat=True,
    ),
}

DS = (1, 2, 3)
FAULT_SCHEDULES = (None, (4, 11), (2, 9, 17))

# 6 graphs x 7 schedulers, with D / fault schedule / the cautious_af
# ablation / the seed cycling through the matrix: 42 seeded combos.
CASES = [
    (
        graph,
        sched,
        DS[i % len(DS)],
        FAULT_SCHEDULES[i % len(FAULT_SCHEDULES)],
        i % 5 != 0,
        1000 + 17 * i,
    )
    for i, (graph, sched) in enumerate(
        itertools.product(sorted(GRAPHS), sorted(SCHEDULERS))
    )
]

STEPS = 40


def _make_pair(graph_key, sched_key, d, fault_times, cautious_af, seed):
    """Two engines over the same instance with identically seeded rng
    streams (scheduler and fault injector included)."""
    topology = GRAPHS[graph_key](seed)
    algorithm = ThinUnison(d, cautious_af=cautious_af)
    initial = random_configuration(algorithm, topology, np.random.default_rng(seed + 1))
    executions = []
    for engine in ("object", "array"):
        intervention = None
        if fault_times is not None:
            intervention = TransientFaultInjector(
                algorithm,
                times=fault_times,
                fraction=0.3,
                rng=np.random.default_rng(seed + 2),
            )
        executions.append(
            create_execution(
                topology,
                algorithm,
                initial,
                SCHEDULERS[sched_key](topology),
                rng=np.random.default_rng(seed + 3),
                intervention=intervention,
                engine=engine,
            )
        )
    return executions


@pytest.mark.parametrize(
    "graph_key, sched_key, d, fault_times, cautious_af, seed",
    CASES,
    ids=[
        f"{g}-{s}-D{d}-faults{'0' if f is None else len(f)}"
        f"{'' if c else '-ablated'}"
        for g, s, d, f, c, _ in CASES
    ],
)
def test_step_for_step_equivalence(
    graph_key, sched_key, d, fault_times, cautious_af, seed
):
    reference, vectorized = _make_pair(
        graph_key, sched_key, d, fault_times, cautious_af, seed
    )
    assert isinstance(reference, Execution)
    assert isinstance(vectorized, ArrayExecution)
    algorithm = reference.algorithm
    for _ in range(STEPS):
        ref_record = reference.step()
        vec_record = vectorized.step()
        assert ref_record.t == vec_record.t
        assert ref_record.activated == vec_record.activated
        assert set(ref_record.changed) == set(vec_record.changed)
        assert ref_record.completed_round == vec_record.completed_round
        assert reference.configuration == vectorized.configuration
        assert vectorized.graph_is_good() == is_good_graph(
            algorithm, reference.configuration
        )
    assert reference.completed_rounds == vectorized.completed_rounds
    assert reference.rounds.boundaries == vectorized.rounds.boundaries


@pytest.mark.parametrize("start", ["random", "sign-split", "clock-tear", "all-faulty"])
def test_adversarial_starts_stabilize_identically(start):
    """Both engines report the same stabilization rounds from the named
    adversarial starts (the numbers feeding the Thm 1.1 benchmarks)."""
    from repro.analysis.stabilization import measure_au_stabilization

    d = 2
    algorithm = ThinUnison(d)
    topology = damaged_clique(12, d, np.random.default_rng(7))
    initial = au_adversarial_suite(algorithm, topology, np.random.default_rng(8))[start]
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
        for engine in ("object", "array")
    ]
    assert results[0].stabilized and results[1].stabilized
    assert results[0].rounds == results[1].rounds
    assert results[0].steps == results[1].steps


def test_replace_configuration_mid_run():
    """Transient corruption via replace_configuration keeps the engines
    in lockstep (the fault-recovery experiment's code path)."""
    topology = ring(8)
    algorithm = ThinUnison(2)
    initial = random_configuration(algorithm, topology, np.random.default_rng(0))
    engines = [
        create_execution(
            topology,
            algorithm,
            initial,
            SynchronousScheduler(),
            rng=np.random.default_rng(1),
            engine=engine,
        )
        for engine in ("object", "array")
    ]
    for execution in engines:
        execution.run(max_steps=5)
    corrupted = engines[0].configuration.replace(
        {0: faulty(3), 3: able(-4), 5: faulty(-2)}
    )
    for execution in engines:
        execution.replace_configuration(corrupted)
    for _ in range(20):
        records = [execution.step() for execution in engines]
        assert set(records[0].changed) == set(records[1].changed)
    assert engines[0].configuration == engines[1].configuration


def test_array_engine_rejects_non_vectorizable_algorithms():
    topology = ring(8)
    algorithm = AlgLE(2)
    assert not supports_array_engine(algorithm)
    assert supports_array_engine(ThinUnison(1))
    initial = random_configuration(algorithm, topology, np.random.default_rng(0))
    with pytest.raises(ModelError):
        ArrayExecution(
            topology, algorithm, initial, SynchronousScheduler(),
            rng=np.random.default_rng(0),
        )
    with pytest.raises(ModelError):
        create_execution(
            topology,
            ThinUnison(1),
            random_configuration(ThinUnison(1), topology, np.random.default_rng(0)),
            SynchronousScheduler(),
            engine="simd",  # unknown engine name
        )


def test_delta_rows_matches_classify_pointwise():
    """The kernel's packed-signal delta_rows under an activation mask
    agrees with the scalar successor() on every node, active or not."""
    topology = damaged_clique(11, 2, np.random.default_rng(4))
    for cautious_af in (True, False):
        algorithm = ThinUnison(2, cautious_af=cautious_af)
        encoding = algorithm.encoding
        kernel = algorithm.vector_kernel()
        csr = topology.inclusive_csr()
        rng = np.random.default_rng(5)
        config = random_configuration(algorithm, topology, rng)
        codes = encoding.encode_configuration(config)
        active = rng.random(topology.n) < 0.6
        new_codes = np.where(active, kernel.delta_rows(codes, csr), codes)
        for v in topology.nodes:
            expected = (
                algorithm.successor(config[v], config.signal(v))
                if active[v]
                else config[v]
            )
            assert encoding.decode(int(new_codes[v])) == expected


@pytest.mark.parametrize(
    "algorithm",
    [
        ThinUnison(2),
        ThinUnison(4),
        ThinUnison(2, cautious_af=False),
        ThinUnison(4, cautious_af=False),
        ResetTailUnison.for_diameter_bound(3),
    ],
    ids=lambda algorithm: algorithm.name,
)
def test_scalar_delta_matches_resolve(algorithm):
    """The kernels' code-level δ entry agrees with the object model's
    ``resolve`` on random own codes and register multisets (half of
    them drawn near the own code, so the advancing rules fire too)."""
    encoding = algorithm.encoding
    delta = algorithm.vector_kernel().code_delta()
    size = encoding.size
    rng = np.random.default_rng(11)
    moved = 0
    for trial in range(4000):
        own = int(rng.integers(size))
        count = int(rng.integers(0, 7))
        if trial % 2:
            registers = rng.integers(size, size=count)
        else:
            registers = (own + rng.integers(-2, 3, size=count)) % size
        registers = registers.tolist()
        state = encoding.decode(own)
        signal = Signal([state] + [encoding.decode(code) for code in registers])
        expected = encoding.encode(algorithm.resolve(state, signal, rng))
        assert delta(own, registers) == expected
        moved += expected != own
    assert 0 < moved < 4000


# ----------------------------------------------------------------------
# Encoding round trips.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_encoding_is_a_bijection(d):
    algorithm = ThinUnison(d)
    encoding = algorithm.encoding
    assert encoding.size == algorithm.state_space_size() == 12 * d + 6
    seen = set()
    for turn in algorithm.turns.all_turns:
        code = encoding.encode(turn)
        assert 0 <= code < encoding.size
        assert encoding.decode(code) == turn
        seen.add(code)
    assert seen == set(range(encoding.size))
    # Able codes coincide with clock values — the layout the kernel
    # relies on.
    for turn in algorithm.turns.able_turns:
        assert encoding.encode(turn) == algorithm.levels.clock_value(turn.level)


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=6),
    magnitude=st.integers(min_value=1, max_value=20),
    negative=st.booleans(),
    is_faulty=st.booleans(),
)
def test_encoding_round_trip_property(d, magnitude, negative, is_faulty):
    algorithm = ThinUnison(d)
    encoding = algorithm.encoding
    k = algorithm.levels.k
    level = -magnitude if negative else magnitude
    turn = Turn(level=level, faulty=is_faulty)
    if algorithm.turns.is_turn(turn):
        assert encoding.decode(encoding.encode(turn)) == turn
    else:
        with pytest.raises(ModelError):
            encoding.encode(turn)


@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_configuration_round_trip_property(d, seed):
    algorithm = ThinUnison(d)
    encoding = algorithm.encoding
    topology = ring(7)
    config = random_configuration(algorithm, topology, np.random.default_rng(seed))
    codes = encoding.encode_configuration(config)
    assert codes.shape == (topology.n,)
    assert encoding.decode_configuration(topology, codes) == config
    # And the reverse direction: arbitrary valid code vectors survive a
    # decode/encode round trip.
    rng = np.random.default_rng(seed + 1)
    arbitrary = rng.integers(0, encoding.size, size=topology.n)
    decoded = encoding.decode_configuration(topology, arbitrary)
    assert np.array_equal(encoding.encode_configuration(decoded), arbitrary)


@pytest.mark.parametrize(
    "make",
    [lambda: ThinUnison(2), lambda: ResetTailUnison.for_diameter_bound(2)],
    ids=["algau", "reset-tail"],
)
def test_a_kernel_does_not_keep_its_algorithm_alive(make):
    """The algorithm caches its kernel and the kernel holds no reference
    back, so dropping the algorithm frees both at once, without waiting
    for the cyclic collector."""
    import gc
    import weakref

    algorithm = make()
    kernel = weakref.ref(algorithm.vector_kernel())
    alive = weakref.ref(algorithm)
    gc.disable()
    try:
        del algorithm
        assert alive() is None and kernel() is None
    finally:
        gc.enable()


def test_encoding_rejects_garbage():
    encoding = TurnEncoding(ThinUnison(1).turns)
    with pytest.raises(ModelError):
        encoding.decode(encoding.size)
    with pytest.raises(ModelError):
        encoding.decode(-1)
    with pytest.raises(ModelError):
        encoding.encode(faulty(1))  # |ℓ| = 1 has no faulty turn
    with pytest.raises(ModelError):
        encoding.decode_configuration(ring(4), np.array([0, 1, encoding.size, 2]))


# ----------------------------------------------------------------------
# The dirty-set differential suite: incremental pipeline vs the naive
# full-recompute reference.
# ----------------------------------------------------------------------

#: (graph, scheduler, fault kind).  Fault kinds cover every way state
#: mutates outside the step pipeline: transient storms (configuration
#: replacement), Byzantine strategies (per-step pokes + masking),
#: crash-stop (delayed masking), and ``none`` as the control.
FAULT_KINDS = ("none", "storm", "byz-frozen", "byz-random", "byz-oscillating", "crash")

INCREMENTAL_CASES = [
    (graph, sched, FAULT_KINDS[i % len(FAULT_KINDS)], 3000 + 31 * i)
    for i, (graph, sched) in enumerate(
        itertools.product(sorted(GRAPHS), sorted(SCHEDULERS))
    )
]


#: Extra inputs for the object lane's δ memo: (input, graph, scheduler,
#: fault kind, seed).
MEMO_CASES = [
    ("no-cautious-af", "damaged10", "shuffled-rr", "storm", 4100),
    ("no-cautious-af", "gnp12", "random-subset", "byz-oscillating", 4101),
    ("reset-tail", "ring9", "round-robin", "storm", 4102),
    ("reset-tail", "torus3x4", "sync", "none", 4103),
    ("topology-deltas", "gnp12", "sync", "none", 4104),
    ("topology-deltas", "damaged10", "random-subset", "none", 4105),
]


def _make_variant(
    topology,
    initial,
    sched_key,
    fault_kind,
    seed,
    engine,
    incremental,
    algorithm=None,
    monitors=(),
):
    """One execution with identically seeded rng streams regardless of
    engine/pipeline variant (topology and start shared across variants)."""
    from repro.resilience.adversary import PermanentFaultAdversary
    from repro.resilience.strategies import Crash, make_strategy

    algorithm = algorithm or ThinUnison(2)
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
        monitors=monitors,
        intervention=intervention,
        engine=engine,
        incremental=incremental,
    )


class TestIncrementalPipelineDifferential:
    """The incremental dirty-set pipeline must be bit-identical to the
    naive full-recompute reference — per engine exact record streams,
    across engines equal change sets — under every fault regime,
    including the permanent-fault adversaries that poke and mask nodes
    between steps."""

    @pytest.mark.parametrize(
        "graph_key, sched_key, fault_kind, seed",
        INCREMENTAL_CASES,
        ids=[f"{g}-{s}-{f}" for g, s, f, _ in INCREMENTAL_CASES],
    )
    def test_incremental_matches_naive_reference(
        self, graph_key, sched_key, fault_kind, seed
    ):
        topology = GRAPHS[graph_key](seed)
        initial = random_configuration(
            ThinUnison(2), topology, np.random.default_rng(seed + 1)
        )
        variants = {
            (engine, incremental): _make_variant(
                topology, initial, sched_key, fault_kind, seed, engine, incremental
            )
            for engine in ("object", "array")
            for incremental in (True, False)
        }
        reference = variants[("object", False)]
        others = [(key, ex) for key, ex in variants.items() if ex is not reference]
        for step in range(45):
            ref_record = reference.step()
            ref_good = reference.graph_is_good()
            ref_enabled = reference.enabled_count()
            for key, execution in others:
                record = execution.step()
                assert record.t == ref_record.t
                assert record.activated == ref_record.activated, (key, step)
                if key[0] == "object":
                    # Same engine ⇒ the change tuple is bit-identical
                    # (ordering included).
                    assert record.changed == ref_record.changed, (key, step)
                else:
                    assert set(record.changed) == set(ref_record.changed), (key, step)
                assert record.completed_round == ref_record.completed_round
                assert execution.graph_is_good() == ref_good, (key, step)
                assert execution.enabled_count() == ref_enabled, (key, step)
        for key, execution in others:
            assert execution.configuration == reference.configuration, key
            assert execution.masked_nodes == reference.masked_nodes, key

    @pytest.mark.parametrize(
        "memo_input, graph_key, sched_key, fault_kind, seed",
        MEMO_CASES,
        ids=[f"{m}-{g}-{s}-{f}" for m, g, s, f, _ in MEMO_CASES],
    )
    def test_object_memo_matches_naive_reference(
        self, memo_input, graph_key, sched_key, fault_kind, seed
    ):
        """The object lane's δ memo, beyond the matrix above: the
        ablated AlgAU, the other deterministic algorithm, and a stream
        of topology deltas (joins and leaves included) applied between
        steps.  Change tuples must match the naive path exactly."""
        algorithm = {
            "no-cautious-af": ThinUnison(2, cautious_af=False),
            "reset-tail": ResetTailUnison.for_diameter_bound(2),
            "topology-deltas": ThinUnison(2),
        }[memo_input]
        topology = GRAPHS[graph_key](seed)
        initial = random_configuration(
            algorithm, topology, np.random.default_rng(seed + 1)
        )
        pair = [
            _make_variant(
                topology,
                initial,
                sched_key,
                fault_kind,
                seed,
                "object",
                incremental,
                algorithm=algorithm,
            )
            for incremental in (True, False)
        ]
        deltas = [None] * 45
        if memo_input == "topology-deltas":
            from repro.faults.churn import ChurnProcess

            churn = ChurnProcess(
                topology,
                seed=seed,
                edge_add_rate=0.3,
                edge_remove_rate=0.3,
                join_rate=0.1,
                leave_rate=0.1,
                initial_state=algorithm.initial_state,
            )
            deltas = list(churn.deltas(45))
            assert sum(delta is not None for delta in deltas) >= 10
        polls_goodness = isinstance(algorithm, ThinUnison)
        for step, delta in enumerate(deltas):
            if delta is not None:
                for execution in pair:
                    execution.mutate_topology(delta)
            cached, naive = (execution.step() for execution in pair)
            assert cached == naive, step  # change tuples in order included
            if polls_goodness:
                assert pair[0].graph_is_good() == pair[1].graph_is_good(), step
            assert pair[0].enabled_count() == pair[1].enabled_count(), step
        assert pair[0].configuration.states() == pair[1].configuration.states()
        assert pair[0]._delta_memo, "the cached lane never consulted its memo"

    @pytest.mark.parametrize("engine", ["object", "array"])
    def test_array_incremental_streams_are_bit_identical(self, engine):
        """Within one engine the incremental pipeline reproduces the
        naive reference's records *exactly* — tuple order included."""
        topology = GRAPHS["damaged10"](99)
        initial = random_configuration(
            ThinUnison(2), topology, np.random.default_rng(100)
        )
        runs = []
        for incremental in (True, False):
            execution = _make_variant(
                topology, initial, "round-robin", "none", 99, engine, incremental
            )
            runs.append([execution.step() for _ in range(120)])
        for a, b in zip(*runs):
            assert a == b

    @pytest.mark.parametrize("engine", ["object", "array"])
    @pytest.mark.parametrize("seed", range(3))
    def test_rewire_recovery_matches_naive(self, engine, seed):
        """Dynamic-topology perturbations: a carried-over configuration
        starts a fresh pipeline whose streams still match the naive
        reference on the rewired graph."""
        from repro.faults.injection import carry_configuration, perturb_topology

        rng = np.random.default_rng(seed)
        topology = damaged_clique(10, 2, rng, damage=0.4)
        algorithm = ThinUnison(2)
        initial = random_configuration(algorithm, topology, rng)
        warm = create_execution(
            topology,
            algorithm,
            initial,
            ShuffledRoundRobinScheduler(),
            rng=np.random.default_rng(seed + 1),
            engine=engine,
        )
        warm.run(max_steps=60)
        perturbation = perturb_topology(topology, rng, remove=2, add=2)
        carried = carry_configuration(warm.configuration, perturbation.topology)
        runs = []
        for incremental in (True, False):
            execution = create_execution(
                perturbation.topology,
                algorithm,
                carried,
                ShuffledRoundRobinScheduler(),
                rng=np.random.default_rng(seed + 2),
                engine=engine,
                incremental=incremental,
            )
            records = []
            for _ in range(60):
                records.append(execution.step())
                records.append(execution.graph_is_good())
            runs.append((records, execution.configuration))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]

    @pytest.mark.parametrize("engine", ["object", "array"])
    def test_pokes_and_masks_re_dirty_conservatively(self, engine):
        """Out-of-band state writes (poke_states) and mask flips must
        re-dirty affected neighborhoods: the incremental pipeline stays
        in lockstep with the naive reference through all of them."""
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
                incremental=incremental,
            )
            for incremental in (True, False)
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
        assert pair[0].configuration == pair[1].configuration

    @pytest.mark.parametrize("engine", ["object", "array"])
    def test_enabled_view_matches_brute_force(self, engine):
        """The maintained enabled set equals the definition: support of
        δ not contained in the current state — after steps, pokes and
        masking alike."""
        topology = damaged_clique(9, 2, np.random.default_rng(3))
        algorithm = ThinUnison(2)
        initial = random_configuration(algorithm, topology, np.random.default_rng(4))
        execution = create_execution(
            topology,
            algorithm,
            initial,
            ShuffledRoundRobinScheduler(),
            rng=np.random.default_rng(5),
            engine=engine,
        )

        def brute_force():
            config = execution.configuration
            return frozenset(
                v
                for v in topology.nodes
                if v not in execution.masked_nodes
                and algorithm.successor(config[v], config.signal(v)) != config[v]
            )

        assert execution.enabled_nodes() == brute_force()
        for step in range(30):
            execution.step()
            assert execution.enabled_nodes() == brute_force(), step
            assert execution.enabled_count() == len(brute_force())
            assert execution.is_quiescent() == (not brute_force())
        execution.poke_states({0: faulty(4), 5: able(1)})
        assert execution.enabled_nodes() == brute_force()
        execution.mask_nodes((0, 2))
        assert execution.enabled_nodes() == brute_force()
        execution.mask_nodes(())
        assert execution.enabled_nodes() == brute_force()


# ----------------------------------------------------------------------
# Lazily decoded change records on the array tier.
# ----------------------------------------------------------------------

#: (graph, scheduler, fault kind): dense steps, Byzantine-masked steps,
#: and the scalar path (one activation per step).
LAZY_RECORD_CASES = {
    "dense": ("torus3x4", "sync", "none"),
    "masked": ("gnp12", "random-subset", "byz-random"),
    "scalar": ("damaged10", "round-robin", "byz-frozen"),
}

ARRAY_TIER = [
    "array",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(native_backend() is None, reason="no native backend"),
    ),
]


@pytest.mark.parametrize("engine", ARRAY_TIER)
@pytest.mark.parametrize("case", sorted(LAZY_RECORD_CASES))
class TestLazyChangeRecords:
    """Array-tier records keep a step's moved rows and codes and decode
    ``changed`` on first read; reading late, comparing records, and
    folding monitors must all behave as with eager tuples."""

    STEPS = 40

    def _lane(self, case, engine, monitors=()):
        """A fresh execution; equal ``case`` gives equal seeds."""
        graph_key, sched_key, fault_kind = LAZY_RECORD_CASES[case]
        seed = 5100 + sorted(LAZY_RECORD_CASES).index(case)
        topology = GRAPHS[graph_key](seed)
        initial = random_configuration(
            ThinUnison(2), topology, np.random.default_rng(seed + 1)
        )
        return _make_variant(
            topology,
            initial,
            sched_key,
            fault_kind,
            seed,
            engine,
            True,
            monitors=monitors,
        )

    def test_late_reads_equal_eager_decoding(self, case, engine):
        eager_lane, lazy_lane = self._lane(case, engine), self._lane(case, engine)
        eager = [eager_lane.step().changed for _ in range(self.STEPS)]
        records = [lazy_lane.step() for _ in range(self.STEPS)]
        # Every record is read only after all later steps wrote codes.
        assert [record.changed for record in records] == eager
        assert sum(map(len, eager)) > 0
        if case == "masked":
            assert lazy_lane.masked_nodes

    def test_equality_compares_decoded_changes(self, case, engine):
        left, right = self._lane(case, engine), self._lane(case, engine)
        for _ in range(self.STEPS):
            a, b = left.step(), right.step()
            assert a == b and hash(a) == hash(b)
            if a.changed:
                break
        else:
            pytest.fail("no step moved a node")
        assert a == StepRecord(a.t, a.activated, a.changed, a.completed_round)
        forged = StepRecord(a.t, a.activated, lambda: a.changed[1:], a.completed_round)
        assert forged != a

    def test_monitors_read_the_same_changes(self, case, engine):
        from repro.analysis.monitors import MoveCounter, OutputChangeMonitor

        algorithm = ThinUnison(2)
        ref_moves, ref_output = MoveCounter(), OutputChangeMonitor(algorithm)
        moves, output = MoveCounter(), OutputChangeMonitor(algorithm)
        reference = self._lane(case, "object", (ref_moves, ref_output))
        lane = self._lane(case, engine, (moves, output))
        for _ in range(self.STEPS):
            reference.step()
            lane.step()
        assert moves.moves == ref_moves.moves == lane.moves > 0
        assert output.last_change_time == ref_output.last_change_time
        assert output.current_vector == ref_output.current_vector
        assert output.currently_complete == ref_output.currently_complete


# ----------------------------------------------------------------------
# Dynamic topology (perturb/carry) under the array engine.
# ----------------------------------------------------------------------


class TestDynamicTopologyOnArrayEngine:
    """The rewire flow — ``perturb_topology`` + ``carry_configuration``
    — was only differentially covered on the object engine; these tests
    drive it through the vectorized backend."""

    @pytest.mark.parametrize("seed", range(4))
    def test_post_rewire_step_for_step_equivalence(self, seed):
        from repro.faults.injection import carry_configuration, perturb_topology

        rng = np.random.default_rng(seed)
        topology = damaged_clique(10, 2, rng, damage=0.4)
        algorithm = ThinUnison(2)
        initial = random_configuration(algorithm, topology, rng)

        # Stabilize on the array engine first (the carried configuration
        # should be a genuinely evolved one, not a random start).
        execution = create_execution(
            topology,
            algorithm,
            initial,
            ShuffledRoundRobinScheduler(),
            rng=np.random.default_rng(seed + 1),
            engine="array",
        )
        execution.run(max_rounds=5000, until=lambda e: e.graph_is_good())
        assert execution.graph_is_good()

        perturbation = perturb_topology(topology, rng, remove=2, add=2)
        carried = carry_configuration(
            execution.configuration, perturbation.topology
        )
        assert carried.states() == execution.configuration.states()

        engines = [
            create_execution(
                perturbation.topology,
                algorithm,
                carried,
                ShuffledRoundRobinScheduler(),
                rng=np.random.default_rng(seed + 2),
                engine=engine,
            )
            for engine in ("object", "array")
        ]
        reference, vectorized = engines
        for _ in range(40):
            ref_record = reference.step()
            vec_record = vectorized.step()
            assert ref_record.activated == vec_record.activated
            assert set(ref_record.changed) == set(vec_record.changed)
            assert reference.configuration == vectorized.configuration
            assert vectorized.graph_is_good() == reference.graph_is_good()

    def test_rewire_scenario_results_identical_across_engines(self):
        from repro.campaigns import FaultPlan, Scenario, run_scenario

        measured = {}
        for engine in ("object", "array"):
            scenario = Scenario(
                campaign="test",
                index=0,
                task="au",
                graph="damaged-clique",
                graph_params=(("n", 10), ("diameter_bound", 2), ("damage", 0.4)),
                diameter_bound=2,
                scheduler="shuffled-round-robin",
                engine=engine,
                start="random",
                seed=123,
                max_rounds=20_000,
                faults=FaultPlan(kind="rewire", remove=2, add=1),
            )
            result = run_scenario(scenario)
            assert result.stabilized and result.recovered
            measured[engine] = (
                result.stabilized,
                result.rounds,
                result.steps,
                result.recovered,
                result.recovery_rounds,
                result.n,
                result.m,
            )
        assert measured["object"] == measured["array"]

    def test_carried_codes_match_object_restart(self):
        """Re-homing a configuration onto a rewired topology yields the
        same code vector the object engine would encode."""
        from repro.faults.injection import carry_configuration, perturb_topology

        rng = np.random.default_rng(7)
        topology = damaged_clique(9, 2, rng, damage=0.4)
        algorithm = ThinUnison(2)
        config = random_configuration(algorithm, topology, rng)
        perturbation = perturb_topology(topology, rng, remove=1, add=2)
        carried = carry_configuration(config, perturbation.topology)
        execution = create_execution(
            perturbation.topology,
            algorithm,
            carried,
            SynchronousScheduler(),
            rng=rng,
            engine="array",
        )
        expected = algorithm.encoding.encode_configuration(carried)
        assert np.array_equal(execution.codes, expected)
