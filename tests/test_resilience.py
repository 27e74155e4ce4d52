"""The permanent-fault resilience subsystem.

Covers the Byzantine/crash/noise strategies and their registry (the
targeted adversary's local score against a whole-configuration rescore
on generated graphs, ties included), the engine-level masking and
sparse-poke hooks, the :class:`PermanentFaultAdversary` intervention
(including step-for-step bit-identity between the object and array
engines under every strategy), and the containment analytics (hop
distances, the clean mask's object/vectorized agreement, containment
radius, and the measurement harness).
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.containment import (
    ContainmentTracker,
    clean_node_mask,
    clean_node_mask_codes,
    containment_radius,
    execution_clean_mask,
    hop_distances,
    measure_containment,
    radius_of_mask,
)
from repro.core.algau import ThinUnison
from repro.core.potential import disorder_gain, disorder_potential
from repro.core.turns import able, faulty
from repro.faults.injection import random_configuration, uniform_configuration
from repro.graphs.generators import damaged_clique, path, ring, star
from repro.graphs.topology import topology_from_edges
from repro.model.configuration import Configuration
from repro.model.engine import create_execution
from repro.model.errors import ModelError
from repro.model.goodness import GoodnessLedger
from repro.model.scheduler import (
    RandomSubsetScheduler,
    ShuffledRoundRobinScheduler,
    SynchronousScheduler,
)
from repro.net.runtime import NetExecution
from repro.resilience import (
    BYZANTINE_STRATEGIES,
    Crash,
    FrozenClock,
    Noisy,
    PermanentFaultAdversary,
    RandomClock,
    Targeted,
    make_strategy,
    select_faulty_nodes,
    strategy_names,
)


def _execution(engine="object", n=8, d=2, seed=0, strategy=None, faulty_nodes=(0,)):
    rng = np.random.default_rng(seed)
    topology = damaged_clique(n, d, rng, damage=0.4)
    algorithm = ThinUnison(d)
    initial = random_configuration(algorithm, topology, rng)
    intervention = None
    if strategy is not None:
        intervention = PermanentFaultAdversary(strategy, faulty_nodes, rng=rng)
    return create_execution(
        topology,
        algorithm,
        initial,
        ShuffledRoundRobinScheduler(),
        rng=rng,
        intervention=intervention,
        engine=engine,
    )


class TestStrategies:
    def test_registry_and_factory(self):
        assert set(strategy_names()) == set(BYZANTINE_STRATEGIES) == {
            "frozen",
            "random",
            "oscillating",
            "targeted",
            "crash",
            "noisy",
        }
        for name in strategy_names():
            assert make_strategy(name).name == name

    def test_unknown_strategy_lists_valid_names(self):
        with pytest.raises(ValueError, match="frozen"):
            make_strategy("gaslight")

    @pytest.mark.parametrize(
        "build",
        [
            lambda: RandomClock(period=0),
            lambda: Crash(at=-1),
            lambda: Noisy(p=0.0),
            lambda: Noisy(p=1.5),
        ],
    )
    def test_parameter_validation(self, build):
        with pytest.raises(ModelError):
            build()

    @pytest.mark.parametrize("engine", ["object", "array"])
    def test_frozen_node_never_moves(self, engine):
        execution = _execution(engine=engine, strategy=FrozenClock(), faulty_nodes=(2,))
        before = execution.state_of(2)
        for _ in range(60):
            execution.step()
            assert execution.state_of(2) == before

    def test_frozen_at_level_overrides_the_start_state(self):
        execution = _execution(strategy=FrozenClock(level=1), faulty_nodes=(3,))
        execution.step()
        assert execution.state_of(3) == able(1)

    @pytest.mark.parametrize("engine", ["object", "array"])
    def test_random_clock_babbles(self, engine):
        execution = _execution(engine=engine, strategy=RandomClock(), faulty_nodes=(1,))
        seen = set()
        for _ in range(40):
            execution.step()
            seen.add(execution.state_of(1))
        assert len(seen) > 3  # a fresh random turn nearly every step

    def test_oscillating_flips_between_the_extremes(self):
        execution = _execution(strategy=make_strategy("oscillating"), faulty_nodes=(4,))
        k = execution.algorithm.levels.k
        seen = set()
        for _ in range(10):
            execution.step()
            seen.add(execution.state_of(4))
        assert seen == {able(k), able(-k)}

    def test_crash_behaves_until_the_crash_time(self):
        # Uniform benign start on a clique: nodes advance in unison, so
        # the crashing node provably moves before its crash time.
        rng = np.random.default_rng(0)
        topology = star(7)
        algorithm = ThinUnison(2)
        initial = uniform_configuration(algorithm, topology)
        adversary = PermanentFaultAdversary(Crash(at=12), (0,), rng=rng)
        execution = create_execution(
            topology,
            algorithm,
            initial,
            SynchronousScheduler(),
            rng=rng,
            intervention=adversary,
        )
        start = execution.state_of(0)
        moved_before = False
        for _ in range(12):
            execution.step()
            moved_before = moved_before or execution.state_of(0) != start
        assert moved_before
        frozen = execution.state_of(0)
        for _ in range(30):
            execution.step()
            assert execution.state_of(0) == frozen

    def test_noisy_node_still_runs_the_protocol(self):
        # With p < 1 the node is unmasked: between corruption hits it
        # executes delta like everyone else.
        execution = _execution(strategy=Noisy(p=0.2), faulty_nodes=(5,))
        assert execution.masked_nodes == frozenset()
        for _ in range(20):
            execution.step()
        assert execution.masked_nodes == frozenset()

    def test_targeted_picks_a_disrupting_turn(self):
        execution = _execution(strategy=make_strategy("targeted"), faulty_nodes=(0,))
        algorithm = execution.algorithm
        execution.step()
        config = execution.configuration
        chosen = disorder_potential(algorithm, config)
        for turn in algorithm.turns.all_turns:
            assert chosen >= disorder_potential(algorithm, config.replace({0: turn}))


def _full_rescore_targeted(algorithm, config, nodes):
    """The reference greedy adversary: re-score the whole configuration
    with :func:`disorder_potential` for every candidate turn of every
    faulty node (ascending ids, each seeing the earlier choices; the
    first turn in ``all_turns`` order wins ties)."""
    updates = {}
    for v in nodes:
        best_turn = config[v]
        best_score = -1
        for turn in algorithm.turns.all_turns:
            score = disorder_potential(algorithm, config.replace({v: turn}))
            if score > best_score:
                best_score = score
                best_turn = turn
        config = config.replace({v: best_turn})
        updates[v] = best_turn
    return updates


@st.composite
def _targeted_cases(draw):
    """A connected graph (a random tree plus extra edges), a diameter
    bound, a configuration over a small turn pool (so candidate scores
    tie often) and a faulty set of 1..n/2 nodes."""
    n = draw(st.integers(2, 14))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for v in range(n) for u in range(v)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=2 * n)))
    topology = topology_from_edges(sorted(edges))
    algorithm = ThinUnison(draw(st.integers(1, 5)))
    pool = draw(
        st.lists(st.sampled_from(algorithm.turns.all_turns), min_size=1, max_size=3)
    )
    states = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    config = Configuration(topology, dict(enumerate(states)))
    nodes = draw(
        st.lists(
            st.integers(0, n - 1), min_size=1, max_size=max(1, n // 2), unique=True
        )
    )
    return algorithm, config, tuple(sorted(nodes))


class TestTargetedLocalScore:
    """The targeted adversary scores candidates from the faulty node's
    two-hop neighborhood; it must choose exactly what a whole-
    configuration rescore chooses, ties included."""

    @settings(max_examples=150, deadline=None)
    @given(case=_targeted_cases())
    def test_matches_the_full_rescore_reference(self, case):
        algorithm, config, nodes = case
        execution = SimpleNamespace(
            algorithm=algorithm,
            topology=config.topology,
            codes=algorithm.encoding.encode_configuration(config),
        )
        rows, codes = Targeted().states_at(
            execution, nodes, np.random.default_rng(0), 0
        )
        table = algorithm.encoding.turn_table
        chosen = {v: table[code] for v, code in zip(rows, codes)}
        assert chosen == _full_rescore_targeted(algorithm, config, nodes)

    @settings(max_examples=100, deadline=None)
    @given(case=_targeted_cases())
    def test_gain_differences_are_potential_differences(self, case):
        algorithm, config, nodes = case
        v = nodes[0]
        codes = algorithm.encoding.encode_configuration(config)
        gain = disorder_gain(
            algorithm.vector_kernel(), codes, config.topology.inclusive_csr(), v
        )
        potential = np.array(
            [
                disorder_potential(algorithm, config.replace({v: turn}))
                for turn in algorithm.turns.all_turns
            ]
        )
        assert np.array_equal(gain - gain[0], potential - potential[0])

    @pytest.mark.parametrize("d", range(1, 10))
    def test_code_order_is_turn_order(self, d):
        # The first-maximum tie rule over codes is the reference's
        # first-in-all_turns rule only because the orders coincide.
        algorithm = ThinUnison(d)
        assert algorithm.encoding.turn_table == algorithm.turns.all_turns

    @pytest.mark.parametrize("d", range(1, 9))
    def test_outwards_gg_mask_matches_the_level_system(self, d):
        algorithm = ThinUnison(d)
        levels = algorithm.levels
        mask = algorithm.vector_kernel().outwards_gg_mask()
        for code, turn in enumerate(algorithm.encoding.turn_table):
            outer = levels.outwards_gg(turn.level)
            expected = {levels.clock_value(level) for level in outer}
            assert set(np.nonzero(mask[code])[0].tolist()) == expected


class TestEngineHooks:
    @pytest.mark.parametrize("engine", ["object", "array"])
    def test_masked_nodes_keep_their_state(self, engine):
        execution = _execution(engine=engine)
        execution.mask_nodes((0, 1))
        assert execution.masked_nodes == frozenset({0, 1})
        s0, s1 = execution.state_of(0), execution.state_of(1)
        for _ in range(30):
            record = execution.step()
            assert all(v not in (0, 1) for v, _, _ in record.changed)
        assert (execution.state_of(0), execution.state_of(1)) == (s0, s1)
        execution.mask_nodes(())
        assert execution.masked_nodes == frozenset()

    def test_mask_rejects_unknown_nodes(self):
        execution = _execution()
        with pytest.raises(ModelError):
            execution.mask_nodes((99,))

    @pytest.mark.parametrize("engine", ["object", "array"])
    def test_poke_states_overwrites_in_place(self, engine):
        execution = _execution(engine=engine)
        execution.poke_states({0: faulty(2), 3: able(-1)})
        assert execution.state_of(0) == faulty(2)
        assert execution.state_of(3) == able(-1)
        assert execution.configuration[0] == faulty(2)

    def test_array_poke_preserves_code_snapshots(self):
        execution = _execution(engine="array")
        snapshot = execution.codes.copy()
        view = execution.codes
        execution.poke_states({0: faulty(2)})
        assert (view == snapshot).all()  # earlier views are unaffected
        assert execution.codes[0] == execution.algorithm.encoding.encode(faulty(2))

    def test_poke_rejects_unknown_nodes(self):
        for engine in ("object", "array"):
            execution = _execution(engine=engine)
            with pytest.raises(Exception):
                execution.poke_states({42: able(1)})


class TestAdversary:
    def test_needs_at_least_one_node(self):
        with pytest.raises(ModelError):
            PermanentFaultAdversary(FrozenClock(), ())

    def test_rejects_foreign_nodes(self):
        execution = _execution()
        adversary = PermanentFaultAdversary(FrozenClock(), (50,))
        execution.intervention = adversary
        with pytest.raises(ModelError):
            execution.step()

    def test_select_faulty_nodes_bounds(self):
        rng = np.random.default_rng(0)
        topology = ring(10)
        nodes = select_faulty_nodes(topology, 0.25, rng)
        assert len(nodes) == 3 and len(set(nodes)) == 3
        with pytest.raises(ModelError):
            select_faulty_nodes(topology, 0.0, rng)
        with pytest.raises(ModelError):
            select_faulty_nodes(topology, 0.99, rng)

    @pytest.mark.parametrize("strategy_name", sorted(BYZANTINE_STRATEGIES))
    @pytest.mark.parametrize(
        "scheduler_factory",
        [
            SynchronousScheduler,
            ShuffledRoundRobinScheduler,
            lambda: RandomSubsetScheduler(0.5),
        ],
        ids=["sync", "shuffled-rr", "random-subset"],
    )
    def test_engines_bit_identical_under_permanent_faults(
        self, strategy_name, scheduler_factory
    ):
        """The subsystem's differential contract: same seeds, same
        strategy, same trajectory on both engines — step for step."""
        seed = 11
        rng = np.random.default_rng(seed)
        topology = damaged_clique(9, 2, rng, damage=0.4)
        algorithm = ThinUnison(2)
        initial = random_configuration(algorithm, topology, rng)
        engines = []
        for engine in ("object", "array"):
            adversary = PermanentFaultAdversary(
                make_strategy(strategy_name),
                (1, 4),
                rng=np.random.default_rng(seed + 1),
            )
            engines.append(
                create_execution(
                    topology,
                    algorithm,
                    initial,
                    scheduler_factory(),
                    rng=np.random.default_rng(seed + 2),
                    intervention=adversary,
                    engine=engine,
                )
            )
        reference, vectorized = engines
        for _ in range(50):
            ref_record = reference.step()
            vec_record = vectorized.step()
            assert ref_record.activated == vec_record.activated
            assert set(ref_record.changed) == set(vec_record.changed)
            assert ref_record.completed_round == vec_record.completed_round
            assert reference.configuration == vectorized.configuration
            assert reference.masked_nodes == vectorized.masked_nodes


def _reference_states(name, params, execution, nodes, rng, t):
    """The Turn-dict strategies: each strategy's state overrides as a
    ``{node: Turn}`` dict, drawn exactly as before strategies returned
    ``(rows, codes)``."""
    algorithm = execution.algorithm
    period = params.get("period", 1)
    if name == "random":
        if t % period:
            return {}
        return {v: algorithm.random_state(rng) for v in nodes}
    if name == "oscillating":
        k = algorithm.levels.k
        face = able(k) if (t // period) % 2 == 0 else able(-k)
        return {v: face for v in nodes}
    if name == "targeted":
        if t % period:
            return {}
        config = execution.configuration
        kernel = algorithm.vector_kernel()
        encoding = kernel.encoding
        codes = encoding.encode_configuration(config)
        csr = config.topology.inclusive_csr()
        updates = {}
        for v in nodes:
            best = int(np.argmax(disorder_gain(kernel, codes, csr, v)))
            codes[v] = best
            updates[v] = encoding.decode(best)
        return updates
    if name == "noisy":
        hits = rng.random(len(nodes)) < params.get("p", 0.3)
        return {v: algorithm.random_state(rng) for v, hit in zip(nodes, hits) if hit}
    return {}  # frozen and crash write nothing per step


class _TurnDictAdversary:
    """The reference adversary: Turn-dict strategies, a no-op filter
    that decodes every faulty node with ``state_of``, and
    ``poke_states``.  Masking follows the strategy's ``masked_at``."""

    def __init__(self, name, params, nodes, rng):
        self.name = name
        self.params = params
        self.strategy = make_strategy(name, **params)
        self.nodes = tuple(sorted(nodes))
        self._rng = rng
        self._masked = None
        self._initialized = False

    def __call__(self, execution):
        t = execution.t
        if not self._initialized:
            self._initialized = True
            level = self.params.get("level")
            if self.name == "frozen" and level is not None:
                self._poke(execution, {v: able(level) for v in self.nodes})
        masked = self.strategy.masked_at(t)
        if masked != self._masked:
            execution.mask_nodes(self.nodes if masked else ())
            self._masked = masked
        self._poke(
            execution,
            _reference_states(
                self.name, self.params, execution, self.nodes, self._rng, t
            ),
        )
        return None

    @staticmethod
    def _poke(execution, updates):
        effective = {
            v: state for v, state in updates.items() if execution.state_of(v) != state
        }
        if effective:
            execution.poke_states(effective)


#: ``(strategy name, parameters)``: every strategy, ``frozen`` also with
#: a level and the periodic ones also off their default period.
_CODE_SPACE_CASES = [
    ("frozen", {}),
    ("frozen", {"level": 1}),
    ("random", {}),
    ("random", {"period": 3}),
    ("oscillating", {}),
    ("oscillating", {"period": 2}),
    ("targeted", {}),
    ("crash", {"at": 40}),
    ("noisy", {}),
]
_CASE_IDS = [
    "-".join([name, *map(str, params.values())]) for name, params in _CODE_SPACE_CASES
]

#: A two-node faulty set (scalar pokes) and a six-node one (more moved
#: rows than ``ArrayExecution.SCALAR_ACTIVATION_MAX``: vectorized pokes).
_FAULTY_SETS = [(2, 9), (0, 3, 5, 8, 10, 13)]


def _lane_execution(lane, intervention, seed=21):
    rng = np.random.default_rng(seed)
    topology = damaged_clique(14, 3, rng, damage=0.4)
    algorithm = ThinUnison(3)
    initial = random_configuration(algorithm, topology, rng)
    build = NetExecution if lane == "net" else create_execution
    kwargs = {} if lane == "net" else {"engine": lane}
    return build(
        topology,
        algorithm,
        initial,
        RandomSubsetScheduler(0.5),
        rng=np.random.default_rng(seed + 1),
        intervention=intervention,
        **kwargs,
    )


class TestCodeSpaceContract:
    """Strategies return ``(rows, codes)`` and every lane writes them
    through ``poke_codes``; the result must equal the Turn-dict
    reference adversary step for step, on every lane."""

    @pytest.mark.parametrize("nodes", _FAULTY_SETS, ids=["scalar", "vectorized"])
    @pytest.mark.parametrize("name,params", _CODE_SPACE_CASES, ids=_CASE_IDS)
    @pytest.mark.parametrize("lane", ["object", "array", "native", "net"])
    def test_matches_the_turn_dict_reference(self, lane, name, params, nodes):
        reference_rng = np.random.default_rng(7)
        rng = np.random.default_rng(7)
        reference = _lane_execution(
            lane, _TurnDictAdversary(name, params, nodes, reference_rng)
        )
        execution = _lane_execution(
            lane,
            PermanentFaultAdversary(make_strategy(name, **params), nodes, rng=rng),
        )
        for _ in range(200):
            reference.step()
            execution.step()
            assert np.array_equal(reference.codes, execution.codes)
            assert reference.state_epoch == execution.state_epoch
            assert reference.moves == execution.moves
        assert reference_rng.bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize("lane", ["object", "array", "native", "net"])
    def test_poke_codes_drops_no_op_writes(self, lane):
        execution = _lane_execution(lane, None)
        before = execution.codes
        execution.poke_codes((1, 4), (int(before[1]), int(before[4])))
        assert execution.state_epoch == 0
        assert np.array_equal(execution.codes, before)
        moved = (int(before[4]) + 1) % execution.algorithm.encoding.size
        execution.poke_codes((1, 4), (int(before[1]), moved))
        assert execution.state_epoch == 1
        assert execution.codes[4] == moved
        assert execution.state_of(4) == execution.algorithm.encoding.decode(moved)

    @pytest.mark.parametrize("count", range(1, 8))
    @pytest.mark.parametrize("engine", ["array", "native"])
    def test_poked_goodness_counts_match_a_recount(self, engine, count):
        # Up to SCALAR_ACTIVATION_MAX moved rows fold goodness move by
        # move and must stay exact; more drop the counts, and the next
        # query must recount them exactly.
        execution = _lane_execution(engine, None)
        rng = np.random.default_rng(count)
        for _ in range(20):
            execution.graph_is_good()  # (re)seeds the incremental counts
            rows = rng.choice(execution.topology.n, size=count, replace=False)
            codes = rng.integers(execution.algorithm.encoding.size, size=count)
            execution.poke_codes(rows, codes)
            ledger = GoodnessLedger(execution._native or execution._kernel)
            ledger.recount(execution._codes, execution._csr)
            recount = ledger.counts
            if count <= execution.SCALAR_ACTIVATION_MAX:
                assert execution._ledger.counts == recount
            else:  # a larger change set defers to a lazy recount
                assert execution._ledger.counts in (None, recount)
            assert execution.graph_is_good() == (recount == (0, 0))
            execution.step()

    def test_array_poke_codes_rejects_bad_rows_and_codes(self):
        execution = _lane_execution("array", None)
        with pytest.raises(ModelError):
            execution.poke_codes((42,), (0,))
        with pytest.raises(ModelError):
            execution.poke_codes((0,), (execution.algorithm.encoding.size,))


class TestContainmentAnalytics:
    def test_hop_distances_multi_source(self):
        topology = path(7)
        distances = hop_distances(topology, (0, 6))
        assert distances.tolist() == [0, 1, 2, 3, 2, 1, 0]
        with pytest.raises(ModelError):
            hop_distances(topology, ())
        with pytest.raises(ModelError):
            hop_distances(topology, (9,))

    def test_clean_mask_reference_semantics(self):
        # path 0-1-2-3-4, faulty node 0.
        topology = path(5)
        algorithm = ThinUnison(topology.diameter)
        distances = hop_distances(topology, (0,))
        config = Configuration(
            topology,
            {0: able(4), 1: faulty(2), 2: able(2), 3: able(2), 4: able(3)},
        )
        clean = clean_node_mask(algorithm, config, distances)
        # 0 is the fault (never clean); 1 holds a faulty turn; 2 borders
        # the faulty-turned node 1 but that edge points inwards, so only
        # its outward edge to 3 counts (protected); 4 is adjacent to 3.
        assert clean.tolist() == [False, False, True, True, True]
        assert radius_of_mask(clean, distances) == 1
        assert containment_radius(algorithm, config, distances) == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_clean_mask_object_vs_vectorized(self, seed):
        rng = np.random.default_rng(seed)
        topology = damaged_clique(11, 2, rng, damage=0.4)
        algorithm = ThinUnison(2)
        config = random_configuration(algorithm, topology, rng)
        distances = hop_distances(topology, (int(rng.integers(topology.n)),))
        reference = clean_node_mask(algorithm, config, distances)
        codes = algorithm.encoding.encode_configuration(config)
        vectorized = clean_node_mask_codes(
            algorithm.vector_kernel(), codes, topology.inclusive_csr(), distances
        )
        assert reference.tolist() == vectorized.tolist()

    def test_execution_clean_mask_dispatches_per_engine(self):
        for engine in ("object", "array"):
            execution = _execution(engine=engine, strategy=FrozenClock())
            execution.run_rounds(3)
            distances = hop_distances(execution.topology, (0,))
            mask = execution_clean_mask(execution, distances)
            assert mask.dtype == bool and len(mask) == execution.topology.n
            assert not mask[0]  # the faulty node is never clean
            assert radius_of_mask(mask, distances) <= int(distances.max())

    def test_tracker_records_radius_and_recovery(self):
        strategy = make_strategy("random")
        rng = np.random.default_rng(3)
        topology = ring(12)
        algorithm = ThinUnison(6)
        adversary = PermanentFaultAdversary(strategy, (0,), rng=rng)
        tracker = ContainmentTracker((0,))
        execution = create_execution(
            topology,
            algorithm,
            random_configuration(algorithm, topology, rng),
            ShuffledRoundRobinScheduler(),
            rng=rng,
            monitors=(tracker,),
            intervention=adversary,
            engine="array",
        )
        execution.run(max_rounds=30)
        assert tracker.rounds == 30
        assert len(tracker.radius_timeline) == 30
        assert tracker.last_unclean_round.max() <= 30
        assert tracker.last_unclean_round[0] == 0  # faulty: not tracked
        assert 0 <= tracker.stable_radius(10) <= int(tracker.distances.max())

    def test_measure_containment_end_to_end(self):
        rng = np.random.default_rng(5)
        topology = ring(16)
        algorithm = ThinUnison(8)
        faulty_nodes = select_faulty_nodes(topology, 0.08, rng)
        measurement = measure_containment(
            algorithm,
            topology,
            random_configuration(algorithm, topology, rng),
            ShuffledRoundRobinScheduler(),
            rng,
            faulty_nodes,
            make_strategy("frozen"),
            rounds=80,
            confirm_rounds=15,
        )
        assert measurement.rounds == 80
        assert measurement.faulty_nodes == faulty_nodes
        assert len(measurement.radius_timeline) == 80
        assert 0 <= measurement.stable_radius <= measurement.max_distance
        curve = measurement.recovery_by_distance()
        assert set(curve) <= set(range(1, measurement.max_distance + 1))
        assert sum(b["nodes"] for b in curve.values()) == topology.n - len(
            faulty_nodes
        )
        # Nodes beyond the stable radius were clean through the window.
        for v, d in enumerate(measurement.distances):
            if d > measurement.stable_radius:
                assert measurement.settled(v)
        assert 0.0 <= measurement.clean_fraction() <= 1.0

    def test_measure_containment_validates_bounds(self):
        rng = np.random.default_rng(0)
        topology = ring(8)
        algorithm = ThinUnison(4)
        initial = random_configuration(algorithm, topology, rng)
        with pytest.raises(ModelError):
            measure_containment(
                algorithm,
                topology,
                initial,
                SynchronousScheduler(),
                rng,
                (0,),
                FrozenClock(),
                rounds=0,
            )
        with pytest.raises(ModelError):
            measure_containment(
                algorithm,
                topology,
                initial,
                SynchronousScheduler(),
                rng,
                (0,),
                FrozenClock(),
                rounds=5,
                confirm_rounds=9,
            )
