"""Differential validation of the replica-batched ensemble runner.

Two contracts are pinned down:

* the engine name — ``create_execution(engine="replica-batch")`` builds
  the array engine, which must be bit-identical to the object-model
  reference step for step across graph × scheduler × fault-plan combos
  (mirroring ``tests/test_array_engine_equivalence.py``; fault plans
  include the storm injector and the permanent-fault adversaries that
  poke and mask between steps);
* the ensemble runner — :meth:`ReplicaBatchExecution.from_replicas`
  + :meth:`run_ensemble` — must produce, per replica, exactly the
  outcome the per-scenario array path measures from the same seed:
  same stabilization verdict, same paper-unit rounds, same step count,
  same final code vector, and the same post-run rng stream position (no
  stream aliasing across replicas).

The engine-name registry agreement test also lives here: the CLI
``choices=`` lists, the campaign spec validation, and the
``UnknownEngineError`` message must all enumerate the single
``ENGINE_FACTORIES`` registry.
"""

from __future__ import annotations

import argparse
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algau import ThinUnison
from repro.faults.injection import (
    TransientFaultInjector,
    random_configuration,
    uniform_configuration,
)
from repro.graphs.generators import (
    damaged_clique,
    dumbbell,
    random_connected,
    ring,
    star,
)
from repro.model.array_engine import ArrayExecution
from repro.model.engine import (
    ENGINE_FACTORIES,
    ENGINE_NAMES,
    create_execution,
    engine_class,
)
from repro.model.errors import ModelError, UnknownEngineError
from repro.model.execution import Execution
from repro.model.replica_engine import (
    ReplicaBatchExecution,
    ReplicaSpec,
)
from repro.model.scheduler import (
    EnabledOnlyScheduler,
    LaggardScheduler,
    RandomSubsetScheduler,
    RoundRobinScheduler,
    ShuffledRoundRobinScheduler,
    SynchronousScheduler,
)

# ----------------------------------------------------------------------
# The engine name behind create_execution.
# ----------------------------------------------------------------------

GRAPHS = {
    "ring9": lambda seed: ring(9),
    "damaged10": lambda seed: damaged_clique(10, 2, np.random.default_rng(seed)),
    "star7": lambda seed: star(7),
    "dumbbell": lambda seed: dumbbell(4, 2),
    "gnp12": lambda seed: random_connected(12, 0.35, np.random.default_rng(seed)),
}

SCHEDULERS = {
    "sync": SynchronousScheduler,
    "round-robin": RoundRobinScheduler,
    "shuffled-rr": ShuffledRoundRobinScheduler,
    "random-subset": lambda: RandomSubsetScheduler(0.4),
    "laggard": lambda: LaggardScheduler(victim=1, period=5),
}

#: Fault plans cover every way state mutates outside the fused step:
#: the storm injector (configuration replacement), Byzantine strategies
#: (per-step pokes + masking), crash-stop, and ``none`` as the control.
FAULT_KINDS = ("none", "storm", "byz-frozen", "byz-oscillating", "crash")

CASES = [
    (graph, sched, FAULT_KINDS[i % len(FAULT_KINDS)], 5000 + 13 * i)
    for i, (graph, sched) in enumerate(
        itertools.product(sorted(GRAPHS), sorted(SCHEDULERS))
    )
]


def _make_one(topology, initial, sched_key, fault_kind, seed, engine):
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
        intervention = PermanentFaultAdversary(
            strategy,
            (1, topology.n - 2),
            rng=np.random.default_rng(seed + 2),
        )
    return create_execution(
        topology,
        algorithm,
        initial,
        SCHEDULERS[sched_key](),
        rng=np.random.default_rng(seed + 3),
        intervention=intervention,
        engine=engine,
    )


class TestSingleReplicaEnginePath:
    """``engine="replica-batch"`` builds the array engine, through the
    whole ExecutionBase contract."""

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
        reference = _make_one(topology, initial, sched_key, fault_kind, seed, "object")
        batched = _make_one(
            topology, initial, sched_key, fault_kind, seed, "replica-batch"
        )
        assert isinstance(reference, Execution)
        assert type(batched) is ArrayExecution
        for step in range(40):
            ref_record = reference.step()
            rep_record = batched.step()
            assert rep_record.t == ref_record.t
            assert rep_record.activated == ref_record.activated, step
            assert set(rep_record.changed) == set(ref_record.changed), step
            assert rep_record.completed_round == ref_record.completed_round
            assert batched.graph_is_good() == reference.graph_is_good(), step
            assert batched.enabled_count() == reference.enabled_count(), step
        assert batched.configuration == reference.configuration
        assert batched.masked_nodes == reference.masked_nodes

    def test_create_execution_builds_the_array_engine(self):
        assert engine_class("replica-batch") is ArrayExecution


# ----------------------------------------------------------------------
# R > 1: the fused ensemble vs per-scenario solo runs.
# ----------------------------------------------------------------------


def _uniform_start(algorithm, topology, rng):
    """A good start: every node on one able clock value."""
    return uniform_configuration(algorithm, topology)


def _solo_outcome(
    algorithm,
    family,
    sched_factory,
    seed,
    max_rounds,
    engine="array",
    start=random_configuration,
):
    """The per-scenario measurement (the runner's AU pipeline for a
    fault-free scenario) from one seed: rng → graph sample → start
    (random by default) → run-until-good."""
    rng = np.random.default_rng(seed)
    topology = family(rng)
    initial = start(algorithm, topology, rng)
    execution = create_execution(
        topology,
        algorithm,
        initial,
        sched_factory(),
        rng=rng,
        engine=engine,
    )
    run = execution.run(max_rounds=max_rounds, until=lambda e: e.graph_is_good())
    if run.stopped_by_predicate:
        rounds = execution.rounds.round_of_time(execution.t)
        stabilized = True
    else:
        rounds = execution.completed_rounds
        stabilized = False
    codes = (
        execution.codes
        if isinstance(execution, ArrayExecution)
        else algorithm.encoding.encode_configuration(execution.configuration)
    )
    return stabilized, rounds, execution.t, codes, rng


def _ensemble(algorithm, family, sched_factory, seeds, starts=None):
    specs = []
    for i, seed in enumerate(seeds):
        start = random_configuration if starts is None else starts[i]
        rng = np.random.default_rng(seed)
        topology = family(rng)
        initial = start(algorithm, topology, rng)
        specs.append(ReplicaSpec(topology, initial, sched_factory(), rng))
    return ReplicaBatchExecution.from_replicas(algorithm, specs), specs


FAMILIES = {
    "ring9": lambda rng: ring(9),
    "damaged10": lambda rng: damaged_clique(10, 2, rng, damage=0.4),
    "gnp12": lambda rng: random_connected(12, 0.35, rng),
}

ENSEMBLE_CASES = list(itertools.product(sorted(FAMILIES), sorted(SCHEDULERS)))


class TestEnsembleDifferential:
    """Per-replica ensemble outcomes are bit-identical to solo runs —
    the property the campaign batching relies on."""

    @pytest.mark.parametrize(
        "family_key, sched_key",
        ENSEMBLE_CASES,
        ids=[f"{g}-{s}" for g, s in ENSEMBLE_CASES],
    )
    def test_matches_per_scenario_array_runs(self, family_key, sched_key):
        algorithm = ThinUnison(2)
        family = FAMILIES[family_key]
        sched_factory = SCHEDULERS[sched_key]
        seeds = [9000 + 7 * i for i in range(5)]
        batch, _ = _ensemble(algorithm, family, sched_factory, seeds)
        outcomes = batch.run_ensemble(max_rounds=4000)
        for i, (seed, outcome) in enumerate(zip(seeds, outcomes)):
            stabilized, rounds, steps, codes, _ = _solo_outcome(
                algorithm, family, sched_factory, seed, 4000
            )
            assert outcome.stabilized == stabilized, (family_key, sched_key, i)
            assert outcome.rounds == rounds, (family_key, sched_key, i)
            assert outcome.steps == steps, (family_key, sched_key, i)
            assert np.array_equal(batch.replica_codes(i), codes)

    @pytest.mark.parametrize("sched_key", ["round-robin", "shuffled-rr"])
    def test_queue_mode_retirement_points_match_solo_runs(self, sched_key):
        """Queue-mode replicas feed their RoundTracker whole rounds and
        the partial round at retirement: a replica retiring on a round's
        last step, one retiring mid-round and a pre-satisfied one each
        report exactly the solo run's rounds, steps and codes."""
        algorithm = ThinUnison(2)
        family = FAMILIES["ring9"]
        sched_factory = SCHEDULERS[sched_key]
        seeds = [9014, 9000, 9021]
        starts = [random_configuration, random_configuration, _uniform_start]
        batch, _ = _ensemble(algorithm, family, sched_factory, seeds, starts)
        outcomes = batch.run_ensemble(max_rounds=4000)
        kinds = set()
        for i, (seed, start, outcome) in enumerate(zip(seeds, starts, outcomes)):
            stabilized, rounds, steps, codes, _ = _solo_outcome(
                algorithm, family, sched_factory, seed, 4000, start=start
            )
            assert stabilized and outcome.stabilized, i
            assert (outcome.rounds, outcome.steps) == (rounds, steps), i
            assert np.array_equal(batch.replica_codes(i), codes), i
            if steps == 0:
                kinds.add("pre-satisfied")
            elif steps % outcome.n == 0:
                kinds.add("round end")
            else:
                kinds.add("mid-round")
        assert kinds == {"pre-satisfied", "round end", "mid-round"}

    def test_round_budget_exhaustion_matches_solo_runs(self):
        """Replicas retired by the budget report the same completed
        rounds (and codes) a solo run stopped by ``max_rounds`` would."""
        algorithm = ThinUnison(2)
        family = FAMILIES["damaged10"]
        seeds = [41, 42, 43]
        batch, _ = _ensemble(algorithm, family, ShuffledRoundRobinScheduler, seeds)
        outcomes = batch.run_ensemble(max_rounds=2)
        for i, (seed, outcome) in enumerate(zip(seeds, outcomes)):
            stabilized, rounds, steps, codes, _ = _solo_outcome(
                algorithm, family, ShuffledRoundRobinScheduler, seed, 2
            )
            assert outcome.stabilized == stabilized
            assert outcome.rounds == rounds
            assert outcome.steps == steps
            assert np.array_equal(batch.replica_codes(i), codes)

    def test_replicas_retire_independently(self):
        """Stabilized replicas drop out of the hot loop while
        stragglers keep stepping: step counts must differ across an
        ensemble whose seeds stabilize at different times."""
        algorithm = ThinUnison(2)
        seeds = [1000 + i for i in range(6)]
        batch, _ = _ensemble(
            algorithm, FAMILIES["damaged10"], ShuffledRoundRobinScheduler, seeds
        )
        outcomes = batch.run_ensemble(max_rounds=4000)
        assert all(o.stabilized for o in outcomes)
        assert len({o.steps for o in outcomes}) > 1

    def test_topologies_with_departed_nodes_are_rejected(self):
        from repro.graphs.dynamic import DynamicTopology, TopologyDelta

        algorithm = ThinUnison(2)
        rng = np.random.default_rng(0)
        topology = DynamicTopology(ring(9))
        topology.apply_delta(TopologyDelta(leave=(2,)))
        initial = random_configuration(algorithm, topology, rng)
        with pytest.raises(ModelError, match="static topologies"):
            ReplicaBatchExecution.from_replicas(
                algorithm,
                [ReplicaSpec(topology, initial, RoundRobinScheduler(), rng)],
            )

    def test_enabled_aware_schedulers_are_rejected(self):
        algorithm = ThinUnison(2)
        rng = np.random.default_rng(0)
        topology = ring(9)
        initial = random_configuration(algorithm, topology, rng)
        with pytest.raises(ModelError, match="enabled view"):
            ReplicaBatchExecution.from_replicas(
                algorithm,
                [ReplicaSpec(topology, initial, EnabledOnlyScheduler(), rng)],
            )


# ----------------------------------------------------------------------
# Per-replica rng streams (no aliasing; deterministic=False included).
# ----------------------------------------------------------------------


class TestReplicaRngStreams:
    @settings(max_examples=12, deadline=None)
    @given(
        campaign_seed=st.integers(min_value=0, max_value=2**31 - 1),
        replicas=st.integers(min_value=2, max_value=5),
        deterministic=st.booleans(),
    )
    def test_streams_match_per_scenario_generators(
        self, campaign_seed, replicas, deterministic
    ):
        """Property: replica ``i`` of a batch consumes exactly the
        stream ``np.random.default_rng(seed_i)`` that a solo scenario
        run would consume — same draws during graph sampling, start
        construction and scheduling, and the same generator position
        afterwards (so the streams neither alias nor drift).  The
        ``deterministic=False`` flag (which disables the object
        engine's pending-action cache) must not perturb the streams
        either."""
        from repro.campaigns.registry import derive_seed

        algorithm = ThinUnison(2)
        algorithm.deterministic = deterministic
        seeds = [derive_seed(campaign_seed, i) for i in range(replicas)]
        assert len(set(seeds)) == replicas  # SeedSequence derivation
        family = FAMILIES["damaged10"]
        batch, specs = _ensemble(algorithm, family, ShuffledRoundRobinScheduler, seeds)
        outcomes = batch.run_ensemble(max_rounds=200)
        for i, seed in enumerate(seeds):
            stabilized, rounds, steps, codes, solo_rng = _solo_outcome(
                algorithm,
                family,
                ShuffledRoundRobinScheduler,
                seed,
                200,
                engine="object",
            )
            assert outcomes[i].stabilized == stabilized
            assert outcomes[i].rounds == rounds
            assert outcomes[i].steps == steps
            assert np.array_equal(batch.replica_codes(i), codes)
            # The generators sit at the same stream position: their
            # next draws coincide (and differ across replicas below).
            assert np.array_equal(specs[i].rng.random(3), solo_rng.random(3))
        follow_ups = [tuple(spec.rng.random(2)) for spec in specs]
        assert len(set(follow_ups)) == replicas  # no aliasing


# ----------------------------------------------------------------------
# Engine-name plumbing: one registry feeds every layer.
# ----------------------------------------------------------------------


def _cli_engine_choices(which: str):
    from repro.cli import build_parser

    parser = build_parser()
    subparsers = next(
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    command = subparsers.choices[which]
    engine_action = next(a for a in command._actions if a.dest == "engine")
    return tuple(engine_action.choices)


class TestEngineRegistryAgreement:
    """CLI ``choices=``, spec validation, and the UnknownEngineError
    message must enumerate identical engine sets — all derived from
    ``ENGINE_FACTORIES``."""

    def test_registry_is_the_single_source(self):
        from repro.model.engine import ENGINE_DESCRIPTIONS

        assert ENGINE_NAMES == tuple(ENGINE_FACTORIES)
        assert "replica-batch" in ENGINE_NAMES
        assert set(ENGINE_DESCRIPTIONS) == set(ENGINE_FACTORIES)
        for name in ENGINE_NAMES:
            cls = ENGINE_FACTORIES[name]()
            assert isinstance(cls, type)

    def test_cli_choices_match_registry(self):
        assert _cli_engine_choices("au") == ENGINE_NAMES

    def test_spec_validation_matches_registry(self):
        from repro.campaigns.spec import Scenario

        def scenario(engine):
            return Scenario(
                campaign="t",
                index=0,
                task="au",
                graph="complete",
                graph_params=(("n", 6),),
                diameter_bound=1,
                scheduler="synchronous",
                engine=engine,
                start="random",
                seed=0,
                max_rounds=10,
            )

        for name in ENGINE_NAMES:
            assert scenario(name).engine == name
        with pytest.raises(ValueError) as excinfo:
            scenario("simd")
        for name in ENGINE_NAMES:
            assert name in str(excinfo.value)

    def test_error_message_enumerates_the_registry(self):
        topology = ring(6)
        algorithm = ThinUnison(1)
        initial = random_configuration(algorithm, topology, np.random.default_rng(0))
        with pytest.raises(UnknownEngineError) as excinfo:
            create_execution(
                topology, algorithm, initial, SynchronousScheduler(), engine="simd"
            )
        quoted = set(re.findall(r"'([a-z-]+)'", str(excinfo.value)))
        assert set(ENGINE_NAMES) <= quoted

    def test_every_engine_name_constructs_an_execution(self):
        topology = ring(6)
        algorithm = ThinUnison(1)
        initial = random_configuration(algorithm, topology, np.random.default_rng(0))
        for name in ENGINE_NAMES:
            execution = create_execution(
                topology,
                algorithm,
                initial,
                SynchronousScheduler(),
                rng=np.random.default_rng(1),
                engine=name,
            )
            execution.step()
