"""The execution-engine contract shared by every engine tier.

The repository ships two execution models over one contract:

* :class:`~repro.model.execution.Execution` — the readable *object
  model* reference: per-node ``Signal`` frozensets, one
  ``Algorithm.resolve`` call per activated node;
* :class:`~repro.model.array_engine.ArrayExecution` — the vectorized
  *array model*: dense turn codes, CSR neighborhoods and the batched
  Table 1 kernel of :mod:`repro.core.algau_vec`.  The ``native`` tier
  (:mod:`repro.model.native_engine`) is this model on compiled kernels,
  and ``replica-batch`` names it too.  Seed ensembles are batched by
  the campaign runner through :mod:`repro.model.replica_engine`, which
  is a runner, not an engine of this contract.

:class:`ExecutionBase` holds everything the engines share — the
scheduler/round bookkeeping, monitor notifications, intervention
(transient fault) handling, and the ``run``/``run_rounds`` driver loop —
so the engines differ only in how one step's state updates are computed
(:meth:`ExecutionBase._apply`) and how the current configuration is
stored (:meth:`ExecutionBase._load_configuration`).  All produce the
same :class:`StepRecord` stream for the same seeds, which the
differential test suite verifies step for step.

The incremental step pipeline
-----------------------------
A node's move depends only on its closed neighborhood (the model's set
broadcast), so each engine maintains, across steps, a **dirty set** of
nodes whose closed neighborhood changed since their action was last
evaluated, plus a per-node **cached pending action**.  The invariant:

    for every *clean* (non-dirty) node ``v``, the cached pending action
    equals ``δ(C_t(v), S_v(C_t))`` under the current configuration.

``_apply`` therefore recomputes ``δ`` only for ``activated ∩ dirty``,
reuses the cache for the rest, and — whenever a node's state actually
changes — re-dirties its closed neighborhood.  Anything that mutates
state outside the pipeline (interventions replacing the configuration,
:meth:`poke_codes`/:meth:`poke_states`, :meth:`replace_configuration`)
conservatively re-dirties the affected neighborhoods, so the pipeline
composes with transient faults, permanent-fault adversaries and
dynamic-topology rewires.  Trajectories are bit-identical to the naive
full-recompute reference (``incremental=False`` rebuilds the
pre-pipeline behavior, which the differential suite checks against).

On top of the maintained cache the engines expose an **enabled-set
view**: a node is *enabled* when ``δ`` can move it out of its current
state.  The δ re-evaluation behind
:meth:`ExecutionBase.enabled_nodes` /
:meth:`ExecutionBase.enabled_count` / :meth:`ExecutionBase.is_quiescent`
is proportional to the dirty set (O(activity) amortized, not O(n)),
and the count/quiescence queries stay that cheap end to end
(materializing the set itself costs O(enabled)), and enabled-aware
daemons (schedulers with ``uses_enabled_view``) receive the view each step through
:meth:`~repro.model.scheduler.Scheduler.select`.

Every engine counts its own *moves* (:attr:`ExecutionBase.moves`)
where it writes δ's state changes, so no per-step monitor is needed to
measure work.  When nothing consumes per-step records, the array-tier
engines run :meth:`ExecutionBase.run` record-free, and when ``until``
is the shared :func:`graph_is_good` predicate they hand whole rounds of
a round-order daemon to one sequence kernel call (a list-walking kernel
on ``array``, the compiled one on ``native``).

Use :func:`create_execution` to pick an engine by name (any key of
:data:`ENGINE_FACTORIES`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Generic,
    Iterable,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

import numpy as np

from repro.graphs.dynamic import AppliedDelta
from repro.graphs.topology import Topology
from repro.model.algorithm import Algorithm
from repro.model.configuration import Configuration
from repro.model.errors import ModelError, UnknownEngineError
from repro.model.rounds import RoundTracker
from repro.model.scheduler import Scheduler

Q = TypeVar("Q")


#: One step's ``(node, old_state, new_state)`` tuples.
ChangeTuples = Tuple[Tuple[int, Q, Q], ...]
#: What an engine's ``_apply`` returns: the change tuples, or a
#: zero-argument callable that builds them on demand.
Changes = Union[ChangeTuples, Callable[[], ChangeTuples]]


class StepRecord(Generic[Q]):
    """What happened during one step (read-only).

    ``changed`` holds ``(node, old_state, new_state)`` for every node the
    step moved.  An engine may hand the changes over undecoded, as a
    zero-argument callable; the record builds the tuple on the first
    read of :attr:`changed` and keeps it, so a record nothing reads
    never decodes a state.  Equality, hashing and ``repr`` use the
    decoded tuple.
    """

    __slots__ = ("t", "activated", "_changed", "completed_round")

    def __init__(
        self,
        t: int,
        activated: FrozenSet[int],
        changed: Changes,
        completed_round: bool,
    ):
        self.t = t
        self.activated = activated
        self._changed = changed
        self.completed_round = completed_round

    @property
    def changed(self) -> ChangeTuples:
        """``(node, old_state, new_state)`` per moved node, decoded on
        first read."""
        changed = self._changed
        if not isinstance(changed, tuple):
            changed = self._changed = changed()
        return changed

    def _fields(self) -> tuple:
        changed = self.changed
        return (self.t, self.activated, changed, self.completed_round)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            f"StepRecord(t={self.t!r}, activated={self.activated!r}, "
            f"changed={self.changed!r}, completed_round={self.completed_round!r})"
        )


@dataclass
class RunResult:
    """Summary of a bounded run."""

    steps: int
    rounds: int
    stopped_by_predicate: bool
    reason: str = ""


class Monitor:
    """Observer hook; subclasses override the callbacks they need."""

    def on_start(self, execution: "ExecutionBase") -> None:
        """Called once before the first step."""

    def on_step(self, execution: "ExecutionBase", record: StepRecord) -> None:
        """Called after every step with the step's record."""


Intervention = Callable[["ExecutionBase"], Optional[Configuration]]


class ExecutionBase(ABC, Generic[Q]):
    """Drives one algorithm over one topology under one scheduler."""

    def __init__(
        self,
        topology: Topology,
        algorithm: Algorithm,
        initial_configuration: Configuration,
        scheduler: Scheduler,
        rng: Optional[np.random.Generator] = None,
        monitors: Tuple[Monitor, ...] = (),
        intervention: Optional[Intervention] = None,
        incremental: bool = True,
    ):
        if initial_configuration.topology is not topology:
            raise ModelError("initial configuration belongs to a different topology")
        self.topology = topology
        self.algorithm = algorithm
        self.scheduler = scheduler
        self.rng = rng if rng is not None else np.random.default_rng()
        self.monitors: Tuple[Monitor, ...] = tuple(monitors)
        self.intervention = intervention
        #: ``False`` selects the naive full-recompute reference path —
        #: the pre-pipeline behavior the differential suite and the
        #: sparse-activation benchmark compare against.
        self.incremental = bool(incremental)
        self._t = 0
        #: Scheduler time base: schedulers see ``t - _sched_t0``, so a
        #: :meth:`reset_schedule` restarts their time axis (round-robin
        #: position, subset phase) exactly like a fresh execution while
        #: ``t`` itself keeps counting total work.
        self._sched_t0 = 0
        self._rounds = RoundTracker(topology.nodes)
        self._started = False
        #: When False, ``_apply`` implementations may skip building the
        #: per-change ``(node, old, new)`` tuples — the bulk
        #: :meth:`advance` fast path, where no ``StepRecord`` consumes
        #: them.  State updates themselves are unaffected.
        self._record_changes = True
        #: State-changing activations applied by δ; see :attr:`moves`.
        self._moves = 0
        self._masked: FrozenSet[int] = frozenset()
        self._state_epoch = 0
        self._topology_version = 0
        self._load_configuration(initial_configuration)
        scheduler.bind(self)

    # ------------------------------------------------------------------
    # Engine-specific hooks.
    # ------------------------------------------------------------------

    @abstractmethod
    def _load_configuration(self, configuration: Configuration) -> None:
        """Adopt ``configuration`` as the current state (topology is
        already validated)."""

    @abstractmethod
    def _apply(self, activated: FrozenSet[int]) -> Changes:
        """Apply one simultaneous-update step for ``activated`` under
        the pre-step configuration and return the change tuples (or a
        callable that builds them; see :class:`StepRecord`)."""

    @property
    @abstractmethod
    def configuration(self) -> Configuration:
        """The current configuration ``C_t``."""

    @abstractmethod
    def _refresh_pending(self) -> None:
        """Re-evaluate ``δ`` for every dirty node so the pending-action
        cache (and with it the enabled view) is exact; amortized
        O(dirty), not O(n)."""

    @abstractmethod
    def _enabled_snapshot(self) -> FrozenSet[int]:
        """The enabled nodes under the current configuration, assuming
        :meth:`_refresh_pending` just ran (mask-agnostic)."""

    # ------------------------------------------------------------------
    # The enabled-set view (O(activity)-amortized quiescence).
    # ------------------------------------------------------------------

    def enabled_nodes(self) -> FrozenSet[int]:
        """Nodes whose ``δ`` would move them out of their current state
        (for randomized algorithms: with positive probability), masked
        nodes excluded — they cannot move by definition.

        Backed by the incrementally maintained pending-action cache:
        only nodes whose closed neighborhood changed since their last
        evaluation are re-evaluated — the δ work is O(recent activity),
        not O(n).  Materializing the *set* additionally costs
        O(enabled) (plus, on the array engine, one vectorized mask
        scan); callers that only need the count or the quiescence bit
        should prefer :meth:`enabled_count` / :meth:`is_quiescent`,
        which stay O(dirty) amortized.
        """
        self._refresh_pending()
        view = self._enabled_snapshot()
        return view - self._masked if self._masked else view

    def enabled_count(self) -> int:
        """``len(enabled_nodes())`` (engines may answer without
        materializing the set)."""
        return len(self.enabled_nodes())

    def is_quiescent(self) -> bool:
        """Whether no (unmasked) node is enabled — no fair schedule can
        change the configuration ever again.  For terminating tasks
        (LE/MIS) this is exactly output stabilization; AlgAU never
        quiesces (a good graph keeps pulsing), so this stays ``False``
        on live unison executions."""
        return self.enabled_count() == 0

    # ------------------------------------------------------------------
    # State inspection.
    # ------------------------------------------------------------------

    @property
    def t(self) -> int:
        """The current time (number of steps taken)."""
        return self._t

    @property
    def rounds(self) -> RoundTracker:
        """Round bookkeeping (``R(i)`` boundaries)."""
        return self._rounds

    @property
    def state_epoch(self) -> int:
        """Counts *out-of-band* state mutations: intervention
        replacements, :meth:`replace_configuration`, :meth:`poke_codes`
        and :meth:`poke_states`.  Incremental monitors that fold state
        forward from ``StepRecord.changed`` (which only covers
        ``_apply``'s updates) compare this counter to know when a full
        re-snapshot is needed."""
        return self._state_epoch

    @property
    def moves(self) -> int:
        """Total work so far: node activations whose ``δ`` changed the
        state — the workload axis of the time/space/work trade-off.

        Every lane counts where it writes ``δ``'s state changes, so
        :meth:`step`, :meth:`advance` and record-free :meth:`run` paths
        all count alike.  Activations where ``δ`` returned the current
        state are free, and out-of-band writes (interventions,
        :meth:`poke_states`, :meth:`replace_configuration`) are never
        billed as algorithm work."""
        return self._moves

    @property
    def completed_rounds(self) -> int:
        """Fully completed asynchronous rounds so far."""
        return self._rounds.completed_rounds

    def state_of(self, v: int) -> Q:
        """The current state of node ``v``."""
        return self.configuration[v]

    def replace_configuration(self, configuration: Configuration) -> None:
        """Replace the current configuration in place.

        This is the transient-fault entry point: the adversary corrupts
        node states between steps.  The topology must be unchanged.
        """
        if configuration.topology is not self.topology:
            raise ModelError("replacement configuration changed the topology")
        self._state_epoch += 1
        self._load_configuration(configuration)

    @property
    def codes(self) -> np.ndarray:
        """A read-only snapshot of the current state-code vector (codes
        of the algorithm's ``encoding``, indexed by node).  The base
        encodes the configuration; the code lanes read their own
        codes."""
        snapshot = self.algorithm.encoding.encode_configuration(self.configuration)
        snapshot.flags.writeable = False
        return snapshot

    def poke_states(self, updates: Mapping[int, Q]) -> None:
        """Overwrite the states of a few nodes in place, leaving every
        other node's state untouched.  Engines override this with a
        sparse write that avoids rebuilding the configuration."""
        if not updates:
            return
        self._state_epoch += 1
        self._load_configuration(self.configuration.replace(updates))

    def poke_codes(self, rows: Sequence[int], codes: Sequence[int]) -> None:
        """Overwrite the states of the distinct nodes ``rows`` with the
        state codes ``codes`` (of the algorithm's ``encoding``).

        This is the *permanent-fault* entry point: a Byzantine adversary
        rewrites its faulty nodes before a step.  Writes that leave a
        node's state unchanged are dropped, and :attr:`state_epoch`
        moves only when some state did.  The base decodes the moved
        codes through the encoding's ``turn_table`` and hands them to
        :meth:`poke_states`; the code lanes compare and write codes
        directly.
        """
        table = self.algorithm.encoding.turn_table
        state_of = self.state_of
        updates = {}
        for v, code in zip(rows, codes):
            state = table[code]
            if state_of(v) != state:
                updates[int(v)] = state
        if updates:
            self.poke_states(updates)

    # ------------------------------------------------------------------
    # Dynamic topology.
    # ------------------------------------------------------------------

    @property
    def topology_version(self) -> int:
        """Counts applied topology deltas (0 = as constructed).
        Consumers that cache anything derived from the structure —
        neighbor lists, CSR views, per-node layouts — compare this
        counter the way state-folding monitors compare
        :attr:`state_epoch`."""
        return self._topology_version

    def mutate_topology(self, delta) -> "object":
        """Apply a :class:`~repro.graphs.dynamic.TopologyDelta` to the
        running execution, between steps.

        The engine converts its (possibly shared) topology into a
        private :class:`~repro.graphs.dynamic.DynamicTopology` on first
        mutation, applies the delta incrementally in the canonical
        order (removals → leaves → joins → additions), and folds the
        change into its step pipeline: touched rows re-enter the dirty
        set, joined nodes appear as fresh lanes carrying the delta's
        arbitrary state, and left nodes are tombstoned — reset to the
        algorithm's designated initial state, stripped of edges, and
        masked like a crash (ids are never renumbered, so dense code
        vectors and round bookkeeping stay valid).  Returns the
        resolved :class:`~repro.graphs.dynamic.AppliedDelta`.

        ``delta`` may also be a :class:`~repro.graphs.dynamic.ResolvedDelta`
        resolved on the same base graph: the private topology then
        replays its rows and CSR instead of validating and splicing the
        delta again (see :meth:`~repro.graphs.dynamic.DynamicTopology.replay`).
        """
        if delta.is_empty:
            return AppliedDelta((), (), (), (), ())
        applied = self._apply_topology_delta(delta)
        self._state_epoch += 1
        self._topology_version += 1
        if applied.joined:
            self._rounds.add_nodes(v for v, _ in applied.joined)
        if applied.left:
            self._masked = self._masked | frozenset(applied.left)
        return applied

    def _apply_topology_delta(self, delta) -> "object":
        """Engine hook behind :meth:`mutate_topology`; must mutate the
        structure *and* restore the pipeline invariant (clean node ⇒
        cached pending exact)."""
        raise ModelError(
            f"{type(self).__name__} does not implement dynamic topology "
            "(mutate_topology)"
        )

    def reset_schedule(self, scheduler: Optional[Scheduler] = None) -> None:
        """Restart the round bookkeeping (fresh ``R(0) = 0`` tracker)
        and optionally swap in a fresh scheduler.

        This is the dynamic-topology *re-measurement* seam: after a
        structural event, recovery is measured in rounds counted from
        the event, under a scheduler with no carried-over round state —
        exactly the accounting a fresh execution on the perturbed graph
        would produce (the pre-refactor rewire path), without rebuilding
        anything.  The step counter ``t`` keeps counting, so total-work
        measurements span both phases.
        """
        self._rounds = RoundTracker(self.topology.nodes)
        self._sched_t0 = self._t
        if scheduler is not None:
            self.scheduler = scheduler
            scheduler.bind(self)

    # ------------------------------------------------------------------
    # Permanent-fault masking.
    # ------------------------------------------------------------------

    @property
    def masked_nodes(self) -> FrozenSet[int]:
        """Nodes currently excluded from algorithmic state updates."""
        return self._masked

    def mask_nodes(self, nodes: Iterable[int]) -> None:
        """Exclude ``nodes`` from algorithmic state updates.

        Masked nodes still count as activated for the round bookkeeping
        (fairness is a scheduler notion, and a crashed cell does not
        speed up anyone else's rounds), but :meth:`_apply` never touches
        them: their states change only through :meth:`poke_codes` /
        :meth:`poke_states` / :meth:`replace_configuration`.  This is how
        permanent faults compose with both engines — on the vectorized
        backend the faulty nodes simply drop out of the batched
        activation rows, so the hot loop stays batched.  Passing an
        empty iterable unmasks everyone.
        """
        masked = frozenset(int(v) for v in nodes)
        unknown = masked - set(self.topology.nodes)
        if unknown:
            raise ModelError(f"cannot mask unknown nodes {sorted(unknown)}")
        self._masked = masked

    # ------------------------------------------------------------------
    # Stepping.
    # ------------------------------------------------------------------

    def _notify_start(self) -> None:
        if not self._started:
            self._started = True
            for monitor in self.monitors:
                monitor.on_start(self)

    def step(self) -> StepRecord:
        """Advance the execution by one step and return its record."""
        self._notify_start()
        if self.intervention is not None:
            replacement = self.intervention(self)
            if replacement is not None:
                if replacement.topology is not self.topology:
                    raise ModelError("intervention changed the topology")
                self._state_epoch += 1
                self._load_configuration(replacement)

        scheduler = self.scheduler
        sched_t = self._t - self._sched_t0
        if scheduler.uses_enabled_view:
            activated = scheduler.select(
                sched_t, self.topology.nodes, self.rng, self.enabled_nodes()
            )
        else:
            activated = scheduler.activations(sched_t, self.topology.nodes, self.rng)
        effective = activated - self._masked if self._masked else activated
        changed = self._apply(effective) if effective else ()
        completed_round = self._rounds.observe(activated)
        record = StepRecord(
            t=self._t,
            activated=activated,
            changed=changed,
            completed_round=completed_round,
        )
        self._t += 1
        for monitor in self.monitors:
            monitor.on_step(self, record)
        return record

    def advance(self, steps: int) -> None:
        """Advance ``steps`` steps without returning records.

        The trajectory is bit-identical to ``steps`` :meth:`step` calls
        (same scheduler draws, same round bookkeeping); engines may
        override this with a record-free bulk loop that skips the
        per-step ``StepRecord``/change-tuple materialization — the
        frontier-benchmark drive mode, where at n = 10^6 the Python
        bookkeeping would otherwise dominate the compiled kernels.
        Monitors still fire through the generic path when present.
        """
        for _ in range(steps):
            self.step()

    def run(
        self,
        max_steps: Optional[int] = None,
        max_rounds: Optional[int] = None,
        until: Optional[Callable[["ExecutionBase"], bool]] = None,
        check_until_each_step: bool = True,
    ) -> RunResult:
        """Run until a stop condition triggers.

        ``until`` is evaluated on the execution (after each step, or
        after each completed round if ``check_until_each_step`` is
        false).  At least one of the bounds must be supplied so that runs
        terminate.
        """
        if max_steps is None and max_rounds is None:
            raise ModelError("run() needs max_steps and/or max_rounds")
        self._notify_start()
        if until is not None and until(self):
            return RunResult(0, self.completed_rounds, True, "pre-satisfied")
        return self._run_loop(max_steps, max_rounds, until, check_until_each_step)

    def _run_loop(
        self,
        max_steps: Optional[int],
        max_rounds: Optional[int],
        until: Optional[Callable[["ExecutionBase"], bool]],
        check_until_each_step: bool,
    ) -> RunResult:
        """The stepping behind :meth:`run`, after its pre-check.  The
        base drives :meth:`step`; engines override this to take
        record-free paths when nothing consumes the records."""
        return self._drive(
            lambda: self.step().completed_round,
            max_steps,
            max_rounds,
            until,
            check_until_each_step,
        )

    def _drive(
        self,
        step: Callable[[], bool],
        max_steps: Optional[int],
        max_rounds: Optional[int],
        until: Optional[Callable[["ExecutionBase"], bool]],
        check_until_each_step: bool,
        steps: int = 0,
    ) -> RunResult:
        """The one bounded run loop: call ``step`` (one step, returning
        whether it completed a round) until a budget or ``until`` stops
        it.  ``steps`` is the count already taken by this run."""
        while True:
            if max_steps is not None and steps >= max_steps:
                return RunResult(steps, self.completed_rounds, False, "max_steps")
            if max_rounds is not None and self.completed_rounds >= max_rounds:
                return RunResult(steps, self.completed_rounds, False, "max_rounds")
            completed_round = step()
            steps += 1
            if until is not None and (check_until_each_step or completed_round):
                if until(self):
                    return RunResult(steps, self.completed_rounds, True, "predicate")

    def run_rounds(self, rounds: int) -> RunResult:
        """Run exactly ``rounds`` additional rounds."""
        target = self.completed_rounds + rounds
        return self.run(max_rounds=target, max_steps=None)

    def graph_is_good(self) -> bool:
        """The AlgAU stabilization predicate on the current
        configuration (defined for :class:`~repro.core.algau.ThinUnison`
        executions only; raises :class:`ModelError` otherwise).

        The array engine overrides this with a vectorized check that
        avoids decoding the configuration; analysis code should prefer
        this method over calling ``is_good_graph`` directly so every
        engine gets its fast path.
        """
        from repro.core.algau import ThinUnison
        from repro.core.predicates import is_good_graph

        if not isinstance(self.algorithm, ThinUnison):
            raise ModelError(
                f"graph_is_good() is the AlgAU stabilization predicate; "
                f"{self.algorithm.name} is not a ThinUnison instance"
            )
        return is_good_graph(self.algorithm, self.configuration)

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} alg={self.algorithm.name!r} "
            f"graph={self.topology.name!r} t={self._t} "
            f"rounds={self.completed_rounds}>"
        )


def graph_is_good(execution: ExecutionBase) -> bool:
    """The AlgAU stabilization predicate as a ``run(until=...)``
    argument.

    This is the one shared goodness predicate: the campaign runner and
    the stabilization measurements pass this function itself, and the
    array-tier engines recognize it by identity to hand whole rounds of
    a sequential daemon to their sequence kernel.  An equivalent
    ``lambda e: e.graph_is_good()`` is not recognized and keeps the
    per-step path."""
    return execution.graph_is_good()


def _object_engine() -> type:
    from repro.model.execution import Execution

    return Execution


def _array_engine() -> type:
    from repro.model.array_engine import ArrayExecution

    return ArrayExecution


def _native_engine() -> type:
    from repro.model.native_engine import native_execution_class

    return native_execution_class()


#: The single source of truth for engine names: declarative name →
#: lazy class loader (lazy to keep the ``repro.model`` import graph
#: acyclic).  Everything that enumerates engines — the CLI ``choices=``
#: lists, the campaign spec validation, and the
#: :class:`UnknownEngineError` message — derives from this registry, so
#: adding an engine here is the *only* step needed to plumb its name
#: through every layer.
ENGINE_FACTORIES: Dict[str, Callable[[], type]] = {
    "object": _object_engine,
    "array": _array_engine,
    # A single scenario is an array run; seed ensembles are batched by
    # the campaign runner (repro.model.replica_engine).
    "replica-batch": _array_engine,
    "native": _native_engine,
}

#: One-line summaries, keyed like :data:`ENGINE_FACTORIES`; the
#: :class:`UnknownEngineError` message is composed from these so the
#: explanatory text can never drift from the registered names (a test
#: asserts the two registries share their key sets).
ENGINE_DESCRIPTIONS: Dict[str, str] = {
    "object": "the readable reference model",
    "array": "the vectorized backend",
    "replica-batch": "an alias of the array backend",
    "native": "the compiled kernel tier (falls back to the array backend)",
}

ENGINE_NAMES: Tuple[str, ...] = tuple(ENGINE_FACTORIES)


def engine_class(engine: str) -> type:
    """The execution class registered under ``engine``.

    Raises :class:`UnknownEngineError` (a :class:`ValueError`) listing
    the valid names — the same message every validation layer relays.
    """
    try:
        loader = ENGINE_FACTORIES[engine]
    except KeyError:
        valid = ", ".join(repr(name) for name in ENGINE_NAMES)
        legend = ", ".join(
            f"{name!r} is {ENGINE_DESCRIPTIONS[name]}"
            for name in ENGINE_NAMES
            if name in ENGINE_DESCRIPTIONS
        )
        raise UnknownEngineError(
            f"unknown engine {engine!r}: valid engine names are {valid} "
            f"({legend})"
        ) from None
    return loader()


def create_execution(
    topology: Topology,
    algorithm: Algorithm,
    initial_configuration: Configuration,
    scheduler: Scheduler,
    rng: Optional[np.random.Generator] = None,
    monitors: Tuple[Monitor, ...] = (),
    intervention: Optional[Intervention] = None,
    engine: str = "object",
    incremental: bool = True,
) -> ExecutionBase:
    """Instantiate the requested execution engine over one contract.

    ``engine="object"`` builds the reference
    :class:`~repro.model.execution.Execution`; ``engine="array"`` builds
    the vectorized
    :class:`~repro.model.array_engine.ArrayExecution` (the algorithm
    must expose the vectorized backend — currently
    :class:`~repro.core.algau.ThinUnison`); ``engine="replica-batch"``
    builds the same ``ArrayExecution`` (``array`` and ``replica-batch``
    seed ensembles are batched by the campaign runner through
    :class:`~repro.model.replica_engine.ReplicaBatchExecution`);
    ``engine="native"`` builds the compiled kernel tier
    (:class:`~repro.model.native_engine.NativeExecution` — bit-identical
    to the array engine, with the hot kernels walking the CSR arrays in
    compiled code; falls back to ``ArrayExecution`` with a warning when
    no native backend is available).
    ``incremental=False`` selects the naive full-recompute reference
    path (bit-identical trajectories, O(n) steps).  Valid names live in :data:`ENGINE_FACTORIES`.
    """
    cls = engine_class(engine)
    return cls(
        topology,
        algorithm,
        initial_configuration,
        scheduler,
        rng=rng,
        monitors=monitors,
        intervention=intervention,
        incremental=incremental,
    )
