"""Declarative scenario specifications.

A :class:`Scenario` is one fully-determined experiment: *which* claim
workload (task), on *which* graph (family × parameters), under *which*
adversary (scheduler × adversarial start × fault plan), on *which*
engine, from *which* seed.  Scenarios are frozen, hashable, and
JSON-round-trippable, so campaigns can be enumerated programmatically
(:mod:`repro.campaigns.registry`), spread over worker processes
(:mod:`repro.campaigns.runner`), checkpointed to JSONL, and resumed —
all without ever re-deriving anything from ambient state.

The :class:`FaultPlan` axis covers the repertoire of
:mod:`repro.faults.injection`:

* ``none`` — pure self-stabilization from the adversarial start;
* ``bursts`` — stabilize first, then repeated transient-fault bursts
  with per-burst recovery measurement (the title application);
* ``storm`` — a :class:`~repro.faults.injection.TransientFaultInjector`
  corrupts nodes at prescribed step times *while* the system is still
  stabilizing;
* ``rewire`` — stabilize, then a dynamic-topology perturbation
  (:func:`~repro.faults.injection.perturb_topology`) rewires edges
  under the carried-over configuration and recovery is measured on the
  new graph;
* ``byzantine`` — permanent faults: ``density`` of the nodes run a
  :mod:`repro.resilience` Byzantine strategy forever and success is
  *containment* (the
  :func:`~repro.analysis.containment.containment_radius` is at most
  the plan's ``radius``) instead of global stabilization;
* ``crash`` — permanent crash-stop faults at step ``times[0]``
  (default 0); measured like ``byzantine``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Dict, Optional, Tuple

from repro.faults.injection import AU_START_BUILDERS
from repro.model.engine import ENGINE_NAMES
from repro.resilience.strategies import strategy_names
from repro.model.scheduler import (
    EnabledOnlyScheduler,
    LaggardScheduler,
    LocallyCentralScheduler,
    RandomSubsetScheduler,
    RoundRobinScheduler,
    Scheduler,
    ShuffledRoundRobinScheduler,
    SynchronousScheduler,
)

TASKS: Tuple[str, ...] = ("au", "le", "mis")

#: All engine names, for algorithm capability declarations.
ALL_ENGINES: Tuple[str, ...] = tuple(ENGINE_NAMES)

#: The AU start names: the adversarial battery (single source of truth
#: in :data:`repro.faults.injection.AU_START_BUILDERS`) plus the benign
#: ``uniform`` start.
AU_STARTS: Tuple[str, ...] = tuple(AU_START_BUILDERS) + ("uniform",)
TASK_STARTS: Dict[str, Tuple[str, ...]] = {
    "au": AU_STARTS,
    "le": ("random", "uniform", "ids"),
    "mis": ("random", "uniform", "ids"),
}

FAULT_KINDS: Tuple[str, ...] = (
    "none",
    "bursts",
    "storm",
    "rewire",
    "byzantine",
    "crash",
    "churn",
    "membership",
)

#: The fault kinds that model a *dynamic topology* (the graph itself is
#: the adversary): ``churn`` = seeded edge add/remove churn over a fixed
#: node set, ``membership`` = nodes joining with fresh state and leaving
#: as tombstones.  Both run through the engines' incremental
#: ``mutate_topology`` and the :class:`~repro.faults.churn.ChurnProcess`.
DYNAMIC_FAULT_KINDS: Tuple[str, ...] = ("churn", "membership")

#: The fault kinds that model *permanent* faults (success means
#: containment, not global stabilization).
PERMANENT_FAULT_KINDS: Tuple[str, ...] = ("byzantine", "crash")

#: The runtime axis: ``sim`` runs the scenario on a shared-memory
#: simulation engine (every pre-existing campaign), ``net`` runs it on
#: the message-passing deployment runtime of :mod:`repro.net` (same
#: engine name for the activation parity stream, plus the ``net_params``
#: link knobs).
RUNTIMES: Tuple[str, ...] = ("sim", "net")

#: Valid ``net_params`` keys — the :class:`repro.net.links.LinkConfig`
#: knobs a campaign spec may set (all in slot units / probabilities).
NET_PARAM_KEYS: Tuple[str, ...] = ("delay", "jitter", "loss", "duplicate")

#: Fault kinds the net runtime supports: permanent faults map onto
#: actor-level faults (crash = silenced timers, byzantine = omniscient
#: register rewrites); dynamic-topology kinds map deltas onto link
#: creation/teardown and actor spawn/stop; the transient kinds would
#: need a semantics for in-flight messages that the differential
#: contract does not cover yet.
NET_FAULT_KINDS: Tuple[str, ...] = (
    "none",
    "byzantine",
    "crash",
    "churn",
    "membership",
)

#: Scheduler factories by declarative name.  Factories (not instances):
#: several schedulers are stateful, so every scenario run gets a fresh
#: one.  The ``enabled-only`` / ``locally-central`` entries are the
#: enabled-aware daemon variants riding on the engines' incrementally
#: maintained enabled-set view (see
#: :mod:`repro.model.scheduler` for the daemon taxonomy).
SCHEDULER_FACTORIES: Dict[str, Callable[[], Scheduler]] = {
    "synchronous": SynchronousScheduler,
    "round-robin": RoundRobinScheduler,
    "shuffled-round-robin": ShuffledRoundRobinScheduler,
    "random-subset": lambda: RandomSubsetScheduler(0.5),
    "laggard": lambda: LaggardScheduler(victim=0, period=6),
    "enabled-only": EnabledOnlyScheduler,
    "locally-central": LocallyCentralScheduler,
}


#: Schedulers that consume the engines' enabled view; replica batching
#: excludes them (the fused ensemble pass keeps no per-replica enabled
#: view).  Derived from the factories so a new daemon cannot silently
#: slip into batched runs.
ENABLED_AWARE_SCHEDULERS: Tuple[str, ...] = tuple(
    sorted(
        name
        for name, factory in SCHEDULER_FACTORIES.items()
        if factory().uses_enabled_view
    )
)


def scheduler_names() -> Tuple[str, ...]:
    """All registered scheduler names, sorted."""
    return tuple(sorted(SCHEDULER_FACTORIES))


def make_scheduler(name: str) -> Scheduler:
    """A fresh scheduler instance for one scenario run."""
    try:
        factory = SCHEDULER_FACTORIES[name]
    except KeyError:
        valid = ", ".join(scheduler_names())
        raise ValueError(
            f"unknown scheduler {name!r}: valid schedulers are {valid}"
        ) from None
    return factory()


# ----------------------------------------------------------------------
# The algorithm axis.
# ----------------------------------------------------------------------

_ALL_SCHEDULERS: Tuple[str, ...] = tuple(sorted(SCHEDULER_FACTORIES))


def _thin_unison(diameter_bound: int, n_hint: int):
    from repro.core.algau import ThinUnison

    return ThinUnison(diameter_bound)


def _alg_le(diameter_bound: int, n_hint: int):
    from repro.tasks.le import AlgLE

    return AlgLE(diameter_bound)


def _alg_mis(diameter_bound: int, n_hint: int):
    from repro.tasks.mis import AlgMIS

    return AlgMIS(diameter_bound)


def _sync_alg_le(diameter_bound: int, n_hint: int):
    from repro.sync.synchronizer import Synchronizer

    return Synchronizer(_alg_le(diameter_bound, n_hint), diameter_bound)


def _sync_alg_mis(diameter_bound: int, n_hint: int):
    from repro.sync.synchronizer import Synchronizer

    return Synchronizer(_alg_mis(diameter_bound, n_hint), diameter_bound)


def _min_unison(diameter_bound: int, n_hint: int):
    from repro.baselines.min_unison import MinUnison

    return MinUnison()


def _reset_tail_unison(diameter_bound: int, n_hint: int):
    from repro.baselines.reset_tail_unison import ResetTailUnison

    return ResetTailUnison.for_diameter_bound(diameter_bound)


def _failed_reset_unison(diameter_bound: int, n_hint: int):
    from repro.baselines.failed_reset_au import FailedResetUnison

    return FailedResetUnison(diameter_bound)


def _id_flood_le(diameter_bound: int, n_hint: int):
    from repro.baselines.id_flood_le import IDFloodLE

    return IDFloodLE(n_hint)


def _id_greedy_mis(diameter_bound: int, n_hint: int):
    from repro.baselines.luby_mis import IDGreedyMIS

    return IDGreedyMIS(n_hint)


def _luby_mis(diameter_bound: int, n_hint: int):
    from repro.baselines.luby_mis import LubyTrialMIS

    return LubyTrialMIS()


def _min_unison_stable(algorithm, configuration) -> bool:
    from repro.baselines.min_unison import min_unison_stable

    return min_unison_stable(configuration)


def _reset_tail_stable(algorithm, configuration) -> bool:
    from repro.baselines.reset_tail_unison import reset_tail_stable

    return reset_tail_stable(algorithm, configuration)


def _failed_reset_stable(algorithm, configuration) -> bool:
    from repro.baselines.failed_reset_au import failed_reset_stable

    return failed_reset_stable(algorithm, configuration)


@dataclass(frozen=True)
class AlgorithmSpec:
    """Capability declaration for one :data:`ALGORITHM_FACTORIES` entry.

    The declaration is the single source of truth for spec-time
    validation: a :class:`Scenario` naming this algorithm must stay
    within the declared ``engines`` / ``schedulers`` / ``starts`` /
    ``fault_kinds``, and may set ``batch_replicas > 1`` only when
    ``batchable`` is true.  ``factory`` builds a fresh algorithm
    instance from ``(diameter_bound, n_hint)`` — algorithms that ignore
    one of the two simply discard it.
    """

    #: Registry name (the ``Scenario.algorithm`` axis value).
    name: str
    #: The task whose correctness oracle applies (``au``/``le``/``mis``).
    task: str
    #: ``(diameter_bound, n_hint) -> Algorithm`` builder.
    factory: Callable[[int, int], object]
    #: Engine names the algorithm can run on (object always included;
    #: ``array`` only with a vectorized kernel lane, differentially
    #: tested against the object engine).
    engines: Tuple[str, ...]
    #: Daemon names the algorithm is defined under.
    schedulers: Tuple[str, ...]
    #: Start names the algorithm supports (``ids`` = the algorithm's
    #: own :meth:`initial_configuration` with per-node unique IDs).
    starts: Tuple[str, ...]
    #: Fault kinds the runner may impose on this algorithm.
    fault_kinds: Tuple[str, ...]
    #: Whether the algorithm self-stabilizes from *arbitrary* states
    #: (informational; shown by ``repro algorithms`` and the docs).
    self_stabilizing: bool = True
    #: Whether replica-batched ensembles (PR 5/6) support it.
    batchable: bool = False
    #: Human-readable ``|Q|`` formula for tables (``D`` = diameter
    #: bound, ``n`` = node count).
    state_bits_formula: str = ""
    #: One-line description for ``repro algorithms`` and the docs.
    summary: str = ""
    #: AU-task stabilization predicate ``(algorithm, configuration) ->
    #: bool``; ``None`` means the engine's ``graph_is_good`` fast path
    #: (thin unison only).
    stable: Optional[Callable[[object, object], bool]] = field(
        default=None, compare=False
    )

    def make(self, diameter_bound: int, n_hint: int = 0):
        """A fresh algorithm instance for one scenario run."""
        return self.factory(diameter_bound, n_hint)

    def state_bits(self, diameter_bound: int, n_hint: int = 0) -> Optional[float]:
        """Exact bits per node, ``log2 |Q|`` from the declared state
        space; ``None`` when the state space is unbounded."""
        algorithm = self.make(diameter_bound, max(n_hint, 1))
        try:
            size = algorithm.state_space_size()
        except NotImplementedError:
            return None
        return math.log2(size)

    def coverage(self) -> int:
        """Scenario-axis generality: the number of supported start and
        fault-kind values, plus one for the self-stabilization
        guarantee.

        The Pareto aggregation uses this as a fourth frontier axis
        (maximized): a baseline that wins time/space/work only by
        giving up adversarial starts, fault tolerance, or
        self-stabilization itself — the Figure 2 strawman is fastest
        *and* thinnest from benign random starts — must not dominate
        an algorithm that keeps those guarantees.  That trade is the
        paper's Sec. 5 comparison, made literal.
        """
        return (
            len(self.starts)
            + len(self.fault_kinds)
            + int(self.self_stabilizing)
        )


#: The algorithm axis registry, mirroring :data:`ENGINE_FACTORIES` /
#: :data:`SCHEDULER_FACTORIES`: adding an entry here is the only step
#: needed to make an algorithm a campaign axis (capability validation,
#: ``repro algorithms``, and the docs drift test all derive from it).
ALGORITHM_FACTORIES: Dict[str, AlgorithmSpec] = {
    spec.name: spec
    for spec in (
        AlgorithmSpec(
            name="thin-unison",
            task="au",
            factory=_thin_unison,
            engines=ALL_ENGINES,
            schedulers=_ALL_SCHEDULERS,
            starts=AU_STARTS,
            fault_kinds=FAULT_KINDS,
            self_stabilizing=True,
            batchable=True,
            state_bits_formula="log2(12D+6)",
            summary=(
                "The paper's AlgAU: constant state per node "
                "(|Q| = 12D+6), every engine tier and fault kind."
            ),
        ),
        AlgorithmSpec(
            name="alg-le",
            task="le",
            factory=_alg_le,
            engines=("object",),
            schedulers=_ALL_SCHEDULERS,
            starts=("random", "uniform"),
            fault_kinds=("none",),
            self_stabilizing=True,
            state_bits_formula="log2 |Q_LE(D)|",
            summary=(
                "The paper's leader election composed over the AU "
                "synchronizer (Theorem 13)."
            ),
        ),
        AlgorithmSpec(
            name="alg-mis",
            task="mis",
            factory=_alg_mis,
            engines=("object",),
            schedulers=_ALL_SCHEDULERS,
            starts=("random", "uniform"),
            fault_kinds=("none",),
            self_stabilizing=True,
            state_bits_formula="log2 |Q_MIS(D)|",
            summary=(
                "The paper's maximal independent set composed over the "
                "AU synchronizer (Theorem 14)."
            ),
        ),
        AlgorithmSpec(
            name="sync-alg-le",
            task="le",
            factory=_sync_alg_le,
            engines=("object",),
            schedulers=_ALL_SCHEDULERS,
            starts=("random",),
            fault_kinds=("none",),
            self_stabilizing=True,
            state_bits_formula="2*log2 |Q_LE(D)| + log2(12D+6)",
            summary=(
                "AlgLE lifted by the Cor 1.2 synchronizer: runs under "
                "asynchronous daemons, |Q*| = |Q|^2 * (12D+6)."
            ),
        ),
        AlgorithmSpec(
            name="sync-alg-mis",
            task="mis",
            factory=_sync_alg_mis,
            engines=("object",),
            schedulers=_ALL_SCHEDULERS,
            starts=("random",),
            fault_kinds=("none",),
            self_stabilizing=True,
            state_bits_formula="2*log2 |Q_MIS(D)| + log2(12D+6)",
            summary=(
                "AlgMIS lifted by the Cor 1.2 synchronizer: runs under "
                "asynchronous daemons, |Q*| = |Q|^2 * (12D+6)."
            ),
        ),
        AlgorithmSpec(
            name="min-unison",
            task="au",
            factory=_min_unison,
            engines=("object",),
            schedulers=_ALL_SCHEDULERS,
            starts=("random", "uniform"),
            fault_kinds=("none",),
            self_stabilizing=True,
            state_bits_formula="unbounded",
            summary=(
                "Textbook min-increment unison over unbounded counters: "
                "fast, but no finite state space."
            ),
            stable=_min_unison_stable,
        ),
        AlgorithmSpec(
            name="reset-tail-unison",
            task="au",
            factory=_reset_tail_unison,
            engines=("object", "array"),
            schedulers=_ALL_SCHEDULERS,
            starts=("random", "uniform"),
            fault_kinds=("none",),
            self_stabilizing=True,
            state_bits_formula="log2(8D+6)",
            summary=(
                "Reset-wave unison with a climb-out tail (|Q| = 8D+6): "
                "fewer bits than AlgAU, paid for in reset-wave moves."
            ),
            stable=_reset_tail_stable,
        ),
        AlgorithmSpec(
            name="failed-reset-unison",
            task="au",
            factory=_failed_reset_unison,
            engines=("object",),
            schedulers=_ALL_SCHEDULERS,
            starts=("random", "uniform"),
            fault_kinds=("none",),
            self_stabilizing=False,
            state_bits_formula="log2(4D+2)",
            summary=(
                "The Figure 2 strawman: global reset waves with too few "
                "reset phases — livelocks under adversarial daemons."
            ),
            stable=_failed_reset_stable,
        ),
        AlgorithmSpec(
            name="id-flood-le",
            task="le",
            factory=_id_flood_le,
            engines=("object",),
            schedulers=_ALL_SCHEDULERS,
            starts=("ids",),
            fault_kinds=("none",),
            self_stabilizing=False,
            state_bits_formula="2*log2(n)",
            summary=(
                "Max-ID flooding leader election: needs unique IDs "
                "(the `ids` start), |Q| = n^2."
            ),
        ),
        AlgorithmSpec(
            name="id-greedy-mis",
            task="mis",
            factory=_id_greedy_mis,
            engines=("object",),
            schedulers=_ALL_SCHEDULERS,
            starts=("ids",),
            fault_kinds=("none",),
            self_stabilizing=False,
            state_bits_formula="log2(3n)",
            summary=(
                "Greedy local-minimum-ID MIS: needs unique IDs "
                "(the `ids` start), |Q| = 3n."
            ),
        ),
        AlgorithmSpec(
            name="luby-mis",
            task="mis",
            factory=_luby_mis,
            engines=("object",),
            schedulers=_ALL_SCHEDULERS,
            # Uniform (all-undecided) starts only: a random start can
            # contain adjacent decided-IN nodes, and decisions are
            # forever — there is no detection to recover from them.
            starts=("uniform",),
            fault_kinds=("none",),
            self_stabilizing=False,
            state_bits_formula="log2(12)",
            summary=(
                "Randomized Luby-style trial MIS: constant state, "
                "unsound under asynchrony by design (tie-blind)."
            ),
        ),
    )
}

#: The algorithm a task runs when a scenario leaves ``algorithm`` empty
#: — the paper's own algorithm for each task, so every pre-existing
#: campaign spec keeps meaning exactly what it meant.
DEFAULT_ALGORITHMS: Dict[str, str] = {
    "au": "thin-unison",
    "le": "alg-le",
    "mis": "alg-mis",
}


def algorithm_names() -> Tuple[str, ...]:
    """All registered algorithm names, sorted."""
    return tuple(sorted(ALGORITHM_FACTORIES))


def algorithm_spec(name: str) -> AlgorithmSpec:
    """The capability declaration for ``name``, with a clear error."""
    try:
        return ALGORITHM_FACTORIES[name]
    except KeyError:
        valid = ", ".join(algorithm_names())
        raise ValueError(
            f"unknown algorithm {name!r}: valid algorithms are {valid}"
        ) from None


@dataclass(frozen=True)
class FaultPlan:
    """The fault axis of a scenario (see the module docstring)."""

    kind: str = "none"
    #: ``bursts`` kind: number of post-stabilization bursts.
    bursts: int = 0
    #: ``bursts``/``storm`` kinds: fraction of nodes corrupted per hit.
    fraction: float = 0.25
    #: ``storm`` kind: step times at which the injector strikes.
    times: Tuple[int, ...] = ()
    #: ``rewire`` kind: edges removed / added by the perturbation.
    remove: int = 0
    add: int = 0
    #: ``byzantine`` kind: a :mod:`repro.resilience` strategy name.
    strategy: str = ""
    #: ``byzantine``/``crash`` kinds: fraction of permanently faulty
    #: nodes (at least one node, always leaving one correct).
    density: float = 0.0
    #: ``byzantine``/``crash`` kinds: the containment target — the run
    #: succeeds when every correct node at hop distance > ``radius``
    #: from the faulty set is stably clean.
    radius: int = 2
    #: ``churn``/``membership`` kinds: expected topology events per step
    #: during the churn window, split evenly between the two event
    #: directions (add/remove edges, join/leave nodes).  The window
    #: length in steps rides in ``times`` as its single entry; churn
    #: starts once the run first stabilizes.
    rate: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            valid = ", ".join(FAULT_KINDS)
            raise ValueError(
                f"unknown fault kind {self.kind!r}: valid kinds are {valid}"
            )
        if self.kind == "bursts" and self.bursts < 1:
            raise ValueError("bursts fault plan needs bursts >= 1")
        if self.kind == "storm" and not self.times:
            raise ValueError("storm fault plan needs at least one strike time")
        if self.kind == "rewire":
            if self.remove < 0 or self.add < 0:
                raise ValueError("rewire edge counts must be non-negative")
            if self.remove + self.add < 1:
                raise ValueError("rewire fault plan must change at least one edge")
        if self.kind in ("bursts", "storm") and not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"fault fraction must be in (0, 1], got {self.fraction}")
        if self.kind == "byzantine":
            if self.strategy == "crash":
                raise ValueError(
                    "crash-stop faults have their own kind: use "
                    "FaultPlan(kind='crash', ...) so the crash time in "
                    "`times` is honored"
                )
            if self.strategy not in strategy_names():
                valid = ", ".join(
                    name for name in strategy_names() if name != "crash"
                )
                raise ValueError(
                    f"unknown Byzantine strategy {self.strategy!r}: valid "
                    f"strategies are {valid}"
                )
        if self.kind in PERMANENT_FAULT_KINDS:
            if not 0.0 < self.density < 1.0:
                raise ValueError(
                    f"permanent-fault density must be in (0, 1), got {self.density}"
                )
            if self.radius < 0:
                raise ValueError("containment radius must be >= 0")
        if self.kind == "crash" and len(self.times) > 1:
            raise ValueError("crash fault plan takes at most one crash time")
        if self.kind in DYNAMIC_FAULT_KINDS:
            if not self.rate > 0.0:
                raise ValueError(
                    f"{self.kind} fault plan needs rate > 0 (expected "
                    f"topology events per step), got {self.rate}"
                )
            if len(self.times) != 1 or self.times[0] < 1:
                raise ValueError(
                    f"{self.kind} fault plan needs times=(window,) with a "
                    f"churn-window length of at least one step, got "
                    f"{self.times}"
                )
        elif self.rate:
            raise ValueError(
                f"rate only applies to the dynamic-topology kinds "
                f"({', '.join(DYNAMIC_FAULT_KINDS)}); {self.kind} plans "
                "must leave it at 0"
            )
        object.__setattr__(self, "times", tuple(int(t) for t in self.times))

    @property
    def label(self) -> str:
        """A compact human-readable tag for aggregate rows."""
        if self.kind == "none":
            return "none"
        if self.kind == "bursts":
            return f"bursts(x{self.bursts}@{self.fraction:.2f})"
        if self.kind == "storm":
            return f"storm(x{len(self.times)}@{self.fraction:.2f})"
        if self.kind == "byzantine":
            return f"byz-{self.strategy}(d={self.density:.2f},r={self.radius})"
        if self.kind == "crash":
            at = self.times[0] if self.times else 0
            return f"crash(d={self.density:.2f},t={at},r={self.radius})"
        if self.kind in DYNAMIC_FAULT_KINDS:
            return f"{self.kind}(r={self.rate:g},w={self.times[0]})"
        return f"rewire(-{self.remove}+{self.add})"


NO_FAULTS = FaultPlan()


#: Version salt folded into every :meth:`Scenario.content_hash`.  Bump
#: it whenever the *meaning* of a spec field changes (a new axis with a
#: non-neutral default, a semantic change to an existing axis, a fault
#: plan re-interpretation): the bump invalidates every cached result at
#: once, which is always correct and never subtle.  Purely additive
#: axes whose defaults reproduce the old behavior do NOT need a bump —
#: the canonical payload includes them, so old hashes simply coexist
#: with new ones.
#:
#: Version 2: ``perturb_topology`` switched from permutation/sorted
#: non-edge enumeration to rejection sampling, changing the rng draws —
#: every ``rewire`` result (and, conservatively, every cached row)
#: predating the switch is invalidated.
CONTENT_HASH_VERSION = 2


@dataclass(frozen=True)
class Scenario:
    """One fully-determined experiment of a campaign."""

    campaign: str
    index: int
    task: str
    graph: str
    graph_params: Tuple[Tuple[str, object], ...]
    diameter_bound: int
    scheduler: str
    engine: str
    start: str
    seed: int
    max_rounds: int
    faults: FaultPlan = NO_FAULTS
    #: Aggregation group (one sweep point, e.g. ``"D=3"``); scenarios
    #: sharing a group are folded into one summary row.
    group: str = ""
    #: Free-form registry labels (e.g. ``(("trial", "2"),)``) carried
    #: through to result rows so benchmarks can re-fold along their own
    #: axes.
    tags: Tuple[Tuple[str, str], ...] = ()
    #: Replica-batching width.  ``1`` (default) runs the scenario solo;
    #: ``>= 2`` marks it eligible for the runner's replica-batched
    #: path: scenarios whose specs differ *only by seed* (same
    #: :meth:`batch_key`) are fused into
    #: :class:`~repro.model.replica_engine.ReplicaBatchExecution`
    #: ensembles of at most this many replicas.  Batching is a pure
    #: execution strategy — per-replica results are bit-identical to
    #: solo runs — so the value never enters ``scenario_id`` or the
    #: aggregates.  Only fault-free AU scenarios on the ``array`` or
    #: ``replica-batch`` engine under oblivious schedulers qualify (a
    #: ``native`` seed ensemble runs its trials solo, which is faster).
    batch_replicas: int = 1
    #: The algorithm axis: an :data:`ALGORITHM_FACTORIES` name.  The
    #: empty default resolves to the task's paper algorithm
    #: (:data:`DEFAULT_ALGORITHMS`), so pre-existing specs are
    #: unchanged.  Every other axis is validated against the
    #: algorithm's :class:`AlgorithmSpec` capability declaration.
    algorithm: str = ""
    #: The runtime lane (:data:`RUNTIMES`).  ``sim`` (default) is the
    #: shared-memory simulation; ``net`` runs the same spec on the
    #: message-passing runtime — the ``engine`` axis then names
    #: the sim engine whose activation/adversary RNG stream the net lane
    #: mirrors, which is what makes zero-noise net rows bit-comparable
    #: to their sim twins.
    runtime: str = "sim"
    #: Link knobs for the ``net`` runtime, as ``(key, value)`` pairs
    #: with keys from :data:`NET_PARAM_KEYS` (empty = ideal links, the
    #: differential-parity configuration).  Must be empty on ``sim``.
    net_params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.task not in TASKS:
            raise ValueError(
                f"unknown task {self.task!r}: valid tasks are "
                f"{', '.join(TASKS)}"
            )
        if self.engine not in ENGINE_NAMES:
            raise ValueError(
                f"unknown engine {self.engine!r}: valid engine names are "
                f"{', '.join(ENGINE_NAMES)}"
            )
        if self.scheduler not in SCHEDULER_FACTORIES:
            valid = ", ".join(scheduler_names())
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}: valid schedulers "
                f"are {valid}"
            )
        starts = TASK_STARTS[self.task]
        if self.start not in starts:
            raise ValueError(
                f"start {self.start!r} is not defined for task "
                f"{self.task!r}: valid starts are {', '.join(starts)}"
            )
        if not self.algorithm:
            object.__setattr__(self, "algorithm", DEFAULT_ALGORITHMS[self.task])
        spec = algorithm_spec(self.algorithm)
        if spec.task != self.task:
            raise ValueError(
                f"algorithm {self.algorithm!r} implements task "
                f"{spec.task!r}, not {self.task!r}"
            )
        if self.engine not in spec.engines:
            raise ValueError(
                f"algorithm {self.algorithm!r} does not support engine "
                f"{self.engine!r}: supported engines are "
                f"{', '.join(spec.engines)}"
            )
        if self.scheduler not in spec.schedulers:
            raise ValueError(
                f"algorithm {self.algorithm!r} is not defined under "
                f"scheduler {self.scheduler!r}: supported schedulers are "
                f"{', '.join(spec.schedulers)}"
            )
        if self.start not in spec.starts:
            raise ValueError(
                f"algorithm {self.algorithm!r} does not support start "
                f"{self.start!r}: supported starts are "
                f"{', '.join(spec.starts)}"
            )
        if self.faults.kind not in spec.fault_kinds:
            raise ValueError(
                f"algorithm {self.algorithm!r} does not support fault "
                f"kind {self.faults.kind!r}: supported kinds are "
                f"{', '.join(spec.fault_kinds)}"
            )
        if self.batch_replicas > 1 and not spec.batchable:
            raise ValueError(
                f"algorithm {self.algorithm!r} does not support "
                "replica-batched ensembles; only batchable algorithms "
                "(thin-unison) can set batch_replicas > 1"
            )
        if self.diameter_bound < 1:
            raise ValueError("diameter bound must be >= 1")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.batch_replicas < 1:
            raise ValueError(
                f"batch_replicas must be >= 1, got {self.batch_replicas}"
            )
        if self.batch_replicas > 1:
            if self.task != "au":
                raise ValueError(
                    "replica batching vectorizes the AU task only; "
                    f"task {self.task!r} cannot set batch_replicas > 1"
                )
            if self.faults.kind != "none":
                raise ValueError(
                    "replica batching covers fault-free scenarios only "
                    f"(got fault kind {self.faults.kind!r}); faulted "
                    "scenarios keep the per-scenario engines"
                )
            if self.engine not in ("array", "replica-batch"):
                raise ValueError(
                    "replica batching rides the numpy array tier; use "
                    "engine='array' or 'replica-batch' with "
                    "batch_replicas > 1"
                )
            if self.scheduler in ENABLED_AWARE_SCHEDULERS:
                raise ValueError(
                    f"scheduler {self.scheduler!r} consumes the per-replica "
                    "enabled view, which the fused replica batch does not "
                    "maintain; batched scenarios need an oblivious scheduler"
                )
        if self.runtime not in RUNTIMES:
            raise ValueError(
                f"unknown runtime {self.runtime!r}: valid runtimes are "
                f"{', '.join(RUNTIMES)}"
            )
        net_params = tuple((str(k), float(v)) for k, v in self.net_params)
        if self.runtime == "net":
            if self.task != "au" or self.algorithm != "thin-unison":
                raise ValueError(
                    "the net runtime carries constant-size encoded AlgAU "
                    f"clock messages; task {self.task!r} / algorithm "
                    f"{self.algorithm!r} has no net lane (use "
                    "task='au' with thin-unison)"
                )
            if self.scheduler in ENABLED_AWARE_SCHEDULERS:
                raise ValueError(
                    f"scheduler {self.scheduler!r} consumes the enabled "
                    "view, which the net runtime cannot provide (a timer "
                    "cannot see remote enabledness); use an oblivious daemon"
                )
            if self.faults.kind not in NET_FAULT_KINDS:
                raise ValueError(
                    f"fault kind {self.faults.kind!r} has no net-runtime "
                    "mapping: supported kinds are "
                    f"{', '.join(NET_FAULT_KINDS)}"
                )
            if self.batch_replicas > 1:
                raise ValueError(
                    "net scenarios run solo (the net runtime has no "
                    "replica batch); batch_replicas must be 1"
                )
            unknown = sorted(set(k for k, _ in net_params) - set(NET_PARAM_KEYS))
            if unknown:
                raise ValueError(
                    f"unknown net_params key(s) {', '.join(unknown)}: valid "
                    f"keys are {', '.join(NET_PARAM_KEYS)}"
                )
            for key, value in net_params:
                if value < 0.0:
                    raise ValueError(f"net_params {key} must be >= 0, got {value}")
                if key in ("loss", "duplicate") and value >= 1.0:
                    raise ValueError(
                        f"net_params {key} is a probability and must be "
                        f"< 1, got {value}"
                    )
        elif net_params:
            raise ValueError(
                "net_params only apply to runtime='net' scenarios; "
                "sim scenarios must leave them empty"
            )
        object.__setattr__(self, "net_params", net_params)
        object.__setattr__(
            self,
            "graph_params",
            tuple((str(k), v) for k, v in self.graph_params),
        )
        object.__setattr__(self, "tags", tuple((str(k), str(v)) for k, v in self.tags))

    @property
    def scenario_id(self) -> str:
        """Stable unique identifier — the checkpoint/resume key.

        Sim scenarios keep the pre-runtime-axis id format, so existing
        checkpoints stay resumable; net scenarios extend the engine
        segment with the lane and its link knobs.
        """
        params = ",".join(f"{k}={v}" for k, v in self.graph_params)
        engine = self.engine
        if self.runtime == "net":
            knobs = ",".join(f"{k}={v:g}" for k, v in self.net_params)
            engine = f"{engine}+net[{knobs}]"
        return (
            f"{self.campaign}/{self.index:04d}:{self.task}"
            f"@{self.graph}[{params}]"
            f"/D{self.diameter_bound}/{self.scheduler}/{self.start}"
            f"/{engine}/{self.algorithm}/{self.faults.label}/s{self.seed}"
        )

    def content_payload(self) -> Dict[str, object]:
        """The canonical execution-shaping payload behind
        :meth:`content_hash`.

        Covers exactly the axes a :class:`ScenarioResult`'s *measured*
        columns are a function of: task, graph family and parameters,
        diameter bound, scheduler, engine, runtime and link knobs,
        start, fault plan, algorithm, seed, and round budget.  The
        labels that only shape bookkeeping — ``campaign``, ``index``,
        ``group``, ``tags`` — and the pure execution strategy
        ``batch_replicas`` are deliberately excluded, so the same
        experiment reached from two different campaigns addresses the
        same cache entry.  ``graph_params`` are key-sorted: keyword
        order never reaches :func:`~repro.graphs.generators.make_graph`.
        """
        return {
            "version": CONTENT_HASH_VERSION,
            "task": self.task,
            "graph": self.graph,
            "graph_params": sorted([str(k), v] for k, v in self.graph_params),
            "diameter_bound": self.diameter_bound,
            "scheduler": self.scheduler,
            "engine": self.engine,
            "runtime": self.runtime,
            "net_params": sorted([str(k), v] for k, v in self.net_params),
            "start": self.start,
            "faults": dict(asdict(self.faults), times=list(self.faults.times)),
            "algorithm": self.algorithm,
            "seed": self.seed,
            "max_rounds": self.max_rounds,
        }

    def content_hash(self) -> str:
        """The canonical content address of this scenario's result.

        SHA-256 over the version-salted canonical JSON serialization of
        :meth:`content_payload` (sorted keys, no whitespace drift), so
        the hash is a stable, collision-resistant pure function of the
        execution-shaping spec: ``from_dict(to_dict(s))`` hashes
        identically, semantically different scenarios address different
        entries, and a :data:`CONTENT_HASH_VERSION` bump invalidates
        every previously cached result.  This is the key of the
        content-addressed result store (:mod:`repro.campaigns.cache`).
        """
        canonical = json.dumps(
            self.content_payload(),
            sort_keys=True,
            separators=(",", ":"),
            ensure_ascii=True,
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def batch_key(self) -> Tuple:
        """The replica-batching equivalence key: every axis that shapes
        the execution *except* the seed (and the labels — ``group``/
        ``tags`` — that only shape aggregation).  Scenarios sharing a
        key are the same experiment at different seeds, which is exactly
        what one :class:`~repro.model.replica_engine.ReplicaBatchExecution`
        ensemble runs."""
        return (
            self.campaign,
            self.task,
            self.graph,
            self.graph_params,
            self.diameter_bound,
            self.scheduler,
            self.engine,
            self.start,
            self.max_rounds,
            self.faults,
            self.batch_replicas,
            self.algorithm,
            self.runtime,
            self.net_params,
        )

    def params(self) -> Dict[str, object]:
        """``graph_params`` as a plain dict."""
        return dict(self.graph_params)

    def tag(self, key: str) -> Optional[str]:
        """The value of tag ``key`` (``None`` when absent)."""
        return dict(self.tags).get(key)

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serializable snapshot (see ``from_dict``)."""
        data = asdict(self)
        data["graph_params"] = [list(pair) for pair in self.graph_params]
        data["tags"] = [list(pair) for pair in self.tags]
        data["net_params"] = [list(pair) for pair in self.net_params]
        data["faults"] = asdict(self.faults)
        data["faults"]["times"] = list(self.faults.times)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Scenario":
        """Rebuild a :class:`Scenario` from ``to_dict`` output."""
        payload = dict(data)
        payload["graph_params"] = tuple(
            (k, v) for k, v in payload.get("graph_params", ())
        )
        payload["tags"] = tuple((k, v) for k, v in payload.get("tags", ()))
        payload["net_params"] = tuple(
            (k, v) for k, v in payload.get("net_params", ())
        )
        faults = payload.get("faults", {})
        if isinstance(faults, dict):
            faults = dict(faults)
            faults["times"] = tuple(faults.get("times", ()))
            payload["faults"] = FaultPlan(**faults)
        return cls(**payload)


@dataclass(frozen=True)
class ScenarioResult:
    """The measured outcome of one scenario run.

    ``elapsed_ms`` is wall-clock and therefore excluded from campaign
    aggregates (which must be bit-identical across worker counts); it
    survives only in the JSONL checkpoint stream.
    """

    scenario_id: str
    index: int
    group: str
    stabilized: bool
    rounds: int
    steps: int
    n: int
    m: int
    recovered: Optional[bool] = None
    recovery_rounds: Optional[int] = None
    #: Permanent-fault kinds only: measured containment radius (worst
    #: over the confirmation window) and fraction of correct nodes
    #: clean at every boundary of that window (the same "settled"
    #: semantics as ``ContainmentMeasurement.clean_fraction``).
    containment_radius: Optional[int] = None
    clean_fraction: Optional[float] = None
    #: Pareto metrics (PR 7): exact state bits per node from the
    #: algorithm's declared state space (``None`` when unbounded), and
    #: total work in moves — node activations that changed the state —
    #: counted identically by the per-step monitors and the
    #: replica-batch retirement path.
    state_bits: Optional[float] = None
    moves: Optional[int] = None
    #: Dynamic-topology kinds only: topology events actually applied
    #: during the churn window, and the pulse-synchrony tightness (the
    #: minimal cyclic arc of the alive able clocks over the clock group,
    #: 1.0 while any alive node is faulty; 0.0 = perfectly pulsed) at
    #: the end of the run.
    churn_events: Optional[int] = None
    pulse_tightness: Optional[float] = None
    detail: str = ""
    #: Row disposition: ``""`` for a normally measured row, ``"timeout"``
    #: when the runner's per-scenario wall-clock guard cut the run short
    #: (the row's measured columns are then deterministic placeholders),
    #: ``"error"`` when the scenario raised.
    status: str = ""
    tags: Tuple[Tuple[str, str], ...] = ()
    elapsed_ms: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "tags", tuple((str(k), str(v)) for k, v in self.tags))

    def tag(self, key: str) -> Optional[str]:
        """The value of tag ``key`` (``None`` when absent)."""
        return dict(self.tags).get(key)

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serializable snapshot (see ``from_dict``)."""
        data = asdict(self)
        data["tags"] = [list(pair) for pair in self.tags]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ScenarioResult":
        """Rebuild a :class:`ScenarioResult` from ``to_dict`` output."""
        payload = dict(data)
        payload["tags"] = tuple((k, v) for k, v in payload.get("tags", ()))
        known = {f.name for f in fields(cls)}
        payload = {k: v for k, v in payload.items() if k in known}
        return cls(**payload)
