"""Parallel campaign execution.

:func:`run_scenario` turns one declarative :class:`Scenario` into a
measured :class:`ScenarioResult`; :func:`run_campaign` drives a whole
campaign, inline or through a pool of worker processes.

Design constraints, in order:

1. **Determinism.**  Every scenario carries its own seed (derived from
   the campaign seed and the scenario index by the registry), so a
   scenario's result is a pure function of its spec — independent of
   which worker ran it, in which process, in which order.  Aggregates
   over a result set are computed from index-sorted rows, which is what
   makes 1-worker and N-worker campaign runs bit-identical.
2. **Resumability.**  Completed scenarios stream to a JSONL checkpoint
   as soon as their job finishes; a killed campaign restarted with
   ``resume=True`` skips everything the checkpoint already holds and
   re-runs only the remainder.
3. **Throughput.**  Above one worker, idle workers pull the next
   pending job from the pool's shared queue, so a slow job delays only
   its own worker; AU scenarios default to the vectorized array engine
   in the registries.  A job is either a replica ensemble (seeds fused
   into one run) or an input group: index-adjacent scenarios sharing
   seed, graph family and graph parameters (the lanes of a pairing),
   which build the graph, the start configuration and the churn stream
   once and then run one by one, each on its own rng restored to the
   state the build left.  Grouping has no switch: a grouped row equals
   the solo row.

A scenario that raises is folded into a failed result (``stabilized
False``, ``detail`` holding the error) rather than aborting the
campaign: one unsatisfiable graph sample must not sink a
thousand-scenario sweep.
"""

from __future__ import annotations

import functools
import json
import linecache
import logging
import os
import time
import traceback
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.containment import (
    execution_clean_mask,
    hop_distances,
    radius_of_mask,
)
from repro.analysis.monitors import OutputChangeMonitor
from repro.analysis.restabilization import RestabilizationTracker, pulse_tightness
from repro.analysis.stabilization import settle, settle_output
from repro.campaigns.cache import ResultCache
from repro.campaigns.spec import (
    ALGORITHM_FACTORIES,
    PERMANENT_FAULT_KINDS,
    AlgorithmSpec,
    Scenario,
    ScenarioResult,
    make_scheduler,
)
from repro.faults.churn import ChurnProcess
from repro.faults.injection import (
    AU_START_BUILDERS,
    TransientFaultInjector,
    perturb_topology,
    random_configuration,
    uniform_configuration,
)
from repro.graphs.dynamic import DynamicTopology, TopologyDelta
from repro.graphs.generators import make_graph
from repro.graphs.topology import Topology
from repro.model.configuration import Configuration
from repro.model.engine import Monitor, create_execution, graph_is_good
from repro.model.errors import TopologyError
from repro.model.replica_engine import ReplicaSpec
from repro.resilience.adversary import (
    PermanentFaultAdversary,
    select_faulty_nodes,
)
from repro.resilience.strategies import Crash, make_strategy
from repro.tasks.spec import output_validator

logger = logging.getLogger(__name__)


# ----------------------------------------------------------------------
# Single-scenario execution.
# ----------------------------------------------------------------------


def _initial_configuration(
    scenario: Scenario, algorithm, topology: Topology, rng
) -> Configuration:
    if scenario.start == "uniform":
        return uniform_configuration(algorithm, topology)
    if scenario.start == "random":
        # Valid for every task; the AU builder battery covers AU only.
        return random_configuration(algorithm, topology, rng)
    if scenario.start == "ids":
        # The algorithm's own initializer (per-node unique IDs);
        # capability-gated to algorithms that define it.
        return algorithm.initial_configuration(topology)
    return AU_START_BUILDERS[scenario.start](algorithm, topology, rng)


def _algorithm_spec(scenario: Scenario) -> AlgorithmSpec:
    return ALGORITHM_FACTORIES[scenario.algorithm]


def _make_algorithm(scenario: Scenario, topology: Topology):
    """A fresh algorithm instance from the scenario's registry entry."""
    return _algorithm_spec(scenario).make(scenario.diameter_bound, topology.n)


def _state_bits(algorithm) -> Optional[float]:
    """Exact bits per node from the declared state space (``None`` when
    unbounded, e.g. min-unison's counters)."""
    try:
        size = algorithm.state_space_size()
    except NotImplementedError:
        return None
    return float(np.log2(size))


def _result(
    scenario: Scenario, topology: Topology, started: float, **columns
) -> ScenarioResult:
    """A measured row: ``columns`` are :class:`ScenarioResult` fields."""
    return ScenarioResult(
        scenario_id=scenario.scenario_id,
        index=scenario.index,
        group=scenario.group,
        n=topology.n,
        m=topology.m,
        tags=scenario.tags,
        elapsed_ms=(time.perf_counter() - started) * 1000.0,
        **columns,
    )


class ScenarioTimeout(Exception):
    """Raised by the deadline monitor when a scenario exceeds its
    per-scenario wall-clock budget."""


class _DeadlineMonitor(Monitor):
    """Raises :class:`ScenarioTimeout` once the wall clock passes the
    deadline.

    Riding the per-step monitor hook means the guard needs no threads
    or signals (both of which are off limits inside pool workers) and
    fires between steps, never mid-update — the execution it interrupts
    is simply abandoned.  The guard cannot preempt a single step that
    hangs internally, but every engine's step is bounded work.
    """

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline

    def on_step(self, execution, record) -> None:
        """Check the wall clock after every step."""
        if time.perf_counter() >= self.deadline:
            raise ScenarioTimeout()


def _timeout_result(
    scenario: Scenario, timeout_s: float, started: float
) -> ScenarioResult:
    """The deterministic row for a timed-out scenario.

    Every measured column is a placeholder (not the partial measurement,
    which would depend on host speed): the row is a pure function of the
    spec and the budget, so timed-out campaigns still aggregate
    bit-identically across worker counts and machines — only
    ``elapsed_ms`` (excluded from aggregates) varies.
    """
    return ScenarioResult(
        scenario_id=scenario.scenario_id,
        index=scenario.index,
        group=scenario.group,
        stabilized=False,
        rounds=0,
        steps=0,
        n=0,
        m=0,
        detail=f"scenario exceeded the {timeout_s:g}s wall-clock budget",
        status="timeout",
        tags=scenario.tags,
        elapsed_ms=(time.perf_counter() - started) * 1000.0,
    )


def _create_scenario_execution(
    scenario: Scenario,
    topology: Topology,
    algorithm,
    initial: Configuration,
    rng,
    intervention=None,
    monitors: Tuple[Monitor, ...] = (),
):
    """Build the scenario's execution on its runtime lane.

    ``runtime="sim"`` dispatches to the engine registry;
    ``runtime="net"`` builds a message-passing
    :class:`~repro.net.runtime.NetExecution` through the
    :class:`~repro.net.adapter.NetAdapter` (link knobs from
    ``net_params``, link-noise stream seeded from the scenario seed).
    """
    if scenario.runtime == "net":
        from repro.net.adapter import NetAdapter

        return NetAdapter.create(
            scenario,
            topology,
            algorithm,
            initial,
            make_scheduler(scenario.scheduler),
            rng=rng,
            monitors=monitors,
            intervention=intervention,
        )
    return create_execution(
        topology,
        algorithm,
        initial,
        make_scheduler(scenario.scheduler),
        rng=rng,
        intervention=intervention,
        engine=scenario.engine,
        monitors=monitors,
    )


#: The ``detail`` of an AU row whose run never reached its stabilization
#: predicate (shared with the replica-batch path, which must match it).
_NOT_STABILIZED = "good graph not reached within the round budget"


def _stable_predicate(scenario: Scenario, algorithm) -> Callable[[object], bool]:
    """The scenario's stabilization predicate: thin unison (``stable``
    None) uses the engines' incrementally counted goodness; the zoo
    algorithms declare a closed configuration predicate."""
    stable = _algorithm_spec(scenario).stable
    if stable is None:
        return graph_is_good
    return lambda e: stable(algorithm, e.configuration)


def _recover(scenario: Scenario, execution, stable, event: str) -> Dict:
    """Re-stabilize after a structural ``event`` on a fresh round clock
    and scheduler, exactly as a from-scratch execution on the changed
    graph would count it; ``t`` keeps accumulating total work."""
    execution.reset_schedule(make_scheduler(scenario.scheduler))
    rounds = settle(execution, stable, scenario.max_rounds)
    if rounds is None:
        return {
            "recovered": False,
            "detail": f"post-{event} recovery exceeded the round budget",
        }
    return {"recovered": True, "recovery_rounds": rounds}


def _bursts(scenario, topology, algorithm, execution, rng, stable, inputs) -> Dict:
    """Corrupt a ``plan.fraction`` of the nodes ``plan.bursts`` times,
    re-stabilizing after each; ``recovery_rounds`` is the worst burst."""
    plan = scenario.faults
    worst = 0
    for _ in range(plan.bursts):
        count = max(1, int(np.ceil(plan.fraction * topology.n)))
        victims = rng.choice(topology.n, size=count, replace=False)
        execution.replace_configuration(
            execution.configuration.replace(
                {int(v): algorithm.random_state(rng) for v in victims}
            )
        )
        start = execution.completed_rounds
        recovery = execution.run(max_rounds=start + scenario.max_rounds, until=stable)
        if not recovery.stopped_by_predicate:
            return {
                "recovered": False,
                "detail": "burst recovery exceeded the round budget",
            }
        worst = max(worst, execution.completed_rounds - start + 1)
    return {"recovered": True, "recovery_rounds": worst}


def _rewire(scenario, topology, algorithm, execution, rng, stable, inputs) -> Dict:
    """Land a :func:`perturb_topology` rewiring on the running execution
    as an incremental delta, then recover."""
    plan = scenario.faults
    perturbation = perturb_topology(
        topology,
        rng,
        remove=plan.remove,
        add=plan.add,
        diameter_bound=scenario.diameter_bound,
    )
    execution.mutate_topology(
        TopologyDelta(add_edges=perturbation.added, remove_edges=perturbation.removed)
    )
    # Nodes whose contact set changed re-enter from arbitrary states: the
    # rewiring invalidated exactly their neighborhood assumptions (pure
    # edge changes often leave a good configuration good, which would
    # make the recovery measurement vacuous).
    touched = sorted(
        {v for edge in perturbation.removed + perturbation.added for v in edge}
    )
    if touched:
        execution.poke_states({v: algorithm.random_state(rng) for v in touched})
    return _recover(scenario, execution, stable, "rewire")


def _resolve_stream(topology, deltas: List) -> List:
    """``deltas`` with each delta resolved once, in order, on a private
    :class:`~repro.graphs.dynamic.DynamicTopology` of ``topology``
    (``None`` entries, the quiet steps, stay).  An invalid delta and
    everything after it stay unresolved, so the lane that reaches it
    fails in :meth:`~repro.graphs.dynamic.DynamicTopology.apply_delta`
    at the same step as without the resolution."""
    resolver = DynamicTopology(topology)
    resolved: List = []
    for i, delta in enumerate(deltas):
        if delta is None:
            resolved.append(None)
            continue
        try:
            resolved.append(resolver.resolve(delta))
        except TopologyError:
            return resolved + deltas[i:]
    return resolved


def _churn(scenario, topology, algorithm, execution, rng, stable, inputs) -> Dict:
    """Survive a churn window, then recover.

    ``plan.times[0]`` engine steps run under a
    :class:`~repro.faults.churn.ChurnProcess` seeded purely from the
    scenario seed, so every lane of a differential pair sees the
    bit-identical delta stream.  ``churn`` splits ``plan.rate`` evenly
    between edge additions and removals; ``membership`` between joins
    (fresh nodes at the algorithm's rest state) and
    connectivity-preserving leaves.  ``clean_fraction`` is the fraction
    of window steps spent stable (the sustainable-churn order
    parameter); ``pulse_tightness`` is measured on the surviving clocks
    after recovery.

    The process mirrors the graph on its own, so the stream is drawn
    whole up front, resolved (:func:`_resolve_stream`) and recorded in
    ``inputs``: every lane of the input group, the first included,
    replays the resolved rows and CSR of each delta instead of
    validating and splicing it on its own copy.  The memo holds each
    delta's post-delta CSR arrays until the group ends: on a rate-4
    membership cell the graph grows to about 340 node ids within the
    window, and the stored arrays reach about 0.9 MB.
    """
    plan = scenario.faults
    window = int(plan.times[0])
    key = ("churn", scenario.algorithm, scenario.diameter_bound, plan)
    if key not in inputs:
        half = plan.rate / 2.0
        if plan.kind == "churn":
            rates = {"edge_add_rate": half, "edge_remove_rate": half}
        else:
            rates = {
                "join_rate": half,
                "leave_rate": half,
                "initial_state": algorithm.initial_state,
            }
        churn = ChurnProcess(execution.topology, seed=scenario.seed, **rates)
        deltas = _resolve_stream(execution.topology, list(churn.deltas(window)))
        inputs[key] = (deltas, churn.events)
    deltas, events = inputs[key]
    tracker = RestabilizationTracker()
    good_steps = 0
    for delta in deltas:
        if delta is not None:
            execution.mutate_topology(delta)
            tracker.on_event(execution.t)
        execution.step()
        is_good = stable(execution)
        if is_good:
            good_steps += 1
        tracker.on_step(execution.t, is_good)
    columns = _recover(scenario, execution, stable, "churn")
    if columns["recovered"] and tracker.episodes:
        columns["detail"] = (
            f"{len(tracker.episodes)} restabilization episodes, "
            f"mean {tracker.mean_time():.1f} steps"
        )
    alive = getattr(execution.topology, "alive_nodes", execution.topology.nodes)
    return dict(
        columns,
        clean_fraction=good_steps / window,
        churn_events=events,
        pulse_tightness=pulse_tightness(
            algorithm, (execution.state_of(v) for v in alive)
        ),
    )


#: Post-stabilization disturbances by fault kind; each gets the input
#: group's memo (only ``_churn`` records into it) and returns only its
#: extra result columns.  Kinds absent here (``none``, ``storm``, whose
#: injector strikes during stabilization) have none.
_DISTURBANCES = {
    "bursts": _bursts,
    "rewire": _rewire,
    "churn": _churn,
    "membership": _churn,
}


def _contain(scenario: Scenario, execution, distances, row) -> ScenarioResult:
    """Permanent faults: run until the containment predicate (every
    correct node at hop distance > ``plan.radius`` from the faulty set
    is clean) holds and survives a confirmation window — the
    containment check replacing the all-nodes stabilization
    predicate."""
    radius = scenario.faults.radius

    def outside_clean(e) -> bool:
        """Containment holds at the plan's radius right now."""
        return radius_of_mask(execution_clean_mask(e, distances), distances) <= radius

    # Disruption travels in waves, so a single clean instant is not
    # containment: the predicate must also hold at every boundary of a
    # confirmation window before the scenario counts as contained.
    confirm = 4 * (scenario.diameter_bound + 1)
    while execution.completed_rounds < scenario.max_rounds:
        run = execution.run(
            max_rounds=scenario.max_rounds,
            until=outside_clean,
            check_until_each_step=False,
        )
        if not run.stopped_by_predicate:
            break
        contained_round = execution.rounds.round_of_time(execution.rounds.time)
        always_clean = execution_clean_mask(execution, distances)
        worst = radius_of_mask(always_clean, distances)
        for _ in range(confirm):
            execution.run_rounds(1)
            clean = execution_clean_mask(execution, distances)
            always_clean &= clean
            worst = max(worst, radius_of_mask(clean, distances))
            if worst > radius:
                break
        else:
            correct = distances > 0
            return row(
                stabilized=True,
                rounds=contained_round,
                containment_radius=worst,
                # Settled through the window, matching the semantics of
                # ContainmentMeasurement.clean_fraction().
                clean_fraction=float((always_clean & correct).sum() / correct.sum()),
            )
    return row(
        stabilized=False,
        rounds=execution.completed_rounds,
        containment_radius=int(
            radius_of_mask(execution_clean_mask(execution, distances), distances)
        ),
        detail=f"containment at radius {radius} not reached within the round budget",
    )


def _run(
    scenario: Scenario,
    topology: Topology,
    rng,
    extra_monitors: Tuple[Monitor, ...],
    inputs: Dict,
) -> ScenarioResult:
    """One scenario of any task: set up, stabilize (containment for
    permanent faults, a held valid output for the static tasks), apply
    the fault kind's disturbance, recover, one row.

    ``inputs`` is the input group's memo (see :func:`run_scenario`):
    the start configuration is drawn once per algorithm, bound and
    start kind, and ``rng`` resumes from the state that draw left.
    """
    started = time.perf_counter()
    algorithm = _make_algorithm(scenario, topology)
    bits = _state_bits(algorithm)
    key = ("start", scenario.algorithm, scenario.diameter_bound, scenario.start)
    if key not in inputs:
        initial = _initial_configuration(scenario, algorithm, topology, rng)
        inputs[key] = (initial, rng.bit_generator.state)
    initial, rng.bit_generator.state = inputs[key]
    plan = scenario.faults

    intervention = distances = output = None
    monitors = extra_monitors
    if scenario.task != "au":
        # Static tasks (object engine, sim runtime, fault-free by spec)
        # settle on their output vector, folded forward per step.
        output = OutputChangeMonitor(algorithm)
        monitors = (output, *extra_monitors)
    if plan.kind in PERMANENT_FAULT_KINDS:
        faulty = select_faulty_nodes(topology, plan.density, rng)
        if plan.kind == "crash":
            strategy = Crash(at=plan.times[0] if plan.times else 0)
        else:
            strategy = make_strategy(plan.strategy)
        intervention = PermanentFaultAdversary(strategy, faulty, rng=rng)
        distances = hop_distances(topology, faulty)
    elif plan.kind == "storm":
        intervention = TransientFaultInjector(
            algorithm, plan.times, fraction=plan.fraction, rng=rng
        )

    execution = _create_scenario_execution(
        scenario,
        topology,
        algorithm,
        initial,
        rng,
        intervention=intervention,
        monitors=monitors,
    )

    def row(**columns) -> ScenarioResult:
        """This scenario's result row with its shared columns filled in."""
        return _result(
            scenario,
            topology,
            started,
            steps=execution.t,
            state_bits=bits,
            moves=execution.moves,
            **columns,
        )

    stable = _stable_predicate(scenario, algorithm)
    until = stable
    if plan.kind == "storm":
        last_strike = max(plan.times)

        def until(e) -> bool:
            """Stability, ignored while the storm is still scheduled."""
            return e.t > last_strike and stable(e)

    if distances is not None:
        return _contain(scenario, execution, distances, row)
    if output is None:
        rounds, detail = settle(execution, until, scenario.max_rounds), _NOT_STABILIZED
    else:
        rounds, detail = settle_output(
            execution,
            output,
            output_validator(scenario.task, topology),
            scenario.max_rounds,
            confirm_rounds=8 * (scenario.diameter_bound + 1),
        )
    if rounds is None:
        return row(stabilized=False, rounds=execution.completed_rounds, detail=detail)
    disturb = _DISTURBANCES.get(plan.kind)
    extra = (
        disturb(scenario, topology, algorithm, execution, rng, stable, inputs)
        if disturb
        else {}
    )
    return row(stabilized=True, rounds=rounds, **extra)


#: Failed-result tracebacks are truncated to this many trailing
#: characters: enough to keep the raising frame and the error line, not
#: enough to bloat checkpoint rows when a deep stack fails repeatedly.
TRACEBACK_LIMIT = 1200


def _traceback_text(error: BaseException) -> str:
    """``error``'s traceback, independent of the checkout and interpreter.

    Each frame is rendered as its package-relative path (derived from the
    frame's module name) and function name, plus its source line, then
    the exception line.  ``traceback.format_exc`` would embed absolute
    file paths and, from Python 3.11, ``^^^`` position markers.  Frames
    of generated code (``<...>`` file names) are skipped: their names
    carry process-local compilation counters.
    """
    lines = ["Traceback (most recent call last):"]
    for frame, lineno in traceback.walk_tb(error.__traceback__):
        code = frame.f_code
        if code.co_filename.startswith("<"):
            continue
        depth = frame.f_globals.get("__name__", "").count(".")
        depth += code.co_filename.endswith("__init__.py")
        parts = os.path.normpath(code.co_filename).split(os.sep)
        lines.append(f"  {'/'.join(parts[-depth - 1 :])}, in {code.co_name}")
        source = linecache.getline(code.co_filename, lineno).strip()
        if source:
            lines.append(f"    {source}")
    lines.append("".join(traceback.format_exception_only(type(error), error)).rstrip())
    return "\n".join(lines)


def _failed_result(
    scenario: Scenario, error: Exception, started: float
) -> ScenarioResult:
    """Fold an exception into a failed result row.

    ``detail`` carries a truncated traceback alongside the message —
    ``str(exc)`` alone loses the raising frame, which made campaign
    failures undebuggable from the artifact.  The traceback is a pure
    function of the code (:func:`_traceback_text`), so failure rows
    aggregate bit-identically across worker counts and checkouts.
    """
    tb = _traceback_text(error)
    if len(tb) > TRACEBACK_LIMIT:
        tb = "...\n" + tb[-TRACEBACK_LIMIT:]
    return ScenarioResult(
        scenario_id=scenario.scenario_id,
        index=scenario.index,
        group=scenario.group,
        stabilized=False,
        rounds=0,
        steps=0,
        n=0,
        m=0,
        detail=f"error: {type(error).__name__}: {error}\n{tb}",
        status="error",
        tags=scenario.tags,
        elapsed_ms=(time.perf_counter() - started) * 1000.0,
    )


def _input_key(scenario: Scenario) -> Tuple:
    """The inputs a scenario derives from its seed before any lane
    differs: scenarios sharing this key sample the same graph (and,
    with the same algorithm, bound and start kind, the same start
    configuration and churn stream)."""
    return (scenario.seed, scenario.graph, scenario.graph_params)


def run_scenario(
    scenario: Scenario,
    timeout_s: Optional[float] = None,
    shared: Optional[Dict] = None,
) -> ScenarioResult:
    """Execute one scenario; a pure function of the spec.

    ``timeout_s`` arms a per-scenario wall-clock guard: a scenario that
    exceeds the budget stops between steps and reports the deterministic
    ``status="timeout"`` row from :func:`_timeout_result` instead of
    hanging its worker.

    ``shared`` is an input memo, keyed by :func:`_input_key`, that the
    runner passes to every member of an input group: the first member
    stores its graph (with the rng state after sampling it), start
    configuration and churn stream, and later members reuse them.  Each
    member still runs on its own ``Generator``, set to the stored state,
    so its row is bit-identical to a run without the memo.  A build that
    raises stores nothing, so the next member fails through the same
    frames.
    """
    started = time.perf_counter()
    rng = np.random.default_rng(scenario.seed)
    extra_monitors: Tuple[Monitor, ...] = ()
    if timeout_s is not None:
        extra_monitors = (_DeadlineMonitor(started + timeout_s),)
    inputs = {} if shared is None else shared.setdefault(_input_key(scenario), {})
    try:
        if "graph" not in inputs:
            topology = make_graph(scenario.graph, rng, **scenario.params())
            inputs["graph"] = (topology, rng.bit_generator.state)
        topology, rng.bit_generator.state = inputs["graph"]
        return _run(scenario, topology, rng, extra_monitors, inputs)
    except ScenarioTimeout:
        return _timeout_result(scenario, timeout_s, started)
    except Exception as error:  # one bad sample must not sink the campaign
        return _failed_result(scenario, error, started)


def run_scenario_batch(
    scenarios: Sequence[Scenario], timeout_s: Optional[float] = None
) -> List[ScenarioResult]:
    """Execute a group of scenarios that differ only by seed as one
    replica-batched ensemble.

    Every scenario gets its own ``np.random.default_rng(seed)`` stream,
    consumed in exactly the per-scenario order (graph sample, start
    configuration, then scheduling), so the returned results are
    bit-identical to :func:`run_scenario` on each member — batching is
    purely an execution strategy.  A scenario whose graph/start
    construction raises folds into a failed row without sinking the
    batch; if the fused run itself raises, the whole group falls back to
    per-scenario execution (isolating the failure to its scenario).
    With a ``timeout_s`` budget the whole group runs solo: the fused
    ensemble pass has no per-scenario step hook to hang the guard on,
    and a timed-out ensemble would discard every member's work at once.
    """
    if timeout_s is not None:
        return [run_scenario(scenario, timeout_s) for scenario in scenarios]
    if len(scenarios) == 1:
        return [run_scenario(scenarios[0])]
    keys = {scenario.batch_key() for scenario in scenarios}
    if len(keys) != 1:
        raise ValueError(
            f"run_scenario_batch needs scenarios differing only by seed; "
            f"got {len(keys)} distinct batch keys"
        )
    started = time.perf_counter()
    # Batching is capability-gated (spec validation) to batchable
    # algorithms, whose factories ignore the node-count hint.
    algorithm = _algorithm_spec(scenarios[0]).make(scenarios[0].diameter_bound)
    bits = _state_bits(algorithm)
    by_id: Dict[str, ScenarioResult] = {}
    specs: List[ReplicaSpec] = []
    members: List[Tuple[Scenario, Topology]] = []
    failed: List[Scenario] = []
    for scenario in scenarios:
        rng = np.random.default_rng(scenario.seed)
        try:
            topology = make_graph(scenario.graph, rng, **scenario.params())
            initial = _initial_configuration(scenario, algorithm, topology, rng)
        except Exception:
            failed.append(scenario)
            continue
        specs.append(
            ReplicaSpec(topology, initial, make_scheduler(scenario.scheduler), rng)
        )
        members.append((scenario, topology))
    for scenario in failed:
        # Delegate failed members to the solo path — outside the except
        # block, so the re-raised error carries no chained context and
        # the result row (traceback frames included; ``detail`` enters
        # the aggregates) is byte-identical to a --no-batch run.
        by_id[scenario.scenario_id] = run_scenario(scenario)
    if specs:
        try:
            from repro.model.native_engine import replica_batch_execution_class

            batch_cls = replica_batch_execution_class(scenarios[0].engine)
            batch = batch_cls.from_replicas(algorithm, specs)
            outcomes = batch.run_ensemble(max_rounds=scenarios[0].max_rounds)
        except Exception:
            return [run_scenario(scenario) for scenario in scenarios]
        for (scenario, topology), outcome in zip(members, outcomes):
            by_id[scenario.scenario_id] = _result(
                scenario,
                topology,
                started,
                stabilized=outcome.stabilized,
                rounds=outcome.rounds,
                steps=outcome.steps,
                state_bits=bits,
                moves=outcome.moves,
                detail="" if outcome.stabilized else _NOT_STABILIZED,
            )
    return [by_id[scenario.scenario_id] for scenario in scenarios]


# ----------------------------------------------------------------------
# Checkpointing.
# ----------------------------------------------------------------------


def load_checkpoint(path: str) -> Dict[str, ScenarioResult]:
    """Completed results from a JSONL checkpoint, keyed by scenario id.

    Truncated trailing lines (a worker killed mid-write) are skipped,
    which is exactly the crash the checkpoint exists to survive — but
    never *silently*: the skip count is logged, so a checkpoint that
    loses rows for any other reason (disk corruption, a concurrent
    writer without the append discipline) is visible instead of
    quietly re-running scenarios.  Rows are deduplicated by scenario
    *index* with last-write-wins: a kill-and-resume cycle can
    legitimately append a second row for a scenario whose first row was
    interrupted (or re-run), and the later row is the authoritative one
    — without the dedup, duplicate rows from a partially written job
    leaked into resumed campaigns.
    """
    by_index: Dict[int, ScenarioResult] = {}
    if not path or not os.path.exists(path):
        return {}
    skipped = 0
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
                result = ScenarioResult.from_dict(data)
            except (ValueError, TypeError, KeyError):
                skipped += 1
                continue
            by_index[result.index] = result
    if skipped:
        logger.warning(
            "checkpoint %s: skipped %d unparsable line(s) "
            "(torn write from a killed run, or external corruption)",
            path,
            skipped,
        )
    return {result.scenario_id: result for result in by_index.values()}


def _append_checkpoint(path: str, results: Iterable[ScenarioResult]) -> None:
    """Append result rows, one JSON object per line, atomically.

    The whole batch is serialized first and appended with a *single*
    ``write`` on an ``O_APPEND`` descriptor followed by flush + fsync:
    one syscall means a crash cannot interleave a half-row between two
    whole ones, and the kernel's append atomicity keeps concurrent
    job flushes from interleaving either — the torn lines
    :func:`load_checkpoint` must skip can now only come from a kill
    inside the one final write, never from buffering boundaries.

    Opens in append+read mode so a truncated tail left by such a kill
    can be repaired first: without the newline fix-up, the first row
    appended by a resumed run concatenated onto the truncated line,
    silently destroying *both* rows on the next load (and forcing a
    later resume to re-run — and duplicate — the scenario).
    """
    payload = b"".join(
        json.dumps(result.to_dict(), sort_keys=True).encode("utf-8") + b"\n"
        for result in results
    )
    with open(path, "a+b") as handle:
        handle.seek(0, os.SEEK_END)
        if handle.tell() > 0:
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) != b"\n":
                handle.write(b"\n")
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())


# ----------------------------------------------------------------------
# Campaign driver.
# ----------------------------------------------------------------------


#: A job is the unit of work a worker executes atomically: a replica
#: ensemble (scenarios differing only by seed, fused into one ensemble
#: run) or an input group (index-adjacent scenarios sharing
#: :func:`_input_key`, run one by one on the inputs the first built).
#: A single scenario is an input group of one.
Job = List[Scenario]


def _run_job(job: Job, timeout_s: Optional[float] = None) -> List[ScenarioResult]:
    if len(job) > 1 and job[0].batch_replicas > 1:
        return run_scenario_batch(job, timeout_s)
    shared: Dict = {}
    return [run_scenario(scenario, timeout_s, shared) for scenario in job]


def _make_jobs(pending: Sequence[Scenario], batch: bool) -> List[Job]:
    """Group the pending scenarios into jobs.

    Scenarios with ``batch_replicas > 1`` (and ``batch`` enabled) are
    bucketed by :meth:`Scenario.batch_key` and chunked into ensembles of
    at most ``batch_replicas`` members; with ``batch`` off they run
    alone.  Every other scenario joins the job before it when both share
    :func:`_input_key` (the lanes of a pairing), so the group's graph,
    start configuration and churn stream are built once.  Jobs keep the
    campaign's scenario order (each ensemble sits at the position of
    its first member), so inline runs checkpoint in a stable order.
    """
    ensembles: Dict[tuple, List[Scenario]] = {}
    for scenario in pending:
        if batch and scenario.batch_replicas > 1:
            ensembles.setdefault(scenario.batch_key(), []).append(scenario)
    leader_chunk: Dict[str, Job] = {}
    follower_ids = set()
    for members in ensembles.values():
        width = members[0].batch_replicas
        for start in range(0, len(members), width):
            chunk = members[start : start + width]
            leader_chunk[chunk[0].scenario_id] = chunk
            follower_ids.update(s.scenario_id for s in chunk[1:])
    jobs: List[Job] = []
    group_key = None
    for scenario in pending:
        if scenario.batch_replicas > 1:
            group_key = None
            if scenario.scenario_id in leader_chunk:
                jobs.append(leader_chunk[scenario.scenario_id])
            elif scenario.scenario_id not in follower_ids:
                jobs.append([scenario])
        elif _input_key(scenario) == group_key:
            jobs[-1].append(scenario)
        else:
            group_key = _input_key(scenario)
            jobs.append([scenario])
    return jobs


def _run_pool(
    jobs: Sequence[Job], run_job: Callable[[Job], List[ScenarioResult]], workers: int
) -> Iterable[List[ScenarioResult]]:
    """Yield each job's results as a worker finishes it.

    ``chunksize=1`` makes the pool's inbound queue a shared work queue:
    an idle worker takes the next pending job, so one slow job delays
    only its own worker.
    """
    import multiprocessing

    if not jobs:
        return
    with multiprocessing.get_context().Pool(processes=workers) as pool:
        yield from pool.imap_unordered(run_job, jobs, chunksize=1)


def run_campaign(
    scenarios: Sequence[Scenario],
    workers: int = 1,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
    progress: Optional[Callable[[int, int], None]] = None,
    batch: bool = True,
    timeout_s: Optional[float] = None,
    dispatch: Optional[str] = None,
    cache: Optional[ResultCache] = None,
    stats: Optional[Dict[str, object]] = None,
) -> List[ScenarioResult]:
    """Run a campaign inline (``workers <= 1``) or over a worker pool.

    Returns one result per scenario, sorted by scenario index —
    independent of ``workers``, completion order *and* ``batch``
    (replica batching is an execution strategy with bit-identical
    per-scenario results; pass ``batch=False`` to run replica ensembles
    as solo scenarios, e.g. for the differential CI shard), so
    downstream aggregation is reproducible bit for bit.  Each job is a
    replica ensemble or an input group (see :func:`_make_jobs`): the
    lanes of a pairing share one graph, start configuration and churn
    stream, built by the first member to run.  Input grouping has no
    switch; it changes no row, and it runs after the cache lookup, so
    cached members never run.  Every finished job streams to the
    checkpoint before the next ``progress`` call, so a kill loses at
    most the jobs in flight.  ``timeout_s`` arms the per-scenario
    wall-clock guard of :func:`run_scenario` in every worker (timed-out
    scenarios yield deterministic ``status="timeout"`` rows; note the
    budget is per scenario, so the rows themselves stay
    machine-independent while *which* scenarios time out does not).

    ``dispatch`` chooses nothing: it accepts ``None`` or the name the
    worker count implies (``"serial"`` at ``workers <= 1``, ``"queue"``
    above) and raises :class:`ValueError` on anything else.

    ``cache`` plugs in a content-addressed
    :class:`~repro.campaigns.cache.ResultCache`: before anything is
    dispatched, every pending scenario is looked up by its canonical
    :meth:`~repro.campaigns.spec.Scenario.content_hash`, hits stream
    straight into the result map and the checkpoint (a warm campaign
    never spawns a worker), and misses are computed then stored —
    except ``status="timeout"``/``"error"`` rows, which are not pure
    functions of the spec and are never cached.  ``stats`` (when given
    a dict) is filled with the run's dispatch name and cache
    hit/miss/compute-seconds-saved counters for the campaign summary.
    """
    implied = "serial" if workers <= 1 else "queue"
    if dispatch not in (None, implied):
        raise ValueError(
            f"dispatch {dispatch!r} does not match workers={workers}: "
            f"valid values are None and {implied!r}"
        )
    done = load_checkpoint(checkpoint_path) if (resume and checkpoint_path) else {}
    wanted = {s.scenario_id for s in scenarios}
    results: Dict[str, ScenarioResult] = {
        sid: result for sid, result in done.items() if sid in wanted
    }
    pending = [s for s in scenarios if s.scenario_id not in results]
    total = len(scenarios)
    completed = total - len(pending)
    if progress is not None and completed:
        progress(completed, total)

    if checkpoint_path and not resume and os.path.exists(checkpoint_path):
        os.remove(checkpoint_path)  # a fresh run invalidates old lines

    if cache is not None:
        cache.reset_run_stats()
        misses: List[Scenario] = []
        hit_results: List[ScenarioResult] = []
        for scenario in pending:
            hit = cache.get(scenario)
            if hit is None:
                misses.append(scenario)
            else:
                results[hit.scenario_id] = hit
                hit_results.append(hit)
        if hit_results:
            if checkpoint_path:
                _append_checkpoint(checkpoint_path, hit_results)
            completed += len(hit_results)
            if progress is not None:
                progress(completed, total)
        pending = misses

    jobs = _make_jobs(pending, batch)
    run_job = functools.partial(_run_job, timeout_s=timeout_s)
    if workers <= 1:
        finished = map(run_job, jobs)
    else:
        finished = _run_pool(jobs, run_job, workers)
    by_id = {s.scenario_id: s for s in pending}
    for job_results in finished:
        for result in job_results:
            results[result.scenario_id] = result
            if cache is not None:
                cache.put(by_id[result.scenario_id], result)
        if checkpoint_path:
            _append_checkpoint(checkpoint_path, job_results)
        completed += len(job_results)
        if progress is not None:
            progress(completed, total)

    if cache is not None:
        cache.write_last_run(
            {
                "campaign": scenarios[0].campaign if scenarios else "",
                "scenarios": total,
                "dispatch": implied,
            }
        )
    if stats is not None:
        stats["dispatch"] = implied
        stats["cache"] = (
            cache.run_stats.to_dict() if cache is not None else None
        )

    ordered = [results[s.scenario_id] for s in scenarios]
    return sorted(ordered, key=lambda r: r.index)
