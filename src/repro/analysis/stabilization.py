"""Stabilization measurement in the paper's units.

The paper defines the stabilization time of an execution as the
smallest round index ``i`` such that the execution has stabilized by
time ``R(i)``.  For AlgAU, stabilization coincides with the graph being
*good* (Sec. 2.3.2); for the static tasks (LE/MIS) it is the first time
from which the configuration is an output configuration with a valid,
never-again-changing output vector.

Measurement strategy for static tasks: run with an
:class:`~repro.analysis.monitors.OutputChangeMonitor` until the output
vector is valid and complete, then keep running for a confirmation
window; if the vector changes, continue from the new candidate point.
The reported round is the round of the *last* output change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from repro.core.algau import ThinUnison
from repro.graphs.topology import Topology
from repro.model.algorithm import Algorithm
from repro.model.configuration import Configuration
from repro.model.engine import create_execution, graph_is_good
from repro.model.errors import StabilizationError
from repro.model.execution import Execution
from repro.model.scheduler import Scheduler
from repro.analysis.monitors import OutputChangeMonitor


@dataclass(frozen=True)
class StabilizationResult:
    """Outcome of one stabilization measurement."""

    stabilized: bool
    rounds: int  # the paper's unit: smallest i with stabilization by R(i)
    steps: int
    detail: str = ""
    #: Total work: node activations that changed the state (see
    #: :attr:`~repro.model.engine.ExecutionBase.moves`).
    moves: int = 0


def measure_au_stabilization(
    algorithm: ThinUnison,
    topology: Topology,
    initial: Configuration,
    scheduler: Scheduler,
    rng: np.random.Generator,
    max_rounds: int,
    confirm_rounds: int = 0,
    engine: str = "object",
) -> StabilizationResult:
    """Rounds until the graph becomes good (AlgAU stabilization).

    ``confirm_rounds`` optionally re-checks closure (Lem 2.10 proves it,
    so tests use it as a tripwire, experiments leave it at 0).
    ``engine`` selects the execution backend (``"object"`` or
    ``"array"``); since AlgAU is deterministic the measured trajectory —
    and therefore the reported rounds — is identical either way.  Both
    engines answer the per-step goodness predicate from incrementally
    maintained counts (O(changes) amortized, no per-step O(n + m)
    configuration scan), so polling ``until`` every step costs activity,
    not ``n`` — which is what makes large-``n`` sweeps under sparse
    asynchronous schedules practical.
    """
    execution = create_execution(
        topology, algorithm, initial, scheduler, rng=rng, engine=engine
    )
    result = execution.run(max_rounds=max_rounds, until=graph_is_good)
    if not result.stopped_by_predicate:
        return StabilizationResult(
            False, result.rounds, result.steps, "good graph not reached",
            moves=execution.moves,
        )
    stabilization_round = execution.rounds.round_of_time(execution.rounds.time)
    if confirm_rounds:
        execution.run_rounds(confirm_rounds)
        if not graph_is_good(execution):
            return StabilizationResult(
                False,
                stabilization_round,
                execution.t,
                "goodness lost after being reached (bug!)",
                moves=execution.moves,
            )
    return StabilizationResult(
        True, stabilization_round, execution.t, moves=execution.moves
    )


def measure_static_task_stabilization(
    algorithm: Algorithm,
    topology: Topology,
    initial: Configuration,
    scheduler: Scheduler,
    rng: np.random.Generator,
    is_valid_output: Callable[[Sequence], bool],
    max_rounds: int,
    confirm_rounds: int = 50,
    monitors: Tuple = (),
) -> StabilizationResult:
    """Rounds until a static task's output is valid and stays fixed.

    The measurement loop alternates "run until the output looks valid"
    with a ``confirm_rounds`` stability window; the reported round is
    the round containing the last output change.  The
    :class:`OutputChangeMonitor` folds the output vector forward from
    each step's change set, so the per-step predicate is O(1) until the
    vector is complete — no full-configuration snapshot per step.
    Extra ``monitors`` (e.g. the campaign runner's wall-clock deadline
    guard) are attached after the measurement's own.
    """
    monitor = OutputChangeMonitor(algorithm)
    execution = Execution(
        topology, algorithm, initial, scheduler, rng=rng,
        monitors=(monitor, *monitors),
    )

    def looks_stable(e: Execution) -> bool:
        return monitor.currently_complete and is_valid_output(monitor.current_vector)

    while execution.completed_rounds < max_rounds:
        result = execution.run(max_rounds=max_rounds, until=looks_stable)
        if not result.stopped_by_predicate:
            return StabilizationResult(
                False,
                execution.completed_rounds,
                execution.t,
                "no valid output configuration reached",
                moves=execution.moves,
            )
        change_marker = monitor.last_change_time
        execution.run_rounds(confirm_rounds)
        if monitor.last_change_time == change_marker and looks_stable(execution):
            rounds = execution.rounds.round_of_time(monitor.last_change_time)
            return StabilizationResult(
                True, rounds, execution.t, moves=execution.moves
            )
        # The output moved during the confirmation window — keep going.
    return StabilizationResult(
        False,
        execution.completed_rounds,
        execution.t,
        "output kept changing within the round budget",
        moves=execution.moves,
    )


def run_trials(
    measure: Callable[[np.random.Generator], StabilizationResult],
    trials: int,
    seed: int = 0,
    require_all: bool = True,
) -> Tuple[StabilizationResult, ...]:
    """Run ``trials`` seeded measurements; optionally require success."""
    results = []
    for trial in range(trials):
        rng = np.random.default_rng(seed + trial)
        result = measure(rng)
        if require_all and not result.stabilized:
            raise StabilizationError(
                f"trial {trial} failed to stabilize: {result.detail}"
            )
        results.append(result)
    return tuple(results)
