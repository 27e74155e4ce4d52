"""Stabilization measurement in the paper's units.

The paper defines the stabilization time of an execution as the
smallest round index ``i`` such that the execution has stabilized by
time ``R(i)``.  For AlgAU, stabilization coincides with the graph being
*good* (Sec. 2.3.2); for the static tasks (LE/MIS) it is the first time
from which the configuration is an output configuration with a valid,
never-again-changing output vector.

This module holds the one definition of each settle loop, shared by the
campaign runner and the ``measure_*`` wrappers below: :func:`settle`
runs until a predicate holds and reports the round it held in;
:func:`settle_output` runs a static task until its output vector is
valid and complete, keeps running for a confirmation window, continues
from the new candidate point if the vector changes, and reports the
round of the *last* output change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.core.algau import ThinUnison
from repro.graphs.topology import Topology
from repro.model.algorithm import Algorithm
from repro.model.configuration import Configuration
from repro.model.engine import ExecutionBase, create_execution, graph_is_good
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


def settle(
    execution: ExecutionBase,
    until: Callable[[ExecutionBase], bool],
    max_rounds: int,
) -> Optional[int]:
    """Run until ``until`` holds; the paper's stabilization round
    (:meth:`~repro.model.rounds.RoundTracker.round_of_time` of *now*, on
    the tracker's own clock, which ``reset_schedule`` restarts), or
    ``None`` if the round budget ran out first."""
    run = execution.run(max_rounds=max_rounds, until=until)
    if not run.stopped_by_predicate:
        return None
    return execution.rounds.round_of_time(execution.rounds.time)


def settle_output(
    execution: ExecutionBase,
    monitor: OutputChangeMonitor,
    is_valid_output: Callable[[Sequence], bool],
    max_rounds: int,
    confirm_rounds: int,
) -> Tuple[Optional[int], str]:
    """Run a static task until its output is valid and stays fixed.

    Alternates "settle until the output looks valid" with a
    ``confirm_rounds`` stability window.  Returns ``(round, "")`` with
    the round containing the last output change, or ``(None, detail)``
    when the round budget runs out.  ``monitor`` must be attached to
    ``execution``; it folds the output vector forward from each step's
    change set, so the per-step predicate is O(1) until the vector is
    complete — no full-configuration snapshot per step.
    """

    def looks_stable(e: ExecutionBase) -> bool:
        return monitor.currently_complete and is_valid_output(monitor.current_vector)

    while execution.completed_rounds < max_rounds:
        if settle(execution, looks_stable, max_rounds) is None:
            return None, "no valid output configuration reached"
        change_marker = monitor.last_change_time
        execution.run_rounds(confirm_rounds)
        if monitor.last_change_time == change_marker and looks_stable(execution):
            return execution.rounds.round_of_time(monitor.last_change_time), ""
        # The output moved during the confirmation window — keep going.
    return None, "output kept changing within the round budget"


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
    ``engine`` names any execution engine of
    :func:`~repro.model.engine.create_execution` (``"object"``,
    ``"array"`` or ``"native"``; ``"replica-batch"`` builds the array
    engine); since AlgAU is
    deterministic the measured trajectory — and therefore the reported
    rounds — is identical on every one.  Every engine answers the
    per-step goodness predicate from maintained counts: O(changes)
    after a step of up to four movers, else one O(n + m) recount.
    """
    execution = create_execution(
        topology, algorithm, initial, scheduler, rng=rng, engine=engine
    )
    rounds = settle(execution, graph_is_good, max_rounds)
    if rounds is None:
        return StabilizationResult(
            False,
            execution.completed_rounds,
            execution.t,
            "good graph not reached",
            moves=execution.moves,
        )
    if confirm_rounds:
        execution.run_rounds(confirm_rounds)
        if not graph_is_good(execution):
            return StabilizationResult(
                False,
                rounds,
                execution.t,
                "goodness lost after being reached (bug!)",
                moves=execution.moves,
            )
    return StabilizationResult(True, rounds, execution.t, moves=execution.moves)


def measure_static_task_stabilization(
    algorithm: Algorithm,
    topology: Topology,
    initial: Configuration,
    scheduler: Scheduler,
    rng: np.random.Generator,
    is_valid_output: Callable[[Sequence], bool],
    max_rounds: int,
    confirm_rounds: int = 50,
) -> StabilizationResult:
    """Rounds until a static task's output is valid and stays fixed
    (see :func:`settle_output`), on the object engine."""
    monitor = OutputChangeMonitor(algorithm)
    execution = create_execution(
        topology, algorithm, initial, scheduler, rng=rng, monitors=(monitor,)
    )
    rounds, detail = settle_output(
        execution, monitor, is_valid_output, max_rounds, confirm_rounds
    )
    return StabilizationResult(
        rounds is not None,
        execution.completed_rounds if rounds is None else rounds,
        execution.t,
        detail,
        moves=execution.moves,
    )
