"""Module Restart (Sec. 3.3) — the synchronized reset of AlgLE/AlgMIS.

Restart consists of ``2D + 1`` states ``σ(0), ..., σ(2D)``; ``σ(0)`` is
``Restart-entry`` and ``σ(2D)`` is ``Restart-exit``.  A node *enters*
Restart by moving from a non-Restart state to ``σ(0)`` and *exits* by
moving from ``σ(2D)`` to the designated initial state ``q*_0``.  With
``S_t(v)`` the set of states sensed by ``v``, the three rules are:

1. if ``S_t(v)`` contains both Restart and non-Restart states, then
   ``q_{t+1}(v) = σ(0)``;
2. if ``S_t(v)`` contains only Restart states and differs from
   ``{σ(2D)}``, then ``q_{t+1}(v) = σ(i_min + 1)`` where
   ``i_min = min{i : σ(i) ∈ S_t(v)}``;
3. if ``S_t(v) = {σ(2D)}``, then ``q_{t+1}(v) = q*_0``.

Theorem 3.1: if some node is in a Restart state at time ``t0``, then all
nodes exit Restart *concurrently* at some time ``t ≤ t0 + O(D)`` (the
proof gives ``t ≤ t0 + 4D`` once ``σ(0)`` is present).

:class:`RestartMixin` packages the rules for composition with the main
modules of AlgLE/AlgMIS; :class:`StandaloneRestart` is a minimal
algorithm (Restart states plus one idle state) used to validate
Thm 3.1 and Lemmas 3.9–3.11 in isolation, one trial at a time via
:func:`restart_exit_time`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple, Union

import numpy as np

from repro.faults.injection import random_configuration
from repro.graphs.generators import bounded_diameter_family
from repro.model.algorithm import Algorithm, TransitionResult
from repro.model.errors import ModelError
from repro.model.execution import Execution
from repro.model.scheduler import SynchronousScheduler
from repro.model.signal import Signal


@dataclass(frozen=True, slots=True)
class RestartState:
    """The Restart state ``σ(index)``."""

    index: int

    def __str__(self) -> str:
        return f"σ({self.index})"


#: Sentinel returned by :meth:`RestartMixin.restart_transition` when
#: rule 3 fires and the node must move to the main module's ``q*_0``.
RESTART_EXIT = object()


class RestartMixin:
    """The three Restart rules, parameterized by the diameter bound.

    Composing algorithms call :meth:`restart_transition` first on every
    activation; a non-``None`` result overrides the main module.  The
    main modules *enter* Restart by returning
    :meth:`restart_entry` from their own fault-detection logic.
    """

    def __init__(self, diameter_bound: int):
        if diameter_bound < 1:
            raise ModelError("diameter bound must be >= 1")
        self.diameter_bound = diameter_bound
        self.max_restart_index = 2 * diameter_bound

    # -- state helpers --------------------------------------------------

    def is_restart_state(self, state: object) -> bool:
        return isinstance(state, RestartState)

    def restart_entry(self) -> RestartState:
        """``Restart-entry`` = ``σ(0)``."""
        return RestartState(0)

    def restart_exit_state(self) -> RestartState:
        """``Restart-exit`` = ``σ(2D)``."""
        return RestartState(self.max_restart_index)

    def restart_states(self) -> Tuple[RestartState, ...]:
        return tuple(RestartState(i) for i in range(self.max_restart_index + 1))

    # -- the rules -------------------------------------------------------

    def restart_transition(
        self, state: object, signal: Signal
    ) -> Optional[Union[RestartState, object]]:
        """Apply the Restart rules to a node's sensed set.

        Returns ``None`` when no Restart state is sensed at all (the
        main module proceeds), a :class:`RestartState` when rule 1 or 2
        fires, or :data:`RESTART_EXIT` when rule 3 fires.
        """
        sensed_restart = signal.matching(self.is_restart_state)
        if not sensed_restart:
            return None
        only_restart = len(sensed_restart) == len(signal.sensed)
        if not only_restart:
            # Rule 1: mixed neighborhood pulls everyone to the entry.
            return self.restart_entry()
        exit_state = self.restart_exit_state()
        if sensed_restart == frozenset((exit_state,)):
            # Rule 3: concurrent exit.
            return RESTART_EXIT
        # Rule 2: follow the minimum index.
        i_min = min(s.index for s in sensed_restart)
        return RestartState(min(i_min + 1, self.max_restart_index))


@dataclass(frozen=True, slots=True)
class IdleState:
    """The single main state of :class:`StandaloneRestart`."""

    def __str__(self) -> str:
        return "idle"


class StandaloneRestart(Algorithm, RestartMixin):
    """Restart in isolation: ``2D + 1`` σ-states plus one idle state.

    An idle node stays idle until it senses a Restart state (rule 1
    pulls it in).  This is the minimal harness for validating Thm 3.1:
    start from any configuration containing a Restart state and check
    that all nodes exit concurrently within ``O(D)`` rounds.
    """

    def __init__(self, diameter_bound: int):
        RestartMixin.__init__(self, diameter_bound)
        self.name = f"Restart(D={diameter_bound})"

    def states(self) -> FrozenSet[object]:
        return frozenset(self.restart_states()) | {IdleState()}

    def state_space_size(self) -> int:
        """``2D + 2`` (the paper's module has ``2D + 1`` σ-states; the
        idle state stands in for the composing algorithm)."""
        return self.max_restart_index + 2

    def is_output_state(self, state: object) -> bool:
        return isinstance(state, IdleState)

    def output(self, state: object) -> int:
        return 0

    def initial_state(self) -> IdleState:
        return IdleState()

    def random_state(self, rng: np.random.Generator) -> object:
        choice = int(rng.integers(self.max_restart_index + 2))
        if choice > self.max_restart_index:
            return IdleState()
        return RestartState(choice)

    def delta(self, state: object, signal: Signal) -> TransitionResult:
        result = self.restart_transition(state, signal)
        if result is None:
            return state
        if result is RESTART_EXIT:
            return self.initial_state()
        return result


def restart_exit_time(
    diameter_bound: int, n: int, rng: np.random.Generator
) -> Optional[int]:
    """One Thm 3.1 trial: the time at which every node exits Restart in
    the same step, or ``None`` if that never happens within ``10D + 20``
    synchronous rounds.

    :class:`StandaloneRestart` runs on a bounded-diameter graph of about
    ``n`` nodes from a random configuration; ``σ(0)`` is injected at
    node 0 only when the start holds no Restart state.  Isolated early
    exits of single nodes from garbage configurations are re-absorbed by
    rule 1 and do not count (see Thm 3.1's case analysis).
    """
    algorithm = StandaloneRestart(diameter_bound)
    topology = bounded_diameter_family(diameter_bound, n, rng)
    initial = random_configuration(algorithm, topology, rng)
    if not any(isinstance(initial[v], RestartState) for v in topology.nodes):
        initial = initial.replace({0: RestartState(0)})
    execution = Execution(topology, algorithm, initial, SynchronousScheduler(), rng=rng)
    for _ in range(10 * diameter_bound + 20):
        record = execution.step()
        exits = sum(
            1
            for _, old, new in record.changed
            if isinstance(old, RestartState) and isinstance(new, IdleState)
        )
        if exits == topology.n:
            return record.t + 1
    return None
