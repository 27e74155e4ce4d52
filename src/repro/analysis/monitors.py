"""Execution monitors.

Monitors observe executions step by step without influencing them,
through the :class:`~repro.model.execution.Monitor` /
:class:`~repro.model.execution.StepRecord` protocol.  This module holds
the three the repo attaches:

* :class:`OutputChangeMonitor` — the output vector of a static task,
  attached by the campaign runner on static LE/MIS rows;
* :class:`AlgAUInvariantMonitor` — the paper's monotone invariants
  (Obs 2.3, Lem 2.10, Lem 2.16), checked after every step in tests;
* :class:`MoveCounter` — a moves count over a window of steps.

The stabilization round itself is measured by
:func:`repro.analysis.stabilization.settle`, not by a monitor.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.algau import ThinUnison
from repro.core.predicates import (
    is_good_graph,
    is_out_protected_graph,
    out_protected_nodes,
    unjustifiably_faulty_nodes,
)
from repro.model.execution import Execution, Monitor, StepRecord


class MoveCounter(Monitor):
    """Counts *moves* — node activations that changed the state — the
    workload axis of the time/space/work Pareto trade-off.

    Opt-in: every engine counts moves itself
    (:attr:`~repro.model.engine.ExecutionBase.moves`), and the campaign
    runner and stabilization measurements read that counter.  Attach
    this monitor only to count a window of steps; being a monitor, it
    also keeps the run on the per-step :meth:`step` protocol.

    A step's moves are exactly ``len(record.changed)``: the engines put
    only real state changes (``delta`` transitions applied by the step)
    into ``StepRecord.changed``, so activations where ``delta`` returned
    the current state are free, and out-of-band corruption (pokes,
    ``replace_configuration``) is never billed as algorithm work.  The
    count accumulates across :meth:`on_start` boundaries so one counter
    can total a multi-phase run (e.g. stabilize + recover).
    """

    def __init__(self) -> None:
        self.moves = 0

    def on_step(self, execution: Execution, record: StepRecord) -> None:
        self.moves += len(record.changed)


class InvariantViolation(AssertionError):
    """Raised by :class:`AlgAUInvariantMonitor` when a proved invariant
    fails — this would indicate an implementation bug."""


class AlgAUInvariantMonitor(Monitor):
    """Checks the paper's monotone invariants after every step:

    * Obs 2.3 — out-protected nodes stay out-protected;
    * Lem 2.16 — after the graph is out-protected, no node *becomes*
      unjustifiably faulty;
    * Lem 2.10 — a good graph stays good.

    Expensive (recomputes global predicates every step); used by tests
    on small instances only.
    """

    def __init__(self, algorithm: ThinUnison):
        self.algorithm = algorithm
        self._previous_out_protected: frozenset = frozenset()
        self._was_out_protected_graph = False
        self._previous_unjustified: frozenset = frozenset()
        self._was_good = False

    def on_start(self, execution: Execution) -> None:
        config = execution.configuration
        self._previous_out_protected = out_protected_nodes(self.algorithm, config)
        self._was_out_protected_graph = is_out_protected_graph(self.algorithm, config)
        self._previous_unjustified = unjustifiably_faulty_nodes(self.algorithm, config)
        self._was_good = is_good_graph(self.algorithm, config)

    def on_step(self, execution: Execution, record: StepRecord) -> None:
        config = execution.configuration
        now_out_protected = out_protected_nodes(self.algorithm, config)
        if not self._previous_out_protected <= now_out_protected:
            lost = self._previous_out_protected - now_out_protected
            raise InvariantViolation(
                f"Obs 2.3 violated at t={record.t}: nodes {sorted(lost)} "
                "lost out-protection"
            )
        now_unjustified = unjustifiably_faulty_nodes(self.algorithm, config)
        if self._was_out_protected_graph:
            fresh = now_unjustified - self._previous_unjustified
            if fresh:
                raise InvariantViolation(
                    f"Lem 2.16 violated at t={record.t}: nodes "
                    f"{sorted(fresh)} became unjustifiably faulty"
                )
        now_good = is_good_graph(self.algorithm, config)
        if self._was_good and not now_good:
            raise InvariantViolation(
                f"Lem 2.10 violated at t={record.t}: goodness was lost"
            )
        self._previous_out_protected = now_out_protected
        self._was_out_protected_graph = (
            self._was_out_protected_graph
            or is_out_protected_graph(self.algorithm, config)
        )
        self._previous_unjustified = now_unjustified
        self._was_good = now_good


class OutputChangeMonitor(Monitor):
    """Tracks the output vector of a static-task algorithm: when it
    last changed and whether all nodes are in output states.

    The stabilization round of a static task is the first round from
    which the output vector is valid and never changes again.

    The vector and the completeness counter are folded forward from
    each record's change set — O(|changed|) per step instead of the
    former full-configuration snapshot, so sparse schedules pay for
    activity, not for ``n``.  Records only cover ``_apply``'s updates,
    so the monitor watches :attr:`ExecutionBase.state_epoch` and falls
    back to a full re-snapshot on the (rare) steps where an
    intervention mutated state out-of-band: ``poke_codes`` (the
    Byzantine adversary's write path), ``poke_states`` or
    ``replace_configuration``.
    """

    def __init__(self, algorithm):
        self.algorithm = algorithm
        self.last_change_time = 0
        self._vector: Optional[List] = None
        self._vector_tuple: Optional[Tuple] = None
        self._incomplete = 1  # "incomplete" until the first snapshot
        self._epoch = 0

    def _output_of(self, state):
        if self.algorithm.is_output_state(state):
            return self.algorithm.output(state)
        return None

    def _snapshot(self, execution: Execution) -> None:
        config = execution.configuration
        self._vector = [self._output_of(q) for q in config.states()]
        self._vector_tuple = None
        self._incomplete = sum(1 for out in self._vector if out is None)
        self._epoch = execution.state_epoch

    def on_start(self, execution: Execution) -> None:
        self._snapshot(execution)

    def on_step(self, execution: Execution, record: StepRecord) -> None:
        if execution.state_epoch != self._epoch:
            # Out-of-band mutation since the last snapshot: the record
            # stream alone no longer describes the configuration.  The
            # net before/after comparison is not enough on its own: a
            # poke landing in the same step as a tracked delta can be
            # exactly undone by it (poke moves a node's output, δ moves
            # it back), leaving the post-step vector equal to the
            # previous one even though the output passed through a
            # different value at the C_t boundary.  Any output-changing
            # delta in the record therefore counts as a change too — if
            # it exists and the net vector is unchanged, a poke must
            # have counter-moved it.
            before = self._vector
            self._snapshot(execution)
            moved = self._vector != before or any(
                self._output_of(old) != self._output_of(new)
                for _, old, new in record.changed
            )
            if moved:
                self.last_change_time = record.t + 1
            return
        if not record.changed:
            return
        moved = False
        vector = self._vector
        for v, old, new in record.changed:
            old_out = self._output_of(old)
            new_out = self._output_of(new)
            if old_out == new_out:
                continue
            vector[v] = new_out
            self._incomplete += (new_out is None) - (old_out is None)
            moved = True
        if moved:
            self.last_change_time = record.t + 1
            self._vector_tuple = None

    @property
    def current_vector(self) -> Optional[Tuple]:
        if self._vector is None:
            return None
        if self._vector_tuple is None:
            self._vector_tuple = tuple(self._vector)
        return self._vector_tuple

    @property
    def currently_complete(self) -> bool:
        return self._incomplete == 0
