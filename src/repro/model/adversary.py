"""Adaptive adversarial scheduling.

The model's adversary chooses activations knowing the algorithm and the
current configuration (it is oblivious only to future coin tosses).
The schedulers in :mod:`repro.model.scheduler` are *oblivious* —
fixed patterns.  This module adds the adaptive kind:

* :class:`GreedyAdversary` — a fair scheduler with one-step lookahead:
  within each round it activates, among the nodes not yet activated
  this round, the one whose (deterministic) transition keeps a
  user-supplied disorder potential highest.  Fairness is guaranteed by
  construction (every node is activated exactly once per round).

For AlgAU the natural potential is
:func:`repro.core.potential.disorder_potential`; the stress test in
``tests/test_adversary.py`` and the scheduler-sensitivity benchmark
show that even this adaptive adversary cannot prevent stabilization —
Thm 1.1 quantifies over *all* fair schedules, and the greedy one is the
meanest we can build without solving the adversary's full optimization
problem.

Implementation note: schedulers normally see only ``(t, nodes, rng)``;
an adaptive adversary additionally needs the current configuration.
The execution engine calls :meth:`Scheduler.bind` at construction time,
which the adversary overrides to capture its execution — no manual
wiring required.
"""

from __future__ import annotations

from typing import Callable, Optional, Set

from repro.model.algorithm import Distribution
from repro.model.configuration import Configuration
from repro.model.errors import ScheduleError
from repro.model.scheduler import Scheduler


class GreedyAdversary(Scheduler):
    """Fair one-step-lookahead adversarial scheduler.

    Parameters
    ----------
    potential:
        ``potential(configuration) -> float``; the adversary activates
        the pending node whose post-transition configuration keeps this
        value highest (ties broken by node id for determinism).
    """

    name = "greedy-adversary"

    def __init__(self, potential: Callable[[Configuration], float]):
        self._potential = potential
        self._execution = None
        self._pending: Set[int] = set()

    def bind(self, execution) -> None:
        """Capture the execution (called automatically at construction
        of the :class:`~repro.model.engine.ExecutionBase`).

        An adversary is stateful (it inspects its execution's
        configuration and tracks per-round pending sets), so sharing one
        instance between executions would silently score lookaheads
        against the wrong configuration — rebinding raises instead.
        """
        if self._execution is not None and self._execution is not execution:
            raise ScheduleError(
                "GreedyAdversary is already bound to another execution; "
                "create a fresh adversary per execution"
            )
        self._execution = execution
        self._pending = set(execution.topology.nodes)

    def _lookahead(self, configuration: Configuration, v: int) -> float:
        execution = self._execution
        result = execution.algorithm.delta(configuration[v], configuration.signal(v))
        if isinstance(result, Distribution):
            # Randomized transition: score the expected potential over
            # the support (the adversary cannot see the coin, so it
            # plays the average).
            total = 0.0
            for outcome, weight in zip(result.outcomes, result.weights):
                total += weight * self._potential(configuration.replace({v: outcome}))
            return total
        return self._potential(configuration.replace({v: result}))

    def activations(self, t, nodes, rng):
        if self._execution is None:
            raise ScheduleError(
                "GreedyAdversary is not bound to an execution (pass it as "
                "the scheduler of an execution, or call bind())"
            )
        if not self._pending:
            self._pending = set(nodes)
        configuration = self._execution.configuration
        best_node: Optional[int] = None
        best_score = -float("inf")
        for v in sorted(self._pending):
            score = self._lookahead(configuration, v)
            if score > best_score:
                best_score = score
                best_node = v
        assert best_node is not None
        self._pending.discard(best_node)
        return frozenset((best_node,))


def greedy_au_adversary(algorithm) -> GreedyAdversary:
    """The canonical AlgAU stress adversary: maximize the disorder
    potential (non-out-protected nodes + unprotected edges + faulty
    nodes)."""
    from repro.core.potential import disorder_potential

    return GreedyAdversary(lambda config: float(disorder_potential(algorithm, config)))
