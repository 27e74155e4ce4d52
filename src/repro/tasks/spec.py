"""Distributed task definitions and output verifiers (Sec. 1.2).

Three tasks are studied by the paper:

* **Asynchronous unison (AU)** — every node outputs a clock value from a
  cyclic group ``K``; *safety* requires neighboring outputs to be
  cyclically adjacent, *liveness* requires every node to advance its
  clock (by +1 operations only) at least ``i`` times in every window of
  ``diam(G) + i`` rounds after stabilization.
* **Leader election (LE)** — exactly one node outputs 1 (static task).
* **Maximal independent set (MIS)** — the nodes outputting 1 form an
  independent dominating set (static task).

The verifiers below operate on output vectors / configurations and are
used by stabilization detection, integration tests and benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.core.clock import CyclicClock
from repro.graphs.topology import Topology


@dataclass(frozen=True)
class TaskVerdict:
    """The result of checking an output vector against a task."""

    valid: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.valid


# ----------------------------------------------------------------------
# Asynchronous unison.
# ----------------------------------------------------------------------


def check_au_safety(
    topology: Topology,
    clocks: Sequence[Optional[int]],
    group: CyclicClock,
) -> TaskVerdict:
    """AU safety: all nodes output clocks; neighbors cyclically adjacent."""
    for v in topology.nodes:
        if clocks[v] is None:
            return TaskVerdict(False, f"node {v} has no clock output")
    for u, v in topology.edges:
        if not group.adjacent(clocks[u], clocks[v]):
            return TaskVerdict(
                False,
                f"edge ({u}, {v}) violates safety: clocks "
                f"{clocks[u]} vs {clocks[v]} (order {group.order})",
            )
    return TaskVerdict(True)


def check_au_update_is_pulse(
    group: CyclicClock, old: Optional[int], new: Optional[int]
) -> TaskVerdict:
    """Post-stabilization clock updates must be exactly +1."""
    if old is None or new is None:
        return TaskVerdict(False, "clock update with missing output")
    if old == new:
        return TaskVerdict(True)
    if group.increment_is_plus_one(old, new):
        return TaskVerdict(True)
    return TaskVerdict(False, f"clock jumped from {old} to {new}")


def check_au_liveness_counts(
    pulse_counts: Sequence[int],
    rounds_elapsed: int,
    diameter: int,
) -> TaskVerdict:
    """Liveness: in a window of ``diam(G) + i`` rounds every node pulses
    at least ``i`` times.  Given per-node pulse counts over a window of
    ``rounds_elapsed`` rounds, each count must reach
    ``rounds_elapsed - diameter``."""
    required = rounds_elapsed - diameter
    if required <= 0:
        return TaskVerdict(True)
    for v, count in enumerate(pulse_counts):
        if count < required:
            return TaskVerdict(
                False,
                f"node {v} pulsed {count} < {required} times over "
                f"{rounds_elapsed} rounds (diam={diameter})",
            )
    return TaskVerdict(True)


# ----------------------------------------------------------------------
# Leader election.
# ----------------------------------------------------------------------


def check_le_output(outputs: Sequence[Optional[int]]) -> TaskVerdict:
    """LE: exactly one node outputs 1, all others 0."""
    if any(o is None for o in outputs):
        missing = [v for v, o in enumerate(outputs) if o is None]
        return TaskVerdict(False, f"nodes {missing} have no output")
    leaders = [v for v, o in enumerate(outputs) if o == 1]
    if len(leaders) != 1:
        return TaskVerdict(False, f"expected 1 leader, found {leaders}")
    if any(o not in (0, 1) for o in outputs):
        return TaskVerdict(False, "LE outputs must be binary")
    return TaskVerdict(True)


# ----------------------------------------------------------------------
# Maximal independent set.
# ----------------------------------------------------------------------


def check_mis_output(
    topology: Topology, outputs: Sequence[Optional[int]]
) -> TaskVerdict:
    """MIS: the 1-nodes are independent and dominating (maximal)."""
    if any(o is None for o in outputs):
        missing = [v for v, o in enumerate(outputs) if o is None]
        return TaskVerdict(False, f"nodes {missing} have no output")
    selected = {v for v in topology.nodes if outputs[v] == 1}
    for u, v in topology.edges:
        if u in selected and v in selected:
            return TaskVerdict(False, f"adjacent nodes {u}, {v} both in MIS")
    for v in topology.nodes:
        if v in selected:
            continue
        if not any(u in selected for u in topology.neighbors(v)):
            return TaskVerdict(
                False, f"node {v} is out but has no MIS neighbor (not maximal)"
            )
    return TaskVerdict(True)


def output_validator(
    task: str, topology: Topology
) -> Callable[[Sequence[Optional[int]]], bool]:
    """The output-validity predicate of static task ``task`` (``le`` or
    ``mis``) on ``topology``, as stabilization measurement consumes it."""
    if task == "le":
        return lambda outputs: check_le_output(outputs).valid
    if task == "mis":
        return lambda outputs: check_mis_output(topology, outputs).valid
    raise ValueError(f"no output validator for task {task!r}: valid tasks are le, mis")
