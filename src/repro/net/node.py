"""Per-node actor: local state, neighbor registers, stubborn broadcast.

A :class:`NodeActor` owns exactly the state a deployed AlgAU node would
own: its state code (for AlgAU a turn code in ``[0, 4k-2)``) and one
*register* per neighbor caching the code most recently heard from it.
It never reads another actor's memory — the only coupling is the
constant-size code messages routed through the runtime's links — and it
steps with the algorithm kernel's code-level δ.

Two protocol choices make the actor robust to the fair-lossy link
model of :mod:`repro.net.links`:

* **Stubborn broadcast** — an actor re-sends its current state to every
  neighbor on *every* activation, whether or not the state changed.
  Re-sends are idempotent, and combined with the bounded-consecutive-
  loss fairness guarantee they ensure registers eventually reflect true
  neighbor states.
* **Last-writer-wins registers** — every send carries a globally
  monotone sequence number; a register only moves forward.  Reordered
  or duplicated deliveries of stale messages are ignored instead of
  rolling a register back.

The actor is a pair of plain event handlers the runtime calls:
:meth:`NodeActor._act` takes one step (reading its registers, never the
live states of other actors) and broadcasts, and
:meth:`NodeActor.accept` folds one delivery into a register.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.net.runtime import NetExecution


class NodeActor:
    """One network node: state code and neighbor registers."""

    __slots__ = (
        "node",
        "neighbors",
        "state",
        "registers",
        "crashed",
    )

    def __init__(self, node: int, neighbors: Tuple[int, ...]) -> None:
        self.node = node
        self.neighbors = neighbors
        self.state = 0  # a state code, set by the runtime's configuration load
        # register: neighbor -> (seq, code); seeded by the runtime's
        # omniscient refresh on configuration load.
        self.registers: Dict[int, Tuple[int, int]] = {}
        self.crashed = False

    def accept(self, sender: int, message: Tuple[int, int]) -> None:
        """Apply one delivered ``(seq, code)`` message to the matching
        register.

        Stale deliveries (sequence number at or below the register's)
        are dropped.  Deliveries from non-neighbors are discarded
        outright — under dynamic topology an in-flight copy may outlive
        the edge (or the sender) it travelled on, and must not resurrect
        a register that the membership change already tore down.
        """
        if sender not in self.neighbors:
            return
        current = self.registers.get(sender)
        if current is None or message[0] > current[0]:
            self.registers[sender] = message

    def _act(self, runtime: "NetExecution") -> None:
        old = self.state
        new = runtime._delta(old, [entry[1] for entry in self.registers.values()])
        if new != old:
            self.state = new
            runtime._record_change(self.node, old, new)
        runtime._broadcast(self)
