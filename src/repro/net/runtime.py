"""`NetExecution`: the message-passing execution engine.

This module puts the link model to work as a fifth execution engine
behind the :class:`~repro.model.engine.ExecutionBase` contract, so
schedulers, monitors, round bookkeeping, the permanent-fault adversary
and the ``run`` driver all compose unchanged.  What changes is *how one
step happens*: instead of reading the shared configuration, each
activated node steps with the algorithm kernel's code-level δ
(``vector_kernel().code_delta()``) over its own state code and its
neighbor registers, then broadcasts its code over the simulated links.

The register table
------------------
A node owns exactly what a deployed AlgAU node would own, kept in four
lists indexed by node id (a joined node appends one entry to each):

* ``_codes`` — its state code (for AlgAU a turn code in ``[0, 4k-2)``);
* ``_hoods`` — its open neighborhood, the links it sends and listens on;
* ``_registers`` — ``{neighbor: (seq, code)}``, the message most
  recently heard from each neighbor;
* ``_silent`` — true once it crashed or left: it neither acts nor
  processes deliveries.

A node's step reads its registers, never another node's code; the only
coupling is the constant-size ``(seq, code)`` messages routed through
the links.  Two protocol choices make this robust to fair-lossy links:

* **Stubborn broadcast** — a node re-sends its current code to every
  neighbor on *every* activation, whether or not it moved.  Re-sends
  are idempotent, and with the bounded-consecutive-loss fairness
  guarantee they make registers eventually reflect true neighbor codes.
* **Last-writer-wins registers** — every broadcast and every register
  refresh draws a fresh number from one monotone sequence counter; a
  register only moves forward, so reordered or duplicated deliveries of
  stale messages are ignored instead of rolling it back.  Registers only
  compare numbers from the same sender, so all copies of one broadcast
  share one message.

Codes are decoded through the encoding's ``turn_table`` only where
callers need states (``configuration``, ``state_of``,
``StepRecord.changed``) and encoded only on loads, pokes and
joins/leaves; a :class:`~repro.model.goodness.GoodnessLedger` over the
kernel's pair table keeps the goodness counts.

The phased slot
---------------
Each call to :meth:`NetExecution._apply` advances virtual time by one
*slot*, the unit of virtual time, with three deterministic phases:

* ``T + 0.0`` — every activated node takes its step, in ascending node
  order, reading its registers.  Deliveries from this step are still in
  flight, so every node computes from *pre-step* states: exactly the
  simultaneous-update semantics of the simulation engines.
* ``T + 0.5`` — base delivery instant of this step's broadcasts (plus
  the link's configured delay and jitter), so under zero-noise links
  every register mirrors the true neighbor states before the next step
  computes at ``T + 1.0``.
* ``T + 1.0`` — the slot ends: every delivery due by then has been
  popped from the shared :class:`~repro.net.links.MessageNetwork` queue
  into its receiver's register, in ``(time, send order)`` order, and
  control returns to the inherited ``step()``.

Determinism discipline
----------------------
Two RNG streams, never mixed: the inherited ``self.rng`` is the *parity
stream*, consumed only by the inherited step machinery (scheduler
draws, adversary draws) in exactly the order the simulation engines
consume it; ``noise_rng`` (derived from ``noise_seed``) drives link
loss/jitter/duplication and is never consulted when the link is
noiseless.  Consequently a zero-delay/zero-loss net run is bit-identical
— same ``StepRecord`` stream, same round boundaries, same measured
columns — to the same scenario on the ``array``/``object`` engines, the
contract the ``net-smoke`` differential campaign asserts.

Out-of-band state writes (configuration loads, ``poke_states``, the
Byzantine adversary's per-step overrides) refresh the neighbors'
registers *instantly* with fresh sequence numbers, modeling the
omniscient adversary of the paper (it writes memories, not messages);
stale in-flight deliveries cannot overwrite the refresh because
registers are last-writer-wins on the monotone sequence counter.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.graphs.dynamic import DynamicTopology
from repro.graphs.topology import Topology
from repro.model.algorithm import Algorithm
from repro.model.configuration import Configuration
from repro.model.engine import ExecutionBase, Intervention, Monitor
from repro.model.errors import ModelError
from repro.model.goodness import GoodnessLedger
from repro.model.scheduler import Scheduler
from repro.net.links import LinkConfig, MessageNetwork, NetStats

#: Phase offset (in slots) between an activation instant and the base
#: delivery instant of the broadcasts it triggered.  Any value in
#: (0, 1) preserves the pre-step-read parity argument; 0.5 keeps the
#: timeline legible in traces.
BROADCAST_PHASE = 0.5


class NetExecution(ExecutionBase):
    """Message-passing engine: a register table over fair-lossy links.

    Accepts the standard engine constructor arguments, except
    ``incremental`` (there is no δ cache to maintain: every activated
    node evaluates its own transition), plus the net knobs
    (``link_config``, ``noise_seed``).  Restrictions relative to the
    simulation engines, all rejected eagerly:

    * the algorithm must be deterministic and expose a dense state
      ``encoding`` and a ``vector_kernel()`` (registers and messages
      hold constant-size integer codes);
    * enabled-aware schedulers are unsupported — an enabled-set view
      would require the omniscient shared memory this runtime exists
      to remove.
    """

    def __init__(
        self,
        topology: Topology,
        algorithm: Algorithm,
        initial_configuration: Configuration,
        scheduler: Scheduler,
        rng: Optional[np.random.Generator] = None,
        monitors: Tuple[Monitor, ...] = (),
        intervention: Optional[Intervention] = None,
        link_config: Optional[LinkConfig] = None,
        noise_seed: int = 0,
    ):
        if scheduler.uses_enabled_view:
            raise ModelError(
                f"scheduler {type(scheduler).__name__} needs the enabled-set "
                f"view, which the net runtime cannot provide; use an "
                f"oblivious daemon (e.g. synchronous, shuffled-round-robin)"
            )
        if not getattr(algorithm, "deterministic", False):
            raise ModelError(
                f"the net runtime requires a deterministic algorithm "
                f"(messages carry states, not distributions); "
                f"{algorithm.name} is randomized"
            )
        if not hasattr(algorithm, "vector_kernel"):
            raise ModelError(
                f"the net runtime requires an algorithm with a dense state "
                f"encoding and code-level kernel for constant-size "
                f"messages; {algorithm.name} has none"
            )

        self.link_config = link_config if link_config is not None else LinkConfig()
        self.noise_rng = np.random.default_rng([int(noise_seed), 0x6E6574])
        self.network = MessageNetwork(self.link_config, self.noise_rng)
        self._kernel = algorithm.vector_kernel()
        #: The code-level δ every node steps with.
        self._delta = self._kernel.code_delta()
        self._encode = algorithm.encoding.encode
        self._turns = algorithm.encoding.turn_table
        self._seq = 0
        self._slots = 0
        self._pending_changes: list = []
        self._config_cache: Optional[Configuration] = None

        # The register table (see the module docstring); codes are set
        # and registers seeded by the configuration load below.
        n = topology.n
        self._codes: List[int] = [0] * n
        self._hoods: List[Tuple[int, ...]] = [topology.neighbors(v) for v in range(n)]
        self._registers: List[Dict[int, Tuple[int, int]]] = [{} for _ in range(n)]
        self._silent: List[bool] = [False] * n

        # The base constructor calls _load_configuration (which needs
        # the table above) and binds the scheduler.
        super().__init__(
            topology,
            algorithm,
            initial_configuration,
            scheduler,
            rng=rng,
            monitors=monitors,
            intervention=intervention,
        )

    # ------------------------------------------------------------------
    # Engine hooks.
    # ------------------------------------------------------------------

    def _load_configuration(self, configuration: Configuration) -> None:
        """Adopt ``configuration``: set every code and refresh every
        register instantly (omniscient out-of-band write)."""
        self._config_cache = configuration
        self._ledger = GoodnessLedger(self._kernel)  # counted on first query
        codes = self._codes
        for v in range(len(codes)):
            codes[v] = self._encode(configuration[v])
        for v in range(len(codes)):
            self._push_registers(v)

    def _apply(
        self, activated: FrozenSet[int]
    ) -> Tuple[Tuple[int, object, object], ...]:
        """Run one slot of virtual time with ``activated`` nodes stepping:
        the acts in ascending node order, then every delivery due by the
        slot's end."""
        self._config_cache = None
        self._pending_changes = []
        codes = self._codes
        hoods = self._hoods
        registers = self._registers
        silent = self._silent
        delta = self._delta
        network = self.network
        departure = self.virtual_time + BROADCAST_PHASE
        # The acts: δ over the register codes, then a stubborn broadcast
        # of one (seq, code) message to every neighbor.
        for v in sorted(activated):
            if silent[v]:
                continue
            old = codes[v]
            new = delta(old, [entry[1] for entry in registers[v].values()])
            if new != old:
                codes[v] = new
                self._record_change(v, old, new)
            self._seq += 1
            network.broadcast(departure, v, hoods[v], (self._seq, new))
        self._slots += 1
        # The accepts: a silent receiver, a sender that is no longer a
        # neighbor (an in-flight copy may outlive its edge or sender) and
        # a message no newer than the register are all dropped.
        delivered = 0
        for _, _, sender, receivers, message in network.due_batches(self._slots):
            seq = message[0]
            for receiver in receivers:
                if silent[receiver]:
                    continue
                delivered += 1
                if sender in hoods[receiver]:
                    register = registers[receiver]
                    current = register.get(sender)
                    if current is None or seq > current[0]:
                        register[sender] = message
        self.stats.messages_delivered += delivered
        return tuple(self._pending_changes)

    @property
    def configuration(self) -> Configuration:
        """The current configuration, assembled from the codes."""
        if self._config_cache is None:
            turns = self._turns
            self._config_cache = Configuration(
                self.topology, {v: turns[code] for v, code in enumerate(self._codes)}
            )
        return self._config_cache

    def state_of(self, v: int):
        """The current state of node ``v``, decoded from its code."""
        return self._turns[self._codes[v]]

    def graph_is_good(self) -> bool:
        """The AlgAU stabilization predicate over the nodes' codes:
        every node able, every edge protected (``pair_unprotected``).

        Answered from the goodness ledger: counted once after a load, then
        folded through every move, poke and topology delta."""
        if not hasattr(self._kernel, "pair_unprotected"):
            return super().graph_is_good()  # not AlgAU: raises
        ledger = self._ledger
        if ledger.counts is None:
            ledger.recount(self.codes, self.topology.inclusive_csr())
        return ledger.good

    @property
    def codes(self) -> np.ndarray:
        """A read-only snapshot of the nodes' state codes."""
        snapshot = np.array(self._codes, dtype=np.int64)
        snapshot.flags.writeable = False
        return snapshot

    def _require_node(self, v, verb: str) -> int:
        v = int(v)
        if not 0 <= v < len(self._codes):
            raise ModelError(f"cannot {verb} unknown node {v}")
        return v

    def poke_states(self, updates) -> None:
        """Overwrite a few node states in place, refreshing the
        neighbors' registers instantly (even where a state is
        unchanged)."""
        if not updates:
            return
        n = len(self._codes)
        unknown = {int(v) for v in updates if not 0 <= int(v) < n}
        if unknown:
            raise ModelError(f"cannot poke unknown nodes {sorted(unknown)}")
        self._state_epoch += 1
        self._config_cache = None
        for v, state in updates.items():
            self._write(int(v), self._encode(state))

    def poke_codes(self, rows, codes) -> None:
        """Write node codes in place (the permanent-fault entry point),
        refreshing the registers of every moved node's neighbors
        instantly; unchanged nodes are skipped."""
        current = self._codes
        moved = False
        for v, code in zip(rows, codes):
            v = self._require_node(v, "poke")
            if current[v] != code:
                self._write(v, int(code))
                moved = True
        if moved:
            self._state_epoch += 1
            self._config_cache = None

    def _write(self, v: int, code: int) -> None:
        """Poke ``code`` into node ``v``: fold the move, then push registers."""
        codes = self._codes
        self._ledger.move(codes[v], code, [codes[u] for u in self._hoods[v]])
        codes[v] = code
        self._push_registers(v)

    def _refresh_pending(self) -> None:
        raise ModelError(
            "the net runtime has no enabled-set view: a node's "
            "enabledness depends on neighbor states it can only learn "
            "through messages"
        )

    _enabled_snapshot = _refresh_pending

    # ------------------------------------------------------------------
    # Moves and out-of-band register writes.
    # ------------------------------------------------------------------

    def _record_change(self, v: int, old: int, new: int) -> None:
        """Count node ``v``'s move (its code is already ``new``) and fold
        it into the goodness ledger, against its neighbors' current
        codes."""
        self._moves += 1
        if self._record_changes:
            self._pending_changes.append((v, self._turns[old], self._turns[new]))
        codes = self._codes
        self._ledger.move(old, new, [codes[u] for u in self._hoods[v]])

    def _push_registers(self, v: int) -> None:
        """Write node ``v``'s current code into every neighbor's
        register with a fresh sequence number (instant, out-of-band)."""
        self._seq += 1
        message = (self._seq, self._codes[v])
        registers = self._registers
        for u in self._hoods[v]:
            registers[u][v] = message

    # ------------------------------------------------------------------
    # Dynamic topology.
    # ------------------------------------------------------------------

    def _apply_topology_delta(self, delta):
        """Map a :class:`~repro.graphs.dynamic.TopologyDelta` (or its
        :class:`~repro.graphs.dynamic.ResolvedDelta`) onto the register
        table: removed edges tear down their directed link pairs (and
        the registers riding on them), leaves silence a node into a
        tombstone, joins append a fresh row.  Added edges get their
        links lazily, on their first noisy send.

        Register refreshes for every affected node are out-of-band
        (instant, fresh sequence numbers) — the same omniscient-write
        convention as configuration loads, which is what keeps zero-
        noise churn runs bit-identical to the simulation engines.
        In-flight deliveries from a removed neighbor are dropped by the
        accept's membership guard, not by scanning the message queues.
        """
        if not isinstance(self.topology, DynamicTopology):
            self.topology = DynamicTopology(self.topology)
        dyn = self.topology
        applied = dyn.apply(delta)
        codes = self._codes
        hoods = self._hoods
        registers = self._registers
        silent = self._silent
        links = self.network.links
        # Tear down removed (and leave-incident) edges: both directed
        # links and both registers.
        for u, v in applied.removed_edges:
            for a, b in ((u, v), (v, u)):
                links.pop((a, b), None)
                registers[b].pop(a, None)
        # Departed nodes become silent tombstones (rest state, no
        # neighbors, no message processing).
        left_codes = [codes[v] for v in applied.left]
        if applied.left:
            rest = self._encode(self.algorithm.initial_state())
            for v in applied.left:
                silent[v] = True
                codes[v] = rest
                registers[v].clear()
                hoods[v] = ()
        # Joined nodes take the next ids, in order: one fresh row each.
        for v, state in applied.joined:
            codes.append(self._encode(state))
            hoods.append(dyn.neighbors(v))
            registers.append({})
            silent.append(False)
        # Surviving touched nodes adopt their new neighborhoods, then
        # every affected node's code is pushed into the (new) registers.
        for v in applied.touched:
            hoods[v] = dyn.neighbors(v)
        refresh = sorted(set(applied.touched) | {v for v, _ in applied.joined})
        for v in refresh:
            if not silent[v]:
                self._push_registers(v)
        self._ledger.fold_delta(applied, codes.__getitem__, left_codes)
        self._config_cache = None
        return applied

    # ------------------------------------------------------------------
    # Node-level faults and observation.
    # ------------------------------------------------------------------

    def crash_node(self, v: int) -> None:
        """Crash node ``v``: it stops acting, broadcasting, and
        processing deliveries (its heartbeats go silent).  Also masks
        the node so the inherited step machinery never activates it."""
        v = self._require_node(v, "crash")
        self._silent[v] = True
        self.mask_nodes(self._masked | {v})

    @property
    def stats(self) -> NetStats:
        """The message-layer counters of this run."""
        return self.network.stats

    @property
    def virtual_time(self) -> float:
        """The current virtual time: one slot per step that activated
        an unmasked node."""
        return float(self._slots)
