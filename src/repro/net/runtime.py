"""`NetExecution`: the message-passing execution engine.

This module turns the actor and link pieces into a fifth
execution engine behind the :class:`~repro.model.engine.ExecutionBase`
contract, so schedulers, monitors, round bookkeeping, the
permanent-fault adversary and the ``run`` driver all compose unchanged.
What changes is *how one step happens*: instead of reading the shared
configuration, each activated node actor steps with the algorithm
kernel's code-level δ (``vector_kernel().code_delta()``) over its own
state code and its neighbor registers, then broadcasts its code over the
simulated links.  Codes are decoded through the encoding's
``turn_table`` only where callers need states (``configuration``,
``state_of``, ``StepRecord.changed``) and encoded only on loads, pokes
and joins/leaves; a :class:`~repro.model.goodness.GoodnessLedger` over
the kernel's pair table keeps the goodness counts.

The phased slot
---------------
Each call to :meth:`NetExecution._apply` advances virtual time by one
*slot*, the unit of virtual time, with three deterministic phases:

* ``T + 0.0`` — every activated actor takes its step, in ascending node
  order, reading its registers.  Deliveries from this step are still in
  flight, so every actor computes from *pre-step* states: exactly the
  simultaneous-update semantics of the simulation engines.
* ``T + 0.5`` — base delivery instant of this step's broadcasts (plus
  the link's configured delay and jitter), so under zero-noise links
  every register mirrors the true neighbor states before the next step
  computes at ``T + 1.0``.
* ``T + 1.0`` — the slot ends: every delivery due by then has been
  popped from the shared :class:`~repro.net.links.MessageNetwork` queue
  into its receiver, in ``(time, send order)`` order, and control
  returns to the inherited ``step()``.

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
registers are last-writer-wins on a globally monotone sequence counter.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Tuple

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
from repro.net.node import NodeActor

#: Phase offset (in slots) between an activation instant and the base
#: delivery instant of the broadcasts it triggered.  Any value in
#: (0, 1) preserves the pre-step-read parity argument; 0.5 keeps the
#: timeline legible in traces.
BROADCAST_PHASE = 0.5


class NetExecution(ExecutionBase):
    """Message-passing engine: node actors over fair-lossy links.

    Accepts the standard engine constructor arguments, except
    ``incremental`` (there is no δ cache to maintain: every activated
    actor evaluates its own transition), plus the net knobs
    (``link_config``, ``noise_seed``).  Restrictions relative to the
    simulation engines, all rejected eagerly:

    * the algorithm must be deterministic and expose a dense state
      ``encoding`` and a ``vector_kernel()`` (actors and messages hold
      constant-size integer codes);
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
        #: The code-level δ every actor steps with.
        self._delta = self._kernel.code_delta()
        self._encode = algorithm.encoding.encode
        self._turns = algorithm.encoding.turn_table
        self._seq = 0
        self._slots = 0
        self._pending_changes: list = []
        self._config_cache: Optional[Configuration] = None

        self._actors: Dict[int, NodeActor] = {
            v: NodeActor(v, topology.neighbors(v)) for v in topology.nodes
        }

        # The base constructor calls _load_configuration (which needs
        # the actors above) and binds the scheduler.
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
        """Adopt ``configuration``: set actor states and refresh every
        register instantly (omniscient out-of-band write)."""
        self._config_cache = configuration
        self._ledger = GoodnessLedger(self._kernel)  # counted on first query
        for v, actor in self._actors.items():
            actor.state = self._encode(configuration[v])
        for v in self._actors:
            self._push_registers(v)

    def _apply(
        self, activated: FrozenSet[int]
    ) -> Tuple[Tuple[int, object, object], ...]:
        """Run one slot of virtual time with ``activated`` actors stepping:
        the acts in ascending node order, then every delivery due by the
        slot's end."""
        self._config_cache = None
        self._pending_changes = []
        actors = self._actors
        for v in sorted(activated):
            actor = actors[v]
            if not actor.crashed:
                actor._act(self)
        stats = self.stats
        stats.acts += len(activated)
        self._slots += 1
        delivered = 0
        for _, _, sender, receivers, messages in self.network.due_batches(
            self.virtual_time
        ):
            for receiver, message in zip(receivers, messages):
                actor = actors[receiver]
                if not actor.crashed:
                    actor.accept(sender, message)
                    delivered += 1
        stats.messages_delivered += delivered
        return tuple(self._pending_changes)

    @property
    def configuration(self) -> Configuration:
        """The current configuration, assembled from the actor states."""
        if self._config_cache is None:
            turns = self._turns
            self._config_cache = Configuration(
                self.topology,
                {v: turns[actor.state] for v, actor in self._actors.items()},
            )
        return self._config_cache

    def state_of(self, v: int):
        """The current state of node ``v``, decoded from its actor."""
        return self._turns[self._actors[v].state]

    def graph_is_good(self) -> bool:
        """The AlgAU stabilization predicate over the actors' codes:
        every actor able, every edge protected (``pair_unprotected``).

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
        """A read-only snapshot of the actors' state codes."""
        actors = self._actors
        snapshot = np.array(
            [actors[v].state for v in range(len(actors))], dtype=np.int64
        )
        snapshot.flags.writeable = False
        return snapshot

    def poke_states(self, updates) -> None:
        """Overwrite a few actor states in place, refreshing the
        neighbors' registers instantly (even where a state is
        unchanged)."""
        if not updates:
            return
        unknown = set(int(v) for v in updates) - set(self._actors)
        if unknown:
            raise ModelError(f"cannot poke unknown nodes {sorted(unknown)}")
        self._state_epoch += 1
        self._config_cache = None
        for v, state in updates.items():
            self._write(self._actors[int(v)], self._encode(state))

    def poke_codes(self, rows, codes) -> None:
        """Write actor codes in place (the permanent-fault entry point),
        refreshing the registers of every moved actor's neighbors
        instantly; unchanged actors are skipped."""
        actors = self._actors
        moved = False
        for v, code in zip(rows, codes):
            actor = actors.get(int(v))
            if actor is None:
                raise ModelError(f"cannot poke unknown node {v}")
            if actor.state != code:
                self._write(actor, int(code))
                moved = True
        if moved:
            self._state_epoch += 1
            self._config_cache = None

    def _write(self, actor: NodeActor, code: int) -> None:
        """Poke ``code`` into ``actor``: fold the move, then push registers."""
        actors = self._actors
        self._ledger.move(
            actor.state, code, [actors[u].state for u in actor.neighbors]
        )
        actor.state = code
        self._push_registers(actor.node)

    def _refresh_pending(self) -> None:
        raise ModelError(
            "the net runtime has no enabled-set view: a node's "
            "enabledness depends on neighbor states it can only learn "
            "through messages"
        )

    _enabled_snapshot = _refresh_pending

    # ------------------------------------------------------------------
    # Message plumbing (called by the actors).
    # ------------------------------------------------------------------

    def _record_change(self, node: int, old: int, new: int) -> None:
        """Count one actor's move (its state is already ``new``) and fold
        it into the goodness ledger, against its neighbors' current
        states."""
        self._moves += 1
        if self._record_changes:
            self._pending_changes.append((node, self._turns[old], self._turns[new]))
        actors = self._actors
        self._ledger.move(old, new, [actors[u].state for u in actors[node].neighbors])

    def _broadcast(self, actor: NodeActor) -> None:
        """Stubbornly send ``actor``'s current state to every neighbor.

        The sends depart together at ``now + BROADCAST_PHASE``,
        each with its own sequence number, and each draws its fate from
        the link model; each surviving copy is delivered a link latency
        later.
        """
        code = actor.state
        neighbors = actor.neighbors
        first = self._seq + 1
        self._seq += len(neighbors)
        self.network.broadcast(
            self.virtual_time + BROADCAST_PHASE,
            actor.node,
            neighbors,
            [(seq, code) for seq in range(first, self._seq + 1)],
        )

    def _push_registers(self, v: int) -> None:
        """Write node ``v``'s current state into every neighbor's
        register with a fresh sequence number (instant, out-of-band)."""
        self._seq += 1
        seq = self._seq
        code = self._actors[v].state
        for u in self._actors[v].neighbors:
            self._actors[u].registers[v] = (seq, code)

    # ------------------------------------------------------------------
    # Dynamic topology.
    # ------------------------------------------------------------------

    def _apply_topology_delta(self, delta):
        """Map a :class:`~repro.graphs.dynamic.TopologyDelta` (or its
        :class:`~repro.graphs.dynamic.ResolvedDelta`) onto the actor
        world: removed edges tear down their directed link pairs
        (and the registers riding on them), leaves silence an actor into
        a tombstone, joins spawn a fresh actor.  Added edges get their
        links lazily, on their first noisy send.

        Register refreshes for every affected node are out-of-band
        (instant, fresh sequence numbers) — the same omniscient-write
        convention as configuration loads, which is what keeps zero-
        noise churn runs bit-identical to the simulation engines.
        In-flight deliveries from a removed neighbor are dropped by the
        actors' membership guard, not by scanning the message queues.
        """
        if not isinstance(self.topology, DynamicTopology):
            self.topology = DynamicTopology(self.topology)
        dyn = self.topology
        applied = dyn.apply(delta)
        actors = self._actors
        links = self.network.links
        # Tear down removed (and leave-incident) edges: both directed
        # links and both registers.
        for u, v in applied.removed_edges:
            for a, b in ((u, v), (v, u)):
                links.pop((a, b), None)
                actors[b].registers.pop(a, None)
        # Departed nodes become silent tombstones (rest state, no
        # neighbors, no message processing).
        left_codes = [actors[v].state for v in applied.left]
        if applied.left:
            rest = self._encode(self.algorithm.initial_state())
            for v in applied.left:
                actor = actors[v]
                actor.crashed = True
                actor.state = rest
                actor.registers.clear()
                actor.neighbors = ()
        # Joined nodes: one fresh actor per join.
        for v, state in applied.joined:
            actor = NodeActor(v, dyn.neighbors(v))
            actor.state = self._encode(state)
            actors[v] = actor
        # Surviving touched actors adopt their new neighbor sets, then
        # every affected node's state is pushed into the (new) registers.
        for v in applied.touched:
            actors[v].neighbors = dyn.neighbors(v)
        refresh = sorted(set(applied.touched) | {v for v, _ in applied.joined})
        for v in refresh:
            if not actors[v].crashed:
                self._push_registers(v)
        self._ledger.fold_delta(applied, lambda v: actors[v].state, left_codes)
        self._config_cache = None
        return applied

    # ------------------------------------------------------------------
    # Actor-level faults and observation.
    # ------------------------------------------------------------------

    def crash_node(self, v: int) -> None:
        """Crash actor ``v``: it stops acting, broadcasting, and
        processing deliveries (its heartbeats go silent).  Also masks
        the node so the inherited step machinery never activates it."""
        if v not in self._actors:
            raise ModelError(f"cannot crash unknown node {v}")
        self._actors[v].crashed = True
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


def create_net_execution(
    topology: Topology,
    algorithm: Algorithm,
    initial_configuration: Configuration,
    scheduler: Scheduler,
    rng: Optional[np.random.Generator] = None,
    monitors: Tuple[Monitor, ...] = (),
    intervention: Optional[Intervention] = None,
    link_config: Optional[LinkConfig] = None,
    noise_seed: int = 0,
) -> NetExecution:
    """Build a :class:`NetExecution` (mirrors
    :func:`~repro.model.engine.create_execution`'s shape, plus the link
    and noise knobs)."""
    return NetExecution(
        topology,
        algorithm,
        initial_configuration,
        scheduler,
        rng=rng,
        monitors=monitors,
        intervention=intervention,
        link_config=link_config,
        noise_seed=noise_seed,
    )
