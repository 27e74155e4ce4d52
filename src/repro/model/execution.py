"""The object-model execution engine (the readable reference).

An :class:`Execution` advances a configuration step by step: at step
``t`` the scheduler picks the activation set ``A_t``; every activated
node applies the transition function to its state and its signal (both
evaluated under the *pre-step* configuration ``C_t``, which realizes the
model's simultaneous-update semantics); non-activated nodes keep their
state.  The engine maintains the paper's round operator bookkeeping and
invokes registered monitors after every step.

Interventions (fault injection) run *before* a step and may replace the
configuration — this is how transient faults are modelled: an arbitrary
corruption of node states at an arbitrary time.

For deterministic algorithms the engine runs the incremental step
pipeline of :class:`~repro.model.engine.ExecutionBase`: a per-node
pending-action cache guarded by a dirty set, with signals built from
the cached CSR neighborhoods (:mod:`repro.graphs.csr`) the vectorized
backend shares — one adjacency representation for both engines.  A
dirty node's action is looked up in a per-execution δ memo keyed by
``(own state, sensed set)``, the only inputs of a deterministic δ in
the stone age model; a miss calls ``resolve`` once.
Randomized algorithms (whose ``resolve`` tosses a coin per activation)
always take the naive recompute path, so their rng streams are
untouched; ``incremental=False`` forces the naive path for
deterministic algorithms too (the differential reference).

The driver loop, monitor and intervention plumbing live in
:class:`~repro.model.engine.ExecutionBase`, which this engine shares
with the vectorized
:class:`~repro.model.array_engine.ArrayExecution`; ``StepRecord``,
``RunResult``, ``Monitor`` and ``Intervention`` are re-exported here
for backwards compatibility.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Generic, List, Mapping, Optional, Tuple, TypeVar

import numpy as np

from repro.graphs.dynamic import DynamicTopology
from repro.model.configuration import Configuration
from repro.model.engine import (
    ExecutionBase,
    Intervention,
    Monitor,
    RunResult,
    StepRecord,
)
from repro.model.scheduler import Scheduler
from repro.model.signal import Signal

__all__ = [
    "Execution",
    "Intervention",
    "Monitor",
    "RunResult",
    "StepRecord",
]

Q = TypeVar("Q")


class Execution(ExecutionBase[Q], Generic[Q]):
    """Object-model engine: per-node signals, one ``resolve`` per
    activated node.  Works for every :class:`~repro.model.algorithm.Algorithm`
    (including the randomized ones)."""

    def __init__(
        self,
        topology,
        algorithm,
        initial_configuration: Configuration,
        scheduler: Scheduler,
        rng: Optional[np.random.Generator] = None,
        monitors: Tuple[Monitor, ...] = (),
        intervention: Optional[Intervention] = None,
        incremental: bool = True,
    ):
        # The shared adjacency representation: the inclusive rows the
        # array engine's CSR caches, as Python lists for per-node
        # iteration.
        self._hoods = topology.inclusive_rows()
        # The pending-action cache is only sound when replaying a
        # cached action skips no coin toss.
        self._use_cache = bool(incremental) and getattr(
            algorithm, "deterministic", False
        )
        #: δ memo of the cached pipeline: ``(state, sensed frozenset)`` →
        #: next state (see :meth:`_delta`).
        self._delta_memo: Dict[Tuple[Q, FrozenSet[Q]], Q] = {}
        from repro.core.algau import ThinUnison

        self._track_goodness = self._use_cache and isinstance(algorithm, ThinUnison)
        if self._track_goodness:
            # Level → adjacent levels, shared through the level system.
            self._adjacency = algorithm.levels.adjacency
        super().__init__(
            topology,
            algorithm,
            initial_configuration,
            scheduler,
            rng=rng,
            monitors=monitors,
            intervention=intervention,
            incremental=incremental,
        )

    # ------------------------------------------------------------------
    # Engine hooks.
    # ------------------------------------------------------------------

    def _load_configuration(self, configuration: Configuration) -> None:
        self._configuration = configuration
        # Everything is dirty after a wholesale state replacement.
        self._dirty = set(self.topology.nodes)
        self._pending: List[Optional[Q]] = [None] * self.topology.n
        self._enabled: set = set()
        self._goodness: Optional[Tuple[int, int]] = None

    @property
    def configuration(self) -> Configuration:
        """The current configuration ``C_t``."""
        return self._configuration

    def state_of(self, v: int) -> Q:
        return self._configuration[v]

    def _signal(self, v: int, states: Tuple[Q, ...]) -> Signal[Q]:
        """The signal of ``v``, gathered over the shared CSR
        neighborhood (no per-configuration memo machinery)."""
        return Signal(states[u] for u in self._hoods[v])

    def _delta(self, v: int, states: Tuple[Q, ...]) -> Q:
        """δ of ``v`` under ``states`` on the cached pipeline, looked up
        in the per-execution memo keyed by ``(own state, sensed set)``;
        a miss resolves it once through the algorithm."""
        old = states[v]
        sensed = frozenset([states[u] for u in self._hoods[v]])
        key = (old, sensed)
        try:
            return self._delta_memo[key]
        except KeyError:
            # Signal adopts the frozenset as is: no second set build.
            new = self.algorithm.resolve(old, Signal(sensed), self.rng)
            self._delta_memo[key] = new
            return new

    def _apply(self, activated: FrozenSet[int]) -> Tuple[Tuple[int, Q, Q], ...]:
        config = self._configuration
        updates: Dict[int, Q] = {}
        changed: List[Tuple[int, Q, Q]] = []
        if self._use_cache:
            states = config.states()
            dirty = self._dirty
            pending = self._pending
            enabled = self._enabled
            for v in activated:
                old = states[v]
                if v in dirty:
                    new = self._delta(v, states)
                    pending[v] = new
                    dirty.discard(v)
                    if new != old:
                        enabled.add(v)
                    else:
                        enabled.discard(v)
                else:
                    new = pending[v]
                if new != old:
                    updates[v] = new
                    changed.append((v, old, new))
        else:
            for v in activated:
                old = config[v]
                new = self.algorithm.resolve(old, config.signal(v), self.rng)
                if new != old:
                    updates[v] = new
                    changed.append((v, old, new))
        if updates:
            self._configuration = config.replace(updates)
            self._moves += len(updates)
            if self._use_cache:
                self._mark_dirty(updates)
                self._update_goodness(changed, config)
        return tuple(changed)

    # ------------------------------------------------------------------
    # Dirty-set maintenance.
    # ------------------------------------------------------------------

    def _mark_dirty(self, moved: Mapping[int, Q]) -> None:
        """Re-dirty the closed neighborhoods of every moved node (their
        neighbors' signals — and their own — just changed)."""
        dirty = self._dirty
        enabled = self._enabled
        hoods = self._hoods
        for v in moved:
            hood = hoods[v]
            dirty.update(hood)
            enabled.difference_update(hood)

    def _refresh_pending(self) -> None:
        config = self._configuration
        states = config.states()
        enabled = self._enabled
        if self._use_cache:
            dirty = self._dirty
            if not dirty:
                return
            pending = self._pending
            for v in dirty:
                new = self._delta(v, states)
                pending[v] = new
                if new != states[v]:
                    enabled.add(v)
                else:
                    enabled.discard(v)
            dirty.clear()
        else:
            # No cache to lean on (randomized algorithm or naive mode):
            # evaluate the support of δ for every node on each query.
            support = self.algorithm.support
            enabled.clear()
            for v in self.topology.nodes:
                state = states[v]
                if support(state, self._signal(v, states)) != frozenset((state,)):
                    enabled.add(v)

    def _enabled_snapshot(self) -> FrozenSet[int]:
        return frozenset(self._enabled)

    # ------------------------------------------------------------------
    # Sparse state overwrites (permanent faults).
    # ------------------------------------------------------------------

    def poke_states(self, updates: Mapping[int, Q]) -> None:
        """Sparse overwrite that re-dirties only the poked
        neighborhoods instead of invalidating the whole pipeline."""
        if not updates:
            return
        config = self._configuration
        self._configuration = config.replace(updates)  # validates node ids
        self._state_epoch += 1
        changed = [
            (int(v), config[int(v)], state)
            for v, state in updates.items()
            if config[int(v)] != state
        ]
        if not changed:
            return
        if self._use_cache:
            self._mark_dirty({v: new for v, _, new in changed})
            self._update_goodness(changed, config)
        else:
            self._goodness = None

    # ------------------------------------------------------------------
    # Dynamic topology.
    # ------------------------------------------------------------------

    def _ensure_dynamic_topology(self):
        """Convert the (possibly shared) frozen topology into a private
        :class:`~repro.graphs.dynamic.DynamicTopology` on first
        mutation; the neighbor-list view then aliases the dynamic rows,
        so subsequent deltas update it in place.  The lane reads only
        the rows, so its topology never builds a CSR."""
        top = self.topology
        if not isinstance(top, DynamicTopology):
            top = DynamicTopology(top)
            self.topology = top
            self._hoods = top.inclusive_rows()
        return top

    def _apply_topology_delta(self, delta):
        dyn = self._ensure_dynamic_topology()
        states = list(self._configuration.states())
        applied = dyn.apply(delta)
        if applied.left:
            rest = self.algorithm.initial_state()
            for v in applied.left:
                states[v] = rest
        for _, state in applied.joined:
            states.append(state)
        self._configuration = Configuration._from_state_tuple(dyn, tuple(states))
        n = dyn.n
        if len(self._pending) < n:
            self._pending.extend([None] * (n - len(self._pending)))
        # Fold the delta into the dirty set: exactly the rows whose
        # inclusive neighborhood (or state) changed, not the whole
        # pipeline.
        dirtied = applied.affected.tolist()
        self._dirty.update(dirtied)
        self._enabled.difference_update(dirtied)
        self._goodness = None  # lazily recounted on the mutated graph
        return applied

    # ------------------------------------------------------------------
    # Incremental AlgAU goodness accounting.
    # ------------------------------------------------------------------

    def _update_goodness(
        self,
        changed: List[Tuple[int, Q, Q]],
        old_config: Configuration,
    ) -> None:
        """Fold one step's change set into the cached ``(faulty nodes,
        unprotected ordered pairs)`` counts — O(deg(changed)), replacing
        the full-configuration goodness scan."""
        if not self._track_goodness or self._goodness is None or not changed:
            return
        n_faulty, bad = self._goodness
        adjacency = self._adjacency
        new_of = {v: new for v, _, new in changed}
        hoods = self._hoods
        old_states = old_config.states()
        for v, old, new in changed:
            n_faulty += new.faulty - old.faulty
            adjacent_to_old = adjacency[old.level]
            adjacent_to_new = adjacency[new.level]
            for u in hoods[v]:
                if u == v:
                    continue
                u_old_level = old_states[u].level
                u_new = new_of.get(u)
                u_new_level = u_old_level if u_new is None else u_new.level
                was_bad = u_old_level not in adjacent_to_old
                now_bad = u_new_level not in adjacent_to_new
                delta = now_bad - was_bad
                bad += delta
                if u_new is None:
                    # The reverse ordered pair (u, v) is not iterated by
                    # any other changed node; protection is symmetric.
                    bad += delta
        self._goodness = (n_faulty, bad)

    def graph_is_good(self) -> bool:
        """The AlgAU stabilization predicate, answered from the
        incrementally maintained goodness counts when the pipeline is
        active (O(1) amortized instead of an O(n + m) scan)."""
        if not self._track_goodness:
            return super().graph_is_good()
        if self._goodness is None:
            states = self._configuration.states()
            adjacency = self._adjacency
            n_faulty = sum(1 for q in states if q.faulty)
            bad = 2 * sum(
                1
                for u, v in self.topology.edges
                if states[v].level not in adjacency[states[u].level]
            )
            self._goodness = (n_faulty, bad)
        return self._goodness == (0, 0)
