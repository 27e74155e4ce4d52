"""AlgAU — the thin self-stabilizing asynchronous unison algorithm.

This is the paper's primary contribution (Sec. 2, Thm 1.1): a
*deterministic* self-stabilizing AU algorithm for ``D``-bounded-diameter
graphs with state space ``4k − 2 = O(D)`` (for ``k = 3D + 2``) and
stabilization time ``O(D^3)`` rounds under any fair asynchronous
schedule.

A node residing in turn ``ν`` that is activated performs one of three
transition types (Table 1 of the paper):

=====  ===========================  =========================  ============================================================
Type   Pre-transition turn          Post-transition turn       Condition
=====  ===========================  =========================  ============================================================
AA     ``ℓ̄``, ``1 ≤ |ℓ| ≤ k``      ``φ^{+1}(ℓ)`` (able)       ``v`` is good and ``Λ_v ⊆ {ℓ, φ^{+1}(ℓ)}``
AF     ``ℓ̄``, ``2 ≤ |ℓ| ≤ k``      ``ℓ̂``                      ``v`` is not protected, or ``v`` senses turn ``ψ^{-1}(ℓ)̂``
FA     ``ℓ̂``, ``2 ≤ |ℓ| ≤ k``      ``ψ^{-1}(ℓ)`` (able)       ``Λ_v ∩ Ψ>(ℓ) = ∅``
=====  ===========================  =========================  ============================================================

where, from the node's own signal:

* ``Λ_v`` is the set of sensed levels,
* *protected* means every sensed level is adjacent to the node's level,
* *good* means protected and sensing no faulty turn.

If no condition applies the node keeps its turn.  The able turns are the
output states; the level-to-clock identification (``LevelSystem.clock_value``)
maps them onto the cyclic group ``K`` of the AU task.

The ``cautious_af`` flag implements ablation A1: disabling the second AF
trigger (go faulty upon sensing the faulty turn one unit inwards)
removes the "closing the gap" relay that the stabilization proof builds
on (Lem 2.12); the ablation benchmark shows stabilization then fails or
degrades on adversarial instances.
"""

from __future__ import annotations

from enum import Enum
from typing import FrozenSet, Optional

import numpy as np

from repro.core.levels import LevelSystem
from repro.core.turns import (
    Turn,
    TurnSystem,
    able,
    faulty,
    levels_sensed,
)
from repro.model.algorithm import Algorithm, TransitionResult
from repro.model.signal import Signal


class TransitionType(Enum):
    """Classification of one AlgAU activation (Table 1 plus STAY)."""

    STAY = "stay"
    AA = "able-able"
    AF = "able-faulty"
    FA = "faulty-able"


class ThinUnison(Algorithm[Turn, int]):
    """The AlgAU state machine ``⟨T ∪ T̂, T, ω, δ⟩``.

    Parameters
    ----------
    diameter_bound:
        The bound ``D`` on the diameter of the graphs the algorithm is
        deployed on; determines ``k = 3D + 2``.
    cautious_af:
        Keep the paper's second AF trigger (default).  Setting this to
        ``False`` yields the ablated variant used by benchmark A1.
    """

    #: AlgAU is deterministic (Table 1 has no coin), which makes it
    #: eligible for the engines' incremental pending-action cache.
    deterministic = True

    def __init__(self, diameter_bound: int, cautious_af: bool = True):
        self.levels = LevelSystem(diameter_bound)
        self.turns = TurnSystem(self.levels)
        self.cautious_af = cautious_af
        suffix = "" if cautious_af else "-no-cautious-af"
        self.name = f"AlgAU(D={diameter_bound}){suffix}"
        self._encoding = None
        self._vector_kernel = None

    # ------------------------------------------------------------------
    # The 4-tuple.
    # ------------------------------------------------------------------

    def states(self) -> FrozenSet[Turn]:
        return frozenset(self.turns.all_turns)

    def state_space_size(self) -> int:
        """``4k − 2 = 12D + 6``."""
        return self.turns.size()

    def is_output_state(self, state: Turn) -> bool:
        return state.able

    def output(self, state: Turn) -> int:
        """The clock value ``ω(ℓ̄) ∈ Z_{2k}``."""
        return self.levels.clock_value(state.level)

    def delta(self, state: Turn, signal: Signal[Turn]) -> TransitionResult:
        return self.successor(state, signal)

    # ------------------------------------------------------------------
    # Signal-derived predicates (the node's local view).
    # ------------------------------------------------------------------

    def locally_protected(self, state: Turn, signal: Signal[Turn]) -> bool:
        """Whether every sensed level is adjacent to the node's level —
        the node-local reading of "all incident edges are protected"."""
        own = state.level
        return all(self.levels.adjacent(own, level) for level in levels_sensed(signal))

    def locally_good(self, state: Turn, signal: Signal[Turn]) -> bool:
        """Protected and sensing no faulty turn."""
        if any(turn.faulty for turn in signal):
            return False
        return self.locally_protected(state, signal)

    # ------------------------------------------------------------------
    # Transition logic.
    # ------------------------------------------------------------------

    def classify(self, state: Turn, signal: Signal[Turn]) -> TransitionType:
        """Which transition type fires for ``(state, signal)``."""
        self.turns.require_turn(state)
        level = state.level
        sensed_levels = levels_sensed(signal)
        if state.able:
            # Type AA: advance the clock.
            forward = self.levels.forward(level)
            if self.locally_good(state, signal) and sensed_levels <= {
                level,
                forward,
            }:
                return TransitionType.AA
            # Type AF: take the faulty detour (only levels |ℓ| >= 2).
            if self.turns.has_faulty(level):
                if not self.locally_protected(state, signal):
                    return TransitionType.AF
                if self.cautious_af:
                    inward = self.levels.outwards(level, -1)
                    if signal.senses(faulty(inward)):
                        return TransitionType.AF
            return TransitionType.STAY
        # Faulty turn: type FA returns one unit inwards once nothing is
        # sensed strictly outwards.
        if not (sensed_levels & self.levels.strictly_outwards(level)):
            return TransitionType.FA
        return TransitionType.STAY

    def successor(self, state: Turn, signal: Signal[Turn]) -> Turn:
        """The (deterministic) next turn."""
        kind = self.classify(state, signal)
        if kind is TransitionType.STAY:
            return state
        if kind is TransitionType.AA:
            return able(self.levels.forward(state.level))
        if kind is TransitionType.AF:
            return faulty(state.level)
        # FA
        return able(self.levels.outwards(state.level, -1))

    # ------------------------------------------------------------------
    # Vectorized backend (the array engine's view of δ).
    # ------------------------------------------------------------------

    @property
    def encoding(self):
        """The dense turn :class:`~repro.core.encoding.TurnEncoding`
        shared by all array-engine structures (built lazily, cached)."""
        if self._encoding is None:
            from repro.core.encoding import TurnEncoding

            self._encoding = TurnEncoding(self.turns)
        return self._encoding

    def vector_kernel(self):
        """The cached :class:`~repro.core.algau_vec.VectorKernel`
        holding the precomputed Table 1 masks for this instance."""
        if self._vector_kernel is None:
            from repro.core.algau_vec import VectorKernel

            self._vector_kernel = VectorKernel(self)
        return self._vector_kernel

    # ------------------------------------------------------------------
    # Auxiliary contract.
    # ------------------------------------------------------------------

    def initial_state(self) -> Turn:
        """An arbitrary legal start turn (self-stabilization makes the
        choice immaterial); we use the able turn of level 1."""
        return able(1)

    def random_state(self, rng: np.random.Generator) -> Turn:
        all_turns = self.turns.all_turns
        return all_turns[int(rng.integers(len(all_turns)))]

    # ------------------------------------------------------------------
    # Introspection used by the analysis layer.
    # ------------------------------------------------------------------

    def classify_change(self, old: Turn, new: Turn) -> Optional[TransitionType]:
        """Classify an observed state change (used by monitors that only
        see (old, new) pairs).  Returns ``None`` for impossible pairs."""
        if old == new:
            return TransitionType.STAY
        if old.able and new.able and new.level == self.levels.forward(old.level):
            return TransitionType.AA
        if old.able and new.faulty and new.level == old.level:
            return TransitionType.AF
        if (
            old.faulty
            and new.able
            and new.level == self.levels.outwards(old.level, -1)
        ):
            return TransitionType.FA
        return None
