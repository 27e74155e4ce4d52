"""A long-tail reset-based unison — the [BPV04]-style comparator.

Boulinier, Petit and Villain (PODC 2004) showed that bounded-state
self-stabilizing unison is achievable under set-broadcast communication
with a *reset tail*: clock values live on a ring ``{0, ..., K-1}``
augmented with tail values ``{-alpha, ..., -1}``; detecting an
incoherence sends a node to the bottom of the tail, resets flood, and
nodes climb out of the tail together, re-entering the ring synchronized.
Their state bound depends on the graph's cycle structure
(``C_G + T_G``), which on some constant-diameter graphs is ``Ω(n)`` —
the comparison the paper draws in Sec. 5.

This module implements the reset-wave + tail-climb principle (it is a
faithful rendition of the *approach*, not a line-by-line port of BPV04 —
see DESIGN.md §5).  Rules for a node with value ``x``:

* ring node (``x ≥ 0``): *reset* to ``-alpha`` upon sensing a ring value
  at cyclic distance > 1, or upon sensing any tail value while
  ``x ∉ {0, 1}``;  otherwise *advance* (``x + 1 mod K``) when no tail
  value is sensed and all sensed ring values lie in ``{x, x+1}``;
* tail node (``x < 0``): *climb* (``x + 1``) when it is a minimum among
  sensed tail values and all sensed ring values lie in ``{0, 1}``
  (climbing out of the tail lands at ring value 0).

With ``alpha ≥ 2D + 2`` the reset wave out-runs ring progress on the
bounded-diameter families used in our experiments.  The benchmark
compares its state count ``K + alpha`` and stabilization behavior
against AlgAU's reset-free design; on adversarially scheduled rings the
approach degrades exactly as the paper's Appendix A warns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet

import numpy as np

from repro.core.clock import CyclicClock
from repro.model.algorithm import Algorithm, TransitionResult
from repro.model.errors import ModelError
from repro.model.signal import Signal


@dataclass(frozen=True, slots=True)
class TailClock:
    """A clock value: ring position if ``value >= 0``, tail depth if
    negative."""

    value: int

    @property
    def in_tail(self) -> bool:
        """True when the clock is a (negative) tail value."""
        return self.value < 0

    def __str__(self) -> str:
        return str(self.value)


class ResetTailUnison(Algorithm):
    """Reset-wave unison with a synchronization tail."""

    #: The rules are coin-free, which qualifies the algorithm for the
    #: engines' incremental (dirty-neighborhood) pipeline.
    deterministic = True

    def __init__(self, ring_size: int, tail_length: int):
        if ring_size < 3:
            raise ModelError("ring size must be >= 3")
        if tail_length < 1:
            raise ModelError("tail length must be >= 1")
        self.ring = CyclicClock(ring_size)
        self.tail_length = tail_length
        self.name = f"ResetTailUnison(K={ring_size}, alpha={tail_length})"
        self._encoding = None
        self._vector_kernel = None

    @classmethod
    def for_diameter_bound(cls, diameter_bound: int) -> "ResetTailUnison":
        """Match AlgAU's clock period and use the safe tail
        ``alpha = 2D + 2``."""
        k = 3 * diameter_bound + 2
        return cls(ring_size=2 * k, tail_length=2 * diameter_bound + 2)

    # ------------------------------------------------------------------
    # The 4-tuple.
    # ------------------------------------------------------------------

    def states(self) -> FrozenSet[TailClock]:
        """Tail values ``-alpha..-1`` plus ring values ``0..K-1``."""
        return frozenset(
            TailClock(v) for v in range(-self.tail_length, self.ring.order)
        )

    def state_space_size(self) -> int:
        """``K + alpha``."""
        return self.ring.order + self.tail_length

    def is_output_state(self, state: TailClock) -> bool:
        """Ring positions are outputs; tail values are not."""
        return not state.in_tail

    def output(self, state: TailClock) -> int:
        """The ring position (tail states have no output)."""
        if state.in_tail:
            raise ModelError(f"{state!r} is not an output state")
        return state.value

    def initial_state(self) -> TailClock:
        """``TailClock(0)``."""
        return TailClock(0)

    def random_state(self, rng: np.random.Generator) -> TailClock:
        """A uniform draw over tail and ring values."""
        return TailClock(int(rng.integers(-self.tail_length, self.ring.order)))

    # ------------------------------------------------------------------
    # Array-engine lane (see repro.baselines.reset_tail_vec).
    # ------------------------------------------------------------------

    @property
    def encoding(self):
        """The dense :class:`~repro.baselines.reset_tail_vec.TailEncoding`
        shared by all array-engine structures (built lazily, cached)."""
        if self._encoding is None:
            from repro.baselines.reset_tail_vec import TailEncoding

            self._encoding = TailEncoding(self)
        return self._encoding

    def vector_kernel(self):
        """The cached :class:`~repro.baselines.reset_tail_vec.TailKernel`
        holding the precomputed trigger tables for this instance."""
        if self._vector_kernel is None:
            from repro.baselines.reset_tail_vec import TailKernel

            self._vector_kernel = TailKernel(self)
        return self._vector_kernel

    # ------------------------------------------------------------------
    # Transition function.
    # ------------------------------------------------------------------

    def delta(self, state: TailClock, signal: Signal) -> TransitionResult:
        """Reset on incoherence, climb the tail, else step the ring."""
        ring_values = sorted(s.value for s in signal if not s.in_tail)
        tail_values = sorted(s.value for s in signal if s.in_tail)
        if not state.in_tail:
            x = state.value
            incoherent = any(self.ring.distance(x, y) > 1 for y in ring_values)
            if incoherent or (tail_values and x not in (0, 1)):
                return TailClock(-self.tail_length)  # reset
            if not tail_values and all(
                y in (x, self.ring.plus(x)) for y in ring_values
            ):
                return TailClock(self.ring.plus(x))  # advance
            return state
        # Tail: climb together, deepest first.
        x = state.value
        if tail_values and min(tail_values) < x:
            return state  # wait for deeper laggards
        if any(y not in (0, 1) for y in ring_values):
            return state  # the offending ring nodes will reset
        return TailClock(x + 1)  # x = -1 climbs out to ring value 0


def reset_tail_stable(algorithm: ResetTailUnison, config) -> bool:
    """All nodes on the ring with cyclically adjacent neighbor values."""
    topology = config.topology
    for v in topology.nodes:
        if config[v].in_tail:
            return False
    return all(
        algorithm.ring.distance(config[u].value, config[v].value) <= 1
        for u, v in topology.edges
    )
