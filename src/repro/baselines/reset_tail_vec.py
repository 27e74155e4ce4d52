"""Vectorized transition kernel for :class:`ResetTailUnison`.

The array engine (:mod:`repro.model.array_engine`) is algorithm-agnostic
behind two seams — a dense state encoding and a code-level δ
(:class:`~repro.core.algau_vec.CodeDelta`, evaluated on one node or on
packed signal words) — originally built for AlgAU
(:mod:`repro.core.algau_vec`).  The reset-tail rules fit the same shape:
every transition guard is a *set* condition on the sensed states, so the
whole rule table compiles into three ``(|Q|, |Q|)`` boolean trigger
tables over (own code, sensed code):

* ``reset_trigger[c]`` — sensed codes that send ring code ``c`` to the
  bottom of the tail: ring values at cyclic distance > 1, plus every
  tail code when the node's value is outside ``{0, 1}``;
* ``advance_block[c]`` — sensed codes that veto ring code ``c``'s
  advance: any tail code, or ring values outside ``{x, x+1 mod K}``;
* ``climb_block[c]`` — sensed codes that hold tail code ``c`` in place:
  strictly deeper tail values, or ring values outside ``{0, 1}``.

Codes are ``value + alpha``: tail codes ``0 .. alpha-1`` (deepest
first), ring codes ``alpha .. alpha+K-1``, so the climb — including the
climb-out from ``-1`` to ring value 0 — is literally ``code + 1``.

Unlike the AlgAU kernel this one carries no pair table
(``pair_unprotected`` / ``goodness_counts``), so the lanes'
:class:`~repro.model.goodness.GoodnessLedger` never counts it: the
campaign runner measures reset-tail stabilization through the
configuration predicate
:func:`~repro.baselines.reset_tail_unison.reset_tail_stable`, and
:meth:`ArrayExecution.graph_is_good` falls back to the object-model
predicate when a kernel lacks goodness support.
``tests/test_algorithm_zoo.py`` differentially verifies the lane
bit-for-bit against the object engine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.algau_vec import CodeDelta, CodeKernel
from repro.model.errors import ModelError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.baselines.reset_tail_unison import ResetTailUnison


class TailEncoding:
    """Bijection between :class:`TailClock` states and dense codes
    ``0 .. K+alpha-1`` (``code = value + alpha``)."""

    __slots__ = ("_alpha", "_ring", "_turn_table")

    def __init__(self, algorithm: "ResetTailUnison"):
        self._alpha = algorithm.tail_length
        self._ring = algorithm.ring.order
        from repro.baselines.reset_tail_unison import TailClock

        self._turn_table = tuple(
            TailClock(code - self._alpha) for code in range(self.size)
        )

    @property
    def size(self) -> int:
        """``|Q| = K + alpha``."""
        return self._alpha + self._ring

    @property
    def turn_table(self):
        """Code → :class:`TailClock` lookup (index with an int code)."""
        return self._turn_table

    def encode(self, state) -> int:
        """The dense code of ``state`` (validated)."""
        code = state.value + self._alpha
        if not 0 <= code < self.size or self._turn_table[code] != state:
            raise ModelError(
                f"{state!r} is not a state for K={self._ring}, "
                f"alpha={self._alpha}"
            )
        return code

    def decode(self, code: int):
        """The :class:`TailClock` behind dense ``code`` (validated)."""
        if not 0 <= code < self.size:
            raise ModelError(f"code {code} out of range for |Q|={self.size}")
        return self._turn_table[int(code)]

    def encode_configuration(self, configuration) -> np.ndarray:
        """Encode a whole configuration into a code vector."""
        codes = np.fromiter(
            (state.value for state in configuration.states()),
            dtype=np.int64,
        )
        codes += self._alpha
        if codes.size and (codes.min() < 0 or codes.max() >= self.size):
            raise ModelError(
                f"configuration holds states outside K={self._ring}, "
                f"alpha={self._alpha}"
            )
        return codes

    def decode_configuration(self, topology, codes: np.ndarray):
        """Decode a code vector into a :class:`Configuration`."""
        from repro.model.configuration import Configuration

        if len(codes) != topology.n:
            raise ModelError(
                f"code vector has length {len(codes)}, topology has "
                f"{topology.n} nodes"
            )
        table = self._turn_table
        return Configuration.from_function(
            topology, lambda v: table[int(codes[v])]
        )


class TailKernel(CodeKernel):
    """Precomputed trigger tables + the code-level transition function
    for one :class:`ResetTailUnison` instance."""

    def __init__(self, algorithm: "ResetTailUnison"):
        # No back-reference to ``algorithm`` (see VectorKernel).
        self.encoding = algorithm.encoding
        alpha = algorithm.tail_length
        ring = algorithm.ring.order
        self.alpha = alpha
        self.ring = ring
        self.size = alpha + ring

        size = self.size
        codes = np.arange(size, dtype=np.int64)
        is_tail = codes < alpha
        ring_value = codes - alpha  # valid where ~is_tail

        # Pairwise helpers over (own code c, sensed code s).
        tail_s = np.broadcast_to(is_tail, (size, size))
        ring_s = ~tail_s
        sensed_value = np.broadcast_to(ring_value, (size, size))
        own_value = ring_value[:, None]
        diff = (sensed_value - own_value) % ring
        cyc_dist = np.minimum(diff, ring - diff)

        # Ring rows: reset / advance-block triggers (tail rows zeroed).
        own_ring = ~is_tail[:, None]
        outside01 = ring_s & ~np.isin(sensed_value, (0, 1))
        self.reset_trigger = own_ring & (
            (ring_s & (cyc_dist > 1))
            | (tail_s & ~np.isin(own_value, (0, 1)))
        )
        self.advance_block = own_ring & (tail_s | (ring_s & (diff > 1)))

        # Tail rows: climb-block triggers (ring rows zeroed).
        deeper = tail_s & (np.broadcast_to(codes, (size, size)) < codes[:, None])
        self.climb_block = is_tail[:, None] & (deeper | outside01)

        self.is_tail_code = is_tail
        #: Ring advance target per code (identity on tail codes; the
        #: fire masks guarantee it is only read on ring codes).
        self.advance_to = np.where(
            is_tail, codes, alpha + (ring_value + 1) % ring
        )
        #: The reset target: the bottom of the tail.
        self.reset_code = 0

    def _build_code_delta(self) -> CodeDelta:
        """The climb and the ring advance are the free rules, blocked by
        ``climb_block`` and by either ring trigger; the reset is the
        fire rule."""
        codes = np.arange(self.size, dtype=np.int64)
        return CodeDelta(
            self.climb_block | self.reset_trigger | self.advance_block,
            np.where(self.is_tail_code, codes + 1, self.advance_to),
            self.reset_trigger,
            np.full(self.size, self.reset_code, dtype=np.int64),
        )
