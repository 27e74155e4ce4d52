"""The round operator ``ϱ`` of the paper.

Given an asynchronous schedule ``{A_t}``, the paper defines ``ϱ(t)`` as
the earliest time such that every node is activated at least once during
``[t, ϱ(t))``, iterates it to ``ϱ^i(t)``, and sets ``R(i) = ϱ^i(0)``.
Stabilization times are expressed as the smallest ``i`` with the
execution stabilized by ``R(i)``.

:class:`RoundTracker` maintains the boundaries ``R(0) = 0 < R(1) < ...``
incrementally: a round completes once the set of nodes not yet activated
since the previous boundary becomes empty.  Under a synchronous schedule
``R(i) = i`` falls out automatically.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, List, Sequence, Set

import numpy as np


class RoundTracker:
    """Incrementally computes the boundaries ``R(i) = ϱ^i(0)``."""

    __slots__ = ("_nodes", "_pending", "_boundaries", "_time")

    def __init__(self, nodes: Sequence[int]):
        self._nodes: Sequence[int] = tuple(nodes)
        self._pending: Set[int] = set(self._nodes)
        self._boundaries: List[int] = [0]
        self._time = 0

    @property
    def time(self) -> int:
        """Steps observed so far."""
        return self._time

    @property
    def completed_rounds(self) -> int:
        """The largest ``i`` with ``R(i)`` already determined."""
        return len(self._boundaries) - 1

    @property
    def boundaries(self) -> Sequence[int]:
        """``[R(0), R(1), ..., R(completed_rounds)]``."""
        return tuple(self._boundaries)

    def observe(self, activated: Iterable[int]) -> bool:
        """Record the activation set of the current step.

        Returns ``True`` iff this step completed a round, i.e. a new
        boundary ``R(i) = time + 1`` was appended.
        """
        if isinstance(activated, (set, frozenset)) and len(activated) == len(
            self._nodes
        ):
            # Full activation (synchronous regime): skip the O(n) set
            # difference — the round completes unconditionally.
            return self.observe_all()
        self._pending.difference_update(activated)
        self._time += 1
        if not self._pending:
            self._boundaries.append(self._time)
            self._pending = set(self._nodes)
            return True
        return False

    def observe_all(self) -> bool:
        """Record a step that activated *every* node — always completes
        a round, in O(1) when the previous step did too (the pending
        set is only rebuilt when a partial step had drained it)."""
        self._time += 1
        self._boundaries.append(self._time)
        if len(self._pending) != len(self._nodes):
            self._pending = set(self._nodes)
        return True

    @property
    def at_boundary(self) -> bool:
        """Whether no node has been activated since the last boundary
        (the current round has not started)."""
        return len(self._pending) == len(self._nodes)

    def observe_sequence(self, order: np.ndarray) -> bool:
        """Record ``len(order)`` single-node steps activating
        ``order[0]``, ``order[1]``, … in turn.

        The bulk counterpart of :meth:`observe` for round-order
        callers, which must guarantee that a round can complete only on
        the last step (distinct nodes, at most the rest of one round).
        O(1) for a whole round from a boundary, a pending-set update
        otherwise.  Returns whether a round completed.
        """
        count = len(order)
        self._time += count
        if count == len(self._nodes) and self.at_boundary:
            self._boundaries.append(self._time)
            return True
        self._pending.difference_update(order.tolist())
        if self._pending:
            return False
        self._boundaries.append(self._time)
        self._pending = set(self._nodes)
        return True

    def add_nodes(self, nodes: Iterable[int]) -> None:
        """Extend the tracked node set mid-execution (dynamic joins).

        A joined node must be activated before the *current* round can
        complete — a round is "every node activated at least once", and
        the node exists now — so it enters both the node tuple and the
        pending set of the in-progress round.
        """
        known = set(self._nodes)
        new = tuple(v for v in nodes if v not in known)
        if not new:
            return
        self._nodes = tuple(self._nodes) + new
        self._pending.update(new)

    def boundary(self, i: int) -> int:
        """``R(i)`` for an already-completed round index ``i``."""
        return self._boundaries[i]

    def round_of_time(self, t: int) -> int:
        """The smallest ``i`` with ``R(i) ≥ t`` (the paper's unit for
        "stabilized by time ``R(i)``").

        This is the one definition of the stabilization round: a time
        inside the round still in progress belongs to round
        ``completed_rounds + 1``, whose boundary is not yet known but
        must lie at or after ``t``.  Times are on this tracker's clock
        (:attr:`time`, which a ``reset_schedule`` restarts).  Raises
        :class:`IndexError` if ``t`` lies beyond :attr:`time`.
        """
        if t > self._time:
            raise IndexError(f"time {t} lies beyond the tracker's clock {self._time}")
        if t > self._boundaries[-1]:
            return self.completed_rounds + 1
        # First index with boundary >= t.
        return bisect_right(self._boundaries, t - 1)

    def __repr__(self) -> str:
        return (
            f"<RoundTracker t={self._time} rounds={self.completed_rounds} "
            f"pending={len(self._pending)}>"
        )
