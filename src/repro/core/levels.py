"""Level arithmetic for AlgAU (Sec. 2.2 of the paper).

Fix ``k = 3D + 2``.  The *levels* are the integers ``ℓ`` with
``1 ≤ |ℓ| ≤ k`` (note: 0 is not a level).  Three operators act on them:

* the **forward operator** ``φ`` walks the cyclic order
  ``-k → -k+1 → ... → -1 → 1 → ... → k → -k`` (so the 2k levels form a
  cyclic group isomorphic to Z_{2k});
* the **outwards operator** ``ψ^j`` preserves the sign and moves ``|ℓ|``
  by ``j`` (positive ``j`` = outwards, negative = inwards);
* the **level distance** is the cyclic distance along the ``φ`` cycle.

Levels ``ℓ, ℓ'`` are *adjacent* when ``ℓ' ∈ {φ^{-1}(ℓ), ℓ, φ^{+1}(ℓ)}``.
"""

from __future__ import annotations

from typing import FrozenSet, Mapping, Tuple

from repro.model.errors import ModelError


def k_for_diameter_bound(diameter_bound: int) -> int:
    """The paper's choice ``k = 3D + 2``."""
    if diameter_bound < 1:
        raise ModelError(f"diameter bound must be >= 1, got {diameter_bound}")
    return 3 * diameter_bound + 2


class LevelSystem:
    """All level arithmetic for a given diameter bound ``D``.

    The class is deliberately small and heavily used: every AlgAU
    transition consults it, and the analysis predicates of Sec. 2.3 are
    phrased in its vocabulary.
    """

    __slots__ = ("_d", "_k", "_levels", "_adjacency")

    def __init__(self, diameter_bound: int, k: int | None = None):
        self._d = diameter_bound
        self._k = k if k is not None else k_for_diameter_bound(diameter_bound)
        if self._k < 2:
            raise ModelError(f"k must be >= 2, got {self._k}")
        self._levels: Tuple[int, ...] = tuple(
            range(-self._k, 0)
        ) + tuple(range(1, self._k + 1))
        # One O(k) pass over φ^{±1}; every execution over this level
        # system shares the table.
        self._adjacency: Mapping[int, FrozenSet[int]] = {
            level: frozenset((self.forward(level, -1), level, self.forward(level)))
            for level in self._levels
        }

    # ------------------------------------------------------------------
    # Parameters.
    # ------------------------------------------------------------------

    @property
    def diameter_bound(self) -> int:
        return self._d

    @property
    def k(self) -> int:
        return self._k

    @property
    def levels(self) -> Tuple[int, ...]:
        """All ``2k`` levels in increasing integer order."""
        return self._levels

    @property
    def group_order(self) -> int:
        """``|K| = 2k`` — the order of the clock group."""
        return 2 * self._k

    def is_level(self, value: int) -> bool:
        return isinstance(value, int) and 1 <= abs(value) <= self._k

    def require_level(self, value: int) -> None:
        if not self.is_level(value):
            raise ModelError(f"{value} is not a level for k={self._k}")

    # ------------------------------------------------------------------
    # Forward operator φ.
    # ------------------------------------------------------------------

    def forward(self, level: int, j: int = 1) -> int:
        """``φ^j(level)``; ``j`` may be negative (the inverse walk)."""
        self.require_level(level)
        return self.level_of_clock(self.clock_value(level) + j)

    def backward(self, level: int, j: int = 1) -> int:
        """``φ^{-j}(level)``."""
        return self.forward(level, -j)

    def adjacent(self, a: int, b: int) -> bool:
        """Levels are adjacent iff equal or one forward-step apart."""
        return self.distance(a, b) <= 1

    @property
    def adjacency(self) -> Mapping[int, FrozenSet[int]]:
        """Level → ``{φ^{-1}(ℓ), ℓ, φ^{+1}(ℓ)}``, the levels adjacent to
        it: :meth:`adjacent` as a table, for hot loops
        (``b in adjacency[a]`` iff ``adjacent(a, b)``).  Do not mutate."""
        return self._adjacency

    # ------------------------------------------------------------------
    # Outwards operator ψ.
    # ------------------------------------------------------------------

    def outwards(self, level: int, j: int) -> int:
        """``ψ^j(level)``: same sign, ``|result| = |level| + j``.

        Defined only for ``-|ℓ| < j ≤ k - |ℓ|``.
        """
        self.require_level(level)
        magnitude = abs(level) + j
        if not 1 <= magnitude <= self._k:
            raise ModelError(
                f"ψ^{j}({level}) is undefined (|result| would be {magnitude})"
            )
        return magnitude if level > 0 else -magnitude

    def strictly_outwards(self, level: int) -> FrozenSet[int]:
        """``Ψ>(ℓ)`` — all levels strictly outwards of ``ℓ``."""
        self.require_level(level)
        sign = 1 if level > 0 else -1
        return frozenset(
            sign * magnitude for magnitude in range(abs(level) + 1, self._k + 1)
        )

    def outwards_ge(self, level: int) -> FrozenSet[int]:
        """``Ψ≥(ℓ) = Ψ>(ℓ) ∪ {ℓ}``."""
        return self.strictly_outwards(level) | {level}

    def outwards_gg(self, level: int) -> FrozenSet[int]:
        """``Ψ≫(ℓ) = Ψ>(ℓ) − {ψ^{+1}(ℓ)}`` (outwards by at least two)."""
        outward = self.strictly_outwards(level)
        if abs(level) < self._k:
            return outward - {self.outwards(level, 1)}
        return outward

    def strictly_inwards(self, level: int) -> FrozenSet[int]:
        """``Ψ<(ℓ)`` — all levels strictly inwards of ``ℓ``."""
        self.require_level(level)
        sign = 1 if level > 0 else -1
        return frozenset(sign * magnitude for magnitude in range(1, abs(level)))

    def inwards_le(self, level: int) -> FrozenSet[int]:
        """``Ψ≤(ℓ) = Ψ<(ℓ) ∪ {ℓ}``."""
        return self.strictly_inwards(level) | {level}

    def inwards_ll(self, level: int) -> FrozenSet[int]:
        """``Ψ≪(ℓ) = Ψ<(ℓ) − {ψ^{-1}(ℓ)}`` (inwards by at least two)."""
        inward = self.strictly_inwards(level)
        if abs(level) > 1:
            return inward - {self.outwards(level, -1)}
        return inward

    # ------------------------------------------------------------------
    # Distance and the clock identification.
    # ------------------------------------------------------------------

    def distance(self, a: int, b: int) -> int:
        """``dist(a, b)`` — cyclic distance along the φ cycle.

        Matches the paper's recursive definition (it is the graph
        distance on the 2k-cycle induced by φ).
        """
        diff = abs(self.clock_value(a) - self.clock_value(b))
        return min(diff, self.group_order - diff)

    def clock_value(self, level: int) -> int:
        """Identify level ``ℓ`` with its clock value in ``Z_{2k}``.

        The map sends ``-k, ..., -1`` to ``0, ..., k-1`` and
        ``1, ..., k`` to ``k, ..., 2k-1``; under it, ``φ`` becomes the
        ``+1`` operation of the cyclic group ``K``.
        """
        self.require_level(level)
        if level < 0:
            return level + self._k
        return level + self._k - 1

    def level_of_clock(self, clock: int) -> int:
        """Inverse of :meth:`clock_value` (clock taken mod 2k)."""
        clock = clock % self.group_order
        if clock < self._k:
            return clock - self._k
        return clock - self._k + 1

    def __repr__(self) -> str:
        return f"<LevelSystem D={self._d} k={self._k}>"
