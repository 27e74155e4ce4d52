"""Turns — the states of AlgAU.

The states of AlgAU are called *turns* and come in two families
(Sec. 2.2): the **able** turns ``T = {ℓ̄ : 1 ≤ |ℓ| ≤ k}`` and the
**faulty** turns ``T̂ = {ℓ̂ : 2 ≤ |ℓ| ≤ k}``.  A turn's *level* is the
integer ``ℓ``; faulty turns form short detours off the clock cycle and
are the non-output states.

Total state count: ``|T| + |T̂| = 2k + 2(k-1) = 4k - 2 = 12D + 6``,
which is the paper's ``O(D)`` state space (Thm 1.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple

from repro.core.levels import LevelSystem
from repro.model.errors import ModelError


@dataclass(frozen=True, slots=True)
class Turn:
    """One AlgAU state: a level plus the able/faulty flavor.

    The notation follows the paper: ``str(able(3)) == "3"`` (the paper's
    ``3̄``) and ``str(faulty(3)) == "^3"`` (the paper's ``3̂``).
    """

    level: int
    faulty: bool

    @property
    def able(self) -> bool:
        return not self.faulty

    def __str__(self) -> str:
        prefix = "^" if self.faulty else ""
        return f"{prefix}{self.level}"

    def __repr__(self) -> str:
        return f"Turn({self})"


def able(level: int) -> Turn:
    """The able turn ``ℓ̄``."""
    return Turn(level=level, faulty=False)


def faulty(level: int) -> Turn:
    """The faulty turn ``ℓ̂``."""
    return Turn(level=level, faulty=True)


class TurnSystem:
    """The full turn set for a given :class:`LevelSystem`."""

    __slots__ = ("_levels", "_able", "_faulty")

    def __init__(self, levels: LevelSystem):
        self._levels = levels
        self._able: Tuple[Turn, ...] = tuple(able(level) for level in levels.levels)
        self._faulty: Tuple[Turn, ...] = tuple(
            faulty(level) for level in levels.levels if abs(level) >= 2
        )

    @property
    def levels(self) -> LevelSystem:
        return self._levels

    @property
    def able_turns(self) -> Tuple[Turn, ...]:
        """``T`` — the output states."""
        return self._able

    @property
    def faulty_turns(self) -> Tuple[Turn, ...]:
        """``T̂`` — the non-output detour states."""
        return self._faulty

    @property
    def all_turns(self) -> Tuple[Turn, ...]:
        return self._able + self._faulty

    def is_turn(self, turn: Turn) -> bool:
        if not isinstance(turn, Turn):
            return False
        if not self._levels.is_level(turn.level):
            return False
        if turn.faulty and abs(turn.level) < 2:
            return False
        return True

    def require_turn(self, turn: Turn) -> None:
        if not self.is_turn(turn):
            raise ModelError(f"{turn!r} is not a turn for k={self._levels.k}")

    def has_faulty(self, level: int) -> bool:
        """Whether the faulty turn ``ℓ̂`` exists (``|ℓ| ≥ 2``)."""
        return self._levels.is_level(level) and abs(level) >= 2

    def size(self) -> int:
        """``|Q| = 4k − 2 = 12D + 6``."""
        return len(self._able) + len(self._faulty)

    def __repr__(self) -> str:
        return f"<TurnSystem k={self._levels.k} |Q|={self.size()}>"


def levels_sensed(signal) -> FrozenSet[int]:
    """``Λ_v`` — the set of levels appearing in a turn signal."""
    return frozenset(turn.level for turn in signal)
