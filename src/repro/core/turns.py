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

from typing import Dict, FrozenSet, Tuple

from repro.core.levels import LevelSystem
from repro.model.errors import ModelError


class Turn:
    """One AlgAU state: a level plus the able/faulty flavor.

    The notation follows the paper: ``str(able(3)) == "3"`` (the paper's
    ``3̄``) and ``str(faulty(3)) == "^3"`` (the paper's ``3̂``).

    Turns are interned and immutable: ``Turn(level, faulty)`` returns
    the one shared instance of its ``(level, faulty)`` pair (pickling
    and copying included), so equality is identity and set and dict
    lookups never call back into Python.  The hash is
    ``hash((level, faulty))``, computed once per pair; set iteration
    order, which some outputs follow, is therefore that of the pairs.
    """

    __slots__ = ("level", "faulty", "_hash")

    level: int
    faulty: bool

    def __new__(cls, level: int, faulty: bool) -> "Turn":
        key = (level, faulty)
        turn = _INTERNED.get(key)
        if turn is None:
            turn = object.__new__(cls)
            object.__setattr__(turn, "level", level)
            object.__setattr__(turn, "faulty", faulty)
            object.__setattr__(turn, "_hash", hash(key))
            _INTERNED[key] = turn
        return turn

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an interned Turn")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an interned Turn")

    def __reduce__(self):
        return (Turn, (self.level, self.faulty))

    @property
    def able(self) -> bool:
        return not self.faulty

    def __str__(self) -> str:
        prefix = "^" if self.faulty else ""
        return f"{prefix}{self.level}"

    def __repr__(self) -> str:
        return f"Turn({self})"


#: ``(level, faulty)`` → its one :class:`Turn`.
_INTERNED: Dict[Tuple[int, bool], Turn] = {}


def able(level: int) -> Turn:
    """The able turn ``ℓ̄``."""
    return _INTERNED.get((level, False)) or Turn(level, False)


def faulty(level: int) -> Turn:
    """The faulty turn ``ℓ̂``."""
    return _INTERNED.get((level, True)) or Turn(level, True)


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
