"""Dense integer encoding of AlgAU turns for the array engine.

The vectorized execution backend represents a configuration as an
``np.ndarray`` of integer *turn codes* instead of a tuple of
:class:`~repro.core.turns.Turn` objects.  The layout (for a
:class:`~repro.core.levels.LevelSystem` with parameter ``k``) is:

========================  ==========================================
code range                turn
========================  ==========================================
``0 .. 2k-1``             the able turn ``ℓ̄`` with clock value equal
                          to the code (``code = clock_value(ℓ)``), so
                          the AA successor of code ``c`` is simply
                          ``(c + 1) mod 2k``
``2k .. 4k-3``            the faulty turns ``ℓ̂`` (``|ℓ| ≥ 2``),
                          ordered by the clock value of their level
========================  ==========================================

Total: ``4k - 2 = |Q|`` codes, matching
:meth:`~repro.core.turns.TurnSystem.size`.  Placing the able codes
first and identifying them with clock values keeps every kernel lookup
in :mod:`repro.core.algau_vec` a plain table gather, and makes a
sensed-code set trivially splittable into its able (codes below
``2k``) and faulty (codes ``2k`` and up) halves.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.core.turns import Turn, TurnSystem, able, faulty
from repro.model.errors import ModelError


class TurnEncoding:
    """Bijection between the turns of a :class:`TurnSystem` and the
    dense codes ``0 .. |Q|-1`` described in the module docstring."""

    __slots__ = (
        "_turns",
        "_turn_table",
        "_code_map",
        "_level_of_code",
        "_clock_of_code",
        "_is_faulty_code",
        "_faulty_code_of_clock",
    )

    def __init__(self, turns: TurnSystem):
        self._turns = turns
        levels = turns.levels
        num_clocks = levels.group_order  # 2k
        able_part = tuple(
            able(levels.level_of_clock(clock)) for clock in range(num_clocks)
        )
        faulty_levels = sorted(
            (level for level in levels.levels if abs(level) >= 2),
            key=levels.clock_value,
        )
        faulty_part = tuple(faulty(level) for level in faulty_levels)
        self._turn_table: Tuple[Turn, ...] = able_part + faulty_part
        self._code_map: Dict[Turn, int] = {
            turn: code for code, turn in enumerate(self._turn_table)
        }
        self._level_of_code = np.array(
            [turn.level for turn in self._turn_table], dtype=np.int64
        )
        self._clock_of_code = np.array(
            [levels.clock_value(turn.level) for turn in self._turn_table],
            dtype=np.int64,
        )
        self._is_faulty_code = np.array(
            [turn.faulty for turn in self._turn_table], dtype=bool
        )
        # Clock -> faulty code (or -1 where no faulty turn exists, i.e.
        # levels with |ℓ| = 1).  Each level has at most one faulty turn,
        # so the map is injective where defined.
        faulty_code_of_clock = np.full(num_clocks, -1, dtype=np.int64)
        for code in range(num_clocks, len(self._turn_table)):
            faulty_code_of_clock[self._clock_of_code[code]] = code
        self._faulty_code_of_clock = faulty_code_of_clock

    # ------------------------------------------------------------------
    # Parameters.
    # ------------------------------------------------------------------

    @property
    def turns(self) -> TurnSystem:
        return self._turns

    @property
    def size(self) -> int:
        """``|Q| = 4k - 2``."""
        return len(self._turn_table)

    @property
    def num_clocks(self) -> int:
        """``2k`` — able codes are exactly ``0 .. num_clocks - 1``."""
        return self._turns.levels.group_order

    @property
    def turn_table(self) -> Tuple[Turn, ...]:
        """Code → :class:`Turn` lookup (index with an int code)."""
        return self._turn_table

    # Kernel lookup tables (read-only views).

    @property
    def level_of_code(self) -> np.ndarray:
        return self._level_of_code

    @property
    def clock_of_code(self) -> np.ndarray:
        return self._clock_of_code

    @property
    def is_faulty_code(self) -> np.ndarray:
        return self._is_faulty_code

    @property
    def faulty_code_of_clock(self) -> np.ndarray:
        """Clock value → code of that level's faulty turn, or ``-1``."""
        return self._faulty_code_of_clock

    # ------------------------------------------------------------------
    # Scalar round trips.
    # ------------------------------------------------------------------

    def encode(self, turn: Turn) -> int:
        """The dense code of ``turn`` (raises on foreign turns)."""
        code = self._code_map.get(turn)
        if code is None:
            raise ModelError(f"{turn!r} is not a turn for k={self._turns.levels.k}")
        return code

    def decode(self, code: int) -> Turn:
        """The turn carried by ``code``."""
        if not 0 <= code < len(self._turn_table):
            raise ModelError(
                f"code {code} out of range for |Q|={len(self._turn_table)}"
            )
        return self._turn_table[int(code)]

    # ------------------------------------------------------------------
    # Configuration round trips.
    # ------------------------------------------------------------------

    def encode_configuration(self, configuration) -> np.ndarray:
        """Code vector (node order ``0 .. n-1``) of a
        :class:`~repro.model.configuration.Configuration`."""
        code_map = self._code_map
        try:
            return np.array(
                [code_map[turn] for turn in configuration.states()],
                dtype=np.int64,
            )
        except KeyError as error:
            raise ModelError(
                f"{error.args[0]!r} is not a turn for "
                f"k={self._turns.levels.k}"
            ) from None

    def decode_configuration(self, topology, codes: np.ndarray):
        """Rebuild the object-model
        :class:`~repro.model.configuration.Configuration` from a code
        vector."""
        from repro.model.configuration import Configuration

        if len(codes) != topology.n:
            raise ModelError(
                f"code vector has length {len(codes)}, topology has "
                f"{topology.n} nodes"
            )
        codes = np.asarray(codes)
        if codes.size and (codes.min() < 0 or codes.max() >= self.size):
            raise ModelError(f"code vector contains values outside 0..{self.size - 1}")
        table = self._turn_table
        return Configuration._from_state_tuple(
            topology, tuple(table[int(code)] for code in codes)
        )

    def __repr__(self) -> str:
        return f"<TurnEncoding k={self._turns.levels.k} |Q|={self.size}>"
