"""Tests for the turn (state) structure of AlgAU."""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.core.levels import LevelSystem
from repro.core.turns import (
    Turn,
    TurnSystem,
    able,
    faulty,
    levels_sensed,
)
from repro.model.errors import ModelError
from repro.model.signal import Signal


@pytest.fixture
def turns_d1() -> TurnSystem:
    return TurnSystem(LevelSystem(1))


class TestTurnBasics:
    def test_able_and_faulty_constructors(self):
        assert able(3) == Turn(3, False)
        assert faulty(-2) == Turn(-2, True)

    def test_string_notation(self):
        assert str(able(4)) == "4"
        assert str(faulty(4)) == "^4"
        assert str(faulty(-4)) == "^-4"

    def test_turns_hashable_and_comparable(self):
        assert able(2) == able(2)
        assert able(2) != faulty(2)
        assert len({able(1), able(1), faulty(2)}) == 2


class TestTurnSystem:
    def test_counts(self, turns_d1):
        # k = 5: able = 2k = 10, faulty = 2(k-1) = 8, total 18 = 12D + 6.
        assert len(turns_d1.able_turns) == 10
        assert len(turns_d1.faulty_turns) == 8
        assert turns_d1.size() == 18

    def test_size_formula_12d_plus_6(self):
        for d in range(1, 9):
            system = TurnSystem(LevelSystem(d))
            assert system.size() == 12 * d + 6

    def test_no_faulty_turn_at_level_one(self, turns_d1):
        assert not turns_d1.is_turn(faulty(1))
        assert not turns_d1.is_turn(faulty(-1))
        assert not turns_d1.has_faulty(1)
        assert turns_d1.has_faulty(2)

    def test_require_turn_rejects_foreign_levels(self, turns_d1):
        with pytest.raises(ModelError):
            turns_d1.require_turn(able(6))
        with pytest.raises(ModelError):
            turns_d1.require_turn(faulty(-1))

    def test_all_turns_is_union(self, turns_d1):
        assert set(turns_d1.all_turns) == set(turns_d1.able_turns) | set(
            turns_d1.faulty_turns
        )


class TestInternedTurns:
    """``Turn(level, faulty)`` is one shared instance per pair, hashed
    like the pair itself."""

    @pytest.mark.parametrize("d", range(1, 10))
    def test_every_turn_is_interned_and_hashed_as_its_pair(self, d):
        system = TurnSystem(LevelSystem(d))
        for turn in system.all_turns:
            make = faulty if turn.faulty else able
            assert make(turn.level) is make(turn.level) is turn
            assert Turn(turn.level, turn.faulty) is turn
            assert Turn(level=turn.level, faulty=turn.faulty) is turn
            assert hash(turn) == hash((turn.level, turn.faulty))
        for level in system.levels.levels:
            assert able(level) is able(level)
            if system.has_faulty(level):
                assert faulty(level) is faulty(level)

    @pytest.mark.parametrize("d", [1, 3, 9])
    def test_set_iteration_order_is_that_of_the_pairs(self, d):
        turns = TurnSystem(LevelSystem(d)).all_turns
        rng = np.random.default_rng(d)
        for _ in range(50):
            picks = [turns[i] for i in rng.integers(0, len(turns), rng.integers(1, 40))]
            pairs = [(t.level, t.faulty) for t in picks]
            assert [(t.level, t.faulty) for t in set(picks)] == list(set(pairs))
            assert [(t.level, t.faulty) for t in frozenset(picks)] == list(
                frozenset(pairs)
            )

    def test_pickle_and_copy_return_the_interned_turn(self):
        for turn in TurnSystem(LevelSystem(4)).all_turns:
            for clone in (
                pickle.loads(pickle.dumps(turn)),
                copy.copy(turn),
                copy.deepcopy(turn),
            ):
                assert clone == turn and hash(clone) == hash(turn)
                assert clone is turn

    def test_turns_are_immutable(self):
        turn = able(2)
        with pytest.raises(AttributeError):
            turn.level = 3
        with pytest.raises(AttributeError):
            del turn.faulty
        assert able(2).level == 2


class TestSignalHelpers:
    def test_levels_sensed(self):
        signal = Signal((able(3), faulty(3), able(-1)))
        assert levels_sensed(signal) == {3, -1}
