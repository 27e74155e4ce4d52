"""Table 1 — the transition types of AlgAU.

Regenerates the table from the *implemented* transition function by
exhaustively classifying ``δ`` over every (turn, signal) pair of a small
instance; the claim (``TABLE1`` in :mod:`repro.analysis.claims`) checks
that exactly the three families of Table 1 occur with exactly the
paper's guard semantics.  The timed kernel is the exhaustive
classification sweep — the hot path of every simulation step.
"""

from __future__ import annotations

from conftest import check_claim

from repro.analysis.claims import TABLE1, TABLE1_DIAMETER_BOUND, classify_all
from repro.core.algau import ThinUnison


def test_table1_regeneration(benchmark):
    benchmark(classify_all, ThinUnison(TABLE1_DIAMETER_BOUND))
    check_claim(TABLE1)
