"""Figure 1 — the turn/transition diagram of AlgAU.

Extracts the diagram from the implemented ``δ`` (the AA 2k-cycle, the
AF detours, the FA returns); the claim (``FIGURE1`` in
:mod:`repro.analysis.claims`) verifies its structure against the figure
and prints the text rendering, and this benchmark also persists the DOT
source.  The timed kernel is the diagram extraction (probing δ per
turn).
"""

from __future__ import annotations

from conftest import check_claim

from repro.analysis.claims import FIGURE1, FIGURE1_DIAMETER_BOUND
from repro.analysis.tables import persist_table
from repro.core.algau import ThinUnison
from repro.viz.state_diagram import state_diagram, to_dot


def test_figure1_regeneration(benchmark):
    diagram = benchmark(state_diagram, ThinUnison(FIGURE1_DIAMETER_BOUND))
    check_claim(FIGURE1)
    persist_table("fig1_state_diagram_dot", "```dot\n" + to_dot(diagram) + "\n```")
