"""The algorithm-zoo Pareto frontier — Sec. 5's comparison as a gate.

The paper positions AlgAU on a three-way trade: stabilization *time*
(rounds), *space* (exact bits per node from the declared state space),
and *work* (total moves), bought without giving up full asynchronous
self-stabilization.  The ``pareto-unison`` campaign runs every unison
baseline — AlgAU, the reset-tail [BPV04]-style comparator (both engine
lanes, seed-paired), unbounded min-unison, and the Figure 2 strawman —
across three graph families and two daemons, and the aggregation folds
each ``family × daemon`` cell into per-algorithm metrics plus a
non-dominated frontier over ``(rounds, state_bits, moves)`` minimized
and declared axis ``coverage`` maximized (see
:func:`repro.campaigns.aggregate.compute_pareto` for why the
generality axis is load-bearing: from benign random starts the
strawman wins all three measured axes *because* it dropped the rule
that buys self-stabilization).

This benchmark gates:

* the campaign is failure-free and its aggregates are bit-identical
  between 1 worker and ``CAMPAIGN_WORKERS`` workers;
* the engine-paired rows (thin-unison and reset-tail-unison run on
  both the object and array engines under shared seeds) agree on
  every measured column — the reset-tail vectorized lane's standing
  differential;
* every cell carries {rounds, state_bits, moves} for each stabilized
  algorithm, state bits are exact (reset-tail < thin-unison < the
  12D+6 bound; min-unison unbounded);
* every ``family × daemon`` frontier is non-empty and contains
  thin-unison — the paper's algorithm is never dominated once
  generality is priced in.

Persists ``BENCH_pareto_unison.json`` (per-cell metrics + frontiers).
The timed kernel is one full campaign run plus aggregation.
"""

from __future__ import annotations

import math
import os

from conftest import CAMPAIGN_WORKERS, emit

from repro.analysis.tables import render_table, results_dir, write_json
from repro.campaigns import (
    aggregate_results,
    build_campaign,
    run_campaign,
    verify_engine_pairing,
)
from repro.campaigns.registry import PARETO_ALGORITHMS, PARETO_GRAPHS
from repro.core.algau import ThinUnison

PAIRED = tuple(name for name, engines in PARETO_ALGORITHMS if len(engines) > 1)
DAEMONS = ("synchronous", "shuffled-round-robin")


def _run(workers: int) -> dict:
    scenarios = build_campaign("pareto-unison")
    results = run_campaign(scenarios, workers=workers)
    return aggregate_results("pareto-unison", scenarios, results, 0)


def kernel():
    aggregates = _run(workers=1)
    assert aggregates["failure_count"] == 0


def test_pareto_unison(benchmark):
    solo = _run(workers=1)
    sharded = _run(workers=CAMPAIGN_WORKERS)
    assert solo["failure_count"] == 0, solo["failures"]
    # Worker-count determinism, bit for bit (moves and state_bits
    # included — they ride the same aggregation as rounds).
    assert solo == sharded

    # The reset-tail array lane and thin-unison's engines agree on
    # every measured column within each seed pairing.
    paired_rows = [r for r in solo["rows"] if r["algorithm"] in PAIRED]
    assert paired_rows
    mismatches = verify_engine_pairing(paired_rows)
    assert mismatches == [], mismatches

    pareto = solo["pareto"]
    assert len(pareto) == len(PARETO_GRAPHS) * len(DAEMONS)
    algorithms = [name for name, _ in PARETO_ALGORITHMS]
    table_rows = []
    for key, cell in sorted(pareto.items()):
        frontier = cell["frontier"]
        assert frontier, key
        # The paper's algorithm is never dominated once declared
        # generality joins time/space/work on the axes.
        assert "thin-unison" in frontier, (key, frontier)
        assert sorted(cell["cells"]) == sorted(algorithms)
        for name, summary in cell["cells"].items():
            assert summary["stabilized"] == summary["rows"], (key, name)
            assert summary["rounds"] is not None
            assert summary["moves"] is not None and summary["moves"] > 0
            if name == "min-unison":
                assert summary["state_bits"] is None
            else:
                assert summary["state_bits"] > 0
            table_rows.append(
                (
                    key,
                    name,
                    f"{summary['rounds']:.1f}",
                    (
                        f"{summary['state_bits']:.2f}"
                        if summary["state_bits"] is not None
                        else "unbounded"
                    ),
                    f"{summary['moves']:.1f}",
                    str(summary["coverage"]),
                    "*" if name in frontier else "",
                )
            )
        # Exact state-bits ordering at this cell's diameter bound:
        # 4D+2 < 8D+6 < 12D+6.
        bits = {n: cell["cells"][n]["state_bits"] for n in algorithms}
        assert (
            bits["failed-reset-unison"]
            < bits["reset-tail-unison"]
            < bits["thin-unison"]
        ), key

    # Thin-unison's measured bits match the declared formula exactly on
    # every family (log2 |Q| with the registry's diameter bounds).
    for graph, _, d in PARETO_GRAPHS:
        for daemon in DAEMONS:
            cell = pareto[f"{graph}|{daemon}"]
            assert cell["cells"]["thin-unison"]["state_bits"] == (
                math.log2(ThinUnison(d).state_space_size())
            ), (graph, daemon)

    table = render_table(
        ["cell", "algorithm", "rounds", "bits/node", "moves", "coverage", "frontier"],
        table_rows,
        title=(
            "Pareto frontier — unison zoo over "
            f"{len(PARETO_GRAPHS)} families x {len(DAEMONS)} daemons "
            "(* = non-dominated)"
        ),
    )
    emit("pareto_unison", table)
    path = write_json(
        os.path.join(results_dir(), "BENCH_pareto_unison.json"),
        {
            "campaign": "pareto-unison",
            "scenario_count": solo["scenario_count"],
            "pareto": pareto,
        },
    )
    print(f"[saved to {path}]")

    benchmark.pedantic(kernel, rounds=2, iterations=1)
