"""The message-passing deployment runtime — sim-vs-net as a gate.

The ``repro.net`` subsystem re-executes AlgAU as node actors
exchanging constant-size clock messages over fair-lossy links, with
every message in flight on one virtual-time event heap.  Its standing
contract (``docs/net-runtime.md``) is differential: under
zero-delay/zero-loss links the runtime's trajectory — and therefore
every measured campaign column — is bit-identical to the ``array``
simulation engine, and under noisy links stabilization slows boundedly
but never fails (fair-lossy links bound drop streaks, so the paper's
fairness assumptions keep holding).

This benchmark gates:

* the ``net-smoke`` campaign is failure-free and its aggregates are
  bit-identical between 1 worker and ``CAMPAIGN_WORKERS`` workers;
* every sim/net pairing agrees on every measured column (the zero-loss
  sim-vs-net agreement assertion);
* a loss sweep on the ring cell stabilizes at every rate with bounded
  slowdown, reporting messages per node-round alongside.

Persists ``BENCH_net_runtime.json`` (pairing verdict + loss sweep).
The timed kernel is one full net-smoke campaign run plus aggregation.
"""

from __future__ import annotations

import os

import numpy as np
from conftest import CAMPAIGN_WORKERS, emit

from repro.analysis.tables import render_table, results_dir, write_json
from repro.campaigns import (
    aggregate_results,
    build_campaign,
    run_campaign,
    verify_engine_pairing,
)
from repro.core.algau import ThinUnison
from repro.faults.injection import random_configuration
from repro.graphs.generators import ring
from repro.model.scheduler import SynchronousScheduler
from repro.net import LinkConfig, NetExecution

#: The loss sweep measured on the ring cell (rate → slowdown bound: a
#: net run at that loss rate must stabilize within this multiple of the
#: zero-loss round count — generous because drops delay propagation by
#: whole slots on a D=6 ring).
LOSS_RATES = (0.0, 0.1, 0.3)
SLOWDOWN_BOUND = 20.0


def _run(workers: int) -> dict:
    scenarios = build_campaign("net-smoke")
    results = run_campaign(scenarios, workers=workers)
    return aggregate_results("net-smoke", scenarios, results, 0)


def _loss_sweep() -> list:
    topology = ring(12)
    algorithm = ThinUnison(6)
    initial = random_configuration(
        algorithm, topology, np.random.default_rng(1)
    )
    rows = []
    for loss in LOSS_RATES:
        execution = NetExecution(
            topology,
            ThinUnison(6),
            initial,
            SynchronousScheduler(),
            rng=np.random.default_rng(2),
            link_config=LinkConfig(loss=loss),
            noise_seed=5,
        )
        execution.run(max_rounds=4000, until=lambda e: e.graph_is_good())
        assert execution.graph_is_good(), f"loss={loss} did not stabilize"
        stats = execution.stats
        rows.append(
            {
                "loss": loss,
                "rounds": execution.completed_rounds,
                "messages_sent": stats.messages_sent,
                "messages_dropped": stats.messages_dropped,
                "messages_per_node_round": stats.per_node_round(
                    topology.n, max(1, execution.completed_rounds)
                ),
            }
        )
    return rows


def kernel():
    aggregates = _run(workers=1)
    assert aggregates["failure_count"] == 0


def test_net_runtime(benchmark):
    solo = _run(workers=1)
    pooled = _run(workers=CAMPAIGN_WORKERS)
    assert solo["failure_count"] == 0, solo["failures"]
    assert [r["scenario_id"] for r in solo["rows"] if r["status"]] == []
    # Worker-count determinism, bit for bit.
    assert solo == pooled

    # The zero-loss sim-vs-net agreement assertion: every pairing
    # bit-identical across the sim and net lanes on every measured
    # column (the unpaired rows are the deliberate lossy-link cells).
    mismatches = verify_engine_pairing(solo["rows"], allow_unpaired=True)
    assert mismatches == [], mismatches
    paired_net = [
        r
        for r in solo["rows"]
        if r["runtime"] == "net" and "pairing" in r["tags"]
    ]
    assert paired_net, "net-smoke lost its net lane"

    # Loss sweep: stabilization at every rate, bounded slowdown.
    sweep = _loss_sweep()
    baseline = sweep[0]["rounds"]
    table_rows = []
    for row in sweep:
        assert row["rounds"] <= SLOWDOWN_BOUND * baseline, row
        if row["loss"] == 0.0:
            assert row["messages_dropped"] == 0
        table_rows.append(
            (
                f"{row['loss']:.1f}",
                row["rounds"],
                f"{row['rounds'] / baseline:.2f}x",
                row["messages_sent"],
                row["messages_dropped"],
                f"{row['messages_per_node_round']:.2f}",
            )
        )

    table = render_table(
        ["loss", "rounds", "slowdown", "sent", "dropped", "msgs/node-round"],
        table_rows,
        title=(
            "Net runtime — ring(n=12, D=6) time-to-stabilize vs loss "
            f"(paired cells: {len(paired_net)}, all bit-identical to sim)"
        ),
    )
    emit("net_runtime", table)
    path = write_json(
        os.path.join(results_dir(), "BENCH_net_runtime.json"),
        {
            "campaign": "net-smoke",
            "scenario_count": solo["scenario_count"],
            "pairing_mismatches": mismatches,
            "paired_net_rows": len(paired_net),
            "loss_sweep": sweep,
        },
    )
    print(f"[saved to {path}]")

    benchmark.pedantic(kernel, rounds=2, iterations=1)
