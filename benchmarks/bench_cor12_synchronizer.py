"""Corollary 1.2 — the synchronizer: Π (synchronous) vs Π* (asynchronous).

The sweep is the ``cor12-synchronizer`` campaign.  For AlgMIS and AlgLE
it compares stabilization rounds of the synchronous original against
its synchronizer lift under an adversarial asynchronous scheduler, each
trial a seed-paired couple of rows on one graph sample, and verifies
the exact product state-space accounting
``|Q*| = |Q|^2 · (4k − 2) = O(D · |Q|^2)``.  The timed kernel is one
asynchronous Sync[AlgMIS] stabilization.
"""

from __future__ import annotations

import numpy as np
from conftest import emit, run_registry_campaign

from repro.analysis.stabilization import measure_static_task_stabilization
from repro.analysis.stats import Summary
from repro.analysis.tables import render_table
from repro.campaigns import state_count
from repro.core.algau import ThinUnison
from repro.faults.injection import random_configuration
from repro.graphs.generators import damaged_clique
from repro.model.scheduler import ShuffledRoundRobinScheduler
from repro.sync.synchronizer import Synchronizer
from repro.tasks.mis import AlgMIS
from repro.tasks.spec import output_validator

REGISTRY = "cor12-synchronizer"
D = 2


def kernel():
    rng = np.random.default_rng(0)
    topology = damaged_clique(10, D, rng, damage=0.4)
    inner = AlgMIS(D)
    wrapped = Synchronizer(inner, D)
    result = measure_static_task_stabilization(
        wrapped,
        topology,
        random_configuration(wrapped, topology, rng),
        ShuffledRoundRobinScheduler(),
        rng,
        output_validator("mis", topology),
        max_rounds=150_000,
        confirm_rounds=36,
    )
    assert result.stabilized
    return result.rounds


def test_cor12_synchronizer(benchmark):
    aggregates = run_registry_campaign(REGISTRY)
    rows = aggregates["rows"]
    trials = len({row["tags"]["trial"] for row in rows})
    # (task, n) -> {"sync": rows of Π, "async": rows of Π*}
    cells = {}
    for row in rows:
        lane = "async" if row["algorithm"].startswith("sync-") else "sync"
        n = row["graph_params"]["n"]
        cells.setdefault((row["task"], n), {"sync": [], "async": []})[lane].append(row)

    unison_states = ThinUnison(D).state_space_size()
    table_rows = []
    for (task, n), lanes in cells.items():
        sync_rounds = Summary.of([r["rounds"] for r in lanes["sync"]])
        async_rounds = Summary.of([r["rounds"] for r in lanes["async"]])
        inner_states = state_count(lanes["sync"][0])
        product_states = state_count(lanes["async"][0])
        table_rows.append(
            (task, n, sync_rounds, async_rounds, inner_states, product_states)
        )
    table = render_table(
        [
            "task",
            "n",
            "sync rounds (Π)",
            "async rounds (Π*)",
            "|Q|",
            "|Q*| = |Q|²·(12D+6)",
        ],
        [
            (task.upper(), n, str(sync), str(lifted), inner, product)
            for task, n, sync, lifted, inner, product in table_rows
        ],
        title=(
            f"Cor 1.2 — synchronizer overhead at D={D} (campaign "
            f"'{REGISTRY}': async = shuffled-round-robin, {trials} "
            f"seed-paired random-start trials); AU factor 12D+6 = "
            f"{unison_states}"
        ),
    )
    emit("cor12_synchronizer", table)

    for _, _, sync, lifted, inner, product in table_rows:
        # Exact product accounting.
        assert product == inner * inner * unison_states
        # Shape: asynchrony costs a bounded multiplicative overhead plus
        # the O(D^3) AU additive term — nowhere near, say, Ω(n) blowup.
        additive = (3 * D + 2) ** 3
        assert lifted.mean <= 6 * sync.mean + additive

    benchmark.pedantic(kernel, rounds=3, iterations=1)
