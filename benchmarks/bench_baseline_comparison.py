"""Baseline B1 — AlgAU vs prior unison approaches (Sec. 5 comparison).

Three unison algorithms on the same workloads:

* **AlgAU** (this paper): reset-free, ``12D + 6`` states;
* **MinUnison** ([AKM+93]-style): fast but *unbounded* state space;
* **ResetTailUnison** ([BPV04]-style): bounded states via a reset wave
  plus a synchronization tail (state count grows with the tail).

The table reports exact state counts and stabilization rounds from
random adversarial starts — the paper's point: AlgAU is the only one
whose state space is both bounded and a function of ``D`` alone.

The timed kernel runs the three algorithms once each on the shared
instance.
"""

from __future__ import annotations

import numpy as np
from conftest import emit

from repro.analysis.stabilization import settle
from repro.analysis.stats import Summary
from repro.analysis.tables import render_table
from repro.baselines.min_unison import MinUnison, min_unison_stable
from repro.baselines.reset_tail_unison import ResetTailUnison, reset_tail_stable
from repro.core.algau import ThinUnison
from repro.faults.injection import random_configuration
from repro.graphs.generators import damaged_clique
from repro.model.engine import graph_is_good
from repro.model.execution import Execution
from repro.model.scheduler import ShuffledRoundRobinScheduler

TRIALS = 8
D = 2


def make_topology(rng):
    return damaged_clique(12, D, rng, damage=0.4)


def run_unison(name, rng, topology):
    """Stabilization round of one random start (``None`` if the budget
    ran out) and the algorithm's state count."""
    if name == "AlgAU":
        algorithm = ThinUnison(D)
        stable = graph_is_good
        states = str(algorithm.state_space_size())
    elif name == "MinUnison":
        algorithm = MinUnison(initial_spread=24)

        def stable(e):
            return min_unison_stable(e.configuration)

        states = "unbounded"
    else:
        algorithm = ResetTailUnison.for_diameter_bound(D)

        def stable(e):
            return reset_tail_stable(algorithm, e.configuration)

        states = str(algorithm.state_space_size())
    execution = Execution(
        topology,
        algorithm,
        random_configuration(algorithm, topology, rng),
        ShuffledRoundRobinScheduler(),
        rng=rng,
    )
    return settle(execution, stable, 50_000), states


def kernel():
    rng = np.random.default_rng(0)
    topology = make_topology(rng)
    for name in ("AlgAU", "MinUnison", "ResetTail"):
        rounds, _ = run_unison(name, np.random.default_rng(1), topology)
        assert rounds is not None


def test_baseline_comparison(benchmark):
    rows = []
    for name in ("AlgAU", "MinUnison", "ResetTail"):
        rounds = []
        stabilized = 0
        states = "?"
        for trial in range(TRIALS):
            rng = np.random.default_rng(trial)
            topology = make_topology(rng)
            r, states = run_unison(name, rng, topology)
            if r is not None:
                stabilized += 1
                rounds.append(r)
        rows.append(
            (
                name,
                states,
                f"{stabilized}/{TRIALS}",
                str(Summary.of(rounds)) if rounds else "-",
            )
        )
        assert stabilized == TRIALS, f"{name} failed to stabilize"

    table = render_table(
        ["algorithm", "states", "stabilized", "rounds"],
        rows,
        title=(
            f"Baseline B1 — unison comparison on damaged cliques "
            f"(n=12, D={D}, asynchronous scheduler, {TRIALS} random "
            "starts).  Only AlgAU has a bounded state space that is a "
            "function of D alone (Sec. 5)."
        ),
    )
    emit("baseline_comparison", table)

    benchmark.pedantic(kernel, rounds=2, iterations=1)
