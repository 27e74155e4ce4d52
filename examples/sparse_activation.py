"""The incremental step pipeline, end to end.

Walks through what the dirty-neighborhood guard cache buys on sparse
asynchronous schedules:

1. round-robin stepping on a mid-size ring — incremental vs the naive
   full-recompute reference, bit-identical trajectories, with the
   pipeline's step-rate advantage printed;
2. the O(activity)-amortized quiescence API (`enabled_nodes`,
   `enabled_count`, `is_quiescent`);
3. the enabled-aware daemons (`EnabledOnlyScheduler`,
   `LocallyCentralScheduler`) driving AlgAU to stabilization on both
   engines, with identical results — the daemons choose activations
   from each engine's maintained enabled view, so agreement certifies
   the dirty-set invariant along the whole trajectory.

Run with::

    PYTHONPATH=src python examples/sparse_activation.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.algau import ThinUnison
from repro.faults.injection import random_configuration
from repro.graphs.generators import ring
from repro.model.engine import create_execution
from repro.model.scheduler import (
    EnabledOnlyScheduler,
    LocallyCentralScheduler,
    RoundRobinScheduler,
)

D = 2
N = 2_000
STEPS = 3_000


def build(topology, initial, scheduler, engine="array", **kwargs):
    return create_execution(
        topology,
        ThinUnison(D),
        initial,
        scheduler,
        rng=np.random.default_rng(1),
        engine=engine,
        **kwargs,
    )


def main() -> None:
    algorithm = ThinUnison(D)
    topology = ring(N)
    initial = random_configuration(algorithm, topology, np.random.default_rng(0))

    # ------------------------------------------------------------------
    # 1. Sparse stepping: incremental pipeline vs naive reference.
    # ------------------------------------------------------------------
    print(
        f"== incremental pipeline vs naive reference "
        f"(ring n={N}, round-robin, {STEPS} steps) =="
    )
    rates = {}
    streams = {}
    for incremental in (True, False):
        execution = build(
            topology, initial, RoundRobinScheduler(), incremental=incremental
        )
        execution.step()  # warm caches
        start = time.perf_counter()
        records = [execution.step() for _ in range(STEPS)]
        rates[incremental] = STEPS / (time.perf_counter() - start)
        streams[incremental] = [
            (r.activated, r.changed, r.completed_round) for r in records
        ]
    assert streams[True] == streams[False], "pipelines diverged!"
    print(f"  naive       : {rates[False]:10,.0f} steps/s  (re-derives δ per step)")
    print(
        f"  incremental : {rates[True]:10,.0f} steps/s  "
        f"({rates[True] / rates[False]:.1f}x, bit-identical records)"
    )

    # ------------------------------------------------------------------
    # 2. Quiescence detection.
    # ------------------------------------------------------------------
    print("\n== enabled-set view (O(activity) amortized) ==")
    execution = build(topology, initial, RoundRobinScheduler())
    execution.step()
    print(f"  after one step: {execution.enabled_count()} of {N} nodes enabled")
    print(
        f"  is_quiescent() = {execution.is_quiescent()} "
        "(unison never quiesces: a good graph keeps pulsing)"
    )

    # ------------------------------------------------------------------
    # 3. Enabled-aware daemons on both engines.
    # ------------------------------------------------------------------
    print("\n== enabled-aware daemons (small ring, both engines) ==")
    small = ring(24)
    small_initial = random_configuration(algorithm, small, np.random.default_rng(3))
    for name, factory in (
        ("enabled-only", EnabledOnlyScheduler),
        ("locally-central", LocallyCentralScheduler),
    ):
        outcomes = {}
        for engine in ("object", "array"):
            execution = build(small, small_initial, factory(), engine=engine)
            result = execution.run(
                max_rounds=100_000, until=lambda e: e.graph_is_good()
            )
            assert result.stopped_by_predicate
            outcomes[engine] = (execution.completed_rounds, execution.t)
        assert outcomes["object"] == outcomes["array"], outcomes
        rounds, steps = outcomes["object"]
        print(
            f"  {name:>15}: stabilized in {rounds} rounds / {steps} steps "
            "(object == array, daemon fed by each engine's enabled view)"
        )

    print(
        "\nThe daemons' engine-agreement is the sharpest end-to-end check "
        "of the dirty-set invariant: a stale enabled view would change "
        "the schedule itself."
    )


if __name__ == "__main__":
    main()
