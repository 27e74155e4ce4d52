"""Permanent-fault containment — the radius-vs-density curve.

Dubois et al. (self-stabilizing Byzantine unison) show that unison-style
clocks *contain* permanently Byzantine nodes: disruption stays within a
bounded hop radius of the faulty set while everything farther away
stabilizes.  This benchmark reproduces that behavior for AlgAU with the
:mod:`repro.resilience` subsystem:

* sweep two large-hop-distance graph families x three Byzantine
  strategies (frozen clock, random clock, the potential-maximizing
  targeted adversary) x three fault densities, three seeded trials
  each;
* measure the *stable containment radius* (worst radius over a
  trailing confirmation window — disruption travels in waves, so a
  single clean instant is not containment) and the per-node recovery
  round as a function of hop distance from the nearest faulty node;
* assert containment: in every cell most trials end with correct
  nodes strictly beyond the stable radius (the disruption never
  engulfs the graph), and every node beyond the radius is settled;
* cross-check one cell on the object engine: the permanent-fault
  machinery must be bit-identical across backends.

Persists ``BENCH_byzantine_containment.json`` (the curve and the
recovery-by-distance table).  The timed kernel is one containment
measurement on the vectorized engine.
"""

from __future__ import annotations

import os

import numpy as np
from conftest import emit

from repro.analysis.containment import measure_containment
from repro.analysis.tables import render_table, results_dir, write_json
from repro.core.algau import ThinUnison
from repro.faults.injection import random_configuration
from repro.graphs.generators import caterpillar, ring
from repro.model.scheduler import ShuffledRoundRobinScheduler
from repro.resilience import make_strategy, select_faulty_nodes

FAMILIES = (
    ("ring-24", lambda: ring(24), 12),
    ("caterpillar-8", lambda: caterpillar(8, 1), 9),
)
STRATEGIES = ("frozen", "random", "targeted")
DENSITIES = (0.05, 0.1, 0.2)
TRIALS = 3
ROUNDS = 250
CONFIRM = 40


def _measure(topology, diameter_bound, strategy, density, seed, engine="array"):
    rng = np.random.default_rng(seed)
    algorithm = ThinUnison(diameter_bound)
    initial = random_configuration(algorithm, topology, rng)
    faulty = select_faulty_nodes(topology, density, rng)
    return measure_containment(
        algorithm,
        topology,
        initial,
        ShuffledRoundRobinScheduler(),
        rng,
        faulty,
        make_strategy(strategy),
        rounds=ROUNDS,
        confirm_rounds=CONFIRM,
        engine=engine,
    )


def kernel():
    measurement = _measure(ring(24), 12, "random", 0.1, seed=0)
    assert measurement.rounds == ROUNDS


def test_byzantine_containment(benchmark):
    rows = []
    recovery_curves = {}
    for family, build, diameter_bound in FAMILIES:
        topology = build()
        for strategy in STRATEGIES:
            pooled_recovery = {}
            for density in DENSITIES:
                cell = []
                for trial in range(TRIALS):
                    m = _measure(topology, diameter_bound, strategy, density, trial)
                    # Every node beyond the stable radius was clean
                    # throughout the confirmation window — "nodes
                    # beyond the radius stabilize", by measurement.
                    for v, d in enumerate(m.distances):
                        if d > m.stable_radius:
                            assert m.settled(v), (family, strategy, density, trial, v)
                    for d, stats in m.recovery_by_distance().items():
                        bucket = pooled_recovery.setdefault(
                            d, {"nodes": 0, "settled": 0, "recoveries": []}
                        )
                        bucket["nodes"] += stats["nodes"]
                        bucket["settled"] += stats["settled"]
                        if stats["max_recovery_rounds"] is not None:
                            bucket["recoveries"].append(stats["mean_recovery_rounds"])
                    cell.append(m)
                    rows.append(
                        {
                            "family": family,
                            "strategy": strategy,
                            "density": density,
                            "trial": trial,
                            "faulty_count": len(m.faulty_nodes),
                            "stable_radius": m.stable_radius,
                            "max_distance": m.max_distance,
                            "contained": m.contained,
                            "clean_fraction": round(m.clean_fraction(), 4),
                        }
                    )
                # Containment, cell-wise: disruption may engulf an
                # unlucky trial's window, but never the majority.
                contained = sum(1 for m in cell if m.contained)
                assert contained >= 2, (family, strategy, density, contained)
            recovery_curves[f"{family}/{strategy}"] = {
                str(d): {
                    "nodes": bucket["nodes"],
                    "settled": bucket["settled"],
                    "mean_recovery_rounds": (
                        round(float(np.mean(bucket["recoveries"])), 2)
                        if bucket["recoveries"]
                        else None
                    ),
                }
                for d, bucket in sorted(pooled_recovery.items())
            }

    # Pooled finite-containment claim per family x strategy: the mean
    # stable radius sits strictly inside the mean farthest distance.
    for family, _, _ in FAMILIES:
        for strategy in STRATEGIES:
            pool = [
                r
                for r in rows
                if r["family"] == family and r["strategy"] == strategy
            ]
            mean_radius = float(np.mean([r["stable_radius"] for r in pool]))
            mean_span = float(np.mean([r["max_distance"] for r in pool]))
            assert mean_radius < mean_span, (family, strategy, mean_radius, mean_span)
            assert sum(r["contained"] for r in pool) >= 2 * len(pool) / 3

    # Differential cross-check: the object engine reproduces one cell
    # of the sweep bit for bit (same seed, same adversary draws).
    reference = _measure(ring(24), 12, "random", 0.1, seed=1, engine="array")
    counterpart = _measure(ring(24), 12, "random", 0.1, seed=1, engine="object")
    assert reference == counterpart

    table_rows = []
    for family, _, _ in FAMILIES:
        for strategy in STRATEGIES:
            for density in DENSITIES:
                cell = [
                    r
                    for r in rows
                    if r["family"] == family
                    and r["strategy"] == strategy
                    and r["density"] == density
                ]
                table_rows.append(
                    (
                        family,
                        strategy,
                        f"{density:.2f}",
                        str([r["stable_radius"] for r in cell]),
                        str([r["max_distance"] for r in cell]),
                        f"{sum(r['contained'] for r in cell)}/{TRIALS}",
                    )
                )
    table = render_table(
        ["family", "strategy", "density", "radius (3 trials)", "max dist", "contained"],
        table_rows,
        title=(
            "Byzantine containment — stable radius vs fault density "
            f"({ROUNDS} rounds, {CONFIRM}-round confirmation window)"
        ),
    )
    emit("byzantine_containment", table)
    path = write_json(
        os.path.join(results_dir(), "BENCH_byzantine_containment.json"),
        {
            "rounds": ROUNDS,
            "confirm_rounds": CONFIRM,
            "curve": rows,
            "recovery_by_distance": recovery_curves,
        },
    )
    print(f"[saved to {path}]")

    benchmark.pedantic(kernel, rounds=2, iterations=1)
