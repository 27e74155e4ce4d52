#!/usr/bin/env python
"""Campaign quickstart: declarative scenario sweeps at full throttle.

A *campaign* is a programmatically enumerated list of declarative
scenarios — graph family × scheduler × adversarial start × fault plan ×
engine — run through a parallel runner with JSONL
checkpointing, then folded into one deterministic aggregate artifact.
This example builds a tiny custom campaign by hand (the shipped
registries are listed by ``repro campaign list``), runs it, and prints
the aggregate report.

Run:  python examples/campaign_quickstart.py
"""

from __future__ import annotations

from repro.analysis.report import campaign_report
from repro.campaigns import (
    CampaignBuilder,
    FaultPlan,
    aggregate_results,
    build_campaign,
    run_campaign,
)


def main() -> None:
    # 1. Enumerate scenarios declaratively.  Each `add_au` call pins
    #    every axis; the builder derives one independent seed per
    #    scenario from the campaign seed, so the whole campaign is a
    #    pure function of (spec, seed) — no matter which worker runs it.
    builder = CampaignBuilder("quickstart", seed=7)
    for graph, params, d in (
        ("damaged-clique", (("n", 10), ("diameter_bound", 2), ("damage", 0.4)), 2),
        ("hub-colony", (("n", 12), ("hubs", 2)), 2),
        ("ring", (("n", 8),), 4),
    ):
        for start in ("sign-split", "all-faulty"):
            builder.add_au(graph, params, d, start=start, group=f"au@{graph}")
        # ... and one dynamic-topology scenario per family: stabilize,
        # rewire two edges under the running system, measure recovery.
        builder.add_au(
            graph,
            params,
            d,
            faults=FaultPlan(kind="rewire", remove=1, add=1),
            group=f"rewire@{graph}",
        )
    scenarios = builder.scenarios
    print(f"campaign 'quickstart': {len(scenarios)} scenarios, e.g.")
    print(f"  {scenarios[0].scenario_id}")
    print(f"  {scenarios[-1].scenario_id}")

    # 2. Run — workers=2 spreads the campaign over worker processes;
    #    the aggregates are bit-identical for any worker count.
    results = run_campaign(scenarios, workers=2)
    aggregates = aggregate_results("quickstart", scenarios, results, 7)
    print()
    print(campaign_report(aggregates))

    assert aggregates["failure_count"] == 0
    rewires = [r for s, r in zip(scenarios, results) if s.faults.kind == "rewire"]
    assert all(r.recovered for r in rewires)
    print()
    print(
        "all scenarios stabilized; every rewired network recovered "
        f"(worst case {max(r.recovery_rounds for r in rewires)} rounds)"
    )

    # 3. The shipped registries do the same at scale — try:
    #    PYTHONPATH=src python -m repro.cli campaign run --registry smoke --workers 4
    smoke = build_campaign("smoke")
    print(f"(the CI 'smoke' registry enumerates {len(smoke)} scenarios)")


if __name__ == "__main__":
    main()
