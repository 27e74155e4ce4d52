"""One-shot reproduction report.

:func:`generate_report` runs a (configurable-size) version of every
paper claim and assembles a single markdown document — the "does the
whole reproduction hold together?" artifact, exposed on the command
line as ``repro report``.  The scaling and recovery sections run the
same campaign registries as the benchmarks under ``benchmarks/``,
restricted to their first ``trials`` trials, so the report stays small
while the benchmarks are the full-resolution versions of the tables.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.stats import (
    Summary,
    geometric_max_statistics,
    loglog_slope,
    ratio_to_log,
)
from repro.analysis.tables import render_table
from repro.campaigns import (
    aggregate_results,
    build_campaign,
    fold_worst_rounds,
    run_campaign,
    state_count,
    sweep_summaries,
)
from repro.core.algau import ThinUnison
from repro.tasks.restart import restart_exit_time
from repro.viz.state_diagram import state_diagram, verify_figure1_structure


@dataclass
class ReportSection:
    title: str
    body: str
    passed: bool


def _figure1_section(diameter_bound: int) -> ReportSection:
    algorithm = ThinUnison(diameter_bound)
    diagram = state_diagram(algorithm)
    problems = verify_figure1_structure(diagram, algorithm.levels.k)
    body = (
        f"{len(diagram.turns)} turns, {len(diagram.aa_edges)} AA / "
        f"{len(diagram.af_edges)} AF / {len(diagram.fa_edges)} FA edges; "
        + ("structure verified." if not problems else f"PROBLEMS: {problems}")
    )
    return ReportSection("Figure 1 — state diagram", body, not problems)


def _figure2_section() -> ReportSection:
    from repro.baselines.failed_reset_au import (
        livelock_witness,
        rotate_configuration,
    )
    from repro.model.execution import Execution

    witness = livelock_witness(2, 2)
    execution = Execution(
        witness.topology,
        witness.algorithm,
        witness.initial,
        witness.scheduler,
        rng=np.random.default_rng(0),
    )
    n = witness.topology.n
    ok = True
    for round_index in range(1, n + 1):
        for _ in range(n):
            execution.step()
        if execution.configuration != rotate_configuration(
            witness.initial, round_index % n
        ):
            ok = False
            break
    body = (
        f"8-ring live-lock verified over {n} rounds (period {n})."
        if ok
        else "live-lock did NOT reproduce."
    )
    return ReportSection("Figure 2 — Appendix-A live-lock", body, ok)


def paper_campaign(name: str, trials: int) -> Dict[str, object]:
    """The aggregates of registry ``name`` over the scenarios whose
    ``trial`` tag is below ``trials`` (serial run, seed 0)."""
    scenarios = [s for s in build_campaign(name) if int(s.tag("trial")) < trials]
    return aggregate_results(name, scenarios, run_campaign(scenarios), 0)


def _thm11_section(aggregates: Dict[str, object]) -> ReportSection:
    rows = aggregates["rows"]
    worst = fold_worst_rounds(rows)
    bounds = sorted({int(row["diameter_bound"]) for row in rows})
    summaries = {
        d: Summary.of([r for (group, _), r in worst.items() if group == f"D={d}"])
        for d in bounds
    }
    slope = loglog_slope(bounds, [summaries[d].mean for d in bounds])
    states = {row["diameter_bound"]: state_count(row) for row in rows}
    ok = (
        aggregates["failure_count"] == 0
        and slope <= 3.2
        and all(
            state_count(row) == 12 * row["diameter_bound"] + 6
            and row["rounds"] <= (3 * row["diameter_bound"] + 2) ** 3
            for row in rows
        )
    )
    table = render_table(
        ["D", "states", "rounds", "k^3"],
        [(d, states[d], str(summaries[d]), (3 * d + 2) ** 3) for d in bounds],
    )
    return ReportSection(
        "Thm 1.1 — AlgAU (O(D) states, O(D^3) rounds)",
        table + f"\n\nlog-log slope: {slope:.2f} (bound 3)",
        ok,
    )


def _thm13_section(aggregates: Dict[str, object]) -> ReportSection:
    points = sweep_summaries(aggregates["rows"], "n")
    ratios = ratio_to_log(list(points), [s.mean for s in points.values()])
    ok = aggregates["failure_count"] == 0 and max(ratios) <= 4.0 * max(min(ratios), 1.0)
    table = render_table(
        ["n", "rounds", "rounds/log2(n)"],
        [
            (n, str(summary), f"{ratio:.1f}")
            for (n, summary), ratio in zip(points.items(), ratios)
        ],
    )
    return ReportSection("Thm 1.3 — AlgLE (O(D log n))", table, ok)


def _thm14_section(aggregates: Dict[str, object]) -> ReportSection:
    """Passes when no row failed and ``|Q|`` does not depend on ``n``."""
    rows = aggregates["rows"]
    points = sweep_summaries(rows, "n")
    ok = aggregates["failure_count"] == 0 and len({state_count(r) for r in rows}) == 1
    table = render_table(
        ["n", "rounds"],
        [(n, str(summary)) for n, summary in points.items()],
    )
    return ReportSection("Thm 1.4 — AlgMIS (O((D + log n) log n))", table, ok)


def _thm31_section(trials: int) -> ReportSection:
    rows = []
    ok = True
    for d in (1, 2, 4):
        times = [
            restart_exit_time(d, 10, np.random.default_rng(100 * d + trial))
            for trial in range(trials)
        ]
        concurrent = [t for t in times if t is not None]
        ok = ok and len(concurrent) == trials and max(concurrent) <= 6 * d + 4
        summary = Summary.of(concurrent) if concurrent else "—"
        rows.append((d, str(summary), 6 * d + 4))
    table = render_table(["D", "exit rounds", "bound 6D+4"], rows)
    return ReportSection("Thm 3.1 — Restart (O(D) concurrent exit)", table, ok)


def _obs32_section() -> ReportSection:
    stats_small = geometric_max_statistics(8, 0.25, trials=150, seed=1)
    stats_large = geometric_max_statistics(512, 0.25, trials=150, seed=2)
    ok = stats_large.mean > stats_small.mean
    body = (
        f"max of n Geom(0.25): n=8 -> {stats_small.mean:.1f}, "
        f"n=512 -> {stats_large.mean:.1f} (log growth)"
    )
    return ReportSection("Obs 3.2 — max-geometric growth", body, ok)


def _recovery_section(aggregates: Dict[str, object]) -> ReportSection:
    rows = aggregates["rows"]
    recovered = sum(1 for row in rows if row["recovered"])
    recoveries = [
        row["recovery_rounds"] for row in rows if row["recovery_rounds"] is not None
    ]
    body = (
        f"AlgAU(D=2) on quorum colonies (n=16), 3 bursts @30%: "
        f"{recovered}/{len(rows)} runs recovered; worst recovery rounds "
        f"{Summary.of(recoveries) if recoveries else '—'}"
    )
    return ReportSection(
        "Application — transient-fault recovery",
        body,
        aggregates["failure_count"] == 0 and recovered == len(rows),
    )


def campaign_report(artifact: dict) -> str:
    """Render a campaign artifact (``BENCH_campaign_*.json`` payload, or
    its ``aggregates`` section) as a markdown report.

    One row per aggregation group: scenario count, failures, and the
    rounds/recovery summaries — the campaign-shaped sibling of the
    per-theorem tables above.
    """
    aggregates = artifact.get("aggregates", artifact)
    groups = aggregates.get("groups", {})

    def fmt(summary: Optional[dict]) -> str:
        if not summary:
            return "—"
        return (
            f"mean={summary['mean']:.1f} med={summary['median']:.1f} "
            f"max={summary['max']:.0f}"
        )

    rows = []
    for group, stats in groups.items():
        recovered = stats.get("recovered")
        rows.append(
            (
                group,
                stats["count"],
                stats["failures"],
                fmt(stats.get("rounds")),
                "—" if recovered is None else str(recovered),
                fmt(stats.get("recovery_rounds")),
            )
        )
    table = render_table(
        ["group", "scenarios", "failures", "rounds", "recovered", "recovery"],
        rows,
        title=(
            f"Campaign {aggregates.get('campaign', '?')!r} — "
            f"{aggregates.get('stabilized_count', 0)}/"
            f"{aggregates.get('scenario_count', 0)} scenarios stabilized "
            f"(seed {aggregates.get('seed', '?')})"
        ),
    )
    failures = aggregates.get("failures", [])
    if failures:
        listing = "\n".join(f"- `{scenario_id}`" for scenario_id in failures)
        table += f"\n\nFailed scenarios:\n\n{listing}"
    return table


def generate_report(trials: int = 3) -> str:
    """Run the full battery and return the markdown report."""
    sections: List[ReportSection] = [
        _figure1_section(2),
        _figure2_section(),
        _thm11_section(paper_campaign("thm11-scaling", trials)),
        _thm13_section(paper_campaign("thm13-le-scaling", trials)),
        _thm14_section(paper_campaign("thm14-mis-scaling", trials)),
        _thm31_section(max(trials, 5)),
        _obs32_section(),
        _recovery_section(paper_campaign("fault-recovery", trials)),
    ]
    out = io.StringIO()
    passed = sum(1 for s in sections if s.passed)
    out.write("# Reproduction report — Emek & Keren, PODC 2021\n\n")
    out.write(
        f"{passed}/{len(sections)} checks passed "
        f"(trials per sweep point: {trials}).\n\n"
    )
    for section in sections:
        marker = "PASS" if section.passed else "FAIL"
        out.write(f"## [{marker}] {section.title}\n\n")
        out.write(section.body)
        out.write("\n\n")
    return out.getvalue()
