"""One-shot reproduction report.

:func:`generate_report` checks every paper claim of
:mod:`repro.analysis.claims` and assembles a single markdown document,
the "does the whole reproduction hold together?" artifact, exposed on
the command line as ``repro report``.  The sweep claims fold the same
campaign registries as the benchmarks under ``benchmarks/``, restricted
to their first ``trials`` trials, so the report stays small while the
benchmarks are the full-resolution versions of the same tables.
"""

from __future__ import annotations

import io
from typing import Dict, Optional

from repro.analysis.claims import CLAIMS
from repro.analysis.tables import render_table
from repro.campaigns import aggregate_results, build_campaign, run_campaign


def paper_campaign(name: str, trials: int) -> Dict[str, object]:
    """The aggregates of registry ``name`` over the scenarios whose
    ``trial`` tag is below ``trials`` (serial run, seed 0)."""
    scenarios = [s for s in build_campaign(name) if int(s.tag("trial")) < trials]
    return aggregate_results(name, scenarios, run_campaign(scenarios), 0)


def campaign_report(artifact: dict) -> str:
    """Render a campaign artifact (``BENCH_campaign_*.json`` payload, or
    its ``aggregates`` section) as a markdown report.

    One row per aggregation group: scenario count, failures, and the
    rounds/recovery summaries — the campaign-shaped sibling of the
    per-claim tables of :mod:`repro.analysis.claims`.
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
    """Check every claim of :data:`~repro.analysis.claims.CLAIMS` and
    return the markdown report.  Sweep claims run on the first
    ``trials`` trials of their registry; the fixed experiments run at
    benchmark size."""
    checks = [
        (claim, claim.run(lambda name: paper_campaign(name, trials)))
        for claim in CLAIMS
    ]
    passed = sum(check.passed for _, check in checks)
    out = io.StringIO()
    out.write("# Reproduction report — Emek & Keren, PODC 2021\n\n")
    out.write(
        f"{passed}/{len(checks)} checks passed (trials per sweep point: "
        f"{trials}; fixed experiments at benchmark size).\n\n"
    )
    for claim, check in checks:
        out.write(f"## [{'PASS' if check.passed else 'FAIL'}] {claim.title}\n\n")
        out.write(check.table)
        if check.problems:
            out.write("\n\nProblems:\n\n")
            out.write("\n".join(f"- {problem}" for problem in check.problems))
        out.write("\n\n")
    return out.getvalue()
