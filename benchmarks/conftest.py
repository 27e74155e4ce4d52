"""Shared helpers for the benchmark/experiment harness.

Every benchmark in this directory regenerates one of the paper's tables
or figures (or validates one quantitative theorem): it prints the
paper-shaped rows, persists them under ``benchmarks/results/``, asserts
the claim's *shape*, and times a representative kernel via
pytest-benchmark.  The paper claims' tables and gates live in
:mod:`repro.analysis.claims`; their benchmarks run them through
:func:`check_claim`.  Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import os
import resource
import sys

from repro.analysis.claims import Claim
from repro.analysis.tables import persist_table, results_dir
from repro.campaigns import (
    aggregate_results,
    build_campaign,
    run_campaign,
    write_campaign_artifact,
)

#: Worker-process count for campaign-driven benchmarks (the aggregates
#: are worker-count independent; this only affects wall-clock).
CAMPAIGN_WORKERS = min(4, os.cpu_count() or 1)


def peak_rss_bytes() -> int:
    """High-water resident set size of this process, in bytes — the
    number benchmark emitters put in their JSON ``meta`` so memory
    regressions are tracked alongside throughput ones."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS.
    return rss if sys.platform == "darwin" else rss * 1024


def emit(name: str, table: str) -> None:
    """Print a rendered table and persist it under benchmarks/results/."""
    print()
    print(table)
    path = persist_table(name, table)
    print(f"[saved to {path}]")


def run_registry_campaign(name: str, workers: int = 0) -> dict:
    """Build, run, and aggregate a registry campaign; assert it is
    failure-free and persist ``BENCH_campaign_<name>.json`` under
    ``benchmarks/results/``.  Returns the aggregates."""
    workers = workers or CAMPAIGN_WORKERS
    scenarios = build_campaign(name)
    results = run_campaign(scenarios, workers=workers)
    aggregates = aggregate_results(name, scenarios, results, 0)
    assert aggregates["failure_count"] == 0, aggregates["failures"]
    # meta stays empty: these artifacts are committed and compared
    # across PRs, so nothing machine-dependent (worker counts,
    # wall-clock) may enter them.
    write_campaign_artifact(
        aggregates,
        os.path.join(results_dir(), f"BENCH_campaign_{name}.json"),
        meta={},
    )
    return aggregates


def check_claim(claim: Claim) -> None:
    """Check a paper claim at full size (a sweep claim over its whole
    registry, through :func:`run_registry_campaign`), emit its table
    under ``benchmarks/results/<claim.artifact>.md`` and assert that it
    holds."""
    check = claim.run(run_registry_campaign)
    emit(claim.artifact, check.table)
    assert not check.problems, check.problems
