"""The one-shot reproduction report (repro.analysis.report) and the
paper claims it checks (repro.analysis.claims)."""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro.analysis.claims import CLAIMS
from repro.analysis.report import generate_report
from repro.analysis.tables import results_dir
from repro.campaigns import aggregate_results

SWEEP_CLAIMS = [claim for claim in CLAIMS if claim.registry]


@pytest.fixture(scope="module")
def report_text() -> str:
    # One trial per sweep point: the cheapest full battery.
    return generate_report(trials=1)


class TestReport:
    def test_all_sections_present(self, report_text):
        for claim in CLAIMS:
            assert f"] {claim.title}\n" in report_text
        for heading in ("Figure 1", "Figure 2", "Table 1", "Cor 1.2", "Obs 3.2"):
            assert heading in report_text

    def test_no_failures(self, report_text):
        assert "FAIL" not in report_text
        assert "11/11 checks passed" in report_text

    def test_fixed_experiment_tables_equal_the_benchmarks(self, report_text):
        for claim in CLAIMS:
            if claim.registry is None:
                path = os.path.join(results_dir(), f"{claim.artifact}.md")
                with open(path, encoding="utf-8") as handle:
                    assert handle.read().rstrip("\n") in report_text, claim.title

    def test_is_markdown(self, report_text):
        assert report_text.startswith("# Reproduction report")
        assert "| D |" in report_text  # at least one table


@pytest.mark.parametrize("claim", SWEEP_CLAIMS, ids=lambda claim: claim.registry)
def test_a_failed_row_fails_the_claim(trial_zero_runs, claim):
    scenarios, results = trial_zero_runs[claim.registry]
    results = list(results)
    results[0] = dataclasses.replace(
        results[0], stabilized=False, detail="forced failure"
    )
    check = claim.check(aggregate_results(claim.registry, scenarios, results, 0))
    assert check.problems
    assert not check.passed


class TestReportCLI:
    def test_cli_report_writes_file(self, report_text, tmp_path, monkeypatch, capsys):
        import repro.analysis.report
        from repro.cli import main

        # Serve the module fixture, generate_report(trials=1), unrebuilt.
        reports = {1: report_text}
        monkeypatch.setattr(
            repro.analysis.report, "generate_report", lambda trials: reports[trials]
        )
        output = str(tmp_path / "report.md")
        code = main(["report", "--trials", "1", "--output", output])
        assert code == 0
        with open(output) as handle:
            assert handle.read() == report_text
