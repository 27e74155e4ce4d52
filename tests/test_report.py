"""The one-shot reproduction report (repro.analysis.report)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.report import _thm14_section, generate_report, paper_campaign
from repro.campaigns import aggregate_results, build_campaign, run_scenario


@pytest.fixture(scope="module")
def report_text() -> str:
    # One trial per sweep point: the cheapest full battery.
    return generate_report(trials=1)


class TestReport:
    def test_all_sections_present(self, report_text):
        for heading in (
            "Figure 1",
            "Figure 2",
            "Thm 1.1",
            "Thm 1.3",
            "Thm 1.4",
            "Thm 3.1",
            "Obs 3.2",
            "Application",
        ):
            assert heading in report_text

    def test_no_failures(self, report_text):
        assert "FAIL" not in report_text
        assert "8/8 checks passed" in report_text

    def test_is_markdown(self, report_text):
        assert report_text.startswith("# Reproduction report")
        assert "| D |" in report_text  # at least one table


class TestThm14Section:
    def test_passes_on_the_campaign_rows(self):
        assert _thm14_section(paper_campaign("thm14-mis-scaling", 1)).passed

    def test_a_failed_row_fails_the_section(self):
        name = "thm14-mis-scaling"
        scenarios = [s for s in build_campaign(name) if s.tag("trial") == "0"]
        results = [run_scenario(s) for s in scenarios]
        results[0] = dataclasses.replace(
            results[0], stabilized=False, detail="forced failure"
        )
        section = _thm14_section(aggregate_results(name, scenarios, results, 0))
        assert not section.passed


class TestReportCLI:
    def test_cli_report_writes_file(self, tmp_path, capsys):
        from repro.cli import main

        output = str(tmp_path / "report.md")
        code = main(["report", "--trials", "1", "--output", output])
        assert code == 0
        with open(output) as handle:
            assert "Reproduction report" in handle.read()
