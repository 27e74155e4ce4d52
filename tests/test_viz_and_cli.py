"""Figure-1 rendering and the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.core.algau import ThinUnison
from repro.viz.state_diagram import (
    state_diagram,
    to_dot,
    to_text,
    verify_figure1_structure,
)


class TestStateDiagram:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_structure_matches_figure1(self, d):
        alg = ThinUnison(d)
        diagram = state_diagram(alg)
        assert verify_figure1_structure(diagram, alg.levels.k) == []

    def test_edge_counts(self):
        alg = ThinUnison(1)  # k = 5
        diagram = state_diagram(alg)
        assert len(diagram.aa_edges) == 10  # the 2k-cycle
        assert len(diagram.af_edges) == 8  # 2(k-1) detours in
        assert len(diagram.fa_edges) == 8  # 2(k-1) detours out
        assert diagram.edge_count == 26

    def test_dot_output_contains_styles(self):
        alg = ThinUnison(1)
        dot = to_dot(state_diagram(alg))
        assert "digraph AlgAU" in dot
        assert "style=dashed, color=red" in dot
        assert "style=dotted, color=blue" in dot

    def test_text_output_lists_families(self):
        alg = ThinUnison(1)
        text = to_text(state_diagram(alg))
        assert "AA (solid" in text
        assert "AF (dashed" in text
        assert "FA (dotted" in text

    def test_verify_detects_corruption(self):
        alg = ThinUnison(1)
        diagram = state_diagram(alg)
        broken = type(diagram)(
            turns=diagram.turns,
            aa_edges=diagram.aa_edges[:-1],  # break the cycle
            af_edges=diagram.af_edges,
            fa_edges=diagram.fa_edges,
        )
        assert verify_figure1_structure(broken, alg.levels.k) != []


class TestCLI:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["figure1", "--diameter-bound", "1"])
        assert args.diameter_bound == 1

    def test_python_dash_m_repro_entry_point(self):
        """``python -m repro`` must behave exactly like the console
        script (the package-level __main__ delegates to the CLI)."""
        import os
        import subprocess
        import sys

        root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src") + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        result = subprocess.run(
            [sys.executable, "-m", "repro", "table1", "--diameter-bound", "1"],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        assert "Table 1" in result.stdout

    def test_figure1_command(self, capsys):
        assert main(["figure1", "--diameter-bound", "1"]) == 0
        out = capsys.readouterr().out
        assert "AA (solid" in out

    def test_figure1_dot(self, capsys):
        assert main(["figure1", "--diameter-bound", "1", "--dot"]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_table1_command(self, capsys):
        assert main(["table1", "--diameter-bound", "2"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "AA" in out and "AF" in out and "FA" in out

    def test_figure2_command(self, capsys):
        assert main(["figure2", "--rounds", "8"]) == 0
        out = capsys.readouterr().out
        assert "LIVE-LOCK" in out

    def test_au_command(self, capsys):
        assert (
            main(
                [
                    "au",
                    "--diameter-bound",
                    "1",
                    "--nodes",
                    "6",
                    "--start",
                    "random",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "stabilized" in out

    @pytest.mark.parametrize("links", [[], ["--loss", "0.3", "--jitter", "0.5"]])
    def test_net_run_command(self, capsys, links):
        net_run = ["net", "run", "--diameter-bound", "2", "--nodes", "8"]
        assert main(net_run + links) == 0
        out = capsys.readouterr().out
        assert "runtime=net" in out
        assert "stabilized (good graph) after" in out
        assert "messages: sent" in out and "per node-round" in out

    def test_net_run_rejects_a_bad_link(self, capsys):
        assert main(["net", "run", "--nodes", "6", "--loss", "1.5"]) == 2
        assert "bad link configuration" in capsys.readouterr().err
