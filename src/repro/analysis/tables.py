"""ASCII/markdown table rendering for the experiment harness.

Benchmarks print the paper-shaped rows with these helpers and persist
them under ``benchmarks/results/`` so that EXPERIMENTS.md can reference
stable artifacts.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, List, Optional, Sequence


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render a github-markdown table (also readable as plain text)."""
    str_rows: List[List[str]] = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt(cells: Sequence[str]) -> str:
        return (
            "| "
            + " | ".join(c.ljust(widths[i]) for i, c in enumerate(cells))
            + " |"
        )

    lines = []
    if title:
        lines.append(f"### {title}")
        lines.append("")
    lines.append(fmt(list(headers)))
    lines.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    lines.extend(fmt(row) for row in str_rows)
    return "\n".join(lines)


def results_dir() -> str:
    """``benchmarks/results`` relative to the repository root (created
    on demand)."""
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.abspath(os.path.join(here, "..", "..", ".."))
    path = os.path.join(root, "benchmarks", "results")
    os.makedirs(path, exist_ok=True)
    return path


def persist_table(name: str, content: str) -> str:
    """Write a rendered table under ``benchmarks/results/<name>.md``."""
    path = os.path.join(results_dir(), f"{name}.md")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(content + "\n")
    return path


def write_json(path: str, payload: object) -> str:
    """Write a ``BENCH_*.json`` artifact deterministically.

    ``sort_keys`` plus a fixed indent makes equal payloads produce
    byte-identical files, which is what lets campaign artifacts be
    compared bit for bit across worker counts and across PRs.
    """
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
