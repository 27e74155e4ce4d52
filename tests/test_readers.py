"""Every campaign registry and every benchmark has a reader.

A registry is read when a CI step, a benchmark, a paper claim, an
example or a perfbench workload names it, either as a quoted string
(``"smoke"``) or as ``--registry smoke``.  A bare word does not count:
prose mentions "full" or "micro" in a dozen places.  Test files do not
count either.  A benchmark file is read when the CI workflow names it.

The one exception is a registry that only the tests and manual runs
use.  It goes into ``ALLOWED`` with a one-line reason.  An allow-listed
registry that gains a reader, or is deleted, fails the test until its
entry is removed.
"""

from __future__ import annotations

import pathlib
import re

import pytest

from repro.campaigns.registry import registry_names

ROOT = pathlib.Path(__file__).resolve().parents[1]
CI = ROOT / ".github" / "workflows" / "ci.yml"

ALLOWED = {
    "micro": "the six-scenario fixture campaign of the tests and CLI sanity runs",
}


def _reader_files():
    """The CI workflow, every benchmark, the paper claims, every example
    and the perfbench harness (its tests left out)."""
    files = [CI, ROOT / "src" / "repro" / "analysis" / "claims.py"]
    files += sorted((ROOT / "benchmarks").glob("*.py"))
    files += sorted((ROOT / "examples").glob("*.py"))
    files += [
        path
        for path in sorted((ROOT / "perfbench").glob("*.py"))
        if not path.name.startswith("test_")
    ]
    return files


def _readers(name: str):
    name = re.escape(name)
    pattern = re.compile(rf"([\"']){name}\1|--registry\s+{name}(?![\w-])")
    return [
        path.relative_to(ROOT).as_posix()
        for path in _reader_files()
        if pattern.search(path.read_text(encoding="utf-8"))
    ]


@pytest.mark.parametrize("name", [n for n in registry_names() if n not in ALLOWED])
def test_every_registry_has_a_reader(name):
    assert _readers(name), (
        f"registry {name!r} is built by no CI step, benchmark, claim, "
        "example or perfbench workload: give it a reader or delete it"
    )


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_allowed_registries_are_current(name):
    assert name in registry_names(), f"{name!r} is allow-listed but deleted"
    assert not _readers(name), f"{name!r} has a reader now: drop it from ALLOWED"


@pytest.mark.parametrize(
    "bench",
    [path.name for path in sorted((ROOT / "benchmarks").glob("bench_*.py"))],
)
def test_every_benchmark_runs_in_ci(bench):
    assert f"benchmarks/{bench}" in CI.read_text(encoding="utf-8"), (
        f"{bench} is not run by the CI workflow: gate it there or delete it"
    )
