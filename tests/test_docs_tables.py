"""The docs tables must never drift from the registries.

``docs/algorithms.md`` and ``docs/engines.md`` each carry a markdown
table that mirrors a code registry (``ALGORITHM_FACTORIES``,
``ENGINE_FACTORIES``).  Docs rot silently; registries do not — so the
tables are re-derived here cell by cell and compared.  Adding an
algorithm or an engine without updating its docs page fails this test,
as does editing a capability declaration without touching the docs.
"""

from __future__ import annotations

import glob
import importlib
import os
import re

from repro.campaigns.spec import ALGORITHM_FACTORIES, FAULT_KINDS, algorithm_names
from repro.model.engine import ENGINE_FACTORIES, engine_class

DOCS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "docs")
SRC_DIR = os.path.join(DOCS_DIR, "..", "src", "repro")


def _read(page):
    with open(os.path.join(DOCS_DIR, page), encoding="utf-8") as handle:
        return handle.read()


def _split_row(line):
    """Split one ``| a | b |`` table line into cells.

    Pipes escaped as ``\\|`` (literal ``|Q|`` expressions) stay inside
    their cell and are unescaped in the returned values.
    """
    cells = re.split(r"(?<!\\)\|", line.strip())
    return [cell.strip().replace("\\|", "|") for cell in cells[1:-1]]


def _parse_table(text, first_header):
    """The (header, rows) of the table whose first column is named
    ``first_header``."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if not line.startswith("|"):
            continue
        header = _split_row(line)
        if header and header[0] == first_header:
            rows = []
            for row_line in lines[i + 2 :]:
                if not row_line.startswith("|"):
                    break
                rows.append(_split_row(row_line))
            return header, rows
    raise AssertionError(f"no table with first column {first_header!r}")


def _code(cell):
    """Strip inline-code backticks (and quotes) from a cell."""
    return cell.strip("`").strip('"')


class TestAlgorithmZooTable:
    """docs/algorithms.md mirrors ALGORITHM_FACTORIES cell for cell."""

    def table(self):
        header, rows = _parse_table(_read("algorithms.md"), "algorithm")
        assert header == [
            "algorithm",
            "task",
            "engines",
            "starts",
            "fault kinds",
            "self-stabilizing",
            "state bits",
            "bits @ D=2, n=16",
            "description",
        ]
        return rows

    def test_every_registry_entry_has_a_row_and_vice_versa(self):
        names = [_code(row[0]) for row in self.table()]
        assert names == list(algorithm_names())

    def test_cells_match_the_capability_declarations(self):
        for row in self.table():
            spec = ALGORITHM_FACTORIES[_code(row[0])]
            assert row[1] == spec.task, row[0]
            assert row[2] == "+".join(spec.engines), row[0]
            assert row[3] == "+".join(spec.starts), row[0]
            assert row[4] == "+".join(spec.fault_kinds), row[0]
            assert row[5] == ("yes" if spec.self_stabilizing else "no"), row[0]
            assert _code(row[6]) == spec.state_bits_formula, row[0]

    def test_bit_counts_match_the_declared_state_spaces(self):
        for row in self.table():
            spec = ALGORITHM_FACTORIES[_code(row[0])]
            bits = spec.state_bits(2, n_hint=16)
            expected = "unbounded" if bits is None else f"{bits:.2f}"
            assert row[7] == expected, row[0]

    def test_descriptions_match_the_registry_summaries(self):
        for row in self.table():
            assert row[8] == ALGORITHM_FACTORIES[_code(row[0])].summary, row[0]


class TestEngineTable:
    """docs/engines.md mirrors ENGINE_FACTORIES and engine_class."""

    def table(self):
        header, rows = _parse_table(_read("engines.md"), "engine")
        assert header[:2] == ["engine", "class"]
        return rows

    def test_every_engine_has_a_row_and_vice_versa(self):
        names = [_code(row[0]) for row in self.table()]
        assert names == list(ENGINE_FACTORIES)

    def test_class_column_names_the_real_engine_classes(self):
        for row in self.table():
            assert _code(row[1]) == engine_class(_code(row[0])).__name__, row[0]


class TestScenarioAxisTable:
    """docs/campaigns.md's axis table names every fault kind."""

    def test_faults_row_lists_every_fault_kind(self):
        _, rows = _parse_table(_read("campaigns.md"), "field")
        (faults,) = [row[1] for row in rows if _code(row[0]) == "faults"]
        missing = [kind for kind in FAULT_KINDS if f"`{kind}`" not in faults]
        assert not missing, f"fault kinds missing from the faults row: {missing}"


class TestNavCoverage:
    """Every docs page is reachable from the mkdocs nav (mkdocs is not
    installed in the test environment, so ``mkdocs build --strict`` can
    only run in CI — this keeps the nav honest locally too)."""

    def _pages(self):
        return {name for name in os.listdir(DOCS_DIR) if name.endswith(".md")}

    def test_nav_and_docs_dir_agree(self):
        with open(
            os.path.join(DOCS_DIR, "..", "mkdocs.yml"), encoding="utf-8"
        ) as handle:
            config = handle.read()
        in_nav = set(re.findall(r":\s*([\w-]+\.md)\s*$", config, re.MULTILINE))
        assert in_nav == self._pages()

    def test_intra_doc_links_resolve(self):
        pages = self._pages()
        for page in sorted(pages):
            targets = re.findall(r"\]\(([\w-]+\.md)(?:#[\w-]+)?\)", _read(page))
            for target in targets:
                assert target in pages, f"{page} links to missing {target}"


class TestBenchmarkInventory:
    """The docs/benchmarks.md artifact inventory names real files: every
    listed benchmark exists under ``benchmarks/`` and writes the listed
    artifact (the artifact name appears verbatim in its source)."""

    BENCH_DIR = os.path.join(DOCS_DIR, "..", "benchmarks")

    def table(self):
        header, rows = _parse_table(_read("benchmarks.md"), "artifact")
        assert header[:2] == ["artifact", "benchmark"]
        return rows

    def test_every_listed_benchmark_exists(self):
        for row in self.table():
            path = os.path.join(self.BENCH_DIR, _code(row[1]))
            assert os.path.isfile(path), row[1]

    def test_every_listed_artifact_is_written_by_its_benchmark(self):
        for row in self.table():
            path = os.path.join(self.BENCH_DIR, _code(row[1]))
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
            artifact = _code(row[0])
            # Campaign-driven benchmarks persist through the conftest
            # helper, which derives ``BENCH_campaign_<registry>.json``
            # from the registry name — look for that name instead.
            match = re.fullmatch(r"BENCH_campaign_(.+)\.json", artifact)
            needle = match.group(1) if match else artifact
            assert needle in source, artifact


def _resolves(dotted):
    """Whether ``dotted`` names a module, or an attribute path inside the
    longest importable module prefix of it."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        module = ".".join(parts[:split])
        try:
            target = importlib.import_module(module)
        except ModuleNotFoundError as error:
            if not module.startswith(str(error.name)):
                raise  # a missing dependency, not a missing name
            continue
        for attr in parts[split:]:
            if not hasattr(target, attr):
                return False
            target = getattr(target, attr)
        return True
    return False


class TestNameDrift:
    """Every ``repro.`` name the docs or the docstrings cite resolves by
    import plus ``getattr``, so a rename or a deletion cannot leave a
    dangling reference behind."""

    #: A backticked dotted name in markdown: `` `repro.net.runtime` ``.
    MARKDOWN = re.compile(r"`(repro(?:\.\w+)+)`")
    #: The target of a Sphinx role, with or without an explicit title:
    #: ``:class:`~repro.net.links.LinkConfig` `` or
    #: ``:meth:`title <repro.graphs.topology.Topology.from_csr>` ``.
    ROLE = re.compile(
        r":(?:mod|class|func|meth|attr|data|exc):`(?:[^`<]*<)?~?(repro(?:\.\w+)+)>?`"
    )

    def _unresolved(self, paths, pattern):
        cited = {}
        for path in paths:
            with open(path, encoding="utf-8") as handle:
                for name in pattern.findall(handle.read()):
                    cited.setdefault(name, os.path.relpath(path, SRC_DIR))
        assert cited, "the pattern found no references: it has rotted"
        return sorted(
            f"{where}: {name}" for name, where in cited.items() if not _resolves(name)
        )

    def test_docs_and_readme_names_resolve(self):
        pages = glob.glob(os.path.join(DOCS_DIR, "*.md"))
        pages.append(os.path.join(DOCS_DIR, "..", "README.md"))
        assert self._unresolved(pages, self.MARKDOWN) == []

    def test_docstring_role_targets_resolve(self):
        sources = glob.glob(os.path.join(SRC_DIR, "**", "*.py"), recursive=True)
        assert self._unresolved(sources, self.ROLE) == []
