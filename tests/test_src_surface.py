"""The library surface of ``src/repro`` carries no test-only code.

Every public top-level function or class in a ``src/repro`` module has a
caller outside the tests: another src module (a package ``__init__``
re-export does not count), its own module outside the definition's own
body, or the ``benchmarks/``, ``examples/`` or ``perfbench/`` trees.
Docstrings and comments do not count; a string naming the definition
exactly (a patch target, say) does.

The one exception is a paper oracle that the tests use as an
independent reference.  It goes into ``ALLOWED`` with a one-line
reason, keyed by its qualified name.
"""

from __future__ import annotations

import ast
import functools
import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
CALLER_TREES = ("benchmarks", "examples", "perfbench")

ALLOWED = {
    "repro.tasks.spec.check_au_safety": (
        "AU safety oracle: neighboring clocks differ by at most one"
    ),
    "repro.tasks.spec.check_au_update_is_pulse": (
        "AU safety oracle: a post-stabilization clock update is exactly +1"
    ),
    "repro.tasks.spec.check_au_liveness_counts": (
        "Lem 2.11 oracle: D + i rounds give every node i pulses"
    ),
    "repro.core.predicates.is_level_out_protected": (
        "the paper's ℓ-out-protected graph predicate (Sec. 2.3)"
    ),
    "repro.core.potential.stage_timeline_is_monotone": (
        "closure of the proof's stage ladder along an execution"
    ),
    "repro.analysis.monitors.AlgAUInvariantMonitor": (
        "Obs 2.3, Lem 2.10 and Lem 2.16 checked after every step"
    ),
    "repro.model.scheduler.ExplicitScheduler": (
        "the adversarial scheduler as an explicit activation sequence"
    ),
    "repro.graphs.topology.topology_from_edges": (
        "Topology from an edge list, exported at the package root"
    ),
    "repro.graphs.topology.single_node_topology": (
        "the one-node network, the n = 1 edge case of every claim"
    ),
}

_IDENTIFIER = r"[A-Za-z_][A-Za-z0-9_]*"
_IDENTIFIER_PATH = re.compile(rf"{_IDENTIFIER}(?:[.:]{_IDENTIFIER})*")
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _identifiers(tree: ast.AST, skip: ast.AST | None = None) -> set:
    """Every name ``tree`` refers to, leaving out the subtree ``skip``.

    Names, attributes and imported names count, and so does a string
    constant that is exactly an identifier or a dotted path of them.
    Prose strings (docstrings, messages) never match."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _IDENTIFIER_PATH.fullmatch(node.value):
                found.update(re.split(r"[.:]", node.value))
        stack.extend(ast.iter_child_nodes(node))
    return found


def _module_name(path: pathlib.Path) -> str:
    return ".".join(path.relative_to(SRC.parent).with_suffix("").parts)


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


@functools.lru_cache(maxsize=None)
def _scan():
    """``(unreferenced, islands)``: qualified names of public top-level
    definitions with no non-test caller, and modules none of whose
    public definitions is called from outside the module."""
    modules = {
        path: _parse(path)
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
    }
    own = {path: _identifiers(tree) for path, tree in modules.items()}
    external = set()
    for tree_name in CALLER_TREES:
        for path in (ROOT / tree_name).rglob("*.py"):
            external |= _identifiers(_parse(path))
    unreferenced, islands = [], []
    for path, tree in modules.items():
        outside = external.union(*(ids for p, ids in own.items() if p != path))
        public = [
            node
            for node in tree.body
            if isinstance(node, _DEFINITIONS) and not node.name.startswith("_")
        ]
        module = _module_name(path)
        for node in public:
            if node.name in outside:
                continue
            if node.name not in _identifiers(tree, skip=node):
                unreferenced.append(f"{module}.{node.name}")
        if public and not any(node.name in outside for node in public):
            islands.append(module)
    return tuple(unreferenced), tuple(islands)


def _packages():
    return sorted(
        ".".join(path.parent.relative_to(SRC.parent).parts)
        for path in SRC.rglob("__init__.py")
    )


@pytest.mark.parametrize("package", _packages())
def test_every_all_entry_resolves(package):
    module = importlib.import_module(package)
    exported = getattr(module, "__all__", ())
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names missing objects: {missing}"


def test_every_public_definition_has_a_non_test_caller():
    unreferenced, _ = _scan()
    test_only = sorted(set(unreferenced) - set(ALLOWED))
    assert not test_only, (
        "public definitions only tests call (delete them, or allow-list a "
        f"paper oracle with its reason): {test_only}"
    )


def test_allow_list_names_only_uncalled_definitions():
    unreferenced, _ = _scan()
    stale = sorted(set(ALLOWED) - set(unreferenced))
    assert not stale, f"allow-listed names that are gone or now called: {stale}"


def test_no_src_module_is_an_island():
    _, islands = _scan()
    assert not islands, f"modules only tests reach: {islands}"
