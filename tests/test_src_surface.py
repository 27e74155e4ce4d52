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

The same callers must also set every defaulted parameter of a public
function or method: an option no non-test caller sets is a constant.
A src function that only forwards its own parameter of the same name
counts when its own parameter is set.  Paper parameters and knobs
only tests turn go into ``OPTIONS_ALLOWED`` with a one-line reason.
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


# ----------------------------------------------------------------------
# Options: every defaulted parameter is set by a non-test caller.
# ----------------------------------------------------------------------

#: Defaulted parameters no caller in ``src/``, ``benchmarks/``,
#: ``examples/`` or ``perfbench/`` sets, keyed ``module.qualname:param``.
OPTIONS_ALLOWED = {
    "repro.cli.main:argv": "the entry point reads sys.argv; tests pass argv",
    "repro.core.algau_native.NativeKernel.__init__:backend": (
        "tests bind the un-jitted python lane as the reference"
    ),
    "repro.core.clock.CyclicClock.minus:j": "the group inverse of plus(value, j)",
    "repro.core.levels.LevelSystem.__init__:k": (
        "the paper's k; tests check a non-default level count"
    ),
    "repro.core.levels.LevelSystem.backward:j": (
        "φ^{-j}, the inverse of forward(level, j)"
    ),
    "repro.faults.injection.perturb_topology:max_attempts": (
        "retry budget of a rejection sampler"
    ),
    "repro.graphs.biological.quorum_colony:max_attempts": (
        "retry budget of a rejection sampler"
    ),
    "repro.graphs.biological.cell_tissue:contact_radius": (
        "tests drive the too-small-radius error"
    ),
    "repro.graphs.generators.damaged_clique:max_attempts": (
        "retry budget of a rejection sampler; tests exhaust it"
    ),
    "repro.graphs.generators.random_connected:max_attempts": (
        "retry budget of a rejection sampler"
    ),
    "repro.graphs.generators.random_regular:max_attempts": (
        "retry budget of a rejection sampler"
    ),
    "repro.model.scheduler.RoundRobinScheduler.__init__:order": (
        "tests pin an explicit round order"
    ),
    "repro.model.scheduler.ExplicitScheduler.__init__:repeat": (
        "the adversarial scheduler as an explicit activation sequence"
    ),
    "repro.resilience.strategies.FrozenClock.__init__:level": (
        "tests freeze the fault on a chosen level"
    ),
    "repro.resilience.strategies.RandomClock.__init__:period": (
        "tests validate the period and run it off its default"
    ),
    "repro.resilience.strategies.Oscillating.__init__:period": (
        "tests run the strategy off its default period"
    ),
    "repro.resilience.strategies.Noisy.__init__:p": "tests validate the probability",
    "repro.tasks.le.AlgLE.__init__:p0": "the paper's coin bias p0 (Sec. 3.2)",
    "repro.tasks.le.AlgLE.__init__:k_id": "the paper's identifier range k (Sec. 3.2)",
    "repro.tasks.mis.AlgMIS.__init__:p0": "the paper's coin bias p0 (Sec. 3.1)",
    "repro.tasks.mis.AlgMIS.__init__:k_id": "the paper's identifier range k (Sec. 3.1)",
}


def _signature(node: ast.AST, method: bool):
    """``(positional names, defaulted names)`` of a def; ``self`` or
    ``cls`` is dropped from a method's positional names."""
    args = node.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaulted = positional[len(positional) - len(args.defaults) :]
    defaulted += [
        a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
    ]
    static = any(
        isinstance(d, ast.Name) and d.id == "staticmethod"
        for d in node.decorator_list
    )
    if method and not static:
        positional = positional[1:]
    return positional, defaulted


def _callee_key(func: ast.AST, bases):
    """The name a call reaches: a function's or method's name, a class
    name for a constructor, the first base for ``super().__init__``."""
    if isinstance(func, ast.Attribute):
        value = func.value
        if (
            func.attr == "__init__"
            and isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id == "super"
        ):
            return bases[0] if bases else None
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


@functools.lru_cache(maxsize=None)
def _unset_options():
    """Qualified ``module.qualname:param`` of every defaulted parameter
    of a public ``src/repro`` function or method that no non-test
    caller sets."""
    public = []  # (qualified name, callee key, parameter)
    positional = {}  # callee key -> positional-name lists of its defs
    for path in sorted(SRC.rglob("*.py")):
        tree = _parse(path)
        module = _module_name(path)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        key = node.name if sub.name == "__init__" else sub.name
                        positional.setdefault(key, []).append(
                            _signature(sub, method=True)[0]
                        )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                positional.setdefault(node.name, []).append(
                    _signature(node, method=False)[0]
                )
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not node.name.startswith("_"):
                    for param in _signature(node, method=False)[1]:
                        qualified = f"{module}.{node.name}:{param}"
                        public.append((qualified, node.name, param))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for sub in node.body:
                    if not isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        continue
                    if sub.name.startswith("_") and sub.name != "__init__":
                        continue
                    key = node.name if sub.name == "__init__" else sub.name
                    for param in _signature(sub, method=True)[1]:
                        public.append(
                            (f"{module}.{node.name}.{sub.name}:{param}", key, param)
                        )

    known = set(positional)
    set_directly = set()  # (callee key, param)
    forwards = {}  # (enclosing key, param) -> {(callee key, param)}
    kwargs_forwards = {}  # enclosing key -> {callee key}
    wild = set()  # (enclosing key, param) forwarded into an unknown name

    def visit(node, enclosing, params, kwarg, bases, cls, in_src):
        if isinstance(node, ast.ClassDef):
            bases = [_callee_key(b, ()) for b in node.bases]
            cls = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            kwarg = args.kwarg.arg if args.kwarg else None
            enclosing = cls if node.name == "__init__" and cls else node.name
        elif isinstance(node, ast.Call):
            key = _callee_key(node.func, bases)
            args = node.args
            if key == "partial" and args:
                key, args = _callee_key(args[0], bases), args[1:]
            if key is not None:
                passed = [(k.arg, k.value) for k in node.keywords if k.arg]
                for names in positional.get(key, ()):
                    for name, value in zip(names, args):
                        if isinstance(value, ast.Starred):
                            break
                        passed.append((name, value))
                for param, value in passed:
                    forwarded = (
                        in_src
                        and isinstance(value, ast.Name)
                        and value.id == param
                        and param in params
                    )
                    if not forwarded:
                        if key in known:
                            set_directly.add((key, param))
                    elif key in known:
                        forwards.setdefault((enclosing, param), set()).add((key, param))
                    elif isinstance(node.func, ast.Name):
                        wild.add((enclosing, param))
                for k in node.keywords:
                    unpacked = k.value.id if isinstance(k.value, ast.Name) else None
                    if k.arg is None and kwarg and unpacked == kwarg:
                        kwargs_forwards.setdefault(enclosing, set()).add(key)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing, params, kwarg, bases, cls, in_src)

    for path in SRC.rglob("*.py"):
        visit(_parse(path), None, set(), None, (), None, True)
    for tree_name in CALLER_TREES:
        for path in (ROOT / tree_name).rglob("*.py"):
            visit(_parse(path), None, set(), None, (), None, False)

    is_set = set(set_directly)
    wild_params = set()
    grown = True
    while grown:
        grown = False
        for (enclosing, param) in list(is_set):
            reached = set(forwards.get((enclosing, param), ()))
            reached |= {(key, param) for key in kwargs_forwards.get(enclosing, ())}
            if (enclosing, param) in wild and param not in wild_params:
                wild_params.add(param)
                grown = True
            for target in reached - is_set:
                is_set.add(target)
                grown = True
    return tuple(
        qualified
        for qualified, key, param in public
        if (key, param) not in is_set and param not in wild_params
    )


def test_every_defaulted_parameter_has_a_non_test_caller():
    unset = sorted(set(_unset_options()) - set(OPTIONS_ALLOWED))
    assert not unset, (
        "defaulted parameters no non-test caller sets (make them constants, "
        f"or allow-list one with its reason): {unset}"
    )


def test_options_allow_list_names_only_unset_parameters():
    stale = sorted(set(OPTIONS_ALLOWED) - set(_unset_options()))
    assert not stale, f"allow-listed parameters that are gone or now set: {stale}"
