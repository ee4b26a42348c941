"""Every module under ``src/repro`` is on some program path.

An AST import walk from the programs this repository actually runs -- the
registered scenarios, ``python -m repro`` (``runner/cli.py``), the e2e
ledger under ``benchmarks/e2e/`` and the scripts under ``examples/`` --
must reach every module of the package.  An imported *name* is followed to
the module that defines it, so a package ``__init__`` that merely
re-exports a class does not keep that class's module alive: code that
only tests and its own package import is unreached, and this test names
it.  There is no allow-list; a module earns its place by being imported
from a root, or goes.

A second walk holds every top-level function and class, and every method,
to the same rule one level down: reachable code must *name* it -- as an
identifier, an attribute or an identifier-shaped string constant (the
last covers ``getattr`` and gas-schedule names).  Imports, re-exports and
``__all__`` entries are not uses, and a definition's own body only counts
once something live names the definition.  Dunder methods are exempt.
The few definitions that only a test or CI step applies to the program's
own objects or artifacts are listed in ``TEST_FACING``, each with that
test.
"""

from __future__ import annotations

import ast
import functools
import importlib
import re
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

import pytest

from repro.runner.registry import load_builtin_scenarios

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"


def _package_modules() -> Dict[str, Path]:
    """Dotted name -> file, for every module of the ``repro`` package."""
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


MODULES = _package_modules()
_TREES: Dict[Path, ast.Module] = {}


def _tree(path: Path) -> ast.Module:
    if path not in _TREES:
        _TREES[path] = ast.parse(path.read_text(encoding="utf-8"))
    return _TREES[path]


@functools.lru_cache(maxsize=None)
def _imports(path: Path, name: Optional[str]) -> Tuple[Tuple[str, Optional[str], str], ...]:
    """``(module, attribute, bound name)`` per name the file's imports bind.

    ``attribute`` is ``None`` for ``import a.b``.  Function-level (lazy)
    imports count like module-level ones; ``name`` anchors relative ones.
    """
    return tuple(_walk_imports(path, name))


def _statements(nodes) -> Iterator[ast.AST]:
    """Every statement under ``nodes``, nested bodies included (imports are
    statements, so this visits far fewer nodes than ``ast.walk``)."""
    for node in nodes:
        yield node
        for field in ("body", "orelse", "finalbody", "handlers", "cases"):
            for child in getattr(node, field, ()):
                if isinstance(child, (ast.ExceptHandler, ast.match_case)):
                    yield from _statements(child.body)
                elif isinstance(child, ast.stmt):
                    yield from _statements([child])


def _walk_imports(path: Path, name: Optional[str]) -> Iterator[Tuple[str, Optional[str], str]]:
    for node in _statements(_tree(path).body):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None, alias.asname or alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                package = name.split(".")
                if path.name != "__init__.py":
                    package.pop()
                anchor = package[: len(package) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            for alias in node.names:
                yield base, alias.name, alias.asname or alias.name


def _defining_module(module: str, attribute: str) -> str:
    """The module that defines ``module.attribute``, through re-exports."""
    seen = set()
    while (module, attribute) not in seen:
        seen.add((module, attribute))
        if f"{module}.{attribute}" in MODULES:
            return f"{module}.{attribute}"
        for base, original, bound in _imports(MODULES[module], module):
            if bound == attribute and original and base in MODULES:
                module, attribute = base, original
                break
        else:
            break
    return module


def _targets(path: Path, name: Optional[str]) -> Set[str]:
    """Package modules the file at ``path`` uses."""
    targets = set()
    for module, attribute, _ in _imports(path, name):
        if module not in MODULES:
            continue
        if attribute is None or attribute == "*":
            targets.add(module)
        else:
            targets.add(_defining_module(module, attribute))
    return targets


def _reached(root_files: List[Path], root_modules: Set[str]) -> Set[str]:
    frontier = set(root_modules)
    for path in root_files:
        frontier |= _targets(path, None)
    reached: Set[str] = set()
    while frontier:
        module = frontier.pop()
        if module in reached:
            continue
        reached.add(module)
        frontier |= _targets(MODULES[module], module)
    # Importing a.b.c runs a/__init__ and a/b/__init__ too -- they are
    # reached, but what they re-export is not followed.
    for module in list(reached):
        while "." in module:
            module = module.rpartition(".")[0]
            reached.add(module)
    return reached


def _root_modules() -> Set[str]:
    scenario_modules = {spec.trial_fn.__module__ for spec in load_builtin_scenarios()}
    assert len(scenario_modules) == 10
    return scenario_modules | {"repro.__main__", "repro.runner.cli"}


ROOT_FILES = sorted((REPO / "benchmarks" / "e2e").glob("*.py")) + sorted(
    (REPO / "examples").glob("*.py")
)


def test_every_module_is_reached_from_a_program_root():
    assert ROOT_FILES
    reached = _reached(ROOT_FILES, _root_modules())
    unreached = sorted(set(MODULES) - reached)
    assert not unreached, (
        "modules no registered scenario, CLI path, e2e workload or example "
        f"imports: {unreached}"
    )


@pytest.mark.parametrize(
    "module",
    [
        "repro.chain.block",
        "repro.chain.blockchain",
        "repro.chain.transaction",
        "repro.core.chain_app",
        "repro.core.drep",
        "repro.core.subnetworks",
        "repro.crypto.beacon",
        "repro.crypto.post",
    ],
)
def test_the_consensus_subgraph_is_gone_not_aliased(module):
    """The six modules this walk found unreached, the planning-only copy
    of the DRep invariant that ``storage/provider.py`` implements, and the
    WindowPoSt prover no program ran: deleted, no re-export."""
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


def test_their_reached_neighbours_import_as_before():
    from repro.chain import GasSchedule, Ledger  # noqa: F401
    from repro.core import large_files  # noqa: F401

    import repro.crypto

    assert not hasattr(repro.crypto, "WinningPoSt")


# -- the definition walk ------------------------------------------------------

#: Definitions no program root names that a test or CI step applies to the
#: program's own objects or artifacts, with that test.
TEST_FACING = {
    "repro.telemetry.trace.load_chrome_trace": (
        "CI trace-smoke and workload-smoke read the traces `repro run --trace` writes"
    ),
    "repro.crypto.prng.DeterministicPRNG.state_fingerprint": (
        "tests/test_crypto_byte_paths.py and tests/test_sim_lifecycle_index.py "
        "compare generator states across the byte-path and lifecycle-index "
        "differentials"
    ),
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _is_all(node: ast.AST) -> bool:
    targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _names(nodes) -> Set[str]:
    """Names the statements mention: identifiers, attributes, and
    identifier-shaped string constants; imports skipped."""
    names: Set[str] = set()
    stack = list(nodes)
    pop, push = stack.pop, stack.append
    while stack:
        node = pop()
        kind = type(node)
        if kind is ast.Name:
            names.add(node.id)
            continue
        if kind is ast.Constant:
            if isinstance(node.value, str) and _IDENTIFIER.match(node.value):
                names.add(node.value)
            continue
        if kind is ast.Import or kind is ast.ImportFrom:
            continue
        if kind is ast.Attribute:
            names.add(node.attr)
        for field in node._fields:
            value = getattr(node, field, None)
            if isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.AST):
                        push(item)
            elif isinstance(value, ast.AST):
                push(value)
    return names


def _signature(node: ast.AST) -> List[ast.AST]:
    """What a definition's header mentions: decorators, bases, defaults,
    annotations."""
    parts = list(node.decorator_list)
    if isinstance(node, ast.ClassDef):
        return parts + node.bases + node.keywords
    return parts + [node.args] + ([node.returns] if node.returns else [])


def _definitions() -> Dict[Tuple[str, str], Tuple[List[ast.AST], Optional[str]]]:
    """``(module, qualname)`` -> (nodes, enclosing class) for every top-level
    function and class and every method (a property's getter and setter
    share one qualname)."""
    found: Dict[Tuple[str, str], Tuple[List[ast.AST], Optional[str]]] = {}
    for module, path in MODULES.items():
        for node in _tree(path).body:
            if not isinstance(node, _DEFINITION):
                continue
            found.setdefault((module, node.name), ([], None))[0].append(node)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, _DEFINITION):
                        key = (module, f"{node.name}.{item.name}")
                        found.setdefault(key, ([], node.name))[0].append(item)
    return found


def _body(node: ast.AST) -> List[ast.AST]:
    """What a live definition contributes; a class's methods go live on
    their own."""
    if isinstance(node, ast.ClassDef):
        return _signature(node) + [s for s in node.body if not isinstance(s, _DEFINITION)]
    return _signature(node) + node.body


def _unnamed_definitions() -> Dict[str, List[str]]:
    """Module -> qualnames of the definitions no live code names."""
    root_files = ROOT_FILES + sorted(
        set((REPO / "benchmarks").glob("*.py")) - set(ROOT_FILES)
    )
    # The registered trial functions are roots: the registry calls them.
    live_names = {spec.trial_fn.__name__ for spec in load_builtin_scenarios()}
    for path in root_files:
        live_names |= _names(_tree(path).body)
    for module in _reached(root_files, _root_modules()):
        top = _tree(MODULES[module]).body
        live_names |= _names(
            s for s in top if not isinstance(s, _DEFINITION) and not _is_all(s)
        )
    definitions = _definitions()
    live: Set[Tuple[str, str]] = set()
    grew = True
    while grew:
        grew = False
        for (module, qualname), (nodes, owner) in definitions.items():
            if (module, qualname) in live or (owner and (module, owner) not in live):
                continue
            name = qualname.rpartition(".")[2]
            if (
                name in live_names
                or f"{module}.{qualname}" in TEST_FACING
                or (owner and _is_dunder(name))
            ):
                live.add((module, qualname))
                for node in nodes:
                    live_names |= _names(_body(node))
                grew = True
    unnamed: Dict[str, List[str]] = {}
    for (module, qualname), (_, owner) in sorted(definitions.items()):
        # A dead class is reported once, not once per method.
        if (module, qualname) not in live and (owner is None or (module, owner) in live):
            unnamed.setdefault(module, []).append(qualname)
    return unnamed


UNNAMED = _unnamed_definitions()


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_definition_is_named_from_a_program_root(module):
    assert not UNNAMED.get(module), (
        f"{module}: definitions no registered scenario, CLI path, benchmark "
        f"or example names: {UNNAMED[module]}"
    )


def test_test_facing_entries_exist_and_stay_few():
    assert len(TEST_FACING) <= 3
    keys = {f"{module}.{qualname}" for module, qualname in _definitions()}
    assert set(TEST_FACING) <= keys
