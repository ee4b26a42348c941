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
"""

from __future__ import annotations

import ast
import importlib
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


def _imports(path: Path, name: Optional[str]) -> Iterator[Tuple[str, Optional[str], str]]:
    """``(module, attribute, bound name)`` per name the file's imports bind.

    ``attribute`` is ``None`` for ``import a.b``.  Function-level (lazy)
    imports count like module-level ones; ``name`` anchors relative ones.
    """
    for node in ast.walk(_tree(path)):
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


def test_every_module_is_reached_from_a_program_root():
    scenario_modules = {spec.trial_fn.__module__ for spec in load_builtin_scenarios()}
    assert len(scenario_modules) == 10
    root_files = sorted((REPO / "benchmarks" / "e2e").glob("*.py")) + sorted(
        (REPO / "examples").glob("*.py")
    )
    assert root_files
    reached = _reached(
        root_files, scenario_modules | {"repro.__main__", "repro.runner.cli"}
    )
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
        "repro.core.subnetworks",
        "repro.crypto.beacon",
    ],
)
def test_the_consensus_subgraph_is_gone_not_aliased(module):
    """The six modules this walk found unreached: deleted, no re-export."""
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


def test_their_reached_neighbours_import_as_before():
    from repro.chain import GasSchedule, Ledger  # noqa: F401
    from repro.core import drep, large_files  # noqa: F401
    from repro.crypto import WindowPoSt  # noqa: F401

    import repro.crypto

    assert not hasattr(repro.crypto, "WinningPoSt")
