"""Every ``repro`` module is reached by something that runs it.

The roots are what a user or a benchmark executes: ``repro.backend``,
``repro.__main__`` (its function-level CLI imports included), every
``benchmarks/**/*.py`` and every ``examples/*.py``.  Tests are not roots:
a module only its own tests import is dead code with a test suite.

Reachability follows imports statically (stdlib ``ast``, nothing is
imported).  A package ``__init__`` re-export does not make a submodule
reachable: ``from pkg import Name`` resolves through the ``__init__`` to
the submodule that defines ``Name``, so a module the ``__init__`` loads
eagerly but nothing uses still counts as unreached.  A string constant
naming a module (``"repro.harness.experiments:loop_contraction_cell"``,
as the sweep runner resolves cell functions) counts as an import.

There is no allowlist.  A module that fails this test gets a caller
(an experiment row, a spec kind, a CLI path) or is deleted.
"""

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, Optional, Set

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

_MODULE_STRING = re.compile(r"^(repro(?:\.\w+)*)(?::\w+)?$")


def _module_files() -> Dict[str, Path]:
    """Module name -> source file, for every module under ``src/repro``."""
    modules = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


MODULES = _module_files()
_TREES: Dict[Path, ast.Module] = {}


def _tree(path: Path) -> ast.Module:
    if path not in _TREES:
        _TREES[path] = ast.parse(path.read_text(), filename=str(path))
    return _TREES[path]


def _is_package(module: str) -> bool:
    return module in MODULES and MODULES[module].name == "__init__.py"


def _absolute(node: ast.ImportFrom, module: Optional[str]) -> str:
    """The absolute module an ``ImportFrom`` in ``module`` names."""
    if not node.level:
        return node.module or ""
    base = module.split(".") if module else []
    if not (module and _is_package(module)):
        base = base[:-1]
    base = base[: len(base) - (node.level - 1)]
    return ".".join(base + ([node.module] if node.module else []))


def _defining_module(package: str, name: str, seen: Set[str]) -> str:
    """Where ``from package import name`` really lands: the submodule the
    package ``__init__`` re-exports ``name`` from, followed to its end."""
    if package in seen:
        return package
    seen.add(package)
    if f"{package}.{name}" in MODULES:
        return f"{package}.{name}"
    if not _is_package(package):
        return package
    for node in _tree(MODULES[package]).body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    source = _absolute(node, package)
                    if source in MODULES:
                        return _defining_module(source, alias.name, seen)
    return package


def _edges(tree: ast.Module, module: Optional[str]) -> Iterator[str]:
    """Every ``repro`` module one file imports, function bodies included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in MODULES:
                    yield alias.name
        elif isinstance(node, ast.ImportFrom):
            source = _absolute(node, module)
            if source not in MODULES:
                continue
            for alias in node.names:
                yield _defining_module(source, alias.name, set())
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            match = _MODULE_STRING.match(node.value)
            if match and match.group(1) in MODULES:
                yield match.group(1)


def _roots() -> Iterator[tuple]:
    yield _tree(MODULES["repro.backend"]), "repro.backend"
    yield _tree(MODULES["repro.__main__"]), "repro.__main__"
    for path in sorted((ROOT / "benchmarks").rglob("*.py")):
        yield _tree(path), None
    for path in sorted((ROOT / "examples").glob("*.py")):
        yield _tree(path), None


def reachable() -> Set[str]:
    reached = {"repro.backend", "repro.__main__"}
    work = []
    for tree, module in _roots():
        work.extend(_edges(tree, module))
    while work:
        module = work.pop()
        if module in reached:
            continue
        reached.add(module)
        # An __init__'s own imports are re-exports: they reach nothing.
        if not _is_package(module):
            work.extend(_edges(_tree(MODULES[module]), module))
    # Importing a submodule runs every enclosing package.
    for module in list(reached):
        parts = module.split(".")
        reached.update(".".join(parts[:i]) for i in range(1, len(parts)))
    return reached


def test_every_module_is_reached_from_a_root():
    unreached = sorted(set(MODULES) - reachable())
    assert unreached == [], (
        "modules no root reaches; give each a caller or delete it: "
        + ", ".join(unreached)
    )


def test_init_reexport_resolves_to_the_defining_submodule():
    # ``from repro.netsim import Simulator`` lands on the submodule.
    assert _defining_module("repro.netsim", "Simulator", set()) == (
        "repro.netsim.simulator"
    )
    # A submodule named in the import is itself the target.
    assert _defining_module("repro.ip", "routing", set()) == "repro.ip.routing"
