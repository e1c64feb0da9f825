"""Static hygiene of the package sources: no dead imports, no stale
__all__, no environment switches.

Walks src/blindmfg/*.py with `ast` only, so it needs no linter.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "blindmfg"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _imported_names(tree: ast.Module) -> dict:
    """Module-level imported name -> line, `from __future__` excluded."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _loaded_names(tree: ast.Module) -> set:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _defined_names(tree: ast.Module) -> set:
    names = set(_imported_names(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _all_entries(tree: ast.Module) -> list:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return [elt.value for elt in node.value.elts]
    return []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_import_is_read(path):
    tree = _tree(path)
    loaded = _loaded_names(tree)
    unused = sorted(f"{name} (line {line})"
                    for name, line in _imported_names(tree).items() if name not in loaded)
    assert not unused, f"{path.name}: imported and never read: {', '.join(unused)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_entries_are_defined(path):
    tree = _tree(path)
    missing = sorted(set(_all_entries(tree)) - _defined_names(tree))
    assert not missing, f"{path.name}: __all__ names undefined: {', '.join(missing)}"


_ENV_ACCESS = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_environment_switches(path):
    """Behaviour comes from the config and the command line only: a knob
    read from the environment would be one that no config documents."""
    tree = _tree(path)
    os_names = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import)
                for alias in node.names if alias.name == "os"}
    hits = sorted(
        node.lineno for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in _ENV_ACCESS
            and isinstance(node.value, ast.Name) and node.value.id in os_names)
        or (isinstance(node, ast.ImportFrom) and node.module == "os"
            and any(alias.name in _ENV_ACCESS for alias in node.names)))
    assert not hits, f"{path.name}: process environment used at lines {hits}"


def _private_definitions(tree: ast.Module) -> list:
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")]


def _referenced_names(node: ast.AST) -> set:
    """Names that `node` reads, looks up as an attribute or imports."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_helper_is_used(path):
    """A module-level `_` function or class that nothing in the package
    refers to outside its own definition is dead code."""
    nodes = [(p, node) for p in MODULES for node in _tree(p).body]
    dead = []
    for d in _private_definitions(_tree(path)):
        if not any(d.name in _referenced_names(node) for p, node in nodes
                   if (p, node.lineno) != (path, d.lineno)):
            dead.append(f"{d.name} (line {d.lineno})")
    assert not dead, f"{path.name}: private and never used: {', '.join(dead)}"
