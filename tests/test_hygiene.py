"""Static hygiene of the package sources: no dead imports, no environment
switches, no file I/O outside the CLI, no public name that no workload
reaches, no re-export from the package, and every name the benchmark's
tracer wraps still defined.

Walks src/blindmfg/*.py with `ast` only, so it needs no linter; the
tracer's targets are read from perfbench/tracer.py the same way and only
resolved against the imported package.
"""

import ast
import importlib
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


def _definitions(tree: ast.Module) -> list:
    """(name, statement) of every module-level function, class and
    assignment; imports are not definitions."""
    defs = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defs += [(t.id, node) for t in targets if isinstance(t, ast.Name)]
    return defs


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    tree = _tree(path)
    loaded = _loaded_names(tree)
    unused = sorted(f"{name} (line {line})"
                    for name, line in _imported_names(tree).items() if name not in loaded)
    assert not unused, f"{path.name}: imported and never read: {', '.join(unused)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_function_level_imports_say_why(path):
    """An import inside a function hides a dependency from the module
    head, so it carries a comment saying why, on its line or the line
    above (a heavy import needed by one path, say)."""
    lines = path.read_text().splitlines()
    bare = sorted(
        sub.lineno for fn in ast.walk(_tree(path))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for sub in ast.walk(fn)
        if isinstance(sub, (ast.Import, ast.ImportFrom))
        and "#" not in lines[sub.lineno - 1]
        and not lines[sub.lineno - 2].lstrip().startswith("#"))
    assert not bare, f"{path.name}: function-level imports without a reason at lines {bare}"


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


# file formats the CLI owns, and the calls that open or read/write a file
_FORMAT_MODULES = {"csv", "json"}
_FILE_CALLS = {"open", "read_text", "write_text", "read_bytes", "write_bytes",
               "save", "savez", "savetxt", "load", "loadtxt", "tofile", "fromfile"}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "cli.py"],
                         ids=lambda p: p.name)
def test_only_the_cli_touches_files(path):
    """cli.py reads every config and writes every artifact; the numerics
    modules return data, open no file and import no file format."""
    hits = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            hits += [f"import {a.name} (line {node.lineno})" for a in node.names
                     if a.name.split(".")[0] in _FORMAT_MODULES]
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] in _FORMAT_MODULES:
            hits.append(f"from {node.module} (line {node.lineno})")
        elif isinstance(node, ast.Call):
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None)
            if name in _FILE_CALLS:
                hits.append(f"{name}() (line {node.lineno})")
    assert not hits, f"{path.name}: file I/O outside cli.py: {', '.join(hits)}"


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
    """A module-level `_` function, class or constant that nothing in the
    package refers to outside its own definition is dead code."""
    nodes = [(p, node) for p in MODULES for node in _tree(p).body]
    dead = [f"{name} (line {d.lineno})" for name, d in _definitions(_tree(path))
            if name.startswith("_") and not name.startswith("__")
            and not any(name in _referenced_names(node) for p, node in nodes
                        if (p, node.lineno) != (path, d.lineno))]
    assert not dead, f"{path.name}: private and never used: {', '.join(dead)}"


ROOT = SRC.parents[1]
CALLER_DIRS = ("src", "tests", "perfbench")


def _defaulted_parameters(tree: ast.Module) -> list:
    """(name, positional params, defaulted params, line) of every function
    and method, nested ones included; a method's positional parameters
    drop `self`/`cls`, so call positions line up with `obj.method(...)`."""
    out = []

    def visit(node, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                if in_class and not static:
                    positional = positional[1:]
                defaulted = positional[len(positional) - len(args.defaults):] \
                    if args.defaults else []
                defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                              if d is not None]
                if defaulted:
                    out.append((child.name, positional, defaulted, child.lineno))
                visit(child, False)
            else:
                visit(child, isinstance(child, ast.ClassDef))

    visit(tree, False)
    return out


def _calls_by_name() -> dict:
    """Called name -> list of (positional count or None, keyword names or
    None); None stands for a `*args` or `**kwargs`, which may pass any."""
    calls = {}
    for d in CALLER_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            for node in ast.walk(_tree(path)):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute) else None)
                if name is None:
                    continue
                npos = (None if any(isinstance(a, ast.Starred) for a in node.args)
                        else len(node.args))
                keywords = (None if any(k.arg is None for k in node.keywords)
                            else {k.arg for k in node.keywords})
                calls.setdefault(name, []).append((npos, keywords))
    return calls


def _passes(call, positional, param) -> bool:
    npos, keywords = call
    if keywords is None or param in keywords:
        return True
    if param not in positional:
        return False
    return npos is None or positional.index(param) < npos


def test_every_default_parameter_is_passed():
    """A defaulted parameter that no call in src/, tests/ or perfbench/
    ever passes is a knob nothing reads: delete it."""
    calls = _calls_by_name()
    never = []
    for path in MODULES:
        for name, positional, defaulted, line in _defaulted_parameters(_tree(path)):
            for param in defaulted:
                if not any(_passes(c, positional, param) for c in calls.get(name, [])):
                    never.append(f"{path.name}:{line} {name}({param}=)")
    assert not never, "defaulted parameters no call passes: " + ", ".join(never)


TRACER = ROOT / "perfbench" / "tracer.py"


def _traced_targets() -> list:
    """perfbench/tracer.py's TRACED, read from its source, not imported."""
    for node in _tree(TRACER).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)):
            return [elt.value for elt in node.value.elts]
    raise AssertionError("perfbench/tracer.py defines no TRACED tuple")


def _top_level_definitions() -> dict:
    """Name -> the package's module-level statements that define it."""
    defs = {}
    for path in MODULES:
        for name, node in _definitions(_tree(path)):
            defs.setdefault(name, []).append(node)
    return defs


def _reached_names() -> set:
    """Package names reached from the workloads: cli.main and _COMMANDS,
    every name tests/test_acceptance.py refers to, and the tracer's
    targets, closed over the module-level definitions they refer to."""
    todo = ["main", "_COMMANDS"]
    todo += _referenced_names(_tree(ROOT / "tests" / "test_acceptance.py"))
    todo += [part for target in _traced_targets() for part in target.split(".")[1:]]
    defs = _top_level_definitions()
    reached = set()
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for node in defs.get(name, []):
            todo.extend(_referenced_names(node))
    return reached


def test_every_public_name_is_reached_from_a_workload():
    """A name without a leading underscore is public, and the package keeps
    no public name for nothing: the CLI, the acceptance criteria or the
    benchmark's tracer must reach every module-level function, class and
    constant that is not private."""
    reached = _reached_names()
    unreached = sorted(f"{path.stem}.{name}" for path in MODULES
                       for name, _ in _definitions(_tree(path))
                       if not name.startswith("_") and name not in reached)
    assert not unreached, "public, reached by no workload: " + ", ".join(unreached)


def test_package_re_exports_nothing():
    """Each name has one import path, its module's: blindmfg/__init__.py
    holds its docstring and no import."""
    imports = [node.lineno for node in ast.walk(_tree(SRC / "__init__.py"))
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not imports, f"__init__.py: imports at lines {imports}"


@pytest.mark.parametrize("target", _traced_targets())
def test_traced_target_resolves(target):
    """The tracer looks each target up by attribute when it installs; a
    renamed or deleted one would break every `--trace 1` run."""
    module, *path = target.split(".")
    owner = importlib.import_module(f"blindmfg.{module}")
    if len(path) == 2:  # a method, patched in its class's own namespace
        owner = getattr(owner, path[0])
        assert path[1] in vars(owner), f"{target}: not defined on its class"
    else:
        assert callable(getattr(owner, path[0], None)), f"{target}: no such function"
