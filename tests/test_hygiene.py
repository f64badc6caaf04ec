"""Source hygiene checks that stand in for a linter.

Every name a module in ``src/esskit`` imports must be referenced somewhere
in that module; the package ``__init__`` re-exports its imports and is
exempt. Every module-private name the package defines (a top-level
``_function``, ``_Class`` or ``_CONSTANT``, or a class's ``_method``) must be
referenced somewhere in the package outside its own definition. No function
calls itself except the two grammar walkers, which spend one frame per
nesting level by design. The CLI module loads only what every command needs.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import esskit

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "esskit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    referenced = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in referenced]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_flags_an_unused_import():
    source = "import os\nfrom json import dumps, loads\nloads('1')\n"
    assert _unused_imports(source) == ["line 2: dumps", "line 1: os"]


def _private_definitions(tree: ast.Module):
    """(name, defining node) for each top-level and class-level private name."""
    def private(name: str) -> bool:
        return name.startswith("_") and not name.startswith("__")

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and private(node.name):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and private(target.id):
                    yield target.id, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and private(member.name):
                    yield member.name, member


def _unused_private_names(sources: dict[str, str]) -> list[str]:
    """Private definitions no code outside the definition itself refers to."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    references: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                references.setdefault(node.attr, []).append(node)
    unused = []
    for module, tree in sorted(trees.items()):
        for name, definition in _private_definitions(tree):
            inside = {id(node) for node in ast.walk(definition)}
            if all(id(node) in inside for node in references.get(name, ())):
                unused.append(f"{module}:{definition.lineno}: {name}")
    return unused


def test_package_uses_every_private_name():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert _unused_private_names(sources) == []


def test_scan_flags_an_unused_private_name():
    sources = {
        "a.py": ("_LIMIT = 3\n_SPARE = 4\n"
                 "def _used(n):\n    return _LIMIT + n\n"
                 "def _recursive(n):\n    return _recursive(n - 1)\n"
                 "class _Box:\n    def _peek(self):\n        return self._peek()\n"
                 "    def _get(self):\n        return 1\n"),
        "b.py": "from a import _used, _Box\n_used(_Box()._get())\n",
    }
    assert _unused_private_names(sources) == [
        "a.py:2: _SPARE", "a.py:5: _recursive", "a.py:8: _peek"]


def _self_calls(source: str) -> list[str]:
    """Qualified names of the functions that call their own name or
    ``self.<their name>``, in source order."""
    found = []
    stack = [(ast.parse(source), "")]
    while stack:
        node, prefix = stack.pop()
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                stack.append((child, prefix))
                continue
            name = prefix + child.name
            stack.append((child, name + "."))
            if isinstance(child, ast.FunctionDef) and any(
                    isinstance(call, ast.Call) and _names(call.func, child.name)
                    for call in ast.walk(child)):
                found.append((child.lineno, name))
    return [name for _, name in sorted(found)]


def _names(func: ast.expr, name: str) -> bool:
    if isinstance(func, ast.Attribute):
        return (func.attr == name and isinstance(func.value, ast.Name)
                and func.value.id == "self")
    return isinstance(func, ast.Name) and func.id == name


# The parser and the canonical renderer follow the grammar's own nesting.
_GRAMMAR_WALKERS = ["dsl.py: _Parser._block", "render.py: _render"]


def test_no_function_recurses_outside_the_grammar_walkers():
    found = [f"{path.name}: {name}" for path in MODULES
             for name in _self_calls(path.read_text(encoding="utf-8"))]
    assert found == _GRAMMAR_WALKERS


def test_scan_flags_a_function_that_calls_itself():
    source = (PACKAGE / "model.py").read_text(encoding="utf-8")
    mutated = source.replace("        stack.extend((child, chain + (child.name,), own_id)\n"
                             "                     for child in reversed(children))",
                             "        for child in children:\n"
                             "            yield from walk_specs(child)")
    assert mutated != source
    assert _self_calls(mutated) == ["walk_specs"]
    assert _self_calls("def f(n):\n    return g(n) + other.f(n)\n"
                       "class C:\n    def m(self):\n        return self.m()\n"
                       "def outer():\n    def inner():\n        inner()\n") == [
        "C.m", "outer.inner"]


def test_cli_import_loads_no_command_specific_module():
    code = ("import sys; before = set(sys.modules); import esskit.cli; "
            "print(*sorted(set(sys.modules) - before))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
                          check=True)
    loaded = set(done.stdout.split())
    assert {"esskit.cli", "esskit.dsl", "esskit.validator"} <= loaded
    assert not loaded & {"dataclasses", "json", "esskit.render", "esskit.togaf",
                         "esskit.lint", "esskit.progress"}


def test_every_public_name_resolves():
    for name in esskit.__all__:
        assert getattr(esskit, name) is not None
    assert set(esskit.__all__) <= set(dir(esskit))
    with pytest.raises(AttributeError):
        esskit.no_such_name


def test_no_module_imports_dataclasses():
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                assert "dataclasses" not in {a.name for a in node.names}, path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path.name
