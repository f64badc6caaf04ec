"""Source hygiene checks that stand in for a linter.

Every name a module in ``src/esskit`` imports must be referenced somewhere
in that module; the package ``__init__`` re-exports its imports and is
exempt. Every module-private name the package defines (a top-level
``_function``, ``_Class`` or ``_CONSTANT``, or a class's ``_method``) must be
referenced somewhere in the package outside its own definition. No function
calls itself except the grammar walkers, which spend one frame per nesting
level by design. The parser's block functions, generated from the grammar
when ``esskit.dsl`` is imported, are scanned with the package's modules.
The CLI module loads only what every command needs, a dot export does not
load the linter, a check of input with no phase does not load the mapper,
and only the tree export loads ``json``. Only the grammar module refers to
the lexer's token patterns, so each value kind is read and written in one
place. Only the model makes ids: no other module refers to ``slug`` or joins
an owner's id to a ``dotted_id`` or ``element_id`` with a ``/`` of its own.
The mapping policy lives in ``togaf`` alone: only it and the model, which
defines them, refer to the tag and practice-name tables, and only it defines
``mapping_faults``. The mapper raises :class:`~esskit.togaf.MappingError` in
one place, for the first fault of its one pass, which ``check`` reports too.
Importing the mapper loads no resource reader.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import esskit
from esskit import dsl

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "esskit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# The source of the parser's block functions, which esskit.dsl generates
# from its grammar when it is imported, and what the scans call it.
GENERATED = "dsl.py (generated)"
GENERATED_SOURCE = "\n".join(dsl._define(key, block, {})
                             for key, block in dsl.GRAMMAR.items())


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
    sources[GENERATED] = GENERATED_SOURCE
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


# The canonical renderer and the parser's functions for the blocks that nest
# in themselves follow the grammar's own nesting.
_GRAMMAR_WALKERS = ["render.py: _render", f"{GENERATED}: parse_space",
                    f"{GENERATED}: parse_spec_activity"]


def test_no_function_recurses_outside_the_grammar_walkers():
    sources = [(path.name, path.read_text(encoding="utf-8")) for path in MODULES]
    sources.append((GENERATED, GENERATED_SOURCE))
    found = [f"{name}: {function}" for name, source in sources
             for function in _self_calls(source)]
    assert found == _GRAMMAR_WALKERS


def test_scan_flags_a_function_that_calls_itself():
    source = (PACKAGE / "model.py").read_text(encoding="utf-8")
    mutated = source.replace("stack += [(child, own_id, depth) for child in "
                             "reversed(getattr(node, field))]",
                             "yield from _walk(getattr(node, field), own_id, depth)")
    assert mutated != source
    assert _self_calls(mutated) == ["_walk"]
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


def _refers_to(source: str, name: str) -> bool:
    """Whether ``source`` imports, reads or assigns ``name``, also as an attribute."""
    return any(isinstance(node, ast.Name) and node.id == name
               or isinstance(node, ast.Attribute) and node.attr == name
               or isinstance(node, ast.alias) and node.name == name
               for node in ast.walk(ast.parse(source)))


def test_only_the_grammar_states_the_token_patterns():
    # Each value kind's reader and writer are stated once, in dsl.py, which
    # also holds the lexer's patterns they follow.
    assert [path.name for path in PACKAGE.glob("*.py") if path.name != "dsl.py"
            and _refers_to(path.read_text(encoding="utf-8"), "_TOKEN_PATTERNS")] == []
    assert _refers_to((PACKAGE / "dsl.py").read_text(encoding="utf-8"), "_TOKEN_PATTERNS")
    for source in ("from .dsl import _TOKEN_PATTERNS\n", "x = dsl._TOKEN_PATTERNS\n"):
        assert _refers_to(source, "_TOKEN_PATTERNS")


_ID_MAKERS = {"dotted_id", "element_id"}


def _id_joins(source: str) -> list[int]:
    """The lines of the f-strings and ``+`` sums that put a ``/`` beside a
    ``dotted_id`` or ``element_id`` call."""
    def parts(node):
        if isinstance(node, ast.JoinedStr):
            return [value.value if isinstance(value, ast.FormattedValue) else value
                    for value in node.values]
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            return parts(node.left) + parts(node.right)
        return [node]

    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.JoinedStr, ast.BinOp)):
            found = parts(node)
            if any(isinstance(part, ast.Constant) and "/" in str(part.value)
                   for part in found) and any(
                    isinstance(part, ast.Call) and getattr(part.func, "id", None) in _ID_MAKERS
                    for part in found):
                lines.add(node.lineno)
    return sorted(lines)


def test_ids_are_made_in_the_model_alone():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")
               if p.name != "model.py"}
    sources[GENERATED] = GENERATED_SOURCE
    assert [name for name, source in sorted(sources.items())
            if _refers_to(source, "slug")] == []
    assert [f"{name}:{line}" for name, source in sorted(sources.items())
            for line in _id_joins(source)] == []


def test_scan_flags_id_making_outside_the_model():
    assert _refers_to("from .model import slug\n", "slug")
    assert _id_joins('a = f"{own}/{dotted_id(\'workproduct\', name)}"\n'
                     'b = own + "/" + element_id(e)\n'
                     'c = f"{own}/{x}"\n'
                     'd = dotted_id("k", n) + "." + own\n') == [1, 2]


def _raise_sites(source: str, name: str) -> list[int]:
    """The lines of the ``raise`` statements that raise ``name`` or a call of it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if name in (getattr(raised, "id", None), getattr(raised, "attr", None)):
                lines.append(node.lineno)
    return sorted(lines)


def test_the_mapper_refuses_in_one_place():
    source = (PACKAGE / "togaf.py").read_text(encoding="utf-8")
    assert len(_raise_sites(source, "MappingError")) == 1


def test_scan_flags_every_raise_site():
    assert _raise_sites("def f(x):\n    if x:\n        raise MappingError(x)\n"
                        "    raise togaf.MappingError\n"
                        "raise ValueError('MappingError')\n", "MappingError") == [3, 4]


_POLICY_TABLES = ("PHASE_PRACTICE_NAMES", "TAG_COMPETENCIES")


def _binds(source: str, name: str) -> bool:
    """Whether ``source`` defines, assigns or imports ``name`` at module level."""
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            return True
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == name for target in node.targets):
            return True
        if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                (alias.asname or alias.name) == name for alias in node.names):
            return True
    return False


def _mapping_policy_outside_the_mapper(sources: dict[str, str]) -> list[str]:
    """Modules other than the mapper that refer to a policy table (the model
    defines them) or bind ``mapping_faults``."""
    found = [f"{module}: {table}" for module, source in sorted(sources.items())
             if module not in ("model.py", "togaf.py")
             for table in _POLICY_TABLES if _refers_to(source, table)]
    return found + [f"{module}: mapping_faults" for module, source in sorted(sources.items())
                    if module != "togaf.py" and _binds(source, "mapping_faults")]


def test_the_mapping_policy_lives_in_the_mapper():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    sources[GENERATED] = GENERATED_SOURCE
    assert _mapping_policy_outside_the_mapper(sources) == []
    assert _binds(sources["togaf.py"], "mapping_faults")


def test_scan_flags_the_mapping_policy_outside_the_mapper():
    sources = {
        "togaf.py": "from .model import TAG_COMPETENCIES\ndef mapping_faults():\n    pass\n",
        "model.py": "PHASE_PRACTICE_NAMES = {}\n",
        "validator.py": ("from .model import PHASE_IDS, TAG_COMPETENCIES\n"
                         "def mapping_faults(phase):\n    return PHASE_IDS\n"),
        "cli.py": ("def run():\n    from .togaf import mapping_faults\n"
                   "    return model.PHASE_PRACTICE_NAMES\n"),
        "lint.py": "from .togaf import mapping_faults\n",
        "render.py": "mapping_faults = togaf.mapping_faults\n",
    }
    assert _mapping_policy_outside_the_mapper(sources) == [
        "cli.py: PHASE_PRACTICE_NAMES", "validator.py: TAG_COMPETENCIES",
        "lint.py: mapping_faults", "render.py: mapping_faults", "validator.py: mapping_faults"]


def test_mapper_import_loads_no_resource_reader():
    # Without the site start-up, which may load it anyway, importing the
    # mapper must not load importlib.resources: only the corpus reader uses it.
    code = "import sys, esskit.togaf; print('importlib.resources' in sys.modules)"
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
                          check=True)
    assert done.stdout == "False\n"


def test_dot_export_loads_no_linter(tmp_path):
    source = tmp_path / "p.ess"
    source.write_text('practice "P" area Customer { goal "g" }\n', encoding="utf-8")
    code = ("import sys; from esskit.cli import run; "
            f"code = run(['export', '--format', 'dot', {str(source)!r}]); "
            "print(code, 'esskit.lint' in sys.modules, file=sys.stderr)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
                          check=True)
    assert done.stdout.startswith("digraph essence {")
    assert done.stderr == "0 False\n"


def test_check_without_a_phase_loads_no_mapper(tmp_path):
    source = tmp_path / "p.ess"
    source.write_text('practice "P" area Customer { goal "g" }\n', encoding="utf-8")
    code = ("import sys; from esskit.cli import run; "
            f"code = run(['check', {str(source)!r}]); "
            "print(code, 'esskit.togaf' in sys.modules, file=sys.stderr)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
                          check=True)
    assert done.stdout == "0 errors, 0 warnings\n"
    assert done.stderr == "0 False\n"


@pytest.mark.parametrize("command, loads_json", [
    (["check"], False), (["map"], False), (["export", "--format", "dot"], False),
    # The control: the tree export imports the encoder when it is called.
    (["export", "--format", "tree"], True),
])
def test_only_the_tree_export_loads_json(tmp_path, command, loads_json):
    from esskit import togaf

    files = []
    for name, text in togaf.corpus_files().items():
        if name.endswith(".ess"):
            (tmp_path / name).write_text(text, encoding="utf-8")
            files.append(str(tmp_path / name))
    code = ("import sys; from esskit.cli import run; "
            f"code = run({command + sorted(files)!r}); "
            "print(code, 'json' in sys.modules, file=sys.stderr)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
                          check=True)
    assert done.stderr == f"0 {loads_json}\n"


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
