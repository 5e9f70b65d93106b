"""Every module-level import of the library is used somewhere in its module,
and every module-level constant and private helper is read somewhere."""

import ast
import re
from pathlib import Path

import pytest

import hyperlab

SOURCES = sorted(Path(hyperlab.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = {name: line for name, line in imported.items() if name not in used}
    assert not unused, f"unused imports (name: line) in {path.name}: {unused}"


def _references(paths):
    """Names read anywhere in the files: loads, attributes and imports."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dead_module_names(path):
    # every UPPER_CASE constant and _private function or class defined at
    # module level is read somewhere in the library or its tests
    defined = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if node.name.startswith("_") and not node.name.startswith("__"):
                defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", t.id):
                    defined[t.id] = node.lineno
    used = _references(SOURCES + sorted(Path(__file__).parent.glob("*.py")))
    dead = {name: line for name, line in defined.items() if name not in used}
    assert not dead, f"unreferenced names (name: line) in {path.name}: {dead}"
