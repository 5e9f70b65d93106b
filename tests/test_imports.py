"""Every module-level import of the library is used somewhere in its module,
every module-level constant and private helper is read by the library and
every constant is defined in one module only, every optional parameter of a
function is passed by some call, every parameter is read by its function,
every field of the model and scheme settings is read by the library, and no
test module imports another."""

import ast
import math
import re
from pathlib import Path

import pytest

import hyperlab

SOURCES = sorted(Path(hyperlab.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("test_*.py"))


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


def _constants(path):
    """Name -> line of every UPPER_CASE constant defined at module level."""
    defined = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", t.id):
                    defined[t.id] = node.lineno
    return defined


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dead_module_names(path):
    # every UPPER_CASE constant and _private function or class defined at
    # module level is read by the library (its tests may read it too): one
    # that only tests read is test data or a test helper
    defined = _constants(path)
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if node.name.startswith("_") and not node.name.startswith("__"):
                defined[node.name] = node.lineno
    used = _references(SOURCES)
    dead = {name: line for name, line in defined.items() if name not in used}
    assert not dead, f"unreferenced names (name: line) in {path.name}: {dead}"


def test_every_constant_is_defined_once():
    # one name in two modules is one setting with two values that can drift
    modules = {}
    for path in SOURCES:
        for name in _constants(path):
            modules.setdefault(name, []).append(path.name)
    twice = {name: found for name, found in modules.items() if len(found) > 1}
    assert not twice, f"constants defined in more than one module: {twice}"


def _calls(paths):
    """Callee name -> [(positional count, keywords)] of every call; a
    `*args` call counts as passing every position, and a `**kwargs` call
    carries the keyword None."""
    calls = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, (ast.Name, ast.Attribute))):
                name = getattr(node.func, "id", None) or node.func.attr
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                calls.setdefault(name, []).append(
                    (math.inf if starred else len(node.args),
                     {k.arg for k in node.keywords}))
    return calls


def _optional_params(path):
    """(callee name, parameter, call position) of every parameter with a
    default of a module-level function, or of a method or __init__ (called
    by the class name) of a public class; a bound `self` takes no call
    position."""
    tree = ast.parse(path.read_text())
    defs = [(node, node.name, 0) for node in tree.body
            if isinstance(node, ast.FunctionDef)]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
            defs += [(node, cls.name if node.name == "__init__" else node.name, 1)
                     for node in cls.body if isinstance(node, ast.FunctionDef)]
    out = []
    for node, name, bound in defs:
        args = node.args.posonlyargs + node.args.args
        first = len(args) - len(node.args.defaults)
        out += [(name, a.arg, k - bound) for k, a in enumerate(args) if k >= first]
        out += [(name, a.arg, math.inf)
                for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults)
                if d is not None]
    return out


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_optional_parameter_is_passed(path):
    # an optional parameter that no call in the library, its tests or the
    # benchmark passes is a setting nothing sets: it should be a constant
    tests = Path(__file__).parent
    calls = _calls(SOURCES + sorted(tests.glob("*.py"))
                   + sorted((tests.parent / "perfbench").glob("*.py")))
    never = [f"{name}({param}=)" for name, param, pos in _optional_params(path)
             if not any(npos > pos or param in kws or None in kws
                        for npos, kws in calls.get(name, []))]
    assert not never, f"optional parameters no call passes in {path.name}: {never}"


def _functions(tree):
    """Module-level functions and the methods of module-level classes;
    functions nested in them (callbacks) are part of their bodies."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    # a parameter the body never reads is an input that changes nothing
    unread = []
    for name, node in _functions(ast.parse(path.read_text())):
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        read = {n.id for n in ast.walk(node)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [f"{name}({p.arg})" for p in params if p.arg not in read]
    assert not unread, f"parameters never read in {path.name}: {unread}"


@pytest.mark.parametrize("module,cls", [("models.py", "FluxModel"),
                                        ("schemes.py", "SchemeConfig")])
def test_every_setting_field_is_read(module, cls):
    # a field the library never reads is a setting that changes nothing
    src = Path(hyperlab.__file__).parent
    tree = ast.parse((src / module).read_text())
    body = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls).body
    fields = [n.target.id for n in body
              if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)]
    read = {n.attr for path in SOURCES for n in ast.walk(ast.parse(path.read_text()))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = [f for f in fields if f not in read]
    assert not unread, f"{cls} fields the library never reads: {unread}"


@pytest.mark.parametrize("path", TESTS, ids=lambda p: p.name)
def test_no_test_module_imports_another(path):
    # a test module is no importable module: under pytest's importlib import
    # mode one that imports another fails to collect
    imported = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [node.module] if node.module else [a.name for a in node.names]
    found = [name for name in imported if name.split(".")[0].startswith("test_")]
    assert not found, f"{path.name} imports test modules: {found}"
