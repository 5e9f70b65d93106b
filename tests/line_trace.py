"""Run the test suite under a line tracer and print every statement of the
library (src/hyperlab) that never ran.

    PYTHONPATH=src python tests/line_trace.py [pytest arguments]

Only statements in function bodies are listed: module and class bodies run
at import, and docstrings and def/class lines are skipped.  A statement
counts as run when any line it spans produced a line event, so a compound
statement whose body ran is never listed.  The file has no test_ prefix, so
the suite does not collect it.  Exits with pytest's status when a test
fails, else 1 when any statement never ran, else 0.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
LIBRARY = TESTS.parent / "src" / "hyperlab"


def _statements(tree):
    """(first line, last line) of every statement in a function body,
    docstrings and def/class statements left out."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

    def walk(body, in_function):
        for k, node in enumerate(body):
            if isinstance(node, defs):
                inner = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                yield from walk(node.body, in_function or inner)
                continue
            docstring = (k == 0 and isinstance(node, ast.Expr)
                         and isinstance(node.value, ast.Constant)
                         and isinstance(node.value.value, str))
            if in_function and not docstring:
                yield node.lineno, node.end_lineno
            for field in ("body", "orelse", "finalbody"):
                yield from walk(getattr(node, field, []), in_function)
            for handler in getattr(node, "handlers", []):
                yield from walk(handler.body, in_function)
            for case in getattr(node, "cases", []):
                yield from walk(case.body, in_function)

    return walk(tree.body, False)


def main(args):
    ran = {}  # file name -> set of line numbers with a line event
    library = str(LIBRARY)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(library):
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(TESTS), *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = 0
    for path in sorted(LIBRARY.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        seen = ran.get(str(path), set())
        for first, last in _statements(ast.parse(source)):
            if not seen.intersection(range(first, last + 1)):
                missed += 1
                print(f"{path.relative_to(TESTS.parent)}:{first}: {lines[first - 1].strip()}")
    print(f"{missed} library statements never ran")
    return status or int(missed > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
