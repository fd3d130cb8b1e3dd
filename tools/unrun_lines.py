"""List the statements of a package that no test executes.

``coverage`` is not among this project's dependencies, so the script runs
pytest in its own process under a line tracer of the standard library
(``sys.settrace``, and ``threading.settrace`` for threads), then prints
each statement of the package's modules that no traced frame executed.

Usage::

    python tools/unrun_lines.py [DIR] [-- PYTEST_ARGS ...]

DIR defaults to ``src/dynstc`` beside this script's directory.  Its parent
goes first on ``sys.path``, so the tests import the package from DIR; the
package must not be imported before the tracer starts, or its module-level
statements read as not run.  PYTEST_ARGS default to none: pytest's own
configuration chooses the tests.  The output is one
``<path>:<line>: <source>`` line per statement not run, in path and line
order, then ``<k> of <n> statements not run``.  The exit code is pytest's.

A statement is every ``ast`` statement but a docstring and ``global`` or
``nonlocal`` (they compile to no code).  It counts as run when a line event
falls on its header: the whole of a simple statement, and a compound one
from its first decorator to the line before its body.

Forked children are not traced: a child inherits the tracer, but the lines
it records die with it, so code that only a forked child runs (the writes
``parallel._fill_in_parallel`` hands to its children) is listed as not
run.  Neither is code in a subprocess.  Tracing slows the tests several
times over, so a wall-clock bound in a test may fail under this script.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path


def statements(path) -> dict:
    """{header line range: first line} of each statement of the module at `path`."""
    tree = ast.parse(Path(path).read_text(encoding="utf-8"))
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    spans = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in docstrings or \
                isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        spans[range(first, last + 1)] = node.lineno
    return spans


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" in argv:
        argv, pytest_args = argv[:argv.index("--")], argv[argv.index("--") + 1:]
    else:
        pytest_args = []
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "dynstc"
    root = root.resolve()
    files = {str(path): path for path in sorted(root.rglob("*.py"))}
    sys.path.insert(0, str(root.parent))
    import pytest

    ran = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename in ran else None

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = total = 0
    for name, path in files.items():
        lines = path.read_text(encoding="utf-8").splitlines()
        spans = statements(path)
        total += len(spans)
        for span, line in sorted(spans.items(), key=lambda item: item[1]):
            if ran[name].isdisjoint(span):
                missed += 1
                print(f"{path}:{line}: {lines[line - 1].strip()}")
    print(f"{missed} of {total} statements not run")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
