"""The repository's scripts under tools/."""

import math
import subprocess
import sys
from pathlib import Path

CODE_LINES = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SOURCE = '''"""A module docstring,
over two lines."""

import math  # a comment after code

# a comment on its own line


def f(x):
    """A function docstring."""
    "a bare string statement"
    text = """a string in code,
over two lines # not a comment"""
    return (math.sqrt(x)
            + len(text))
'''


def test_code_lines_counts_only_code(tmp_path):
    # import, def, the two lines of `text = ...`, and the two of `return`
    (tmp_path / "b.py").write_text(SOURCE)
    (tmp_path / "a.py").write_text("x = 1\n")
    out = subprocess.run([sys.executable, str(CODE_LINES), str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout
    assert [line.split() for line in out.splitlines()] == [
        ["1", "a.py"], ["6", "b.py"], ["7", "total"]]


UNRUN_LINES = CODE_LINES.parent / "unrun_lines.py"

MODULE = '''"""A module docstring."""

import functools

G = 1


def used(x):
    """A function docstring."""
    if x > 0:
        return functools.reduce(max, [x, G])
    return 0.0


@functools.lru_cache
def unused(x):
    global G
    y = (x
         + 1)
    return y
'''


def test_unrun_lines_lists_the_statements_no_test_runs(tmp_path):
    # the module's own statements run at import; the negative branch of
    # used() and the body of unused() do not, and the docstrings and the
    # global statement are not statements
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text("")
    (tmp_path / "pkg" / "mod.py").write_text(MODULE)
    (tmp_path / "test_mod.py").write_text(
        "from pkg.mod import used\n\n\ndef test_used():\n    assert used(4.0) == 4.0\n")
    out = subprocess.run([sys.executable, str(UNRUN_LINES), str(tmp_path / "pkg"), "--",
                          "-q", "-p", "no:cacheprovider", str(tmp_path / "test_mod.py")],
                         capture_output=True, text=True, check=True, cwd=tmp_path).stdout
    mod = tmp_path / "pkg" / "mod.py"
    assert [line for line in out.splitlines() if line.startswith(str(tmp_path))] == [
        f"{mod}:12: return 0.0", f"{mod}:18: y = (x", f"{mod}:20: return y"]
    assert out.splitlines()[-1] == "3 of 9 statements not run"


STARTUP_COST = CODE_LINES.parent / "startup_cost.py"


def test_startup_cost_prints_each_process_type():
    # one round: a median per process type, then the derived teardown, which
    # reads about 0 once main freezes the import-time heap, so only its form
    # is checked; no timing is asserted
    out = subprocess.run([sys.executable, str(STARTUP_COST), "1"],
                         capture_output=True, text=True, check=True).stdout
    rows = [line.split(" ms  ") for line in out.splitlines()]
    assert [label for _, label in rows] == [
        "pass", "import numpy", "dynstc --help", "dynstc --help, os._exit", "teardown"]
    assert all(float(ms) > 0.0 for ms, _ in rows[:-1])
    assert math.isfinite(float(rows[-1][0]))
