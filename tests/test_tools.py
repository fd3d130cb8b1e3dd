"""The repository's scripts under tools/."""

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
