"""Count the code lines of each module of a package, and their total.

A code line is a physical line that holds a token of code: comments,
blank lines, and string statements (docstrings, and any other statement
that is only a string literal) do not count.  A string that is part of
code counts on every line it spans.  The lines are read with
:mod:`tokenize`, so a ``#`` inside a string is not a comment.

Usage::

    python tools/code_lines.py [DIR]

DIR defaults to ``src/dynstc`` beside this script's directory.  The
output is one ``<count> <module>`` line per ``*.py`` file in DIR, in name
order, then ``<total> total``.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(path) -> int:
    """Number of code lines in the Python source at `path`."""
    lines, statement = set(), []
    with tokenize.open(path) as fh:
        for tok in tokenize.generate_tokens(fh.readline):
            if tok.type not in _LAYOUT:
                statement.append(tok)
            elif tok.type == tokenize.NEWLINE:  # the end of a logical line
                if any(t.type != tokenize.STRING for t in statement):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
    return len(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "dynstc"
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:>6} {path.name}")
    print(f"{total:>6} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
