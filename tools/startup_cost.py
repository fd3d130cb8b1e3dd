"""Time what every ``dynstc`` process pays before and after its work.

Each round starts four child processes of this interpreter, in an order
that reverses from round to round:

- ``pass``: the interpreter with ``site``;
- ``import numpy``;
- ``dynstc --help``: the benchmark's launch line (``LAUNCH`` of
  ``perfbench/run.py``) with ``--help``, which imports ``dynstc.cli`` and
  parses the arguments;
- ``dynstc --help, os._exit``: the same, ended by ``os._exit(0)``, which
  skips the interpreter's teardown.

Every child runs with ``PYTHONPATH`` set to ``src`` beside this script's
directory and ``PYTHONDONTWRITEBYTECODE=1``, as on the benchmark host, so
each compiles the package from source, unless a test run has left
``src/dynstc/__pycache__`` behind: Python still reads bytecode it finds.

Usage::

    python tools/startup_cost.py [N]

N rounds, 16 by default.  The output is one ``<ms> ms  <label>`` line per
process type, its median wall time in milliseconds, then the derived
``teardown`` line: the median of ``dynstc --help`` minus that of
``dynstc --help, os._exit``.
"""

from __future__ import annotations

import ast
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def launch_line() -> str:
    """The benchmark's launch line, read from perfbench/run.py without running it."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["LAUNCH"])


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    rounds = int(argv[0]) if argv else 16
    launch = launch_line()
    # SystemExit from --help passes through the finally, which exits at once
    skip_teardown = (f"import os, sys\ntry:\n    exec({launch!r})\n"
                     "finally:\n    sys.stdout.flush()\n    os._exit(0)")
    children = {"pass": ["-c", "pass"],
                "import numpy": ["-c", "import numpy"],
                "dynstc --help": ["-c", launch, "--help"],
                "dynstc --help, os._exit": ["-c", skip_teardown, "--help"]}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    times = {label: [] for label in children}
    for k in range(rounds):
        for label in list(children)[::-1 if k % 2 else 1]:
            start = time.perf_counter()
            subprocess.run([sys.executable, *children[label]], cwd=ROOT, env=env,
                           stdout=subprocess.DEVNULL, check=True)
            times[label].append(time.perf_counter() - start)
    ms = {label: 1e3 * statistics.median(ts) for label, ts in times.items()}
    ms["teardown"] = ms["dynstc --help"] - ms["dynstc --help, os._exit"]
    for label, value in ms.items():
        print(f"{value:8.1f} ms  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
