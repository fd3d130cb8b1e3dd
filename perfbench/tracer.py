"""Per-layer tracing of one ``dynstc`` CLI command, from outside the program.

Usage::

    python3 perfbench/tracer.py OUT_PREFIX -- synthesize --config cfg.json --out out

The command runs in this process through ``dynstc.cli.main`` with timing
wrappers on the public functions at each layer boundary.  A wrapper replaces
the module attribute that the *calling* module looks up at call time, so
``dynstc.sim.phi_solve`` is wrapped rather than ``dynstc.timing.phi_solve``.
``spec.f`` is wrapped through ``dataclasses.replace`` on the spec the CLI
builds from its config.  No file of the program changes.

Spans (name, start, end, parent) are kept in memory and written when the
command ends: ``OUT_PREFIX.spans.csv`` holds every span and
``OUT_PREFIX.json`` the per-name calls, total and self time, plus the work
counters taken from the wrapped calls' arguments and results.  A span's self
time is its duration minus that of its direct children.  The CLI runs on one
thread (the benchmark never passes ``--jobs``), so one span stack suffices.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import json
import math
import sys
import time
from collections import defaultdict

FLOW_SPANS = ("sim.simulate", "sim.simulate_periodic")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = defaultdict(int)
        self._stack = []

    def wrap(self, name, fn, on_result=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def caller(self):
        """Name of the innermost open span, or None at top level."""
        return self.spans[self._stack[-1]][0] if self._stack else None

    def summary(self):
        """Per-name calls/total/self seconds, and derived work counts."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        names = {}
        for k, (name, start, end, parent) in enumerate(self.spans):
            row = names.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[k]
        return {"names": names, "counters": dict(self.counters)}

    def write(self, prefix, extra):
        """Write the spans and summary; ``write_s`` is the time this took."""
        t_write = time.perf_counter()
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(f"{prefix}.spans.csv", "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["index", "name", "start_s", "end_s", "parent"])
            for k, (name, start, end, parent) in enumerate(self.spans):
                out.writerow([k, name, repr(start - t0), repr(end - t0), parent])
        doc = dict(self.summary(), **extra, write_s=time.perf_counter() - t_write)
        with open(f"{prefix}.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)


@contextlib.contextmanager
def traced(tracer):
    """Install the layer wrappers on the dynstc modules; restore on exit."""
    import numpy as np

    import dynstc.cli as cli
    import dynstc.engine as engine
    import dynstc.sim as sim

    count = tracer.counters

    def f_points(args, _):
        x, e = args  # the program passes arrays: one point each in the simulator
        if x.ndim == 1 and e.ndim == 1:
            points = 1
        else:
            points = math.prod(np.broadcast_shapes(x.shape[:-1], e.shape[:-1]))
        count["systems.f.points"] += points
        caller = tracer.caller() or ""
        if caller.startswith("synthesis."):
            count["synthesis.grid_points"] += points
        elif caller in FLOW_SPANS:
            count["sim.flow_f_calls"] += 1  # four per RK4 step

    def traced_spec(make_spec):
        def build(*args, **kwargs):
            spec = make_spec(*args, **kwargs)
            return dataclasses.replace(
                spec, f=tracer.wrap("systems.f", spec.f, f_points))
        return build

    def trajectory(args, traj):
        count["sim.flow_points"] += len(traj.flow_points)
        count["sim.monitor_records"] += len(traj.monitors)
        if traj.kind != "periodic":
            # one comparison-ODE lookup per flow segment of a triggered run
            count["sim.flow_segments"] += max(0, len(traj.samples) - 1)

    def decision(args, dec):
        count["engine.decisions"] += 1
        count["engine.fallback_decisions"] += bool(dec.used_fallback)

    def family_built(args, family):
        count["synthesis.sets"] += len(family.sets)

    def family_verified(args, reports):
        count["synthesis.sets"] += len(reports)
        count["synthesis.verify_grid_points"] += reports[0].n_points if reports else 0

    patches = [
        (cli, "spec_from_config", traced_spec(cli.spec_from_config)),
        (cli, "build_family", tracer.wrap("synthesis.build_family",
                                          cli.build_family, family_built)),
        (cli, "verify_family", tracer.wrap("synthesis.verify_family",
                                           cli.verify_family, family_verified)),
        (cli, "simulate", tracer.wrap("sim.simulate", cli.simulate, trajectory)),
        (cli, "simulate_periodic", tracer.wrap("sim.simulate_periodic",
                                               cli.simulate_periodic, trajectory)),
        (sim, "run_monitors", tracer.wrap("sim.run_monitors", sim.run_monitors)),
        (engine, "gamma_trigger", tracer.wrap("engine.gamma_trigger",
                                              engine.gamma_trigger, decision)),
        (sim, "phi_solve", tracer.wrap("timing.phi_solve", sim.phi_solve)),
        (sim, "solve_lambda_for_horizon",
         tracer.wrap("timing.solve_lambda_for_horizon", sim.solve_lambda_for_horizon)),
        (engine, "t_max", tracer.wrap("timing.t_max", engine.t_max)),
        (cli, "t_max", tracer.wrap("timing.t_max", cli.t_max)),
        (cli, "write_manifest", tracer.wrap("cli.write_manifest", cli.write_manifest)),
    ]
    for writer in ("write_trajectory_csv", "write_monitors_csv", "write_decisions_csv"):
        patches.append((cli, writer, tracer.wrap(f"cli.{writer}", getattr(cli, writer))))
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
    for mod, attr, fn in patches:
        setattr(mod, attr, fn)
    try:
        yield cli.main
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


def trace_command(argv, tracer):
    """Import dynstc and run one CLI command under the wrappers."""
    t0 = time.perf_counter()
    import dynstc.cli  # noqa: F401  (timed: every CLI process pays it)
    tracer.spans.append(["cli.import", t0, time.perf_counter(), -1])
    with traced(tracer) as main:
        return tracer.wrap("cli.main", main)(argv)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py OUT_PREFIX -- <dynstc arguments>", file=sys.stderr)
        return 2
    tracer = Tracer()
    code = trace_command(argv[2:], tracer)
    tracer.write(argv[0], {"exit_code": code})
    return code


if __name__ == "__main__":
    sys.exit(main())
