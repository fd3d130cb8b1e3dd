"""Benchmark of dynstc end to end through its CLI, with a traced per-layer run.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload certify|fleet|long|all \\
        --seed N --seconds S --trace 0|1

Every ``dynstc`` command runs in a child process, as users run it, against
the package under ``src/`` of this checkout.  A run of one workload:

1. writes the workload's config from ``--seed`` and sets up three times,
   timing each set-up (an import probe, plus the manifest synthesis for the
   workloads whose timed commands read a manifest);
2. repeats the workload's timed commands until ``--seconds`` are used, at
   least three times;
3. checks every command's exit code and outputs, and that the artifacts are
   byte-identical across repetitions (their SHA-256 digest is printed);
4. with ``--trace 1``, runs each timed command once more under
   ``perfbench/tracer.py`` and prints the per-layer table.

Before and after each set-up and each repetition it times ``reference.py``,
a fixed computation that does not import dynstc.  The gated times
``setup_s`` and ``wall_s`` are medians of measured time x REF_NOMINAL_S /
(mean of the two reference times around it): seconds on a host that runs
the reference in REF_NOMINAL_S.  The speed of the 2-core host this
benchmark was built on drifts by 30% and more within a minute, and the
correction narrows the run-to-run spread of those medians.  The raw times
are printed beside them.

``--workload all`` interleaves the repetitions of every workload, so drift
of the machine hits each alike.  The human-readable report comes first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The exit code is 0 only when every operation succeeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import (
    MANIFEST,
    WORKLOADS,
    argv_for,
    check_outputs,
    n_sets,
    run_facts,
    verify_grid_points,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# what the ``dynstc`` console script runs (pyproject: dynstc = dynstc.cli:main)
LAUNCH = "import sys; from dynstc.cli import main; sys.exit(main(sys.argv[1:]))"
PROBE = "import dynstc, numpy; print(dynstc.__file__); print(numpy.__version__)"
SETUP_REPS = 3
MIN_REPS = 3
DEADLINE_S = 170.0  # every child is killed past this, so a run ends within 180 s
REFERENCE = HERE / "reference.py"
REF_NOMINAL_S = 0.4  # about the reference's median time on that 2-core host

LAYERS = (  # (row label, span-name prefixes), ROADMAP layers L0-L5
    ("L0 timing", ("timing.",)),
    ("L1 engine", ("engine.",)),
    ("L2 systems.f", ("systems.",)),
    ("L2 sim flow", ("sim.simulate",)),
    ("L3 sim monitors", ("sim.run_monitors",)),
    ("L4 synthesis", ("synthesis.",)),
    ("L5 cli", ("cli.",)),
)


@dataclass
class Op:
    """One child process: a CLI command or a probe."""

    label: str
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    problems: list = field(default_factory=list)

    @property
    def ok(self):
        return self.code == 0 and not self.problems


class Runner:
    """Starts children that import dynstc from ``src/``, killing them at the deadline."""

    def __init__(self, deadline):
        self.deadline = deadline
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))

    def child(self, label, argv, log_dir):
        log_dir.mkdir(parents=True, exist_ok=True)
        out_path, err_path = log_dir / f"{label}.stdout", log_dir / f"{label}.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=self.env,
                                    stdout=out, stderr=err)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            timer.cancel()
            timer.join()
        op = Op(label, proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, out_path.read_text(encoding="utf-8"))
        if op.code != 0:
            tail = err_path.read_text(encoding="utf-8").strip().splitlines()[-1:]
            op.problems.append(f"exit code {op.code}: {' '.join(tail)}")
        return op


def digest(out, ops):
    """SHA-256 over the artifact files (name and bytes) and each command's stdout."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes() + b"\0")
    for op in ops:
        h.update(op.stdout.encode() + b"\0")
    return h.hexdigest()


def median(values):
    return statistics.median(values) if values else 0.0


def fmt(values):
    return "[" + " ".join(f"{v:.4g}" for v in values) + "]"


class Bench:
    """One workload's set-up, repetitions, traced run and report."""

    def __init__(self, workload, seed, runner):
        self.w = workload
        self.seed = seed
        self.runner = runner
        self.dir = WORK / workload.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config_path = self.dir / "config.json"
        self.config = workload.config(seed)
        self.setup_s, self.setup_ref_s, self.import_s, self.setup_synth_s = [], [], [], []
        self.setup_digests = set()
        self.numpy_version = "?"
        self.reps = []  # (ops, digest)
        self.rep_ref_s = []  # reference times before the first and after each repetition
        self.trace = None
        self.ops = []  # every child started for this workload
        self.facts = None  # deterministic facts of the first correct run

    def _child(self, label, argv):
        op = self.runner.child(label, argv, self.dir / "logs")
        self.ops.append(op)
        return op

    def _reference(self, label):
        return self._child(label, [str(REFERENCE)]).wall_s

    def _cli(self, label, command, out, argv_head=("-c", LAUNCH)):
        op = self._child(label, [*argv_head, *argv_for(command, self.config_path, out)])
        if op.code == 0:
            op.problems += check_outputs(command, op.stdout, out, self.config)
        return op

    def setup(self):
        self.setup_ref_s.append(self._reference("setup_reference"))
        for k in range(SETUP_REPS):
            t0 = time.perf_counter()
            self.config_path.write_text(json.dumps(self.config, indent=1) + "\n",
                                        encoding="utf-8")
            probe = self._child(f"setup{k}_import", ["-c", PROBE])
            lines = probe.stdout.split()
            if probe.code == 0 and not Path(lines[0]).is_relative_to(SRC):
                probe.problems.append(f"imported dynstc from {lines[0]}, not {SRC}")
            self.import_s.append(probe.wall_s)
            if lines:
                self.numpy_version = lines[-1]
            if self.w.needs_manifest:
                out = self.dir / f"setup{k}"
                shutil.rmtree(out, ignore_errors=True)
                op = self._cli(f"setup{k}_synthesize", "synthesize", out)
                self.setup_synth_s.append(op.wall_s)
                self.setup_digests.add(digest(out, [op]))
                if len(self.setup_digests) > 1:
                    op.problems.append("manifest differs between set-ups")
            self.setup_s.append(time.perf_counter() - t0)
            self.setup_ref_s.append(self._reference(f"setup{k}_reference"))

    def _fresh_out(self):
        out = self.dir / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        manifest = self.dir / "setup0" / MANIFEST
        if manifest.exists():  # missing only after a failed set-up, already counted
            shutil.copyfile(manifest, out / MANIFEST)
        return out

    def _check_digest(self, out, ops, what):
        got = digest(out, ops)
        if self.reps and got != self.reps[0][1] and ops:
            ops[-1].problems.append(f"{what} artifacts differ from repetition 0")
        return got

    def rep(self):
        k = len(self.reps)
        if not self.rep_ref_s:
            self.rep_ref_s.append(self._reference("rep_reference"))
        out = self._fresh_out()
        ops = []
        for command in self.w.commands:
            op = self._cli(f"rep{k}_{command}", command, out)
            ops.append(op)
            if not op.ok:
                break
            if command == "run" and self.facts is None:
                self.facts = run_facts(out, self.config["run"])
        self.reps.append((ops, self._check_digest(out, ops, f"repetition {k}")))
        self.rep_ref_s.append(self._reference(f"rep{k}_reference"))

    def traced(self):
        out = self._fresh_out()
        trace_dir = self.dir / "trace"
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir()
        ops, docs = [], []
        for k, command in enumerate(self.w.commands):
            prefix = trace_dir / f"{k}_{command}"
            op = self._cli(f"trace_{command}", command, out,
                           argv_head=(str(HERE / "tracer.py"), str(prefix), "--"))
            if op.code == 0:
                docs.append(json.loads(prefix.with_suffix(".json").read_text(encoding="utf-8")))
            ops.append(op)
            if not op.ok:
                break
        self._check_digest(out, ops, "traced")
        verify_points = sum(d["counters"].get("synthesis.verify_grid_points", 0) for d in docs)
        if verify_points:
            want = verify_grid_points(self.w, self.config)
            if verify_points != want:
                ops[-1].problems.append(
                    f"verify swept {verify_points} points; the harness counts {want}")
        written = [p for p in out.iterdir()
                   if not (self.w.needs_manifest and p.name == MANIFEST)]
        self.trace = (ops, docs, sum(p.stat().st_size for p in written), len(written))

    def command_walls(self, command):
        return [op.wall_s for ops, _ in self.reps for op in ops if op.label.endswith(command)]

    def raw_walls(self):
        return [sum(op.wall_s for op in ops) for ops, _ in self.reps]

    def corrected(self):
        """Set-up and repetition times at the reference host speed."""
        def scale(times, refs):
            return [2 * REF_NOMINAL_S * t / (a + b) for t, a, b in zip(times, refs, refs[1:])]
        return scale(self.setup_s, self.setup_ref_s), scale(self.raw_walls(), self.rep_ref_s)

    def end_to_end(self):
        setup, walls = self.corrected()
        rss = [op.rss_mb for ops, _ in self.reps for op in ops]
        return {
            "setup_s": (median(setup), "s"),
            "wall_s": (median(walls), "s"),
            "peak_rss_mb": (max(rss, default=0.0), "MB"),
        }

    def workload_metrics(self):
        """The workload's own end-to-end figures, with their bases."""
        rows = [("setup_s (raw)", median(self.setup_s), "s", "as measured"),
                ("wall_s (raw)", median(self.raw_walls()), "s", "as measured")]
        for command in self.w.commands:
            walls = self.command_walls(command)
            rows.append((f"{command}_s", median(walls), "s", f"median of {len(walls)}"))
        if self.setup_synth_s:
            rows.append(("synthesize_s", median(self.setup_synth_s), "s",
                         f"in set-up, median of {len(self.setup_synth_s)}"))
        if "verify" in self.w.commands:
            evals = verify_grid_points(self.w, self.config) * n_sets(self.config)
            rows.append(("grid_evals_per_s", evals / median(self.command_walls("verify")),
                         "1/s", f"{evals} grid points x sets / verify_s"))
        if self.facts:
            facts = self.facts
            run_s = median(self.command_walls("run"))
            rows.append(("sim_s_per_host_s", facts["sim_s"] / run_s, "1",
                         f"{facts['sim_s']:g} simulated s / run_s"))
            rows.append(("dyn_samples_per_sim_s", facts["dyn_samples"] / facts["dyn_sim_s"],
                         "1/s", f"{facts['dyn_samples']} samples / {facts['dyn_sim_s']:g} s"))
            if "per_first_5s" in facts:
                rows.append(("sample_ratio_5s", facts["dyn_first_5s"] / facts["per_first_5s"],
                             "1", f"{facts['dyn_first_5s']} dynamic / "
                             f"{facts['per_first_5s']} periodic samples"))
            rows.append(("monitor_violations", facts["monitor_violations"], "count",
                         "from summary.json"))
        return rows

    def per_layer(self):
        ops, docs, bytes_written, files_written = self.trace
        names, counters = {}, {}
        for doc in docs:
            for name, row in doc["names"].items():
                acc = names.setdefault(name, {"calls": 0, "self_s": 0.0})
                acc["calls"] += row["calls"]
                acc["self_s"] += row["self_s"]
            for name, value in doc["counters"].items():
                counters[name] = counters.get(name, 0) + value
        # the tracer's own output time is not part of the traced command
        wall = sum(op.wall_s for op in ops) - sum(doc["write_s"] for doc in docs)
        untraced = median(self.raw_walls())

        def calls(name):
            return names.get(name, {}).get("calls", 0)

        def self_s(name):
            return names.get(name, {}).get("self_s", 0.0)

        def ratio(num, den):
            return num / den if den else 0.0

        segments = counters.get("sim.flow_segments", 0)
        decisions = counters.get("engine.decisions", 0)
        f_calls, f_points = calls("systems.f"), counters.get("systems.f.points", 0)
        spanned = sum(row["self_s"] for row in names.values())
        m = {
            "systems.f.calls": (f_calls, "count"),
            "systems.f.points": (f_points, "count"),
            "systems.f.points_per_call": (ratio(f_points, f_calls), "ratio"),
            "systems.f.self_s": (self_s("systems.f"), "s"),
            "synthesis.build_family.self_s": (self_s("synthesis.build_family"), "s"),
            "synthesis.verify_family.self_s": (self_s("synthesis.verify_family"), "s"),
            "synthesis.grid_points": (counters.get("synthesis.grid_points", 0), "count"),
            "synthesis.sets": (counters.get("synthesis.sets", 0), "count"),
            "timing.phi_solve.calls": (calls("timing.phi_solve"), "count"),
            "timing.phi_solve.self_s": (self_s("timing.phi_solve"), "s"),
            "timing.solve_lambda_for_horizon.calls":
                (calls("timing.solve_lambda_for_horizon"), "count"),
            "timing.solve_lambda_for_horizon.self_s":
                (self_s("timing.solve_lambda_for_horizon"), "s"),
            "timing.t_max.calls": (calls("timing.t_max"), "count"),
            "timing.t_max.self_s": (self_s("timing.t_max"), "s"),
            "engine.gamma_trigger.calls": (calls("engine.gamma_trigger"), "count"),
            "engine.gamma_trigger.self_s": (self_s("engine.gamma_trigger"), "s"),
            "engine.fallback_frac":
                (ratio(counters.get("engine.fallback_decisions", 0), decisions), "ratio"),
            "sim.simulate.self_s": (self_s("sim.simulate"), "s"),
            "sim.simulate_periodic.self_s": (self_s("sim.simulate_periodic"), "s"),
            "sim.rk4_steps": (counters.get("sim.flow_f_calls", 0) / 4, "count"),
            "sim.flow_points": (counters.get("sim.flow_points", 0), "count"),
            "sim.flow_segments": (segments, "count"),
            "sim.run_monitors.self_s": (self_s("sim.run_monitors"), "s"),
            "sim.monitor_records": (counters.get("sim.monitor_records", 0), "count"),
            "sim.phi_cache_hit_ratio":
                (1.0 - ratio(calls("timing.phi_solve"), segments) if segments else 0.0, "ratio"),
            "cli.import_s": (median(self.import_s), "s"),
            "cli.main.self_s": (self_s("cli.main"), "s"),
            "cli.write_s": (sum(row["self_s"] for name, row in names.items()
                                if name.startswith("cli.write_")), "s"),
            "cli.bytes_written": (bytes_written, "B"),
            "cli.files_written": (files_written, "count"),
            "cli.cpu_s": (median([sum(op.cpu_s for op in o) for o, _ in self.reps]), "s"),
            "trace.wall_s": (wall, "s"),
            "trace.overhead_s": (wall - untraced, "s"),
            "trace.self_coverage": (ratio(spanned, wall), "ratio"),
            "calib.reference_s": (median(self.rep_ref_s), "s"),
        }
        bases = {
            "systems.f.points_per_call": f"{f_points} points / {f_calls} calls",
            "engine.fallback_frac": f"{counters.get('engine.fallback_decisions', 0)} "
                                    f"fall-backs / {decisions} decisions",
            "sim.phi_cache_hit_ratio": f"1 - {calls('timing.phi_solve')} phi_solve calls "
                                       f"/ {segments} flow segments",
            "sim.rk4_steps": f"{counters.get('sim.flow_f_calls', 0)} flow f calls / 4",
            "trace.overhead_s": f"traced {wall:.3f} s - untraced median {untraced:.3f} s",
            "trace.self_coverage": f"{spanned:.3f} s of spans' self time / traced wall",
        }
        return m, bases, names, wall, spanned

    def print_report(self, trace):
        w = self.w
        reps = len(self.reps)
        print(f"== {w.name} (seed {self.seed}): {' + '.join(w.commands)}; {reps} repetitions")
        print(f"   why: {w.why}")
        if "run" in self.config:
            print(f"   x0 = {self.config['run']['x0']}")
        print(f"   {'metric':<24} {'value':>12}  {'unit':<6} {'min':>9} {'max':>9}  base")
        spread = dict(zip(("setup_s", "wall_s"), self.corrected()))
        for name, (value, unit) in self.end_to_end().items():
            vals = spread.get(name, [])
            lo, hi = (f"{min(vals):9.4f}", f"{max(vals):9.4f}") if vals else ("", "")
            print(f"   {name:<24} {value:12.5g}  {unit:<6} {lo:>9} {hi:>9}")
        for name, value, unit, base in self.workload_metrics():
            print(f"   {name:<24} {value:12.5g}  {unit:<6} {'':>9} {'':>9}  {base}")
        failed = [op for op in self.ops if not op.ok]
        print(f"   {'failed_frac':<24} {len(failed) / len(self.ops):12.5g}  "
              f"{'1':<6} {'':>9} {'':>9}  {len(failed)} / {len(self.ops)} operations")
        for op in failed:
            print(f"   FAILED {op.label}: {'; '.join(op.problems)}")
        cpus = [sum(op.cpu_s for op in ops) for ops, _ in self.reps]
        refs = self.rep_ref_s
        print(f"   diagnostics (ungated), per repetition: raw wall_s {fmt(self.raw_walls())}; "
              f"cli.cpu_s {fmt(cpus)}; reference_s {fmt(refs)}")
        print(f"   per set-up: raw setup_s {fmt(self.setup_s)}; reference_s "
              f"{fmt(self.setup_ref_s)}; cli.import_s {fmt(self.import_s)}")
        print(f"   artifact digest sha256 {self.reps[0][1] if self.reps else '-'}")
        if trace and self.trace:
            m, bases, names, wall, spanned = self.per_layer()
            print(f"   traced run: {wall:.3f} s wall; per layer (self time, share of wall):")
            for label, prefixes in LAYERS:
                rows = {n: r for n, r in names.items() if n.startswith(prefixes)}
                total = sum(r["self_s"] for r in rows.values())
                print(f"     {label:<16} {sum(r['calls'] for r in rows.values()):>9} calls "
                      f"{total:9.4f} s {100 * total / wall:6.1f}%")
                for n in sorted(rows):
                    print(f"       {n:<36} {rows[n]['calls']:>9} {rows[n]['self_s']:9.4f} s")
            print(f"     {'not in a span':<16} {'':>15} {wall - spanned:9.4f} s "
                  f"{100 * (wall - spanned) / wall:6.1f}%  (interpreter and tracer start-up)")
            for name, base in bases.items():
                print(f"     {name} = {m[name][0]:.6g}  ({base})")


def machine_line(numpy_version):
    model = "?"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "?")
    except OSError:
        pass
    return (f"machine: nproc {os.cpu_count()}, cpu {model}, python "
            f"{platform.python_version()}, numpy {numpy_version}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dynstc" / "cli.py").is_file():
        print(f"no dynstc sources at {SRC / 'dynstc'}; run from a source checkout",
              file=sys.stderr)
        return 2
    start = time.monotonic()
    runner = Runner(deadline=start + DEADLINE_S)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    benches = [Bench(WORKLOADS[n], args.seed, runner) for n in names]
    for b in benches:
        b.setup()
    t0 = time.monotonic()
    rounds = 0
    while True:
        for b in benches:
            b.rep()
        rounds += 1
        now = time.monotonic()
        per_round = (now - t0) / rounds
        reserve = 2 * per_round if args.trace else 0.0
        if rounds >= MIN_REPS and now - t0 + per_round > args.seconds:
            break
        if now + per_round + reserve > runner.deadline:
            break
    if args.trace:
        for b in benches:
            b.traced()
    print(machine_line(benches[0].numpy_version))
    metrics = {}
    for b in benches:
        b.print_report(args.trace)
        prefix = f"{b.w.name}." if len(benches) > 1 else ""
        chosen = b.per_layer()[0] if args.trace else b.end_to_end()
        for name, (value, unit) in chosen.items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    ops = [op for b in benches for op in b.ops]
    failed = sum(not op.ok for op in ops)
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
