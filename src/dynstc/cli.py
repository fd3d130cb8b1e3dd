"""Command-line front end: synthesize, run, compare, verify.

Experiments are described by one JSON config with four blocks::

    {
      "system":    {"name": "van_der_pol", "c": 10.0},
      "stc":       {"delta": 0.999, "eps_ref": 0.01, "m": 30},
      "synthesis": {"ladder": {"n": 21, "top": 0.01, "bottom": -40.0},
                    "l_const": 0.05, "grid_density": 48},
      "run":       {"x0": [[-0.3, 1.7]], "t_end": 15.0, "baselines": true}
    }

Each key is read by its kind and default in the table `_KEYS`; a value
of another kind, a boolean, a numeric string or a non-finite number for a
number included, is a bad config.  `run.dt_flow: null` means the default.

Every subcommand takes --out, the artifact directory; all but `compare`
also take --config.  Artifacts land there: the parameter-family
manifest, per-run CSVs (trajectory, decisions, monitors), a summary.json,
and on `compare` a plain-text report plus a gnuplot script.  Nothing is
random, so outputs are byte deterministic for a fixed config.  `run`
makes one job per initial state and mechanism, run{k}_{mechanism} in
that order.  It simulates every job in turn in its own process, so a
profiler that wraps `cli.simulate` there (perfbench/tracer.py) sees every
simulation.  Then it writes the jobs' CSVs to temporary names in --out on
every CPU it may use (`_fill_in_parallel` of :mod:`dynstc.parallel`, the
grid pass's helper): the writes are split into one contiguous range per
CPU, forked children write every range but the last, and the process
itself the last.  With fewer jobs than the k CPUs, each job's trajectory
CSV is written in P = ceil(k / jobs) row ranges, each an item of its
own, so one long job is written on every CPU; the last range's item also
writes the job's monitors and decisions CSVs.  Once every item is
written, each job's ranges are joined in order, the CSVs are renamed
into place in job order, then summary.json and stdout are written.  A
Python exception or an interrupt before the renames removes the
temporary files, so a numerical failure leaves no partial run artifacts,
older files in --out keep their bytes, and the error is the one a serial
loop over the jobs raises.  A process killed by a signal cleans up
nothing: SIGTERM or SIGKILL can leave `*.tmp` files in --out (its
children stop before their next item), and an interrupt during the
renames leaves some of the new CSVs beside the old summary.json.

Exit codes: 0 success, 2 invalid or unreadable config, an --out that
cannot be made a directory, an output path taken by a directory (all
found before any synthesis or simulation, the stc block by
``StcConfig``'s own checks, but for the bound run.dt_flow <= t_min/16,
which needs the family and is checked after synthesis; a command checks
every artifact it reads or writes, and leaves --out as it was), or a
missing or malformed artifact, 3 synthesis or verification failure,
4 monitor violation, 5 numerical failure or out of memory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from dataclasses import replace
from pathlib import Path

from .engine import (
    RegionEscapeError,
    StcConfig,
    t_max_cap,
    t_min_of,
)
from . import parallel
from .sim import (
    IntegrationBlowupError,
    simulate,
    simulate_periodic,
    write_decisions_csv,
    write_monitors_csv,
    write_trajectory_csv,
)
from .synthesis import (
    SynthesisError,
    build_family,
    default_epsilon_ladder,
    read_manifest,
    verify_family,
    write_manifest,
)
from .systems import spec_from_config
from .timing import HorizonError, t_max  # noqa: F401  (perfbench/tracer.py wraps cli.t_max)

__all__ = ["main"]

MANIFEST_NAME = "family.json"
SUMMARY_NAME = "summary.json"


class ConfigError(ValueError):
    pass


# Every config key as (kind, default), one table per block; "" is the top
# level.  A key without a default (_ABSENT) stays absent when it is absent,
# and a default of None makes null mean the default.  An optional third
# entry is the largest value the key takes.
_ABSENT = object()
_KEYS = {
    "": {"system": ("block", _ABSENT), "stc": ("block", {}),
         "synthesis": ("block", None), "run": ("block", None)},
    "system": {"name": ("text", _ABSENT), "c": ("number", _ABSENT),
               "p": ([["number"]], _ABSENT), "dimension": ("integer", _ABSENT)},
    "stc": {"delta": ("number", 0.999), "eps_ref": ("number", 0.01),
            "m": ("integer", 30, 10 ** 6), "eta_init": ("text", "v0")},
    "synthesis": {"epsilons": (["number"], _ABSENT), "ladder": ("block", _ABSENT),
                  "l_const": ("number", 0.05), "grid_density": ("integer", 48)},
    "synthesis.ladder": {"n": ("integer", 21), "top": ("number", 0.01),
                         "bottom": ("number", -40.0)},
    "run": {"x0": (["vector"], None), "t_end": ("number", 15.0),
            "dt_flow": ("number", None), "baselines": ("flag", False)},
}


def _typed(value, kind, where, top=None):
    """`value` as config kind `kind`, or a ConfigError naming the dotted key `where`.

    A number is a finite JSON int or float, never a boolean or a string
    (json reads NaN and Infinity); an integer is a number with an integral
    value, at most `top` if given.  A flag is a boolean, text a string, and
    a block a mapping typed by its table in _KEYS.  ``[kind]`` is a list of
    that kind; a vector is a list of numbers, or one bare number for a 1-D
    state.
    """
    if isinstance(kind, list):
        if isinstance(value, list):
            return [_typed(v, kind[0], f"{where}[{i}]") for i, v in enumerate(value)]
    elif kind == "block":
        return _block(value, where)
    elif kind == "vector":
        return _typed(value if isinstance(value, list) else [value], ["number"], where)
    elif kind in ("flag", "text"):
        if isinstance(value, bool if kind == "flag" else str):
            return value
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        if kind == "number":
            try:
                number = float(value)
            except OverflowError:  # an int literal beyond the largest double
                raise ConfigError(f"'{where}' is out of the range of a float") from None
            if not math.isfinite(number):
                raise ConfigError(f"'{where}' must be finite, not {value!r}")
            return number
        if isinstance(value, int) or value.is_integer():
            if top is not None and value > top:
                raise ConfigError(f"'{where}' must be at most {top}")
            return int(value)
    raise ConfigError(f"'{where}' must be of kind {kind}, not {value!r}")


def _block(block, name):
    """The config block `name`, typed by its table, with the defaults filled in."""
    if not isinstance(block, dict):
        raise ConfigError(f"config block {name or 'config'!r} must be a mapping")
    table = _KEYS[name]
    unknown = set(block) - set(table)
    if unknown:
        raise ConfigError(f"unknown keys in {name or 'config'!r}: {sorted(unknown)}")
    typed = {}
    for key, (kind, default, *top) in table.items():
        value = block.get(key, default)
        if value is not _ABSENT:
            typed[key] = (None if value is default is None
                          else _typed(value, kind, f"{name}.{key}".lstrip("."), *top))
    return typed


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:  # absent, a directory, or not readable
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    doc = _block(raw, "")
    if "system" not in doc:
        raise ConfigError("config requires a 'system' block")
    return doc, spec_from_config(doc["system"])


def _check_paths(paths):
    """A ConfigError naming the first of the artifact `paths` taken by a directory.

    Each command checks every artifact it reads or writes before any other
    work, so a directory in the way costs no synthesis or simulation and
    leaves every file in --out as it was.
    """
    for path in paths:
        if path.is_dir():
            raise ConfigError(f"artifact path {path} is taken by a directory")


def _stc_config(doc, spec, out, reuse):
    """The trigger config.  Its family is the manifest in `out` if `reuse` finds one,
    else synthesized and written there; the stc and synthesis blocks are checked
    either way, before any synthesis."""
    # StcConfig's checks read no family, so the stc block is checked by them up front
    cfg = StcConfig(family=None, c=spec.region_c, **doc["stc"])
    synth = doc["synthesis"]
    if synth is not None:
        if ("epsilons" in synth) == ("ladder" in synth):
            raise ConfigError("synthesis block needs exactly one of 'epsilons' or 'ladder'")
        ladder = synth.get("ladder")
        epsilons = (default_epsilon_ladder(ladder["n"], ladder["top"], ladder["bottom"])
                    if ladder else synth["epsilons"])
        if not epsilons:
            raise ConfigError("'synthesis.epsilons' must be non-empty")
    manifest = out / MANIFEST_NAME
    if reuse and manifest.exists():
        family, _ = read_manifest(manifest)
    elif synth is None:
        raise ConfigError(f"no manifest at {manifest} and no 'synthesis' block in the config"
                          if reuse else "config requires a 'synthesis' block for this command")
    else:
        # a file in the way of --out is found before the synthesis, not after it
        if not next((p for p in (out, *out.parents) if os.path.exists(p)), out).is_dir():
            raise ConfigError(f"--out {out} cannot be made a directory: a file is in its way")
        family = build_family(spec, epsilons, synth["l_const"], synth["grid_density"])
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a file in its way, or no permission
            raise ConfigError(f"--out {out} cannot be made a directory: {exc.strerror}") from exc
        write_manifest(manifest, family, synth["grid_density"])
    return replace(cfg, family=family)


def _run_block(doc, spec):
    """The run block, through every check that needs no family: all before any synthesis."""
    block = doc["run"]
    if block is None:
        raise ConfigError("config requires a 'run' block for this command")
    if not block["x0"]:
        raise ConfigError("'run.x0' must be a non-empty list of state vectors")
    for k, vec in enumerate(block["x0"]):
        if len(vec) != spec.n_x:
            raise ConfigError(f"run.x0[{k}] is not a finite vector of length {spec.n_x}")
        if float(spec.v(vec)) > spec.region_c:
            raise ConfigError(f"run.x0[{k}] starts outside the region V <= c")
    if not block["t_end"] > 0.0:
        raise ConfigError("'run.t_end' must be positive and finite")
    if block["dt_flow"] is not None and not block["dt_flow"] > 0.0:
        raise ConfigError("'run.dt_flow' must be positive")
    return block


def cmd_synthesize(args) -> int:
    doc, spec = _load_config(args.config)
    out = Path(args.out)
    _check_paths([out / MANIFEST_NAME])
    cfg = _stc_config(doc, spec, out, reuse=False)
    print(f"t_min = {t_min_of(cfg):.6g}")
    print(f"{'set':>4} {'epsilon':>12} {'gamma':>12} {'L':>8} {'delta*t_max':>12}")
    for i, ps in enumerate(cfg.family.sets):
        cap = cfg._interval_caps[i]
        print(f"{i:>4} {ps.epsilon:>12.6g} {ps.gamma:>12.6g} {ps.l_const:>8.4g} "
              f"{cap:>12.6g}")
    return 0


def _simulate(mech, x0, cfg, spec, t_end, dt_flow):
    if mech == "dynamic":
        return simulate(x0, cfg, spec, t_end, dt_flow)
    if mech == "static":
        return simulate(x0, replace(cfg, m=1), spec, t_end, dt_flow)
    return simulate_periodic(x0, spec, t_min_of(cfg), t_end, dt_flow)


def _interval_stats(traj):
    gaps = traj.intervals()
    if not gaps:
        return {"min": 0.0, "mean": 0.0, "max": 0.0}
    return {"min": min(gaps), "mean": math.fsum(gaps) / len(gaps), "max": max(gaps)}


def _row_part(traj, part, parts):
    """traj with the part-th of `parts` equal row ranges of its flow records, as views."""
    n = len(traj.flow_points)
    return replace(traj, flow_points=traj.flow_points.rows(n * part // parts,
                                                          n * (part + 1) // parts))


def _join_parts(paths):
    """Append the CSVs paths[1:], each without its header line, to the CSV paths[0]."""
    for path in paths[1:]:
        with open(path, "rb") as src, open(paths[0], "ab") as dst:
            src.readline()
            shutil.copyfileobj(src, dst)


def cmd_run(args) -> int:
    doc, spec = _load_config(args.config)
    out = Path(args.out)
    block = _run_block(doc, spec)
    t_end, dt_flow = block["t_end"], block["dt_flow"]
    mechanisms = ["dynamic"] + (["static", "periodic"] if block["baselines"] else [])
    jobs = [(f"run{idx}_{mech}", x0, mech) for idx, x0 in enumerate(block["x0"])
            for mech in mechanisms]
    files = [[out / f"{stem}_{kind}.csv" for kind in ("trajectory", "monitors", "decisions")]
             for stem, _, _ in jobs]
    _check_paths([out / MANIFEST_NAME, *(path for paths in files for path in paths),
                  out / SUMMARY_NAME])
    cfg = _stc_config(doc, spec, out, reuse=True)
    tmin = t_min_of(cfg)
    if dt_flow is not None and dt_flow > tmin / 16.0:  # the one check that needs the family
        raise ConfigError(f"'run.dt_flow' must lie in (0, t_min/16 = {tmin / 16.0:.6g}]")
    trajs = [_simulate(mech, x0, cfg, spec, t_end, dt_flow) for _, x0, mech in jobs]
    # with fewer jobs than CPUs, a job is `parts` items: item p writes the
    # p-th row range of its trajectory CSV to a temporary name of its own
    # (<name>.<pid>.tmp for p = 0, <name>.<pid>.<p>.tmp after), and the last
    # item also the job's other CSVs.  Once every item is written, the parts
    # are joined and the CSVs renamed into place.
    parts = -(-parallel._cpus() // len(jobs))
    pid = os.getpid()

    def temp(path, part=0):
        return path.with_name(f"{path.name}.{pid}{f'.{part}' if part else ''}.tmp")

    # per job: its trajectory parts 0..parts-1, then its monitors and decisions
    temps = [[temp(paths[0], part) for part in range(parts)] + [temp(path) for path in paths[1:]]
             for paths in files]

    def write(item):
        i, part = divmod(item, parts)
        traj = trajs[i]
        write_trajectory_csv(temps[i][part], _row_part(traj, part, parts))
        if part == parts - 1:
            *_, monitors, decisions = temps[i]
            write_monitors_csv(monitors, traj)
            if traj.decisions:  # a periodic run makes none
                write_decisions_csv(decisions, traj)

    try:
        parallel._fill_in_parallel(write, len(jobs) * parts)
        for temp_paths in temps:
            _join_parts(temp_paths[:parts])
        for traj, paths, temp_paths in zip(trajs, files, temps):
            for path, temp in zip(paths[:3 if traj.decisions else 2],
                                  [temp_paths[0], *temp_paths[parts:]]):
                temp.replace(path)
    finally:  # on every way out of this process but a signal that kills it
        for temp_paths in temps:
            for temp in temp_paths:
                temp.unlink(missing_ok=True)
    summary = {"t_min": tmin, "t_max_cap": t_max_cap(cfg),
               "t_end": t_end, "runs": []}
    violations = 0
    for (_, x0, mech), traj in zip(jobs, trajs):
        n_viol = len(traj.violations())
        violations += n_viol
        summary["runs"].append({
            "x0": x0,
            "mechanism": mech,
            "n_samples": len(traj.samples),
            "n_first_5s": traj.n_samples_before(min(5.0, t_end)),
            "n_total": traj.n_samples_before(t_end),
            "intervals": _interval_stats(traj),
            "violations": n_viol,
            "fallback_decisions": sum(d.used_fallback for d in traj.decisions),
        })
    with open(out / SUMMARY_NAME, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for run in summary["runs"]:
        print(f"x0={run['x0']} {run['mechanism']}: {run['n_total']} samples "
              f"(first 5 s: {run['n_first_5s']}), intervals "
              f"[{run['intervals']['min']:.6g}, {run['intervals']['max']:.6g}], "
              f"violations={run['violations']}")
    if violations:
        print(f"monitor violations: {violations}", file=sys.stderr)
        return 4
    return 0


def _point_text(point):
    return "(" + ", ".join(f"{v:.6g}" for v in point) + ")"


def cmd_verify(args) -> int:
    doc, spec = _load_config(args.config)
    out = Path(args.out)
    manifest = out / MANIFEST_NAME
    _check_paths([manifest])
    if not manifest.exists():
        raise ConfigError(f"no manifest at {manifest}; run synthesize first")
    family, density = read_manifest(manifest)
    check_density = 96 if density is None else 2 * density
    reports = verify_family(spec, family, check_density)
    worst = 0
    print(f"{'set':>4} {'epsilon':>12} {'gamma':>12} {'violation':>14} {'ok':>4} "
          f"{'worst x':>24} {'worst e':>24}")
    for i, (ps, rep) in enumerate(zip(family.sets, reports)):
        worst += 0 if rep.certified else 1
        print(f"{i:>4} {ps.epsilon:>12.6g} {ps.gamma:>12.6g} "
              f"{rep.max_violation:>14.6g} {'yes' if rep.certified else 'NO':>4} "
              f"{_point_text(rep.worst_x):>24} {_point_text(rep.worst_e):>24}")
    if worst:
        print(f"{worst} set(s) failed re-verification at density {check_density}",
              file=sys.stderr)
        return 3
    print(f"all {len(family.sets)} sets re-verified at density {check_density}")
    return 0


def _compare_text(summary):
    lines = []
    runs = summary.get("runs", [])
    # one block per run position: a new block starts where x0 changes or a
    # mechanism repeats, so two runs from the same x0 keep their two blocks
    blocks = []
    for run in runs:
        if not blocks or run["x0"] != blocks[-1][0] or run["mechanism"] in blocks[-1][1]:
            blocks.append((run["x0"], {}))
        blocks[-1][1][run["mechanism"]] = run
    lines.append(f"t_min = {summary.get('t_min', float('nan')):.6g}, "
                 f"t_max_cap = {summary.get('t_max_cap', float('nan')):.6g}, "
                 f"t_end = {summary.get('t_end', float('nan')):.6g}")
    for x0, mechs in blocks:
        lines.append(f"x0 = {list(x0)}")
        lines.append(f"  {'mechanism':<10} {'samples':>8} {'first 5 s':>10} "
                     f"{'h min':>10} {'h mean':>10} {'h max':>10}")
        for mech in ("dynamic", "static", "periodic"):
            if mech not in mechs:
                continue
            run = mechs[mech]
            iv = run["intervals"]
            lines.append(f"  {mech:<10} {run['n_total']:>8} {run['n_first_5s']:>10} "
                         f"{iv['min']:>10.6g} {iv['mean']:>10.6g} {iv['max']:>10.6g}")
        dyn = mechs.get("dynamic")
        per = mechs.get("periodic")
        if dyn and per and dyn["n_first_5s"]:
            ratio = per["n_first_5s"] / dyn["n_first_5s"]
            lines.append(f"  periodic/dynamic sample ratio (first 5 s): {ratio:.3f}")
    if not runs:
        lines.append("no runs recorded")
    return "\n".join(lines) + "\n"


PLOT_SCRIPT = """\
set datafile separator ','
set key autotitle columnhead
set terminal pngcairo size 1000,700
set output 'intervals.png'
set xlabel 't [s]'
set ylabel 'inter-sample interval h [s]'
plot '{dec}' using 2:3 with steps lw 2 title 'dynamic h'
set output 'state.png'
set xlabel 't [s]'
set ylabel 'state'
plot '{traj}' using 1:3 with lines title 'x1', \\
     '{traj}' using 1:4 with lines title 'x2'
"""


def cmd_compare(args) -> int:
    out = Path(args.out)
    summary_path = out / SUMMARY_NAME
    _check_paths([summary_path, out / "compare.txt", out / "plots.gp"])
    if not summary_path.exists():
        raise ConfigError(f"no run summary at {summary_path}; run 'run' first")
    with open(summary_path, "r", encoding="utf-8") as fh:
        summary = json.load(fh)
    try:
        text = _compare_text(summary)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed run summary {summary_path}: {exc!r}") from exc
    (out / "compare.txt").write_text(text, encoding="utf-8")
    dec = out / "run0_dynamic_decisions.csv"
    traj = out / "run0_dynamic_trajectory.csv"
    if dec.exists() and traj.exists():
        (out / "plots.gp").write_text(
            PLOT_SCRIPT.format(dec=dec.name, traj=traj.name), encoding="utf-8")
    print(text, end="")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dynstc",
        description="dynamic self-triggered control: synthesis, simulation, checks")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, text in (
            ("synthesize", cmd_synthesize,
             "synthesize a parameter family; it is certified only on its synthesis "
             "grid, and `dynstc verify` re-checks it at twice that density"),
            ("run", cmd_run, "simulate every initial state under each mechanism"),
            ("compare", cmd_compare, "report the run in --out: dynamic vs static vs periodic"),
            ("verify", cmd_verify, "re-check the manifest on a grid of twice its density")):
        p = sub.add_parser(name, help=text, description=text)
        if name != "compare":
            p.add_argument("--config", required=True, help="experiment JSON")
        p.add_argument("--out", default="out", help="artifact directory")
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SynthesisError as exc:
        print(f"synthesis failure: {exc}", file=sys.stderr)
        return 3
    except (RegionEscapeError, IntegrationBlowupError, HorizonError,
            FloatingPointError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 5
    except MemoryError as exc:  # e.g. a grid too large to allocate
        print(f"out of memory: {exc}", file=sys.stderr)
        return 5
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
