"""Command-line front end: synthesize, run, compare, verify.

Experiments are described by one JSON config with four blocks::

    {
      "system":    {"name": "van_der_pol", "c": 10.0},
      "stc":       {"delta": 0.999, "eps_ref": 0.01, "m": 30},
      "synthesis": {"ladder": {"n": 21, "top": 0.01, "bottom": -40.0},
                    "l_const": 0.05, "grid_density": 48},
      "run":       {"x0": [[-0.3, 1.7]], "t_end": 15.0, "baselines": true}
    }

Every subcommand takes --out, the artifact directory; all but `compare`
also take --config.  Artifacts land there: the parameter-family
manifest, per-run CSVs (trajectory, decisions, monitors), a summary.json,
and on `compare` a plain-text report plus a gnuplot script.  Nothing is
random, so outputs are byte deterministic for a fixed config.  `run`
simulates every initial state and mechanism in turn before it writes any
run file, so a numerical failure leaves no partial run artifacts.

Exit codes: 0 success, 2 invalid config or missing or malformed artifact,
3 synthesis or verification failure, 4 monitor violation, 5 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from .engine import (
    RegionEscapeError,
    StcConfig,
    set_lambda_cap,
    t_max_cap,
    t_min_of,
)
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
from .timing import HorizonError, t_max

__all__ = ["main"]

MANIFEST_NAME = "family.json"
SUMMARY_NAME = "summary.json"
REFINE_TOL = 1e-6


class ConfigError(ValueError):
    pass


def _check_keys(block, allowed, name):
    if not isinstance(block, dict):
        raise ConfigError(f"config block {name!r} must be a mapping")
    unknown = set(block) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {name!r}: {sorted(unknown)}")


@contextmanager
def _config_values():
    """Report a mistyped or invalid config value as a ConfigError."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _check_keys(doc, {"system", "stc", "synthesis", "run"}, "config")
    if "system" not in doc:
        raise ConfigError("config requires a 'system' block")
    with _config_values():
        return doc, spec_from_config(doc["system"])


def _epsilons_from(synth_block):
    has_list = "epsilons" in synth_block
    has_ladder = "ladder" in synth_block
    if has_list == has_ladder:
        raise ConfigError("synthesis block needs exactly one of 'epsilons' or 'ladder'")
    if has_list:
        eps = [float(v) for v in synth_block["epsilons"]]
        if not eps:
            raise ConfigError("'epsilons' must be non-empty")
        return eps
    ladder = dict(synth_block["ladder"])
    _check_keys(ladder, {"n", "top", "bottom"}, "synthesis.ladder")
    return default_epsilon_ladder(int(ladder.get("n", 21)),
                                  float(ladder.get("top", 0.01)),
                                  float(ladder.get("bottom", -40.0)))


def _synthesis_params(doc):
    block = doc.get("synthesis")
    if block is None:
        return None
    _check_keys(block, {"epsilons", "ladder", "l_const", "grid_density"}, "synthesis")
    with _config_values():
        return {
            "epsilons": _epsilons_from(block),
            "l_const": float(block.get("l_const", 0.05)),
            "grid_density": int(block.get("grid_density", 48)),
        }


def _stc_config(doc, spec, family):
    block = dict(doc.get("stc", {}))
    _check_keys(block, {"delta", "eps_ref", "m", "eta_init"}, "stc")
    with _config_values():
        return StcConfig(
            family=family,
            c=spec.region_c,
            delta=float(block.get("delta", 0.999)),
            eps_ref=float(block.get("eps_ref", 0.01)),
            m=int(block.get("m", 30)),
            eta_init=str(block.get("eta_init", "v0")),
        )


def _run_params(doc, spec, cfg):
    block = doc.get("run")
    if block is None:
        raise ConfigError("config requires a 'run' block for this command")
    _check_keys(block, {"x0", "t_end", "dt_flow", "baselines"}, "run")
    x0s = block.get("x0")
    if not isinstance(x0s, list) or not x0s:
        raise ConfigError("'run.x0' must be a non-empty list of state vectors")
    with _config_values():
        starts = [[float(v) for v in (raw if isinstance(raw, list) else [raw])]
                  for raw in x0s]
        t_end = float(block.get("t_end", 15.0))
        dt_flow = block.get("dt_flow")
        if dt_flow is not None:
            dt_flow = float(dt_flow)
    for k, vec in enumerate(starts):
        if len(vec) != spec.n_x or not all(math.isfinite(v) for v in vec):
            raise ConfigError(f"run.x0[{k}] is not a finite vector of length {spec.n_x}")
        if float(spec.v(vec)) > cfg.c:
            raise ConfigError(f"run.x0[{k}] starts outside the region V <= c")
    if not (0.0 < t_end < math.inf):
        raise ConfigError("'run.t_end' must be positive and finite")
    tmin = t_min_of(cfg)
    if dt_flow is not None and not (0.0 < dt_flow <= tmin / 16.0):
        raise ConfigError(f"'run.dt_flow' must lie in (0, t_min/16 = {tmin / 16.0:.6g}]")
    return starts, t_end, dt_flow, bool(block.get("baselines", False))


def cmd_synthesize(args) -> int:
    doc, spec = _load_config(args.config)
    params = _synthesis_params(doc)
    if params is None:
        raise ConfigError("config requires a 'synthesis' block for this command")
    family = build_family(spec, params["epsilons"], params["l_const"],
                          params["grid_density"])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_manifest(out / MANIFEST_NAME, family, params["grid_density"])
    cfg = _stc_config(doc, spec, family)
    print(f"t_min = {t_min_of(cfg):.6g}")
    print(f"{'set':>4} {'epsilon':>12} {'gamma':>12} {'L':>8} {'delta*t_max':>12}")
    for i, ps in enumerate(family.sets):
        cap = cfg.delta * t_max(ps.gamma, set_lambda_cap(cfg, i))
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


def cmd_run(args) -> int:
    doc, spec = _load_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    params = _synthesis_params(doc)
    manifest = out / MANIFEST_NAME
    if manifest.exists():
        family, _ = read_manifest(manifest)
    elif params is None:
        raise ConfigError(f"no manifest at {manifest} and no 'synthesis' block in the config")
    else:
        family = build_family(spec, params["epsilons"], params["l_const"],
                              params["grid_density"])
        write_manifest(manifest, family, params["grid_density"])
    cfg = _stc_config(doc, spec, family)
    starts, t_end, dt_flow, baselines = _run_params(doc, spec, cfg)
    mechanisms = ["dynamic"] + (["static", "periodic"] if baselines else [])
    runs = [(f"run{idx}_{mech}", x0, mech, _simulate(mech, x0, cfg, spec, t_end, dt_flow))
            for idx, x0 in enumerate(starts) for mech in mechanisms]
    summary = {"t_min": t_min_of(cfg), "t_max_cap": t_max_cap(cfg),
               "t_end": t_end, "runs": []}
    violations = 0
    for stem, x0, mech, traj in runs:
        write_trajectory_csv(out / f"{stem}_trajectory.csv", traj)
        write_monitors_csv(out / f"{stem}_monitors.csv", traj)
        if traj.decisions:
            write_decisions_csv(out / f"{stem}_decisions.csv", traj)
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
    if not manifest.exists():
        raise ConfigError(f"no manifest at {manifest}; run synthesize first")
    family, density = read_manifest(manifest)
    check_density = 2 * density if density >= 8 else 96
    reports = verify_family(spec, family, check_density)
    worst = 0
    print(f"{'set':>4} {'epsilon':>12} {'gamma':>12} {'violation':>14} {'ok':>4} "
          f"{'worst x':>24} {'worst e':>24}")
    for i, (ps, rep) in enumerate(zip(family.sets, reports)):
        ok = rep.max_violation <= REFINE_TOL * rep.scale
        worst += 0 if ok else 1
        print(f"{i:>4} {ps.epsilon:>12.6g} {ps.gamma:>12.6g} "
              f"{rep.max_violation:>14.6g} {'yes' if ok else 'NO':>4} "
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
    by_x0 = {}
    for run in runs:
        by_x0.setdefault(tuple(run["x0"]), {})[run["mechanism"]] = run
    lines.append(f"t_min = {summary.get('t_min', float('nan')):.6g}, "
                 f"t_max_cap = {summary.get('t_max_cap', float('nan')):.6g}, "
                 f"t_end = {summary.get('t_end', float('nan')):.6g}")
    for x0, mechs in by_x0.items():
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
    for name, fn in (("synthesize", cmd_synthesize), ("run", cmd_run),
                     ("compare", cmd_compare), ("verify", cmd_verify)):
        p = sub.add_parser(name)
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
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
