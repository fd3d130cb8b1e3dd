"""The benchmark's workloads: seeded configs, CLI commands and output checks.

All workloads use the README ``van_der_pol`` experiment (c = 10,
delta = 0.999, eps_ref = 0.01, m = 30, the 21-rung ladder, L = 0.05); they
differ in the commands they time and in their ``run`` block.  Sizes are
chosen so that one repetition takes a few seconds on a 2-core machine and a
run of the benchmark holds several repetitions:

* ``certify`` synthesizes at density 40 and re-verifies at 80 (the README's
  48/96 takes about 19 s per repetition).
* ``fleet`` simulates 4 seeded initial states under 3 mechanisms for 5 s,
  the window in which the sample-reduction ratio is measured.
* ``long`` simulates one seeded initial state, dynamic mechanism only, for
  40 s: eight times the horizon of one ``fleet`` trajectory.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

MANIFEST = "family.json"
SUMMARY = "summary.json"
# Energy matrix of the README system (dynstc's van_der_pol default); only
# used here to draw initial states inside the documented domain V(x) <= c.
VDP_P = ((4.68, 1.10), (1.10, 3.56))
VDP_C = 10.0
INTERVAL_REL_TOL = 1e-9


def base_config(density):
    return {
        "system": {"name": "van_der_pol", "c": VDP_C},
        "stc": {"delta": 0.999, "eps_ref": 0.01, "m": 30, "eta_init": "v0"},
        "synthesis": {"ladder": {"n": 21, "top": 0.01, "bottom": -40.0},
                      "l_const": 0.05, "grid_density": density},
    }


def energy(x):
    p = VDP_P
    return p[0][0] * x[0] * x[0] + 2.0 * p[0][1] * x[0] * x[1] + p[1][1] * x[1] * x[1]


def draw_states(rng, n):
    """n points uniform in {x'Px <= c}, by rejection from its bounding box.

    States are rejected on V(x) > c only, never on how their runs turn out:
    an escape or a monitor violation from a drawn state is a real defect.
    """
    p, c = VDP_P, VDP_C
    det = p[0][0] * p[1][1] - p[0][1] * p[1][0]
    half = (math.sqrt(c * p[1][1] / det), math.sqrt(c * p[0][0] / det))
    states = []
    while len(states) < n:
        x = [rng.uniform(-half[0], half[0]), rng.uniform(-half[1], half[1])]
        if energy(x) <= c:
            states.append(x)
    return states


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple  # dynstc subcommands timed in one repetition, in order
    density: int = 48
    n_states: int = 0  # 0: no run block
    t_end: float = 0.0
    baselines: bool = False
    dim: int = 2  # state (= error) dimension of the system

    def config(self, seed):
        """Experiment config; the same seed gives the same config."""
        doc = base_config(self.density)
        if self.n_states:
            rng = random.Random(f"{self.name}:{seed}")
            doc["run"] = {"x0": draw_states(rng, self.n_states),
                          "t_end": self.t_end, "baselines": self.baselines}
        return doc

    @property
    def needs_manifest(self):
        """Set-up synthesizes the manifest when no timed command does."""
        return "synthesize" not in self.commands


WORKLOADS = {
    w.name: w for w in (
        Workload("certify", "synthesize then re-verify a family at 2x density: "
                 "vectorized synthesis grid passes and systems.f array calls; "
                 "sim and engine idle", ("synthesize", "verify"), density=40),
        Workload("fleet", "run then compare 4 seeded states x 3 mechanisms for "
                 "5 s: many short RK4 trajectories, cold phi_solve misses, "
                 "monitors and 35 written files", ("run", "compare"),
                 n_states=4, t_end=5.0, baselines=True),
        Workload("long", "run one seeded state, dynamic mechanism only, for "
                 "40 s: the fleet code in depth, nothing to batch across",
                 ("run",), n_states=1, t_end=40.0),
    )
}


def argv_for(command, config_path, out):
    if command == "compare":
        return [command, "--out", str(out)]
    return [command, "--config", str(config_path), "--out", str(out)]


def lattice_ball_count(density, dim):
    """Nodes of a density^dim lattice on [-r, r]^dim inside the ball of radius r.

    Equals the size of dynstc's ``ball_grid``: in exact integer arithmetic
    node i sits at r*(2i - (d-1))/(d-1), and no node off the sphere comes
    within the grid's 1e-12 relative tolerance of it.
    """
    lim = (density - 1) ** 2
    squares = [(2 * i - density + 1) ** 2 for i in range(density)]
    return sum(1 for node in itertools.product(squares, repeat=dim) if sum(node) <= lim)


def verify_grid_points(workload, config):
    """State x error grid points of one ``verify`` pass (density doubled)."""
    return lattice_ball_count(2 * config["synthesis"]["grid_density"], workload.dim) ** 2


def n_sets(config):
    synth = config["synthesis"]
    return synth["ladder"]["n"] if "ladder" in synth else len(synth["epsilons"])


def check_outputs(command, stdout, out, config):
    """Problems with one command's outputs; an empty list means correct."""
    problems = []
    synth = config["synthesis"]
    if command == "synthesize":
        try:
            doc = json.loads((out / MANIFEST).read_text(encoding="utf-8"))
            if len(doc["sets"]) != n_sets(config):
                problems.append(f"manifest holds {len(doc['sets'])} sets, "
                                f"expected {n_sets(config)}")
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"unreadable manifest: {exc}")
    elif command == "verify":
        line = (f"all {n_sets(config)} sets re-verified at density "
                f"{2 * synth['grid_density']}")
        if line not in stdout:
            problems.append(f"verify did not print {line!r}")
    elif command == "run":
        problems += check_summary(out, config["run"])
    elif command == "compare":
        text = (out / "compare.txt").read_text(encoding="utf-8") \
            if (out / "compare.txt").exists() else ""
        want = len(config["run"]["x0"]) if config["run"].get("baselines") else 0
        got = text.count("periodic/dynamic sample ratio")
        if got != want or not text:
            problems.append(f"compare.txt has {got} ratio lines, expected {want}")
    return problems


def check_summary(out, run_block):
    try:
        summary = json.loads((out / SUMMARY).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"unreadable {SUMMARY}: {exc}"]
    problems = []
    mechs = ["dynamic"] + (["static", "periodic"] if run_block.get("baselines") else [])
    want = [(x0, m) for x0 in run_block["x0"] for m in mechs]
    got = [(r["x0"], r["mechanism"]) for r in summary["runs"]]
    if got != want:
        problems.append(f"{SUMMARY} lists runs {got}, expected {want}")
    lo = summary["t_min"] * (1.0 - INTERVAL_REL_TOL)
    hi = summary["t_max_cap"] * (1.0 + INTERVAL_REL_TOL)
    for r in summary["runs"]:
        if r["violations"]:
            problems.append(f"{r['mechanism']} run from {r['x0']}: "
                            f"{r['violations']} monitor violations")
        iv = r["intervals"]
        if not (lo <= iv["min"] <= iv["max"] <= hi):
            problems.append(f"{r['mechanism']} run from {r['x0']}: intervals "
                            f"[{iv['min']}, {iv['max']}] outside [t_min, t_max_cap]")
    return problems


def run_facts(out, run_block):
    """Deterministic facts of a run from its summary.json."""
    summary = json.loads((Path(out) / SUMMARY).read_text(encoding="utf-8"))
    runs = summary["runs"]
    dyn = [r for r in runs if r["mechanism"] == "dynamic"]
    per = [r for r in runs if r["mechanism"] == "periodic"]
    t_end = run_block["t_end"]
    facts = {
        "sim_s": len(runs) * t_end,
        "dyn_samples": sum(r["n_total"] for r in dyn),
        "dyn_sim_s": len(dyn) * t_end,
        "monitor_violations": sum(r["violations"] for r in runs),
    }
    if per:
        facts["dyn_first_5s"] = sum(r["n_first_5s"] for r in dyn)
        facts["per_first_5s"] = sum(r["n_first_5s"] for r in per)
    return facts
