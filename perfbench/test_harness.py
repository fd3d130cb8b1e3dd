"""Self-check of the benchmark harness on the tiny ``linear_test`` system.

Run from the root of a source checkout::

    python3 -m pytest -q perfbench/test_harness.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import (  # noqa: E402
    VDP_C,
    WORKLOADS,
    Workload,
    energy,
    lattice_ball_count,
)

from dynstc import cli  # noqa: E402
from dynstc.synthesis import ball_grid  # noqa: E402


class LinearWorkload(Workload):
    def config(self, seed):
        return {
            "system": {"name": "linear_test", "c": 1.0},
            "stc": {"delta": 0.999, "eps_ref": 0.01, "m": 5},
            "synthesis": {"epsilons": [0.5, -1.0, -5.0], "l_const": 0.05,
                          "grid_density": 8},
            "run": {"x0": [[0.5], [-0.25]], "t_end": 4.0, "baselines": True},
        }


LINEAR = LinearWorkload("linear", "self-check", ("synthesize", "verify", "run", "compare"),
                        dim=1)


def test_configs_depend_only_on_seed():
    for w in WORKLOADS.values():
        assert w.config(7) == w.config(7)
    assert "run" not in WORKLOADS["certify"].config(7)
    for name in ("fleet", "long"):
        a, b = WORKLOADS[name].config(1), WORKLOADS[name].config(2)
        assert a["run"]["x0"] != b["run"]["x0"]
        assert all(energy(x) <= VDP_C for x in a["run"]["x0"] + b["run"]["x0"])


def test_lattice_count_matches_ball_grid():
    for density in (8, 9, 16, 33, 80):
        for dim in (1, 2):
            assert lattice_ball_count(density, dim) == len(ball_grid(2.7, dim, density))


def _digest(out):
    return run.digest(out, [])


def test_tracer_keeps_artifacts_and_accounts_for_time(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(LINEAR.config(0)), encoding="utf-8")
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    original = cli.simulate
    tr = tracer.Tracer()
    for command in LINEAR.commands:
        # traced first: the simulator's phi cache lives as long as the process
        assert tracer.trace_command(run.argv_for(command, config, traced), tr) == 0
        assert cli.main(run.argv_for(command, config, plain)) == 0
    assert cli.simulate is original  # wrappers are removed again
    assert _digest(plain) == _digest(traced)

    summary = tr.summary()
    names, counters = summary["names"], summary["counters"]
    top = sum(end - start for _, start, end, parent in tr.spans if parent < 0)
    assert abs(sum(r["self_s"] for r in names.values()) - top) < 1e-9
    assert names["cli.main"]["calls"] == len(LINEAR.commands)
    assert names["sim.simulate"]["calls"] == 4 and names["sim.simulate_periodic"]["calls"] == 2
    assert counters["sim.flow_f_calls"] % 4 == 0
    assert 0 < names["timing.phi_solve"]["calls"] <= counters["sim.flow_segments"]
    assert counters["engine.decisions"] == names["engine.gamma_trigger"]["calls"]
    assert counters["synthesis.sets"] == 2 * 3  # built, then re-verified
    assert counters["synthesis.verify_grid_points"] == lattice_ball_count(16, 1) ** 2


def test_bench_end_to_end(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    bench = run.Bench(LINEAR, 0, run.Runner(deadline=run.time.monotonic() + 60))
    bench.setup()
    bench.rep()
    bench.rep()
    bench.traced()
    assert [op.problems for op in bench.ops if not op.ok] == []
    assert bench.reps[0][1] == bench.reps[1][1]
    e2e = bench.end_to_end()
    assert set(e2e) == {"setup_s", "wall_s", "peak_rss_mb"}
    assert all(value > 0 for value, _ in e2e.values())
    layers = bench.per_layer()[0]
    assert layers["synthesis.sets"][0] == 2 * 3
    assert layers["sim.flow_segments"][0] > 0
    assert 0.5 < layers["trace.self_coverage"][0] <= 1.0
    bench.print_report(trace=True)
    text = capsys.readouterr().out
    assert "sample_ratio_5s" in text and "L5 cli" in text
