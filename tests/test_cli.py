import csv
import json
from pathlib import Path

import pytest

from dynstc import cli
from dynstc.engine import StcConfig, t_max_cap, t_min_of
from dynstc.sim import IntegrationBlowupError, simulate_periodic, write_trajectory_csv
from dynstc.synthesis import read_manifest, verify_family
from dynstc.systems import linear_test


def _write_config(path, **overrides):
    doc = {
        "system": {"name": "linear_test", "c": 1.0},
        "stc": {"delta": 0.999, "eps_ref": 0.01, "m": 5},
        "synthesis": {"epsilons": [0.5, -1.0, -5.0], "l_const": 0.05,
                      "grid_density": 16},
        "run": {"x0": [[0.5]], "t_end": 10.0, "baselines": True},
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_synthesize_writes_manifest(tmp_path, capsys):
    # delta = 0.5 puts 1 - delta above the fall-back's L + eps/2 = 0.3
    cfg = _write_config(tmp_path / "cfg.json",
                        stc={"delta": 0.5, "eps_ref": 0.01, "m": 5})
    out = tmp_path / "out"
    assert cli.main(["synthesize", "--config", cfg, "--out", str(out)]) == 0
    family, density = read_manifest(out / "family.json")
    assert len(family.sets) == 3 and density == 16
    assert family.fallback.epsilon == 0.5
    text = capsys.readouterr().out
    assert "t_min =" in text
    assert text.splitlines()[1].split() == ["set", "epsilon", "gamma", "L", "delta*t_max"]
    # one table row per set
    rows = [line.split() for line in text.splitlines()
            if line.strip().startswith(("0 ", "1 ", "2 "))]
    assert len(rows) == 3 and all(len(row) == 5 for row in rows)
    # one rate-cap rule: the fall-back row's delta*t_max is the printed
    # t_min, and the column maximum is t_max_cap
    stc = StcConfig(family=family, c=1.0, delta=0.5, eps_ref=0.01, m=5)
    caps = [row[4] for row in rows]
    assert text.splitlines()[0] == f"t_min = {caps[0]}"
    assert caps[0] == f"{t_min_of(stc):.6g}"
    assert max(map(float, caps)) == float(f"{t_max_cap(stc):.6g}")


def test_run_produces_artifacts(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    for stem in ("run0_dynamic", "run0_static", "run0_periodic"):
        assert (out / f"{stem}_trajectory.csv").exists()
        assert (out / f"{stem}_monitors.csv").exists()
    assert (out / "run0_dynamic_decisions.csv").exists()
    assert not (out / "run0_periodic_decisions.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert [r["mechanism"] for r in summary["runs"]] == \
        ["dynamic", "static", "periodic"]
    assert all(r["violations"] == 0 for r in summary["runs"])
    dyn, sta, per = summary["runs"]
    assert dyn["n_total"] <= sta["n_total"]
    assert per["intervals"]["max"] == pytest.approx(summary["t_min"])
    # every CSV cell is a plain number, apart from the monitor names
    for path in out.glob("*.csv"):
        rows = list(csv.reader(path.read_text(encoding="utf-8").splitlines()))[1:]
        assert rows, path.name
        skip = 1 if path.name.endswith("_monitors.csv") else 0
        for row in rows:
            for cell in row[skip:]:
                float(cell)


def test_run_is_byte_deterministic(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["run", "--config", cfg, "--out", str(out2)]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_run_reuses_existing_manifest(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert cli.main(["synthesize", "--config", cfg, "--out", str(out)]) == 0
    before = (out / "family.json").read_bytes()
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "family.json").read_bytes() == before


# family.json as an earlier version wrote it for _write_config, with the
# per-set "margin" key that manifests no longer carry
_MARGIN_MANIFEST = """\
{
  "fallback_index": 0,
  "sets": [
    {
      "L": 0.05,
      "epsilon": 0.5,
      "gamma": 1.0497082928128176,
      "grid_density": 16,
      "margin": 0.004033555555555556
    },
    {
      "L": 0.05,
      "epsilon": -1.0,
      "gamma": 1.0488326844640188,
      "grid_density": 16,
      "margin": 0.010667555555555548
    },
    {
      "L": 0.05,
      "epsilon": -5.0,
      "gamma": 1.0464941471408238,
      "grid_density": 16,
      "margin": 0.028358222222222212
    }
  ]
}
"""


def test_run_on_manifest_with_margin_keys(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json")
    old, fresh = tmp_path / "old", tmp_path / "fresh"
    old.mkdir()
    (old / "family.json").write_text(_MARGIN_MANIFEST, encoding="utf-8")
    assert cli.main(["run", "--config", cfg, "--out", str(old)]) == 0
    assert cli.main(["run", "--config", cfg, "--out", str(fresh)]) == 0
    doc = json.loads(_MARGIN_MANIFEST)
    for d in doc["sets"]:
        del d["margin"]
    assert json.loads((fresh / "family.json").read_text()) == doc
    names = sorted(p.name for p in fresh.iterdir() if p.name != "family.json")
    assert names == sorted(p.name for p in old.iterdir() if p.name != "family.json")
    for name in names:
        assert (old / name).read_bytes() == (fresh / name).read_bytes(), name


def test_run_without_manifest_or_synthesis(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg = _write_config(cfg_path)
    doc = json.loads(cfg_path.read_text())
    del doc["synthesis"]
    cfg_path.write_text(json.dumps(doc))
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "no manifest" in capsys.readouterr().err


def test_no_positive_epsilon_is_config_error(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json",
                        synthesis={"epsilons": [-1.0, -2.0], "l_const": 0.05,
                                   "grid_density": 16})
    assert cli.main(["synthesize", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
    assert "positive" in capsys.readouterr().err


def test_unattainable_rate_is_synthesis_failure(tmp_path, capsys):
    # odd density puts e = 0 on the grid, where no gamma can absorb eps = 1.5
    cfg = _write_config(tmp_path / "cfg.json",
                        synthesis={"epsilons": [1.5, 0.5], "l_const": 0.05,
                                   "grid_density": 17})
    assert cli.main(["synthesize", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 3
    assert "synthesis failure" in capsys.readouterr().err


def test_verify_accepts_fresh_manifest(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert cli.main(["synthesize", "--config", cfg, "--out", str(out)]) == 0
    assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 0
    assert "re-verified at density 32" in capsys.readouterr().out


def test_verify_prints_worst_grid_point(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert cli.main(["synthesize", "--config", cfg, "--out", str(out)]) == 0
    family, density = read_manifest(out / "family.json")
    capsys.readouterr()
    assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["set", "epsilon", "gamma", "violation", "ok",
                                "worst", "x", "worst", "e"]
    assert lines[-1] == "all 3 sets re-verified at density 32"
    reports = verify_family(linear_test(), family, 2 * density)
    for i, rep in enumerate(reports):
        assert lines[1 + i].split()[5:] == [f"({rep.worst_x[0]:.6g})",
                                            f"({rep.worst_e[0]:.6g})"]


def test_verify_rejects_corrupted_manifest(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert cli.main(["synthesize", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "family.json").read_text())
    doc["sets"][0]["gamma"] *= 0.5
    (out / "family.json").write_text(json.dumps(doc))
    assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 3
    assert "failed re-verification" in capsys.readouterr().err


def test_verify_without_manifest(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json")
    assert cli.main(["verify", "--config", cfg,
                     "--out", str(tmp_path / "empty")]) == 2


def test_compare_reports_all_mechanisms(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["compare", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    for token in ("dynamic", "static", "periodic", "sample ratio"):
        assert token in text
    assert (out / "compare.txt").read_text() == text
    script = (out / "plots.gp").read_text()
    assert "set output 'intervals.png'" in script
    assert "run0_dynamic_trajectory.csv" in script


def test_compare_empty_run_list(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "summary.json").write_text(json.dumps(
        {"runs": [], "t_min": 1.0, "t_max_cap": 1.5, "t_end": 10.0}))
    assert cli.main(["compare", "--out", str(out)]) == 0
    assert "no runs recorded" in capsys.readouterr().out
    assert not (out / "plots.gp").exists()


def test_compare_missing_summary(tmp_path, capsys):
    assert cli.main(["compare", "--out", str(tmp_path / "nothing")]) == 2
    assert "no run summary" in capsys.readouterr().err


_SECOND_FALLBACK = {"fallback_index": 1, "sets": [
    {"epsilon": 0.5, "gamma": 1.05, "L": 0.05, "grid_density": 16},
    {"epsilon": 0.2, "gamma": 1.05, "L": 0.05, "grid_density": 16}]}


@pytest.mark.parametrize("command, artifact, doc", [
    ("compare", "summary.json", {"runs": [{"mechanism": "dynamic"}]}),
    ("compare", "summary.json", [1, 2]),
    ("verify", "family.json", {"sets": [{"epsilon": 0.5, "gamma": 1.0, "L": 0.05,
                                         "grid_density": [40]}]}),
    # the fall-back is set 0; a manifest naming another set is rejected
    ("run", "family.json", _SECOND_FALLBACK),
    ("verify", "family.json", _SECOND_FALLBACK),
])
def test_malformed_artifacts_exit_2(tmp_path, capsys, command, artifact, doc):
    cfg = _write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    out.mkdir()
    (out / artifact).write_text(json.dumps(doc))
    argv = [command, "--out", str(out)]
    if command != "compare":
        argv += ["--config", cfg]
    assert cli.main(argv) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("mangle", [
    lambda d: d.pop("system"),
    lambda d: d["stc"].update(window=3),
    lambda d: d["run"].update(x0=[[5.0]]),
    lambda d: d["run"].update(x0=[]),
    lambda d: d["run"].update(t_end=-1.0),
    lambda d: d["run"].update(dt_flow=100.0),
    lambda d: d["synthesis"].update(epsilons=[0.5], ladder={"n": 3}),
    lambda d: d["run"].update(t_end=float("inf")),
    lambda d: d["run"].update(t_end=float("nan")),
    # the trigger's level is the verified region level; no config may raise it
    lambda d: d["stc"].update(c=100.0) or d["run"].update(x0=[[9.0]]),
])
def test_invalid_configs_exit_2(tmp_path, mangle):
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path)
    doc = json.loads(cfg_path.read_text())
    mangle(doc)
    cfg_path.write_text(json.dumps(doc))
    assert cli.main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("block, key, value", [
    ("run", "x0", [{"a": 1}]),
    ("run", "t_end", [1]),
    ("stc", "m", [3]),
    ("system", "c", [1]),
    ("synthesis", "grid_density", [48]),
])
def test_mistyped_config_values_exit_2(tmp_path, capsys, block, key, value):
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path)
    doc = json.loads(cfg_path.read_text())
    doc[block][key] = value
    cfg_path.write_text(json.dumps(doc))
    assert cli.main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err


def test_unparseable_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert cli.main(["synthesize", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
    assert "not valid JSON" in capsys.readouterr().err
    assert cli.main(["synthesize", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "out")]) == 2


def test_numerical_failure_exits_5(tmp_path, monkeypatch, capsys):
    cfg = _write_config(tmp_path / "cfg.json")

    def boom(*args, **kwargs):
        raise IntegrationBlowupError("flow diverged")

    monkeypatch.setattr(cli, "simulate", boom)
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 5
    assert "numerical failure" in capsys.readouterr().err


def test_periodic_baseline_steps_at_dt_flow(tmp_path):
    # run.dt_flow sets the step of every mechanism, the periodic baseline too
    cfg = _write_config(tmp_path / "cfg.json", run={
        "x0": [[0.5]], "t_end": 3.0, "dt_flow": 0.002, "baselines": True})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    family, _ = read_manifest(out / "family.json")
    spec = linear_test(c=1.0)
    stc = StcConfig(family=family, c=1.0, delta=0.999, eps_ref=0.01, m=5)
    write_trajectory_csv(tmp_path / "direct.csv",
                         simulate_periodic([0.5], spec, t_min_of(stc), 3.0, 0.002))
    assert (out / "run0_periodic_trajectory.csv").read_bytes() == \
        (tmp_path / "direct.csv").read_bytes()


def test_two_initial_states_get_distinct_files(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json",
                        run={"x0": [[0.5], [-0.25]], "t_end": 6.0,
                             "baselines": False})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "run0_dynamic_trajectory.csv").exists()
    assert (out / "run1_dynamic_trajectory.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert [r["x0"] for r in summary["runs"]] == [[0.5], [-0.25]]
