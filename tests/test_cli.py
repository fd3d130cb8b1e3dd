import csv
import errno
import hashlib
import json
import math
import mmap
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dynstc import cli, parallel
from dynstc.engine import StcConfig, TriggerDecision, set_lambda_cap, t_max_cap, t_min_of
from dynstc.sim import (
    FlowRecords,
    HybridTrajectory,
    IntegrationBlowupError,
    Sample,
    run_monitors,
    simulate,
    simulate_periodic,
    write_monitors_csv,
    write_trajectory_csv,
)
from dynstc.synthesis import (
    ParameterFamily,
    ParameterSet,
    _level_tables,
    _ratios,
    read_manifest,
    verify_family,
)
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


@pytest.mark.parametrize("synthesis", [
    {"epsilons": [0.5, -1.0, -5.0], "ladder": {"n": 3}, "l_const": 0.05},
    {"epsilons": [0.5, -1.0, -5.0], "l_const": True},
])
def test_run_checks_synthesis_block_when_reusing_manifest(tmp_path, capsys, synthesis):
    cfg = _write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert cli.main(["synthesize", "--config", cfg, "--out", str(out)]) == 0
    before = (out / "family.json").read_bytes()
    _write_config(tmp_path / "cfg.json", synthesis=synthesis)
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert (out / "family.json").read_bytes() == before


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
        assert lines[1 + i].split()[4:] == ["yes" if rep.certified else "NO",
                                            f"({rep.worst_x[0]:.6g})",
                                            f"({rep.worst_e[0]:.6g})"]


def test_verify_rejects_corrupted_manifest(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert cli.main(["synthesize", "--config", cfg, "--out", str(out)]) == 0
    halved = json.loads((out / "family.json").read_text())
    halved["sets"][0]["gamma"] *= 0.5
    # gamma^2 just below the grid ratio at the check density 32: the grid
    # maximum is about +4e-9, and a set fails however small its excess
    ratio = _ratios(_level_tables(linear_test(), 32), [0.5])[0]
    near = {"fallback_index": 0, "sets": [{"epsilon": 0.5, "L": 0.05, "grid_density": 16,
                                           "gamma": math.sqrt((1.0 - 1e-9) * ratio)}]}
    for doc in (halved, near):
        (out / "family.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 3
        assert "failed re-verification" in capsys.readouterr().err


def test_verify_without_grid_density_checks_at_96(tmp_path, capsys):
    # a manifest whose set 0 names no density is re-checked at density 96
    cfg = _write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    out.mkdir()
    doc = _manifest_with()
    del doc["sets"][0]["grid_density"]
    (out / "family.json").write_text(json.dumps(doc))
    assert read_manifest(out / "family.json")[1] is None
    assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "all 3 sets re-verified at density 96"


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


def _manifest_with(**first):
    """The _MARGIN_MANIFEST family for _write_config, with `first` in its set 0."""
    doc = json.loads(_MARGIN_MANIFEST)
    doc["sets"][0].update(first)
    return doc


@pytest.mark.parametrize("command, artifact, doc", [
    ("compare", "summary.json", {"runs": [{"mechanism": "dynamic"}]}),
    ("compare", "summary.json", [1, 2]),
    ("verify", "family.json", {"sets": [{"epsilon": 0.5, "gamma": 1.0, "L": 0.05,
                                         "grid_density": [40]}]}),
    # the fall-back is set 0; a manifest naming another set is rejected
    ("run", "family.json", _SECOND_FALLBACK),
    ("verify", "family.json", _SECOND_FALLBACK),
    # a manifest number is a JSON int or float, and grid_density an integral one
    ("verify", "family.json", _manifest_with(grid_density=True)),
    ("verify", "family.json", _manifest_with(grid_density=16.9)),
    ("run", "family.json", _manifest_with(epsilon=True)),
    ("run", "family.json", _manifest_with(gamma="1.05")),
    # and grid_density at least 8, the least density of a grid
    ("verify", "family.json", _manifest_with(grid_density=-5)),
    ("verify", "family.json", _manifest_with(grid_density=7)),
    ("run", "family.json", _manifest_with(grid_density=0)),
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
    # the ladder's set count takes no fraction and no boolean
    lambda d: d["synthesis"].pop("epsilons") and d["synthesis"].update(ladder={"n": 3.5}),
    lambda d: d["synthesis"].pop("epsilons") and d["synthesis"].update(ladder={"n": True}),
    # a number takes no boolean, in a list too, and a block is a mapping,
    # not a list of pairs; a null stc block is no block
    lambda d: d["run"].update(x0=[[True]]),
    lambda d: d["synthesis"].update(epsilons=[True, -1.0]),
    lambda d: d["synthesis"].pop("epsilons") and d["synthesis"].update(ladder={"top": True}),
    lambda d: d.update(stc=[["delta", 0.999], ["eps_ref", 0.01], ["m", 5]]),
    lambda d: d["synthesis"].pop("epsilons") and d["synthesis"].update(ladder=[["n", 3]]),
    lambda d: d.update(stc=None),
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
    # an integer key takes no fraction and no boolean; a flag takes only a boolean
    ("stc", "m", 2.5),
    ("stc", "m", True),
    ("synthesis", "grid_density", 16.5),
    ("synthesis", "grid_density", False),
    ("run", "baselines", "false"),
    ("run", "baselines", 1),
    # a number takes no boolean and no numeric string
    ("run", "t_end", True),
    ("stc", "eps_ref", True),
    ("synthesis", "l_const", True),
    ("system", "c", True),
    ("stc", "delta", "0.5"),
    ("system", "c", "1.0"),
    ("system", "dimension", 1.5),
    ("system", "dimension", True),
    ("system", "dimension", "1"),
    # a number is finite: json reads NaN and Infinity
    ("stc", "eps_ref", math.inf),
    ("stc", "eps_ref", math.nan),
    ("system", "c", math.inf),
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


@pytest.mark.parametrize("block, key, value", [
    ("run", "t_end", 10 ** 400),
    ("system", "c", -10 ** 400),
    ("synthesis", "epsilons", [0.5, 10 ** 400]),
], ids=["t_end", "c", "epsilons"])
def test_int_beyond_float_range_is_config_error(tmp_path, capsys, block, key, value):
    # json reads an integer literal of any length as an int, which float() rejects
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path)
    doc = json.loads(cfg_path.read_text())
    doc[block][key] = value
    cfg_path.write_text(json.dumps(doc))
    assert cli.main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"'{block}.{key}" in err
    assert "out of the range of a float" in err


@pytest.mark.parametrize("command", ["synthesize", "run"])
@pytest.mark.parametrize("block, key, value", [
    ("stc", "eps_ref", math.inf),
    ("system", "c", math.inf),
    ("synthesis", "l_const", math.nan),
], ids=["eps_ref", "c", "l_const"])
def test_non_finite_number_names_its_key(tmp_path, capsys, command, block, key, value):
    # an infinite eps_ref used to make every decision the fall-back, with exit 0
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path)
    doc = json.loads(cfg_path.read_text())
    doc[block][key] = value
    cfg_path.write_text(json.dumps(doc))
    assert cli.main([command, "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 2
    assert f"config error: '{block}.{key}' must be finite" in capsys.readouterr().err


def test_config_table_fills_every_default():
    # the 23 config keys; an absent key takes its default, a 1-D x0 entry
    # may be a bare number, and a null dt_flow is the default
    assert sum(len(table) for table in cli._KEYS.values()) == 23
    doc = cli._block({"system": {"name": "linear_test"}, "synthesis": {"ladder": {}},
                      "run": {"x0": [0.5, [-1]], "dt_flow": None}}, "")
    assert doc == {
        "system": {"name": "linear_test"},
        "stc": {"delta": 0.999, "eps_ref": 0.01, "m": 30, "eta_init": "v0"},
        "synthesis": {"ladder": {"n": 21, "top": 0.01, "bottom": -40.0},
                      "l_const": 0.05, "grid_density": 48},
        "run": {"x0": [[0.5], [-1.0]], "t_end": 15.0, "dt_flow": None,
                "baselines": False},
    }
    assert isinstance(doc["run"]["x0"][1][0], float)


def test_unparseable_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert cli.main(["synthesize", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
    assert "not valid JSON" in capsys.readouterr().err
    assert cli.main(["synthesize", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("command, config, out", [
    ("run", "a directory", "out"), ("synthesize", "a directory", "out"),
    ("synthesize", "cfg.json", "a file"), ("run", "cfg.json", "a file"),
    ("run", "cfg.json", "a file/sub"), ("synthesize", "cfg.json", "a file/sub")])
def test_unusable_paths_exit_2(tmp_path, monkeypatch, capsys, command, config, out):
    # a config that cannot be read and an --out that cannot be made a
    # directory end in one config error line, not a traceback, and before
    # any synthesis
    def build_family(*args, **kwargs):
        pytest.fail("synthesized for an unusable path")

    monkeypatch.setattr(cli, "build_family", build_family)
    _write_config(tmp_path / "cfg.json")
    (tmp_path / "a directory").mkdir()
    (tmp_path / "a file").write_text("older\n")
    assert cli.main([command, "--config", str(tmp_path / config),
                     "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and len(err.splitlines()) == 1
    assert (tmp_path / "a file").read_text() == "older\n"


@pytest.fixture(scope="module")
def older_run(tmp_path_factory):
    """A config and an --out that holds its manifest, run and comparison."""
    root = tmp_path_factory.mktemp("older")
    cfg = _write_config(root / "cfg.json")
    for argv in (["run", "--config", cfg], ["compare"]):
        assert cli.main([*argv, "--out", str(root / "out")]) == 0
    return cfg, root / "out"


def _tree(out):
    """Each path under `out` with its bytes, None for a directory."""
    return {p.relative_to(out): None if p.is_dir() else p.read_bytes()
            for p in out.rglob("*")}


@pytest.mark.parametrize("command, taken", [
    ("synthesize", "family.json"), ("verify", "family.json"), ("run", "family.json"),
    ("run", "summary.json"), ("run", "run0_dynamic_monitors.csv"),
    ("run", "run0_periodic_trajectory.csv"), ("compare", "summary.json"),
    ("compare", "compare.txt"), ("compare", "plots.gp")])
@pytest.mark.parametrize("older", [True, False], ids=["older run", "empty out"])
def test_artifact_path_taken_by_a_directory_exits_2_before_any_work(
        tmp_path, monkeypatch, capsys, older_run, command, taken, older):
    # a directory where a command reads or writes an artifact ends in one
    # config error line naming it, before any synthesis or simulation, and
    # every byte of --out stays as it was
    def work(*args, **kwargs):
        pytest.fail("worked past a directory in --out")

    for name in ("build_family", "verify_family", "simulate", "simulate_periodic"):
        monkeypatch.setattr(cli, name, work)
    cfg, template = older_run
    out = tmp_path / "out"
    if older:
        shutil.copytree(template, out)
        (out / taken).unlink()
    (out / taken).mkdir(parents=True)
    (out / taken / "inside.txt").write_text("kept\n")
    before = _tree(out)
    capsys.readouterr()
    argv = [command, "--out", str(out)] + ([] if command == "compare" else ["--config", cfg])
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"config error: artifact path {out / taken} "
                                       "is taken by a directory\n")
    assert _tree(out) == before


def test_numerical_failure_exits_5(tmp_path, monkeypatch, capsys):
    cfg = _write_config(tmp_path / "cfg.json")

    def boom(*args, **kwargs):
        raise IntegrationBlowupError("flow diverged")

    monkeypatch.setattr(cli, "simulate", boom)
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 5
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["synthesize", "run"])
@pytest.mark.parametrize("m", [10 ** 12, 10 ** 400], ids=["1e12", "1e400"])
def test_window_length_beyond_bound_exits_2(tmp_path, capsys, command, m):
    # a window of 10**12 floats ran out of memory in `run`; 10**400 fits no index
    cfg = _write_config(tmp_path / "cfg.json",
                        stc={"delta": 0.999, "eps_ref": 0.01, "m": m})
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "'stc.m' must be at most 1000000" in err
    assert not (tmp_path / "out" / "family.json").exists()


def test_delta_too_close_to_one_exits_2(tmp_path, capsys):
    # 1 - delta = 1e-15 is below the relative error of t_max, so delta * t_max
    # could reach the exact horizon
    cfg = _write_config(tmp_path / "cfg.json",
                        stc={"delta": 1.0 - 1e-15, "eps_ref": 0.01, "m": 5})
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: 1 - delta must exceed 2e-15")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["synthesize", "run"])
@pytest.mark.parametrize("stc, message", [
    ({"delta": 1.5}, "delta must lie strictly in (0, 1)"),
    ({"delta": 1.0 - 1e-15}, "1 - delta must exceed 2e-15"),
    ({"eps_ref": -0.01}, "eps_ref must be positive and finite"),
    ({"m": 0}, "window length m must be at least 1"),
    ({"eta_init": "ones"}, "unknown eta-init policy 'ones'"),
])
def test_bad_stc_block_exits_2_before_synthesis(tmp_path, monkeypatch, capsys, command, stc,
                                                message):
    # StcConfig's own checks reject the stc block before any synthesis, so
    # no family.json is left in --out
    def build_family(*args, **kwargs):
        pytest.fail("synthesized for a bad stc block")

    monkeypatch.setattr(cli, "build_family", build_family)
    cfg = _write_config(tmp_path / "cfg.json",
                        stc={"delta": 0.999, "eps_ref": 0.01, "m": 5, **stc})
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}") and len(err.splitlines()) == 1
    assert not (tmp_path / "out" / "family.json").exists()


@pytest.mark.parametrize("run, message", [
    (None, "config requires a 'run' block for this command"),
    ({"x0": []}, "'run.x0' must be a non-empty list of state vectors"),
    ({"x0": [[0.5, 0.5]]}, "run.x0[0] is not a finite vector of length 1"),
    ({"x0": [[0.5], [5.0]]}, "run.x0[1] starts outside the region V <= c"),
    ({"t_end": 0}, "'run.t_end' must be positive and finite"),
    ({"t_end": -1}, "'run.t_end' must be positive and finite"),
    ({"dt_flow": 0}, "'run.dt_flow' must be positive"),
], ids=["no run block", "no x0", "wrong length", "outside", "t_end 0", "t_end -1",
        "dt_flow 0"])
def test_bad_run_block_exits_2_before_synthesis(tmp_path, monkeypatch, capsys, run, message):
    # with no family.json in --out, a run block that is bad without any
    # family is rejected before synthesis, and --out keeps its bytes
    def build_family(*args, **kwargs):
        pytest.fail("synthesized for a bad run block")

    monkeypatch.setattr(cli, "build_family", build_family)
    path = tmp_path / "cfg.json"
    doc = json.loads(Path(_write_config(path)).read_text())
    if run is None:
        del doc["run"]
    else:
        doc["run"].update(run)
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    out.mkdir()
    (out / "summary.json").write_text("older summary\n")
    before = _digests(out)
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}") and len(err.splitlines()) == 1
    assert _digests(out) == before


@pytest.mark.parametrize("command", ["synthesize", "run"])
def test_grid_too_large_to_allocate_exits_5(tmp_path, capsys, command):
    # 10**14 points per axis exceed the address space, so the allocation fails at once
    cfg = _write_config(tmp_path / "cfg.json", synthesis={
        "epsilons": [0.5, -1.0], "l_const": 0.05, "grid_density": 10 ** 14})
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 5
    err = capsys.readouterr().err
    assert err.startswith("out of memory: ") and len(err.splitlines()) == 1


def test_synthesize_help_names_the_re_check(capsys):
    # synthesize exits 0 on a family certified only on its own grid
    with pytest.raises(SystemExit) as exc:
        cli.main(["synthesize", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "certified only on its synthesis grid" in text and "dynstc verify" in text


@pytest.mark.parametrize("command", ["synthesize", "run"])
def test_level_table_too_large_to_map_exits_5(tmp_path, capsys, monkeypatch, command):
    # the grid pass's shared table is an mmap, which reports ENOMEM as an OSError
    def no_memory(*args):
        raise OSError(errno.ENOMEM, "Cannot allocate memory")

    monkeypatch.setattr(mmap, "mmap", no_memory)
    cfg = _write_config(tmp_path / "cfg.json")
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 5
    err = capsys.readouterr().err
    assert err.startswith("out of memory: cannot map a level table of ")
    assert len(err.splitlines()) == 1


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


def test_run_at_small_gain_ratio_certifies_every_interval(tmp_path):
    # L = 300 makes q = gamma/lambda_cap about 0.0035; the comparison
    # function used to reject tau = h of intervals its solve had certified,
    # and the run exited 2 with "tau outside [0, horizon]"
    cfg = _write_config(tmp_path / "cfg.json",
                        stc={"delta": 0.999, "eps_ref": 0.01, "m": 5},
                        synthesis={"epsilons": [0.5, -0.5, -2.0], "l_const": 300,
                                   "grid_density": 32},
                        run={"x0": [[0.9], [0.5], [-0.7]], "t_end": 0.5,
                             "baselines": True})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    runs = json.loads((out / "summary.json").read_text())["runs"]
    assert len(runs) == 9 and all(r["violations"] == 0 for r in runs)


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


def test_compare_keeps_runs_from_one_state_apart(tmp_path, capsys):
    # two runs from the same x0 are two blocks of the report, not one
    cfg = _write_config(tmp_path / "cfg.json",
                        run={"x0": [[0.5], [0.5]], "t_end": 2.0, "baselines": True})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert cli.main(["compare", "--out", str(out)]) == 0
    text = (out / "compare.txt").read_text()
    assert text.count("x0 = [0.5]") == 2
    assert text.count("periodic/dynamic sample ratio") == 2
    for mech in ("dynamic", "static", "periodic"):
        assert sum(line.split()[0] == mech for line in text.splitlines()[1:]) == 2
    # a repeated mechanism starts a block even where x0 does not change
    summary = json.loads((out / "summary.json").read_text())
    runs = summary["runs"]
    summary["runs"] = [runs[0], runs[1], runs[3], runs[5]]
    (out / "summary.json").write_text(json.dumps(summary))
    capsys.readouterr()
    assert cli.main(["compare", "--out", str(out)]) == 0
    blocks = capsys.readouterr().out.split("x0 = ")[1:]
    assert [[line.split()[0] for line in block.splitlines()[2:]] for block in blocks] == \
        [["dynamic", "static"], ["dynamic", "periodic", "periodic/dynamic"]]


def _digests(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}


# 2 x0 x 3 mechanisms: 6 jobs, simulated in the test process; at k > 1
# forked children then write the CSVs of every range of jobs but the last
_FAILING_RUN = {"x0": [[0.5], [-0.25]], "t_end": 3.0, "baselines": True}
# one job: at k > 1 its trajectory CSV is written in k parts, parts 0..k-2
# by forked children once it is simulated
_ONE_JOB_RUN = {"x0": [[0.5]], "t_end": 3.0, "baselines": False}


def _failing_run(monkeypatch, capsys, template, out, failure, k):
    """`dynstc run` at k CPUs in a copy of `template`, with `failure` injected.

    Returns the exit code (or the name of the exception that left main),
    stdout, stderr, the number of trajectory and monitors CSVs that children
    began to write, and the number of forks.
    """
    shutil.copytree(template, out)
    run = json.loads((template / "cfg.json").read_text())["run"]
    n_jobs = len(run["x0"]) * (3 if run["baselines"] else 1)
    parent = os.getpid()
    real_trajectory, real_monitors = cli.write_trajectory_csv, cli.write_monitors_csv
    real_fork = parallel._fork
    log = out.parent / f"{out.name}.children"
    simulated, forks = [], []

    def failing(real):
        def simulate(*args, **kwargs):
            simulated.append(None)
            if len(simulated) == n_jobs:  # the last job
                if failure.endswith("blowup in the last job"):
                    raise IntegrationBlowupError("flow diverged in the last job")
                if failure == "interrupt in the last job":
                    raise KeyboardInterrupt
            return real(*args, **kwargs)
        return simulate

    def in_child(path):
        if os.getpid() != parent:
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{path.name}\n")
            return True
        return False

    def write_trajectory_csv(path, traj):
        if in_child(path) and failure.startswith("child killed"):
            os.kill(os.getpid(), signal.SIGKILL)
        real_trajectory(path, traj)

    def write_monitors_csv(path, traj):
        in_child(path)
        if (failure == "write error in the second job" and "run0_static" in path.name
                or failure == "write error in the last part"):
            raise OSError(errno.ENOSPC, "No space left on device")
        real_monitors(path, traj)

    def fork(fill, lo, hi):
        forks.append((lo, hi))
        return real_fork(fill, lo, hi)

    with monkeypatch.context() as m:
        m.setattr(parallel, "_cpus", lambda: k)
        m.setattr(parallel, "_fork", fork)
        m.setattr(cli, "simulate", failing(cli.simulate))
        m.setattr(cli, "simulate_periodic", failing(cli.simulate_periodic))
        m.setattr(cli, "write_trajectory_csv", write_trajectory_csv)
        m.setattr(cli, "write_monitors_csv", write_monitors_csv)
        capsys.readouterr()
        try:
            code = cli.main(["run", "--config", str(template / "cfg.json"), "--out", str(out)])
        except (KeyboardInterrupt, OSError) as exc:
            code = type(exc).__name__
    text = capsys.readouterr()
    children = len(log.read_text().splitlines()) if log.exists() else 0
    return code, text.out, text.err, children, len(forks)


def _template_with_older_run(tmp_path, run, older):
    """A directory with the config of `run`, its manifest, and `older` files of an earlier run."""
    template = tmp_path / "template"
    template.mkdir()
    cfg = _write_config(template / "cfg.json", run=run)
    assert cli.main(["synthesize", "--config", cfg, "--out", str(template)]) == 0
    for name in older:
        (template / name).write_text(f"older {name}\n", encoding="utf-8")
    return template


@pytest.mark.parametrize("failure", [
    "blowup in the last job", "interrupt in the last job", "write error in the second job",
    "child killed", "child killed, blowup in the last job"])
def test_run_fails_as_the_serial_loop_and_leaves_out_as_it_was(
        tmp_path, monkeypatch, capsys, failure):
    # --out holds a manifest and an older run; a run that fails leaves every
    # file of it as it was and no temporary file, at any number of CPUs
    template = _template_with_older_run(
        tmp_path, _FAILING_RUN, ("run0_dynamic_trajectory.csv", "run1_periodic_monitors.csv",
                                 "run1_static_decisions.csv", "summary.json"))
    before = _digests(template)
    results = {}
    for k in (1, 2, 3):
        out = tmp_path / f"out{k}"
        *results[k], children, forks = _failing_run(monkeypatch, capsys, template, out,
                                                    failure, k)
        results[k].append(_digests(out))
        # children write at k > 1 only, and only once every job is simulated:
        # a failed simulation forks none
        if "blowup" in failure or "interrupt" in failure:
            assert (children, forks) == (0, 0)
        else:
            assert (children > 0) == (forks > 0) == (k > 1)
    code, stdout, stderr, digests = results[1]
    assert results[2] == results[1] and results[3] == results[1]
    if failure == "child killed":  # no child at k = 1; at 2 and 3 the parent refills
        assert code == 0 and stderr == ""
        # 16 CSVs, summary.json, family.json and cfg.json, and no temporary file
        assert len(digests) == 19 and not [n for n in digests if n.endswith(".tmp")]
        assert digests["summary.json"] != before["summary.json"]
    else:
        assert digests == before
        if failure == "blowup in the last job" or failure.startswith("child killed"):
            assert (code, stdout) == (5, "")
            assert stderr == "numerical failure: flow diverged in the last job\n"
        else:
            raised = {"interrupt in the last job": "KeyboardInterrupt",
                      "write error in the second job": "OSError"}[failure]
            assert (code, stdout, stderr) == (raised, "", "")


@pytest.mark.parametrize("failure", [
    "write error in the last part", "child killed", "blowup in the last job"])
def test_split_job_fails_as_the_whole_job_and_leaves_out_as_it_was(
        tmp_path, monkeypatch, capsys, failure):
    # one job written in k parts fails as at k = 1, where it is one part:
    # the last part's monitors CSV cannot be written, a child writing a part
    # is killed (and the parent writes the part again), or the simulation
    # blows up before any part is written
    template = _template_with_older_run(
        tmp_path, _ONE_JOB_RUN, ("run0_dynamic_trajectory.csv", "run0_dynamic_monitors.csv",
                                 "summary.json"))
    before = _digests(template)
    results = {}
    for k in (1, 2, 3):
        out = tmp_path / f"out{k}"
        *results[k], children, forks = _failing_run(monkeypatch, capsys, template, out,
                                                    failure, k)
        results[k].append(_digests(out))
        if failure == "blowup in the last job":
            assert (children, forks) == (0, 0)
        else:  # a child for each part but the last, which writes the monitors
            assert children == forks == k - 1
    code, stdout, stderr, digests = results[1]
    assert results[2] == results[1] and results[3] == results[1]
    if failure == "child killed":
        assert code == 0 and stderr == ""
        # 3 CSVs, summary.json, family.json and cfg.json, and no temporary file
        assert len(digests) == 6 and not [n for n in digests if n.endswith(".tmp")]
        assert digests["run0_dynamic_trajectory.csv"] != before["run0_dynamic_trajectory.csv"]
    else:
        assert digests == before
        if failure == "blowup in the last job":
            assert (code, stdout) == (5, "")
            assert stderr == "numerical failure: flow diverged in the last job\n"
        else:
            assert (code, stdout, stderr) == ("OSError", "", "")


_ORPHAN_SCRIPT = """
import os, sys, time
from dynstc import cli, parallel

config, out, log = sys.argv[1:]
parallel._cpus = lambda: 2
real_write = cli.write_trajectory_csv


def write_trajectory_csv(path, traj):
    with open(log, "a") as fh:
        fh.write(f"{os.getpid()} {time.time()!r}\\n")
    time.sleep(0.5)
    real_write(path, traj)


cli.write_trajectory_csv = write_trajectory_csv
sys.exit(cli.main(["run", "--config", config, "--out", out]))
"""


def _gone(pid):
    """True once `pid` has exited (a zombie left to a parent that does not reap counts)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] in ("Z", "X")


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_children_of_a_killed_run_stop_before_their_next_job(tmp_path):
    # a SIGTERM kills `run` without cleanup; its writer child is
    # re-parented and stops before its next job instead of finishing its
    # range
    out = tmp_path / "out"
    out.mkdir()
    x0 = [[0.5], [-0.25], [0.75], [-0.5], [0.25], [-0.75]]
    cfg = _write_config(out / "cfg.json", run={"x0": x0, "t_end": 2.0, "baselines": False})
    assert cli.main(["synthesize", "--config", cfg, "--out", str(out)]) == 0
    log = tmp_path / "log"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.Popen([sys.executable, "-c", _ORPHAN_SCRIPT, cfg, str(out), str(log)],
                            env=env)
    try:
        # writing takes 0.5 s a job: at k = 2 the one child writes jobs
        # 0-2 and the parent jobs 3-5; kill the parent once the child is
        # on its first job
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            pids = [line.split()[0] for line in
                    (log.read_text().splitlines() if log.exists() else [])]
            if set(pids) - {str(proc.pid)}:
                break
            time.sleep(0.01)
        else:
            pytest.fail(f"no writer child: {pids}")
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == -signal.SIGTERM
        killed = time.time()
    finally:
        proc.kill()
        proc.wait()
    children = {int(pid) for pid in pids} - {proc.pid}
    deadline = time.monotonic() + 30
    while not all(_gone(pid) for pid in children) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert all(_gone(pid) for pid in children)
    # the child began no job after its parent had been killed, so not all 3
    lines = [line.split() for line in log.read_text().splitlines()]
    assert len(children) == 1
    assert [t for pid, t in lines if int(pid) in children and float(t) > killed] == []
    assert 1 <= sum(int(pid) in children for pid, _ in lines) < 3


# SHA-256 of every artifact and of the stdout of `synthesize`, `run`,
# `compare` and `verify`, in that order.  A change that moves these bytes on
# purpose updates the digests and says why.
_PINNED_DIGESTS = {
    # _write_config with dt_flow = 0.002: about 700 RK4 nodes per hold
    # interval, so the flow records keep every 10th or 11th node
    "linear_strided": {
        "compare.txt": "d14aac30daa71ebebad3c5d982620267d041972df2f5c667222ddf5eda440a64",
        "family.json": "23ebb7b83e26c6b77d77703443d0fe8b3afced627916137ea52b62a50b8f3d16",
        "plots.gp": "e0e24cacf8f9879d990c28508f6634da337df5128de03b733ffc36b0b67d0046",
        "run0_dynamic_decisions.csv":
            "a19975b388f22de4e239e8928f52125ddd467a735432ed790d8b06f3361b8426",
        "run0_dynamic_monitors.csv":
            "ece34cddef1ecc43d471953403988f5b111e3b8b78f8a97f707cd5c24cfd0ce8",
        "run0_dynamic_trajectory.csv":
            "d28195050e0963d5af789165d6f12f749daeab1e4a8a13d10b1b9c37ae0bf83e",
        "run0_periodic_monitors.csv":
            "d15e8911e9f7024ffa3bea3e86789ed5cc2328e58c609fba7288475ce14aba4a",
        "run0_periodic_trajectory.csv":
            "8055427f2fd78a362a7a991d8d27375c0a0a7cd6285b518e4b350c92a075a726",
        "run0_static_decisions.csv":
            "b28399fca5beed48aacfd5e0bf21eb6fa0b72e663e330d86057ab256ecd8adfe",
        "run0_static_monitors.csv":
            "0c7ec32927d7d6194e07d261a53a8ed0698a95b917b9f422ebf24ede4fc1feb9",
        "run0_static_trajectory.csv":
            "e8bf77d050dd7f6e488807decd105bd484e34227ed585c7271716f0fa937c0c4",
        "summary.json": "1d3eed8a626a0fe1dbb73081285eb5392142a1356e6c4cf432a325aa2bee9927",
        "stdout synthesize":
            "0aed9603cd86dc80d749ea0939cf08b7096ee3c4712ae1f77c6c0320e64cd361",
        "stdout run": "94192daa7830242eaa5c1347fe7d423530cf6a5cc7f61abadbabf5de64197f0a",
        "stdout compare": "d14aac30daa71ebebad3c5d982620267d041972df2f5c667222ddf5eda440a64",
        "stdout verify": "05c59a72f8b993a2db523f11a08cb030cab737da9c349cef9378fe6a8791a9c5",
    },
    # van_der_pol at density 16 with a 5-set ladder, the README x0, 2 s
    "van_der_pol_small": {
        "compare.txt": "b93c0dea6ec02f259c17a02728082f5d2a9c3f7d698652e3a716c8363d6b3714",
        "family.json": "a77746fc39cdc345882998646fc851181088915b14d5c92c3c7f719dc3a5428b",
        "plots.gp": "e0e24cacf8f9879d990c28508f6634da337df5128de03b733ffc36b0b67d0046",
        "run0_dynamic_decisions.csv":
            "f8c8668afaaaec254a7c53e79ea0870043187f4d769d09e1261a83b10b3094e3",
        "run0_dynamic_monitors.csv":
            "ce9b5c6ee859720909678da95404250c06fb2832e8988ca1ed933a879f89200d",
        "run0_dynamic_trajectory.csv":
            "3b3013bf80a2076bb0b26112bf037550cd2ca914ce6c5ffc284383f5de0c8d54",
        "run0_periodic_monitors.csv":
            "06404c38597fe7f8003149452795e5c617182646eb13334d057c00886700021c",
        "run0_periodic_trajectory.csv":
            "34c7ec52a339729933bb75715dc9352c6efcdf0d063dc647508e5dc756838085",
        "run0_static_decisions.csv":
            "2305e54771b4833410c7edad7dc2c95e2d53210bae68712a6dbc0f4a79b173c5",
        "run0_static_monitors.csv":
            "f490b1517e69285d177348bbc902664f5d8f6de45a6118f3ac2ab623ca4b2432",
        "run0_static_trajectory.csv":
            "1536c5a1b282cde18b164f9be0984e67c29cde117df57722d5158c94bcd321e6",
        "summary.json": "b63b327d2c943530e1d82d2aca2a7581f84307d855b39d14971dbd1b757843ac",
        "stdout synthesize":
            "6644574efb87086d0650f2a9c551c6fbc4104a6aadd3a66fca6d5c427bceac74",
        "stdout run": "9b5b0d3e25805033a490f568fbd6d8932b01a636fc98dc1c6602bca0a2298812",
        "stdout compare": "b93c0dea6ec02f259c17a02728082f5d2a9c3f7d698652e3a716c8363d6b3714",
        "stdout verify": "0661ca1e7da92589192049c707af3952c387161ddfa2755808247daebd99cadf",
    },
}

_DIGEST_CONFIGS = {
    "linear_strided": {
        "run": {"x0": [[0.5]], "t_end": 10.0, "dt_flow": 0.002, "baselines": True},
    },
    "van_der_pol_small": {
        "system": {"name": "van_der_pol", "c": 10.0},
        "stc": {},
        "synthesis": {"ladder": {"n": 5}, "l_const": 0.05, "grid_density": 16},
        "run": {"x0": [[-0.3, 1.7]], "t_end": 2.0, "baselines": True},
    },
}


# the exit code of `verify`: density 16 is too coarse a sample for
# van_der_pol, and every set of that family fails the check at 32
_VERIFY_EXIT = {"linear_strided": 0, "van_der_pol_small": 3}


@pytest.mark.parametrize("name", sorted(_DIGEST_CONFIGS))
def test_artifacts_and_stdout_keep_their_bytes(tmp_path, capsys, name):
    cfg = _write_config(tmp_path / "cfg.json", **_DIGEST_CONFIGS[name])
    out = tmp_path / "out"
    stdout = {}
    for command, code in (("synthesize", 0), ("run", 0), ("compare", 0),
                          ("verify", _VERIFY_EXIT[name])):
        config = [] if command == "compare" else ["--config", cfg]
        assert cli.main([command, *config, "--out", str(out)]) == code
        stdout[command] = capsys.readouterr().out
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    for command, text in stdout.items():
        digests[f"stdout {command}"] = hashlib.sha256(text.encode()).hexdigest()
    assert digests == _PINNED_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(_DIGEST_CONFIGS))
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_run_keeps_its_bytes_at_every_cpu_count(tmp_path, capsys, monkeypatch, name, k):
    # the grid pass and `run` split their work over k CPUs; the pinned bytes
    # do not move.  From k = 4 on, each of the 3 jobs is written in 2 parts.
    monkeypatch.setattr(parallel, "_cpus", lambda: k)
    test_artifacts_and_stdout_keep_their_bytes(tmp_path, capsys, name)


@pytest.mark.parametrize("name", sorted(_DIGEST_CONFIGS))
def test_one_job_keeps_its_bytes_in_every_split(tmp_path, capsys, monkeypatch, name):
    # the dynamic job alone: at k CPUs its trajectory CSV is written in k
    # parts, and every artifact and stdout has the bytes of k = 1
    overrides = dict(_DIGEST_CONFIGS[name])
    overrides["run"] = dict(overrides["run"], baselines=False)
    cfg = _write_config(tmp_path / "cfg.json", **overrides)
    results = {}
    for k in (1, 2, 3, 5):
        monkeypatch.setattr(parallel, "_cpus", lambda: k)
        out = tmp_path / f"out{k}"
        stdout = []
        for command in ("synthesize", "run", "compare"):
            config = [] if command == "compare" else ["--config", cfg]
            assert cli.main([command, *config, "--out", str(out)]) == 0
            stdout.append(capsys.readouterr().out)
        results[k] = _digests(out), stdout
    assert sorted(results[1][0]) == [
        "compare.txt", "family.json", "plots.gp", "run0_dynamic_decisions.csv",
        "run0_dynamic_monitors.csv", "run0_dynamic_trajectory.csv", "summary.json"]
    assert results[2] == results[1] and results[3] == results[1] and results[5] == results[1]
    # the dynamic run of the pinned config, written whole at k = 1
    pinned = _PINNED_DIGESTS[name]["run0_dynamic_trajectory.csv"]
    assert results[5][0]["run0_dynamic_trajectory.csv"] == pinned


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _rebuilt_trajectory(out, stem, cfg):
    """Run `stem`'s HybridTrajectory in out, from its trajectory and decisions CSVs.

    Each decision's set is cfg's (the family of family.json) and its rate
    cap set_lambda_cap's; each sample's x is its segment's tau = 0 row, or
    the last row for the final sample, which starts no segment.
    """
    rows = _read_csv(out / f"{stem}_trajectory.csv")
    decs = _read_csv(out / f"{stem}_decisions.csv")
    n_x = len(rows[0]) - 7  # t, j, x1..xn, V, U, interval, set_index, used_fallback

    def column(key, kind=float):
        return np.array([kind(row[key]) for row in rows])

    fp = FlowRecords(t=column("t"), j=column("j", int),
                     x=np.stack([column(f"x{i + 1}") for i in range(n_x)], axis=-1),
                     v=column("V"), u=column("U"))
    first = {}
    for k, j in enumerate(fp.j.tolist()):
        first.setdefault(j, k)
    samples = tuple(Sample(t=float(d["t"]), j=int(d["j"]), v=float(d["V"]),
                           x=fp.x[first[int(d["j"])] if int(d["j"]) < len(decs) else -1])
                    for d in decs)
    decisions = tuple(TriggerDecision(h=float(d["h"]), set_index=i, params=cfg.family.sets[i],
                                      lambda_cap_used=set_lambda_cap(cfg, i),
                                      v_now=float(d["V"]), c_val=float(d["C"]))
                      for d in decs for i in [int(d["set_index"])])
    return HybridTrajectory(samples=samples, decisions=decisions, flow_points=fp)


# the pinned configs, and a register seeded with zeros under another window length
_REBUILD_CONFIGS = dict(_DIGEST_CONFIGS, linear_zero_register={
    "stc": {"delta": 0.999, "eps_ref": 0.01, "m": 3, "eta_init": "zero"},
    "run": {"x0": [[0.5], [-0.9]], "t_end": 10.0, "baselines": True},
})


@pytest.mark.parametrize("name", sorted(_REBUILD_CONFIGS))
def test_monitors_rebuild_from_the_artifacts(tmp_path, name):
    # what a run writes is all its monitors read: every dynamic and static
    # run, rebuilt from its CSVs, family.json and the config, gives the
    # bytes of its monitors CSV through the same run_monitors
    path = _write_config(tmp_path / "cfg.json", **_REBUILD_CONFIGS[name])
    out = tmp_path / "out"
    assert cli.main(["run", "--config", path, "--out", str(out)]) == 0
    doc, spec = cli._load_config(path)
    family, _ = read_manifest(out / "family.json")
    cfg = StcConfig(family=family, c=spec.region_c, **doc["stc"])
    stems = [(f"run{k}_{mech}", replace(cfg, m=1) if mech == "static" else cfg)
             for k in range(len(doc["run"]["x0"])) for mech in ("dynamic", "static")]
    for stem, run_cfg in stems:
        traj = _rebuilt_trajectory(out, stem, run_cfg)
        assert len(traj.samples) >= cfg.m  # the dynamic runs fill their window
        write_monitors_csv(tmp_path / "monitors.csv",
                           replace(traj, monitors=tuple(run_monitors(traj, run_cfg))))
        assert (tmp_path / "monitors.csv").read_bytes() == \
            (out / f"{stem}_monitors.csv").read_bytes(), stem


@pytest.mark.parametrize("run, calls", [
    ({"x0": [[0.5], [-0.25]], "t_end": 1.0, "baselines": True},
     ["simulate", "simulate", "simulate_periodic"] * 2),
    ({"x0": [[0.5]], "t_end": 1.0, "baselines": False}, ["simulate"])],
    ids=["baselines", "one job"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_run_simulates_every_job_in_the_cli_process(tmp_path, monkeypatch, run, calls, k):
    # a profiler that wraps cli.simulate and cli.simulate_periodic in the
    # CLI process (perfbench/tracer.py) sees each job's simulation there,
    # once; the log is a file, so a call in a child would show too
    cfg = _write_config(tmp_path / "cfg.json", run=run)
    log = tmp_path / "calls"

    def logged(name, real):
        def call(*args, **kwargs):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{name} {os.getpid()}\n")
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(parallel, "_cpus", lambda: k)
    for name in ("simulate", "simulate_periodic"):
        monkeypatch.setattr(cli, name, logged(name, getattr(cli, name)))
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert log.read_text().splitlines() == [f"{name} {os.getpid()}" for name in calls]


@pytest.mark.parametrize("run", [_FAILING_RUN, _ONE_JOB_RUN], ids=["6 jobs", "one job"])
def test_run_forks_only_after_its_last_simulation(tmp_path, monkeypatch, run):
    # every job is simulated before the first fork, and min(k, items) - 1
    # children then write every range of write items but the parent's
    cfg = _write_config(tmp_path / "cfg.json", run=run)
    out = tmp_path / "out"
    assert cli.main(["synthesize", "--config", cfg, "--out", str(out)]) == 0
    n_jobs = len(run["x0"]) * (3 if run["baselines"] else 1)
    events = []

    def logged(real):
        def call(*args, **kwargs):
            traj = real(*args, **kwargs)
            events.append("simulated")
            return traj
        return call

    real_fork = parallel._fork

    def fork(fill, lo, hi):
        events.append("fork")
        return real_fork(fill, lo, hi)

    monkeypatch.setattr(parallel, "_fork", fork)
    for name in ("simulate", "simulate_periodic"):
        monkeypatch.setattr(cli, name, logged(getattr(cli, name)))
    for k in (1, 2, 3, 4):
        monkeypatch.setattr(parallel, "_cpus", lambda: k)
        events.clear()
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        items = n_jobs * -(-k // n_jobs)
        assert events == ["simulated"] * n_jobs + ["fork"] * (min(k, items) - 1)


@pytest.mark.parametrize("n_x0, baselines, k, items", [
    (2, True, 2, 6), (1, True, 3, 3), (4, True, 2, 12),  # jobs >= k: one item a job
    (1, True, 4, 6), (1, True, 6, 6), (1, False, 2, 2), (1, False, 5, 5), (2, False, 3, 4)])
def test_run_splits_its_jobs_only_below_the_cpu_count(
        tmp_path, monkeypatch, n_x0, baselines, k, items):
    # ceil(k / jobs) items a job, each writing its own trajectory part; no
    # fork succeeds, so the parent writes every part and sees each name
    cfg = _write_config(tmp_path / "cfg.json", run={"x0": [[0.5]] * n_x0, "t_end": 1.0,
                                                     "baselines": baselines})
    counts, written = [], []
    real_fill, real_trajectory = parallel._fill_in_parallel, cli.write_trajectory_csv

    def fill_in_parallel(fill, n):
        counts.append(n)
        real_fill(fill, n)

    def write_trajectory_csv(path, traj):
        written.append(path.name)
        real_trajectory(path, traj)

    monkeypatch.setattr(parallel, "_cpus", lambda: k)
    monkeypatch.setattr(parallel, "_fork", lambda fill, lo, hi: None)
    monkeypatch.setattr(parallel, "_fill_in_parallel", fill_in_parallel)
    monkeypatch.setattr(cli, "write_trajectory_csv", write_trajectory_csv)
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    parts = items // (n_x0 * (3 if baselines else 1))
    suffixes = [f".{os.getpid()}.tmp"] + [f".{os.getpid()}.{p}.tmp" for p in range(1, parts)]
    stems = [f"run{i}_{mech}_trajectory.csv" for i in range(n_x0)
             for mech in (("dynamic", "static", "periodic") if baselines else ("dynamic",))]
    assert counts == [items]
    assert sorted(written) == sorted(stem + suffix for stem in stems for suffix in suffixes)


def test_row_parts_join_to_the_whole_csv(tmp_path):
    # parts of 0 rows, a trajectory of 0 rows, a periodic one (U is NaN) and
    # a dynamic one, whose part cuts fall inside segments with unequal
    # interval columns, join to the bytes that write_trajectory_csv gives
    # for the whole
    periodic = simulate_periodic([0.5], linear_test(), 0.25, 1.0)
    family = ParameterFamily(sets=tuple(ParameterSet(epsilon=eps, gamma=1.05, l_const=0.05)
                                        for eps in (0.5, -1.0, -5.0)))
    dynamic = simulate([0.8], StcConfig(family=family, c=1.0, m=5), linear_test(), 3.0)
    assert len({(d.h, d.set_index) for d in dynamic.decisions}) > 1
    j, n_per = dynamic.flow_points.j, len(periodic.flow_points)
    assert all(j[len(j) * p // 4 - 1] == j[len(j) * p // 4] for p in (1, 2, 3))

    def quarters(n):
        return [n * (p + 1) // 4 - n * p // 4 for p in range(4)]

    for case, (full, n_rows, sizes) in enumerate((
            (periodic, 3, [0, 1, 0, 1, 1]), (periodic, 0, [0, 0]),
            (periodic, n_per, quarters(n_per)), (dynamic, len(j), quarters(len(j))))):
        traj = replace(full, flow_points=full.flow_points.rows(0, n_rows))
        whole = tmp_path / f"whole{case}.csv"
        write_trajectory_csv(whole, traj)
        parts = len(sizes)
        paths = [tmp_path / f"part{case}.{p}.csv" for p in range(parts)]
        for p, path in enumerate(paths):
            part = cli._row_part(traj, p, parts)
            assert len(part.flow_points) == sizes[p]
            write_trajectory_csv(path, part)
        cli._join_parts(paths)
        assert paths[0].read_bytes() == whole.read_bytes()
