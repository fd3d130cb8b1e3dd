"""Export lists of the package and its modules."""

import dataclasses
import importlib
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import dynstc

MODULES = ["dynstc", "dynstc.cli", "dynstc.engine", "dynstc.sim",
           "dynstc.synthesis", "dynstc.systems", "dynstc.timing"]
REMOVED = ["HybridState", "JumpConditionError", "RegionViolationError",
           "TimingParams", "u_value", "default_w_h", "synthesize_gamma",
           "verify_assumption", "eval_f", "in_region", "spec_from_json", "default_wh",
           "FlowPoint", "lambda_cap_for", "_interval", "_reports", "_synthesize",
           "_grid_pass", "_CHUNK", "_check_x0", "_check_t_end", "_flow_records",
           "_check_keys", "_config_values", "_integer", "_epsilons_from",
           "_synthesis_params"]


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    mod = importlib.import_module(name)
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)
    assert not set(REMOVED) & set(mod.__all__)
    assert not [attr for attr in REMOVED if hasattr(mod, attr)]


def test_region_escape_is_one_class():
    from dynstc import engine, sim

    assert dynstc.RegionEscapeError is engine.RegionEscapeError is sim.RegionEscapeError
    assert sim.REGION_TOL_REL is engine.REGION_TOL_REL


def test_comparison_function_has_no_tuning_knobs():
    from dynstc import sim, timing

    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(timing.phi_solve) == ["lam", "gamma", "lambda_cap"]
    assert params(timing.solve_lambda_for_horizon) == ["h", "gamma", "lambda_cap"]
    assert [f.name for f in dataclasses.fields(timing.PhiSolution)] == \
        ["lam", "gamma", "lambda_cap", "horizon"]
    assert not hasattr(sim, "_phi_for")


def test_family_has_no_fallback_index():
    from dynstc import synthesis

    assert [f.name for f in dataclasses.fields(synthesis.ParameterFamily)] == ["sets"]


def test_decision_carries_its_set():
    from dynstc import engine, sim

    assert [f.name for f in dataclasses.fields(engine.TriggerDecision)] == \
        ["h", "set_index", "params", "lambda_cap_used", "v_now", "c_val"]
    assert list(inspect.signature(sim.monitor_flow_bound).parameters) == \
        ["seg", "dec", "v_plus", "t_start"]


def test_tracer_wrappers_install_and_restore():
    # perfbench/tracer.py wraps module attributes by name; a change that
    # drops one of them fails here, not only in a traced benchmark run
    from dynstc import cli, engine, sim

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    mods = {"cli": cli, "engine": engine, "sim": sim}
    before = {name: dict(vars(mod)) for name, mod in mods.items()}
    with tracer.traced(tracer.Tracer()) as main:
        assert main is cli.main
        wrapped = {f"{name}.{attr}" for name, mod in mods.items()
                   for attr, value in before[name].items() if vars(mod)[attr] is not value}
    assert {"cli.t_max", "cli.verify_family", "cli.build_family", "cli.simulate",
            "cli.simulate_periodic", "engine.t_max", "engine.gamma_trigger",
            "sim.phi_solve", "sim.solve_lambda_for_horizon", "sim.run_monitors"} <= wrapped
    for name, mod in mods.items():
        assert vars(mod).keys() == before[name].keys()
        assert all(vars(mod)[attr] is value for attr, value in before[name].items())


def test_cli_import_loads_no_process_pool():
    # every command pays its imports at start-up; the grid pass forks with os
    # alone and loads mmap (and signal, to kill a child) only when it runs
    code = ("import sys, dynstc.cli; print(sorted(m for m in sys.modules if m.split('.')[0] "
            "in ('multiprocessing', 'concurrent', 'mmap', 'signal')))")
    src = str(Path(dynstc.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], cwd=src, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"
