"""Export lists of the package and its modules."""

import dataclasses
import importlib
import inspect

import pytest

import dynstc

MODULES = ["dynstc", "dynstc.cli", "dynstc.engine", "dynstc.sim",
           "dynstc.synthesis", "dynstc.systems", "dynstc.timing"]
REMOVED = ["HybridState", "JumpConditionError", "RegionViolationError",
           "TimingParams", "u_value", "default_w_h", "synthesize_gamma",
           "verify_assumption", "eval_f", "in_region", "spec_from_json", "default_wh",
           "FlowPoint"]


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
