"""Dynamic self-triggered control: timing certificates, triggers, simulation.

Every public name is an attribute of the package, but ``import dynstc``
loads none of its submodules, nor numpy: each name loads its home module
on first use (a module ``__getattr__``, PEP 562) and is then kept in the
package namespace.  So ``from dynstc import t_max`` loads ``timing``
alone, and a script pays only for the layers it uses.  ``dynstc.cli``
still imports every numeric module at its top: a command pays its
imports at start-up, and a profiler that times ``import dynstc.cli`` and
wraps the names it holds (perfbench/tracer.py) sees all of them.
"""

import importlib

__version__ = "0.1.0"

# each public name by the submodule that defines it
_HOMES = {
    "engine": ("DynamicVariable", "RegionEscapeError", "StcConfig", "TriggerDecision",
               "gamma_trigger", "static_trigger", "stc_step", "t_max_cap", "t_min_of"),
    "sim": ("HybridTrajectory", "IntegrationBlowupError", "monitor_flow_bound",
            "run_monitors", "simulate", "simulate_periodic", "write_decisions_csv",
            "write_monitors_csv", "write_trajectory_csv"),
    "synthesis": ("ParameterFamily", "ParameterSet", "SynthesisError", "VerificationReport",
                  "build_family", "default_epsilon_ladder", "read_manifest",
                  "verify_family", "write_manifest"),
    "systems": ("SystemSpec", "linear_test", "spec_from_config", "van_der_pol"),
    "timing": ("HorizonError", "PhiSolution", "phi_solve", "solve_lambda_for_horizon",
               "t_max", "t_tilde_max"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:  # also how `from dynstc import cli` finds the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
