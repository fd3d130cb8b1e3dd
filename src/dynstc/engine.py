"""Dynamic self-triggered sampling: window average, trigger, jump map.

At each sampling instant the mechanism chooses the next inter-sample
interval from the current energy V(x) and a shift register eta of the
m-1 previous sampled energies.  The window average

    C = min{ c, (V(x) + sum(eta)) / m }

relaxes the trigger: a candidate set (epsilon_i, gamma_i, L_i) may
certify a long interval h whenever exp(-epsilon_i h) V stays below
exp(-eps_ref h) C, which has the closed-form case split written once in
:func:`_intervals`, for :func:`interval_for_set` and the trigger alike.
The fall-back, set 0 of the family, has a positive rate and guarantees
the strictly positive floor t_min = delta * t_max(gamma_1, L_1 + eps_1/2)
independently of the window, so every decision certifies one of two
inequalities for the next sample:

* ``window-bound``:      V(t_{j+1}) <= exp(-eps_ref h) C(t_j)
* ``fallback-decrease``: V(t_{j+1}) <= exp(-eps_1 t_min) V(t_j)

A decision carries the set that issued it (``params``).  Only sets 1..n-1
issue window bounds, so ``bound_type`` is derived from ``set_index``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .timing import T_MAX_REL_ERR, t_max

if TYPE_CHECKING:  # annotations only: the trigger needs no synthesis code
    from .synthesis import ParameterFamily, ParameterSet

__all__ = [
    "WINDOW_BOUND",
    "FALLBACK_DECREASE",
    "REGION_TOL_REL",
    "RegionEscapeError",
    "DynamicVariable",
    "StcConfig",
    "TriggerDecision",
    "eta_initial",
    "update_eta",
    "window_average_c",
    "set_lambda_cap",
    "t_min_of",
    "t_max_cap",
    "interval_for_set",
    "gamma_trigger",
    "static_trigger",
    "stc_step",
]

WINDOW_BOUND = "window-bound"
FALLBACK_DECREASE = "fallback-decrease"

REGION_TOL_REL = 1e-6  # relative slack on V <= c before declaring escape


class RegionEscapeError(RuntimeError):
    """V exceeded c (plus tolerance); the guarantees no longer apply."""

    def __init__(self, message, t=None, x=None, v=None):
        super().__init__(message)
        self.t = t
        self.x = x
        self.v = v


@dataclass(frozen=True)
class DynamicVariable:
    """FIR register of the m-1 past sampled energies, oldest first."""

    eta: tuple = ()

    def __post_init__(self):
        eta = tuple(float(v) for v in self.eta)
        if any(not math.isfinite(v) or v < 0.0 for v in eta):
            raise ValueError("eta entries must be finite and non-negative")
        object.__setattr__(self, "eta", eta)

    def _shifted(self, v: float) -> DynamicVariable:
        """This register without its oldest entry and with v appended, v already checked.

        The kept entries were checked when this register was made, so
        ``__post_init__`` is not run on them again.
        """
        dyn = object.__new__(DynamicVariable)
        object.__setattr__(dyn, "eta", self.eta[1:] + (v,))
        return dyn


def eta_initial(m: int, v0: float, policy: str = "v0") -> DynamicVariable:
    """Initial register: m-1 copies of V(x0) ("v0") or zeros ("zero").

    The choice does not affect the stability guarantees, only the first
    few intervals; seeding with V(x0) makes the initial window average
    equal V(x0).
    """
    if m < 1:
        raise ValueError("window length m must be at least 1")
    if v0 < 0.0:
        raise ValueError("initial energy must be non-negative")
    if policy == "v0":
        return DynamicVariable(eta=(float(v0),) * (m - 1))
    if policy == "zero":
        return DynamicVariable(eta=(0.0,) * (m - 1))
    raise ValueError(f"unknown eta-init policy {policy!r}")


def update_eta(dyn: DynamicVariable, v_now: float) -> DynamicVariable:
    """Shift register: drop the oldest entry, append v_now (finite and non-negative)."""
    v = float(v_now)
    if not 0.0 <= v < math.inf:
        raise ValueError("energy must be finite and non-negative")
    if len(dyn.eta) == 0:
        return dyn
    return dyn._shifted(v)


def window_average_c(v_now: float, dyn: DynamicVariable, c: float, m: int) -> float:
    if v_now < 0.0:
        raise ValueError("energy must be non-negative")
    if len(dyn.eta) != m - 1:
        raise ValueError(f"register holds {len(dyn.eta)} entries, expected m-1 = {m - 1}")
    return min(c, (v_now + math.fsum(dyn.eta)) / m)


@dataclass(frozen=True)
class StcConfig:
    family: ParameterFamily
    c: float
    delta: float = 0.999
    eps_ref: float = 0.01
    m: int = 30
    eta_init: str = "v0"

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie strictly in (0, 1)")
        if not (1.0 - self.delta > T_MAX_REL_ERR):
            raise ValueError(f"1 - delta must exceed {T_MAX_REL_ERR:g}, the relative error "
                             "of t_max, so that delta * t_max stays below the exact horizon")
        if not (0.0 < self.eps_ref < math.inf):
            raise ValueError("eps_ref must be positive and finite")
        if self.m < 1:
            raise ValueError("window length m must be at least 1")
        if not (0.0 < self.c < math.inf):
            raise ValueError("energy level c must be positive and finite")
        if self.eta_init not in ("v0", "zero"):
            raise ValueError(f"unknown eta-init policy {self.eta_init!r}")

    @cached_property
    def _interval_caps(self) -> tuple:
        """delta * t_max of each set at its rate cap, computed once per config."""
        return tuple(self.delta * t_max(ps.gamma, set_lambda_cap(self, i))
                     for i, ps in enumerate(self.family.sets))

    @cached_property
    def _window_sets(self) -> tuple:
        """(eps_ref - eps_i, cap) of each window set i = 1..n-1, computed once per config."""
        return tuple((self.eps_ref - ps.epsilon, cap)
                     for ps, cap in zip(self.family.sets[1:], self._interval_caps[1:]))


@dataclass(frozen=True)
class TriggerDecision:
    """Interval h issued by set ``params`` = family.sets[set_index] at its rate cap."""
    h: float
    set_index: int
    params: ParameterSet
    lambda_cap_used: float
    v_now: float
    c_val: float

    @property
    def used_fallback(self) -> bool:
        return self.set_index == 0

    @property
    def bound_type(self) -> str:
        return FALLBACK_DECREASE if self.set_index == 0 else WINDOW_BOUND


def set_lambda_cap(cfg: StcConfig, i: int) -> float:
    """Rate cap of set i: L + eps/2 for the fall-back (set 0), else max{L + eps/2, 1 - delta}."""
    ps = cfg.family.sets[i]
    lam = ps.l_const + 0.5 * ps.epsilon
    return lam if i == 0 else max(lam, 1.0 - cfg.delta)


def t_min_of(cfg: StcConfig) -> float:
    """Guaranteed sampling floor delta * t_max(gamma_1, L_1 + eps_1/2)."""
    return cfg._interval_caps[0]


def t_max_cap(cfg: StcConfig) -> float:
    """Largest interval any decision can return."""
    return max(cfg._interval_caps)


def _intervals(v: float, c_val: float, sets) -> list:
    """Longest h <= cap with a * h <= log(c_val / v), of each (a, cap) in sets; 0 when none.

    a = eps_ref - eps_i.  log(c_val / v) is taken once for all sets, as
    +inf at the origin v = 0, where any interval is admissible, and as -inf
    where the quotient c_val / v is 0 (c_val = 0 < v, or a c_val so far
    below v that the quotient underflows), where no set certifies any
    interval.  At or above the window (c_val >= v) a set certifies its
    cap, or the root log(c_val / v) / a if that is shorter; below it only a
    set with a < 0 does, and only when its cap passes the root.
    """
    q = math.inf if v == 0.0 else c_val / v
    log_cv = math.log(q) if q > 0.0 else -math.inf
    if c_val >= v:
        return [min(cap, log_cv / a) if a > 0.0 else cap for a, cap in sets]
    return [cap if a < 0.0 and cap > log_cv / a else 0.0 for a, cap in sets]


def interval_for_set(v_now: float, c_val: float, cfg: StcConfig, i: int) -> float:
    """Longest h <= delta*t_max certifiable by set i; 0 when infeasible.

    The certified inequality is (eps_ref - eps_i) * h <= log(c_val / v_now),
    split into its sign cases by :func:`_intervals`, the rule the trigger
    applies to every window set.  A negative v_now or c_val is a
    ``ValueError``.  The cap is the set's delta*t_max at its rate cap,
    :func:`set_lambda_cap`.  The float log(c_val/v_now)/a can round above
    the exact root of the inequality: in about half the seeded draws on a
    density-48 family, by less than 4u(1 + log(c_val/v_now)) in it (u the
    unit roundoff).  The sample-decrease monitor passes such an h by its
    MON_TOL, not by the inequality.
    """
    if v_now < 0.0 or c_val < 0.0:
        raise ValueError("energy and window average must be non-negative")
    a = cfg.eps_ref - cfg.family.sets[i].epsilon
    return _intervals(v_now, c_val, ((a, cfg._interval_caps[i]),))[0]


def _best_interval(v: float, c_val: float, cfg: StcConfig) -> tuple:
    """(h, i): the first longest window-set interval if it reaches t_min, else (t_min, 0).

    Each window set's h is its :func:`interval_for_set`, from one call of
    :func:`_intervals` over ``StcConfig._window_sets``.
    """
    hs = _intervals(v, c_val, cfg._window_sets)
    best = max(hs, default=-math.inf)
    if best >= t_min_of(cfg):
        return best, hs.index(best) + 1
    return t_min_of(cfg), 0


def gamma_trigger(x, dyn: DynamicVariable, cfg: StcConfig, spec) -> TriggerDecision:
    """Next-interval computation: fall-back floor, then the best candidate.

    A candidate beats the incumbent only with a strictly longer interval,
    so ties resolve to the lower index; a candidate matching the
    fall-back interval still wins, since its window bound is the
    stronger certificate at the same h.
    """
    v = float(spec.v(np.asarray(x, dtype=float)))
    if v > cfg.c * (1.0 + REGION_TOL_REL):
        raise RegionEscapeError(
            f"V(x) = {v:.6g} exceeds the region level c = {cfg.c:.6g}",
            x=np.array(x, dtype=float), v=v)
    c_val = window_average_c(v, dyn, cfg.c, cfg.m)
    best_h, best_i = _best_interval(v, c_val, cfg)
    return TriggerDecision(
        h=best_h,
        set_index=best_i,
        params=cfg.family.sets[best_i],
        lambda_cap_used=set_lambda_cap(cfg, best_i),
        v_now=v,
        c_val=c_val,
    )


def static_trigger(x, cfg: StcConfig, spec) -> TriggerDecision:
    """Windowless baseline: the m = 1 mechanism with C = min{c, V(x)}."""
    cfg1 = cfg if cfg.m == 1 else replace(cfg, m=1)
    return gamma_trigger(x, DynamicVariable(), cfg1, spec)


def stc_step(x, dyn: DynamicVariable, cfg: StcConfig, spec):
    """Jump map at a sampling instant: (decision, shifted register).

    The trigger schedules the next interval from V(x) and the pre-shift
    register; the register then drops its oldest entry and takes V(x).
    """
    decision = gamma_trigger(x, dyn, cfg, spec)
    return decision, update_eta(dyn, decision.v_now)
