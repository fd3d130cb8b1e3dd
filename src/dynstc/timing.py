"""Timing functions for sampled-data Lyapunov analysis.

This module provides the closed-form flow horizons used by the trigger
logic and the comparison function needed by the runtime certificates,
where the simulator forms the combined energy ``V + gamma*phi(tau)*W^2``:

* ``t_max(gamma, lambda_cap)`` -- the largest flow horizon over which the
  combined energy estimate of the sampled loop stays valid for a supply
  gain ``gamma`` and a growth/decay cap ``lambda_cap``.
* ``t_tilde_max(lam, gamma, lambda_cap)`` -- the shortened horizon over
  which the comparison function ``phi`` travels from ``1/lam`` down to
  ``lam``; it increases to ``t_max`` as ``lam -> 0`` and shrinks to zero
  as ``lam -> 1``.
* ``solve_lambda_for_horizon`` -- inverse of ``t_tilde_max`` in ``lam``,
  used to certify an already-issued inter-sample interval.
* ``phi_solve`` -- dense numerical solution of the scalar comparison ODE
  ``dphi/dtau = -2*lambda_cap*phi - gamma*(phi^2 + 1)``.

All functions are scalar and deterministic; ``PhiSolution.evaluate``
accepts arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "HorizonError",
    "PhiSolution",
    "t_max",
    "t_tilde_max",
    "solve_lambda_for_horizon",
    "phi_solve",
]


class HorizonError(ValueError):
    """Requested horizon admits no valid comparison parameter."""


def _check_rates(gamma: float, lambda_cap: float) -> None:
    if not (gamma > 0.0) or not math.isfinite(gamma):
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    if not (lambda_cap > 0.0) or not math.isfinite(lambda_cap):
        raise ValueError(f"lambda_cap must be positive and finite, got {lambda_cap}")


def _check_lam(lam: float) -> None:
    if not (0.0 < lam < 1.0):
        raise ValueError(f"lam must lie strictly inside (0, 1), got {lam}")


def t_max(gamma: float, lambda_cap: float) -> float:
    """Largest valid flow horizon for the gain pair (gamma, lambda_cap).

    Three closed-form branches depending on q = gamma/lambda_cap:
    an arctangent branch for q > 1, the limit 1/lambda_cap at q = 1 and
    an inverse hyperbolic branch for q < 1.  The hyperbolic branch is
    computed as log((1+r)/q)/(lambda_cap*r), which is algebraically
    identical to arctanh(r)/(lambda_cap*r) but does not cancel as
    q -> 0 (r -> 1).
    """
    _check_rates(gamma, lambda_cap)
    q = gamma / lambda_cap
    r2 = q * q - 1.0
    if r2 > 0.0:
        r = math.sqrt(r2)
        return math.atan(r) / (lambda_cap * r)
    if r2 < 0.0:
        r = math.sqrt(-r2)
        return math.log((1.0 + r) / q) / (lambda_cap * r)
    return 1.0 / lambda_cap


def t_tilde_max(lam: float, gamma: float, lambda_cap: float) -> float:
    """Horizon over which phi decreases from 1/lam to lam.

    Strictly decreasing in ``lam``; tends to ``t_max(gamma, lambda_cap)``
    as ``lam -> 0`` and to zero as ``lam -> 1``.
    """
    _check_lam(lam)
    _check_rates(gamma, lambda_cap)
    q = gamma / lambda_cap
    r2 = q * q - 1.0
    if r2 == 0.0:
        return (1.0 - lam) / ((1.0 + lam) * lambda_cap)
    r = math.sqrt(abs(r2))
    denom = 2.0 * lam * (q - 1.0) / (1.0 + lam) + 1.0 + lam
    arg = r * (1.0 - lam) / denom
    if r2 > 0.0:
        return math.atan(arg) / (lambda_cap * r)
    # 1 - arg rewritten without cancellation: the q^2/(1+r) term absorbs
    # the near-unity difference 1 - r when q is small.
    one_minus = (q * q / (1.0 + r)
                 + lam * ((1.0 + r) + 2.0 * (q - 1.0) / (1.0 + lam))) / denom
    atanh_arg = 0.5 * math.log((1.0 + arg) / one_minus)
    return atanh_arg / (lambda_cap * r)


def solve_lambda_for_horizon(h: float, gamma: float, lambda_cap: float,
                             rel_tol: float = 1e-10) -> float:
    """Find lam in (0, 1) with t_tilde_max(lam, gamma, lambda_cap) = h.

    Bisection on the strictly decreasing map lam -> t_tilde_max.  Raises
    ``HorizonError`` when ``h >= t_max(gamma, lambda_cap)`` (no solution)
    and ``ValueError`` for a non-positive horizon.
    """
    _check_rates(gamma, lambda_cap)
    if not (h > 0.0) or not math.isfinite(h):
        raise ValueError(f"horizon must be positive and finite, got {h}")
    horizon_cap = t_max(gamma, lambda_cap)
    if h >= horizon_cap:
        raise HorizonError(
            f"horizon {h} is not below t_max {horizon_cap}; no contraction "
            f"ratio exists for this gain pair")
    lo, hi = 0.0, 1.0
    lam = 0.5
    for _ in range(120):
        lam = 0.5 * (lo + hi)
        if t_tilde_max(lam, gamma, lambda_cap) > h:
            lo = lam
        else:
            hi = lam
        if hi - lo <= 1e-16:
            break
    lam = 0.5 * (lo + hi)
    achieved = t_tilde_max(lam, gamma, lambda_cap)
    if abs(achieved - h) > rel_tol * max(1.0, h):
        raise HorizonError(
            f"bisection failed to meet tolerance: |{achieved} - {h}| > "
            f"{rel_tol * max(1.0, h)}")
    return lam


@dataclass(frozen=True)
class PhiSolution:
    """Dense solution of the comparison ODE on [0, horizon].

    ``evaluate`` (also available as call syntax) interpolates between the
    integrator nodes with a cubic Hermite polynomial, using the exact ODE
    right-hand side as nodal derivative.  ``evaluate(0.0)`` returns the
    initial value ``1/lam`` exactly.
    """

    lam: float
    gamma: float
    lambda_cap: float
    horizon: float
    _taus: np.ndarray = field(repr=False)
    _vals: np.ndarray = field(repr=False)
    _ders: np.ndarray = field(repr=False)

    def evaluate(self, tau):
        tau_arr = np.asarray(tau, dtype=float)
        if np.any(tau_arr < -1e-12) or np.any(tau_arr > self.horizon * (1.0 + 1e-12)):
            raise ValueError("tau outside [0, horizon]")
        tau_arr = np.clip(tau_arr, 0.0, self.horizon)
        step = self._taus[1] - self._taus[0]
        idx = np.clip((tau_arr / step).astype(int), 0, len(self._taus) - 2)
        t = (tau_arr - self._taus[idx]) / step
        t2 = t * t
        t3 = t2 * t
        h00 = 2.0 * t3 - 3.0 * t2 + 1.0
        h10 = t3 - 2.0 * t2 + t
        h01 = -2.0 * t3 + 3.0 * t2
        h11 = t3 - t2
        out = (h00 * self._vals[idx] + h10 * step * self._ders[idx]
               + h01 * self._vals[idx + 1] + h11 * step * self._ders[idx + 1])
        if np.isscalar(tau) or tau_arr.ndim == 0:
            return float(out)
        return out

    __call__ = evaluate


def phi_solve(lam: float, gamma: float, lambda_cap: float,
              min_steps: int = 2048) -> PhiSolution:
    """Integrate the comparison ODE from phi(0) = 1/lam over its horizon.

    Fixed-step classical Runge-Kutta.  The step count is raised above
    ``min_steps`` whenever the initial stiffness 2*lambda_cap + 2*gamma/lam
    would put the first steps outside the integrator's stability region
    (relevant for lam below about 1e-3).
    """
    _check_lam(lam)
    _check_rates(gamma, lambda_cap)
    horizon = t_tilde_max(lam, gamma, lambda_cap)
    # keep step * max|d(rhs)/dphi| <= 0.5; the Jacobian is largest at tau = 0
    jac0 = 2.0 * lambda_cap + 2.0 * gamma / lam
    n = max(int(min_steps), int(math.ceil(2.0 * horizon * jac0)))
    step = horizon / n

    two_cap = 2.0 * lambda_cap

    def rhs(p: float) -> float:
        return -two_cap * p - gamma * (p * p + 1.0)

    vals = np.empty(n + 1)
    ders = np.empty(n + 1)
    p = 1.0 / lam
    vals[0] = p
    ders[0] = rhs(p)
    half = 0.5 * step
    sixth = step / 6.0
    for i in range(n):
        k1 = rhs(p)
        k2 = rhs(p + half * k1)
        k3 = rhs(p + half * k2)
        k4 = rhs(p + step * k3)
        p = p + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        vals[i + 1] = p
        ders[i + 1] = rhs(p)
    taus = np.linspace(0.0, horizon, n + 1)
    return PhiSolution(lam=lam, gamma=gamma, lambda_cap=lambda_cap,
                       horizon=horizon, _taus=taus, _vals=vals, _ders=ders)

