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
* ``phi_solve`` -- exact solution of the scalar comparison ODE
  ``dphi/dtau = -2*lambda_cap*phi - gamma*(phi^2 + 1)``, a Riccati
  equation with constant coefficients.

Everything is a closed form and deterministic.  The functions take and
return scalars; ``PhiSolution.evaluate`` accepts scalars and arrays, and
``phi_values`` evaluates phi for arrays of parameters as well.
Against 60-digit ``mpmath``, ``t_max`` and ``t_tilde_max`` are within
2e-15 relative for q = gamma/lambda_cap in [1e-9, 1e9], lambda_cap in
[1e-3, 1e3] and lam in (1e-6, 1 - 1e-6) (a seeded test at two seeds).
On the arctangent branch, q in [1, 1e9], the lam solved for h in (0, t_max)
has a 60-digit horizon within 1e-14*max(1, h) of h (same seeds; 7.9e-15 seen).
So an issued interval, at most delta * t_max, is at most
delta * (exact t_max) * (1 + T_MAX_REL_ERR), up to the rounding of the
product: below the exact horizon while 1 - delta exceeds T_MAX_REL_ERR,
which ``StcConfig`` requires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HorizonError",
    "PhiSolution",
    "t_max",
    "t_tilde_max",
    "solve_lambda_for_horizon",
    "phi_solve",
    "phi_values",
]

HORIZON_REL_TOL = 1e-10  # |t_tilde_max(lam) - h| allowed, relative to max(1, h)
T_MAX_REL_ERR = 2e-15  # |t_max - exact t_max| / exact t_max, bounded against mpmath


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
    if r2 > 0.0:
        denom = 2.0 * lam * (q - 1.0) / (1.0 + lam) + 1.0 + lam
        return math.atan(r * (1.0 - lam) / denom) / (lambda_cap * r)
    # h = y/(lambda_cap*r), y = atanh(r*T), T = (1 - lam^2)/(1 + 2*q*lam + lam^2).
    # With the solve's e = exp(-2y) = (1 - r*T)/(1 + r*T), 1/e = 1 + 2*r*(1 - lam^2)/n
    # for n = (1 - r*T)*(1 + 2*q*lam + lam^2), a sum of positive terms by
    # 1 - r = q^2/(1 + r), where 1 - r*T itself cancels for small q and lam.
    n = q * q / (1.0 + r) + 2.0 * q * lam + lam * lam * (1.0 + r)
    return 0.5 * math.log1p(2.0 * r * (1.0 - lam) * (1.0 + lam) / n) / (lambda_cap * r)


def solve_lambda_for_horizon(h: float, gamma: float, lambda_cap: float) -> float:
    """Find lam in (0, 1) with t_tilde_max(lam, gamma, lambda_cap) = h.

    With q = gamma/lambda_cap, r^2 = q^2 - 1 and T = tan(lambda_cap*r*h)/r
    (tanh for r^2 < 0, lambda_cap*h for q = 1), the condition is the
    quadratic (1 + T)*lam^2 + 2*q*T*lam + T - 1 = 0.  Its root in (0, 1)
    is (1 - T)/(q*T + sqrt(T^2*r^2 + 1)), which avoids the quadratic
    formula's cancellation; for r^2 < 0 it is taken through
    exp(-2*lambda_cap*r*h), since for small q that form still cancels in
    1 - T and in the discriminant.  Raises ``HorizonError`` when
    ``h >= t_max(gamma, lambda_cap)`` (no solution) or when the root misses
    the horizon by more than ``HORIZON_REL_TOL``, and ``ValueError`` for a
    non-positive horizon.
    """
    _check_rates(gamma, lambda_cap)
    if not (h > 0.0) or not math.isfinite(h):
        raise ValueError(f"horizon must be positive and finite, got {h}")
    horizon_cap = t_max(gamma, lambda_cap)
    if h >= horizon_cap:
        raise HorizonError(
            f"horizon {h} is not below t_max {horizon_cap}; no contraction "
            f"ratio exists for this gain pair")
    q = gamma / lambda_cap
    r2 = q * q - 1.0
    r = math.sqrt(abs(r2))
    y = lambda_cap * r * h
    if r2 < 0.0:
        # T = tanh(y)/r nears 1 for small q, and both 1 - T and the
        # discriminant T^2*(q^2 - 1) + 1 = sech(y)^2 cancel.  With
        # e = exp(-2y), r*(1 - T) = 2e/(1 + e) - q^2/(1 + r) and
        # sech(y) = 2*exp(-y)/(1 + e) have none.
        e = math.exp(-2.0 * y)
        lam = ((2.0 * e / (1.0 + e) - q * q / (1.0 + r))
               / (q * math.tanh(y) + 2.0 * r * math.exp(-y) / (1.0 + e)))
    else:
        tt = math.tan(y) / r if r2 > 0.0 else lambda_cap * h
        lam = (1.0 - tt) / (q * tt + math.sqrt(tt * tt * r2 + 1.0))
    tol = HORIZON_REL_TOL * max(1.0, h)
    if not (0.0 < lam < 1.0) or abs(t_tilde_max(lam, gamma, lambda_cap) - h) > tol:
        raise HorizonError(
            f"no contraction ratio within {tol} of horizon {h} (got lam = {lam})")
    return lam


def phi_values(tau, lam, gamma, lambda_cap, horizon):
    """phi(tau) of the comparison ODE for parameters broadcast against tau.

    Every argument is a scalar or an array; each element is the closed
    form of :class:`PhiSolution` with its own (lam, gamma, lambda_cap,
    horizon), so a run's flow records are evaluated in one call however
    many intervals they span.  An element's value does not depend on the
    others: it has the bits of the scalar call.  Raises ``ValueError`` if
    any tau lies outside [0, horizon] by more than
    ``HORIZON_REL_TOL * max(1, tau)``.
    """
    tau, lam, gamma, cap, horizon = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (tau, lam, gamma, lambda_cap, horizon)))
    tol = HORIZON_REL_TOL * np.maximum(1.0, tau)
    if np.any(tau < -tol) or np.any(tau - horizon > tol):
        raise ValueError("tau outside [0, horizon]")
    tau = np.asarray(np.clip(tau, 0.0, horizon))
    w2 = (gamma - cap) * (gamma + cap)
    c, s = np.ones(tau.shape), tau.copy()  # (1, tau) where gamma = lambda_cap
    for branch, cf, sf in ((w2 > 0.0, np.cos, np.sin), (w2 < 0.0, np.cosh, np.sinh)):
        if branch.any():
            w = np.sqrt(np.abs(w2[branch]))
            wt = w * tau[branch]
            c[branch], s[branch] = cf(wt), sf(wt) / w
    p0 = 1.0 / lam
    return (c * p0 - s * (cap * p0 + gamma)) / (c + s * (gamma * p0 + cap))


@dataclass(frozen=True)
class PhiSolution:
    """Exact solution of the comparison ODE on [0, horizon].

    phi = y/z with (y, z)(tau) = exp(tau*M) (1/lam, 1) and
    M = [[-lambda_cap, -gamma], [gamma, lambda_cap]].  Since
    M^2 = (lambda_cap^2 - gamma^2) I, exp(tau*M) = C(tau) I + S(tau) M
    with (C, S) = (cos(w*tau), sin(w*tau)/w) for gamma > lambda_cap,
    (cosh(w*tau), sinh(w*tau)/w) for gamma < lambda_cap and (1, tau) at
    equality, w^2 = |lambda_cap^2 - gamma^2|.  ``evaluate`` (also
    available as call syntax) is :func:`phi_values` at this solution's
    parameters: it accepts scalars and arrays, returns a float for a
    scalar, and ``evaluate(0.0)`` returns ``1/lam`` exactly.  tau may lie
    outside [0, horizon] by the solve's tolerance,
    ``HORIZON_REL_TOL * max(1, tau)``.
    """

    lam: float
    gamma: float
    lambda_cap: float
    horizon: float

    def evaluate(self, tau):
        out = phi_values(tau, self.lam, self.gamma, self.lambda_cap, self.horizon)
        return float(out) if out.ndim == 0 else out

    __call__ = evaluate


def phi_solve(lam: float, gamma: float, lambda_cap: float) -> PhiSolution:
    """Comparison function with phi(0) = 1/lam over its horizon t_tilde_max."""
    _check_lam(lam)
    _check_rates(gamma, lambda_cap)
    return PhiSolution(lam=lam, gamma=gamma, lambda_cap=lambda_cap,
                       horizon=t_tilde_max(lam, gamma, lambda_cap))
