"""Tests for the closed-form timing functions and the comparison function."""

import math

import numpy as np
import pytest

from dynstc.timing import (
    HorizonError,
    phi_solve,
    solve_lambda_for_horizon,
    t_max,
    t_tilde_max,
)


def _phi_exact(lam, gamma, lam_cap, tau):
    """Closed-form solution of dphi/dtau = -2*lam_cap*phi - gamma*(phi^2+1).

    Independent oracle for ``phi_solve``'s closed form, which linearises
    the Riccati equation instead: tangent, rational and hyperbolic-cotangent
    branches obtained by completing the square.
    """
    b = lam_cap / gamma
    p0 = 1.0 / lam
    if b == 1.0:
        return 1.0 / (lam / (1.0 + lam) + gamma * tau) - 1.0
    if b < 1.0:
        om = math.sqrt(1.0 - b * b)
        theta0 = math.atan((p0 + b) / om)
        return -b + om * math.tan(theta0 - gamma * om * tau)
    om = math.sqrt(b * b - 1.0)
    y0 = (p0 + b) / om
    shift = 0.5 * math.log((y0 + 1.0) / (y0 - 1.0))
    return -b + om / math.tanh(gamma * om * tau + shift)


# high-precision closed-branch evaluations, frozen
TMAX_CASES = [
    (2.0, 1.0, 0.60459978807807262),
    (0.5, 1.0, 1.5206919926018927),
    (1.0, 1.0, 1.0),
]
TTILDE_CASES = [
    (0.5, 1.0, 1.0, 1.0 / 3.0),
    (0.3, 2.0, 1.0, 0.3480373079784852),
    (0.3, 0.5, 1.0, 0.742519268194059),
    (0.7, 3.0, 0.2, 0.10930837804386813),
    (0.05, 0.2, 2.0, 1.1577195109055005),
]


def test_t_max_frozen_values():
    for gamma, cap, expected in TMAX_CASES:
        assert t_max(gamma, cap) == pytest.approx(expected, abs=1e-12)


def test_t_max_scaling():
    # t_max(k*gamma, k*cap) = t_max(gamma, cap)/k
    for k in (0.25, 3.0, 17.0):
        assert t_max(2.0 * k, 1.0 * k) == pytest.approx(
            0.60459978807807262 / k, rel=1e-12)


def test_t_max_branch_continuity():
    rng = np.random.default_rng(7)
    for cap in 10.0 ** rng.uniform(-2, 2, size=100):
        mid = 1.0 / cap
        lo = t_max(cap * (1 - 1e-6), cap)
        hi = t_max(cap * (1 + 1e-6), cap)
        assert abs(lo - mid) <= 1e-4 / cap
        assert abs(hi - mid) <= 1e-4 / cap


def test_t_max_domain_errors():
    for gamma, cap in [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0),
                       (math.inf, 1.0), (math.nan, 1.0)]:
        with pytest.raises(ValueError):
            t_max(gamma, cap)


def test_t_tilde_frozen_values():
    for lam, gamma, cap, expected in TTILDE_CASES:
        assert t_tilde_max(lam, gamma, cap) == pytest.approx(expected, abs=1e-12)


def test_t_tilde_small_lam_approaches_t_max():
    assert t_tilde_max(0.01, 1.0, 1.0) == pytest.approx(1.0, rel=0.05)
    assert t_tilde_max(1e-9, 2.0, 1.0) == pytest.approx(t_max(2.0, 1.0), rel=1e-6)


def test_t_tilde_large_lam_vanishes():
    assert t_tilde_max(1.0 - 1e-9, 1.0, 1.0) < 1e-8


def test_t_tilde_below_t_max_and_monotone():
    rng = np.random.default_rng(12)
    for _ in range(500):
        gamma = 10.0 ** rng.uniform(-2, 2)
        cap = 10.0 ** rng.uniform(-2, 2)
        l1, l2 = np.sort(rng.uniform(1e-3, 1.0 - 1e-3, size=2))
        if l2 - l1 < 1e-9:
            continue
        hi = t_tilde_max(l1, gamma, cap)
        lo = t_tilde_max(l2, gamma, cap)
        assert lo < hi < t_max(gamma, cap)


def test_t_tilde_domain_errors():
    for lam in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            t_tilde_max(lam, 1.0, 1.0)


def test_solve_lambda_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(500):
        lam = rng.uniform(1e-3, 1.0 - 1e-3)
        gamma = 10.0 ** rng.uniform(-2, 2)
        cap = 10.0 ** rng.uniform(-2, 2)
        h = t_tilde_max(lam, gamma, cap)
        lam_back = solve_lambda_for_horizon(h, gamma, cap)
        assert abs(lam_back - lam) <= 1e-8
        assert abs(t_tilde_max(lam_back, gamma, cap) - h) <= 1e-10 * max(1.0, h)


def test_solve_lambda_near_cap():
    h = 0.99 * t_max(2.0, 1.0)
    lam = solve_lambda_for_horizon(h, 2.0, 1.0)
    assert 0.0 < lam < 0.05
    assert t_tilde_max(lam, 2.0, 1.0) == pytest.approx(h, abs=1e-10)
    # the gains and rate caps at which issued intervals sit
    for frac in (0.999, 0.9, 0.5):
        for gamma in (25.0, 26.4):
            for cap in (0.001, 0.055):
                h = frac * t_max(gamma, cap)
                lam = solve_lambda_for_horizon(h, gamma, cap)
                assert 0.0 < lam < 1.0
                assert abs(t_tilde_max(lam, gamma, cap) - h) <= 1e-12 * h


def _t_tilde_mp(mpmath, lam, gamma, cap):
    """t_tilde_max in 60 digits on the float inputs, every branch; lam None gives t_max.

    With q = gamma/cap, r^2 = |q^2 - 1| and T = (1 - lam^2)/(1 + 2*q*lam + lam^2)
    (T = 1 at lam = 0): atan(r*T)/(cap*r) for q > 1, atanh(r*T)/(cap*r) for
    q < 1 and T/cap at q = 1.
    """
    with mpmath.workdps(60):
        gamma, cap = mpmath.mpf(gamma), mpmath.mpf(cap)
        q = gamma / cap
        if lam is None:
            tt = 1
        else:
            lam = mpmath.mpf(lam)
            tt = (1 - lam * lam) / (1 + 2 * q * lam + lam * lam)
        r2 = q * q - 1
        if r2 > 0:
            return mpmath.atan(mpmath.sqrt(r2) * tt) / (cap * mpmath.sqrt(r2))
        if r2 < 0:
            return mpmath.atanh(mpmath.sqrt(-r2) * tt) / (cap * mpmath.sqrt(-r2))
        return tt / cap


@pytest.mark.parametrize("q_lo", [1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1])
def test_solve_lambda_small_gain_ratio(q_lo):
    # for q = gamma/cap in [q_lo, 10*q_lo), every q < 1 taking the exp(-2y)
    # form: in the tanh form 1 - T and the discriminant cancelled for small
    # q, and the root missed the horizon and raised HorizonError in up to
    # 170 of 200 draws per cell below q = 1e-4.  The solve checks its root
    # with t_tilde_max, whose q < 1 branch cancelled too: below q = 1e-7 it
    # missed the exact horizon of an exact root by more than the tolerance,
    # and the solve raised HorizonError.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(19)
    for frac in (0.9, 0.99, 0.999, 0.9999):
        for _ in range(200):
            cap = 10.0 ** rng.uniform(-1, 3)
            gamma = q_lo * 10.0 ** rng.uniform(0, 1) * cap
            h = frac * t_max(gamma, cap)
            lam = solve_lambda_for_horizon(h, gamma, cap)
            assert 0.0 < lam < 1.0
            assert abs(_t_tilde_mp(mpmath, lam, gamma, cap) - h) <= 1e-10 * max(1.0, h)
            assert (abs(t_tilde_max(lam, gamma, cap) - _t_tilde_mp(mpmath, lam, gamma, cap))
                    <= 1e-14 * max(1.0, h))
    # the gain pair at which the closed form missed by 1.45e-10
    gamma, cap = 0.0015735133423960812, 22.15918699175904
    h = 0.9 * t_max(gamma, cap)
    lam = solve_lambda_for_horizon(h, gamma, cap)
    assert abs(_t_tilde_mp(mpmath, lam, gamma, cap) - h) <= 1e-13
    # an exact root (to 6e-17 of its horizon) that t_tilde_max missed by
    # 4.1 tolerances, so the solve raised HorizonError
    h, gamma, cap = 1.6223057159746008, 2.223840443841582e-08, 11.516015590759928
    lam = solve_lambda_for_horizon(h, gamma, cap)
    assert abs(_t_tilde_mp(mpmath, lam, gamma, cap) - h) <= 1e-15


def test_solve_lambda_tiny_horizon():
    lam = solve_lambda_for_horizon(1e-8, 1.0, 1.0)
    assert lam > 1.0 - 1e-6


def test_solve_lambda_infeasible_horizon():
    cap = t_max(2.0, 1.0)
    for h in (cap, 1.01 * cap, 50.0):
        with pytest.raises(HorizonError):
            solve_lambda_for_horizon(h, 2.0, 1.0)
    with pytest.raises(ValueError):
        solve_lambda_for_horizon(0.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        solve_lambda_for_horizon(-1.0, 2.0, 1.0)


def test_phi_matches_closed_form_all_branches():
    cases = [
        (0.5, 2.0, 1.0),    # gamma above cap: tangent branch
        (0.5, 1.0, 1.0),    # equal rates: rational branch
        (0.5, 0.5, 1.0),    # gamma below cap: hyperbolic branch
        (0.1, 3.0, 0.3),
        (0.85, 0.2, 1.5),
        (7.8e-4, 26.4, 0.055),  # contraction ratios of intervals at their cap
        (1e-3, 25.0, 0.001),
    ]
    for lam, gamma, cap in cases:
        sol = phi_solve(lam, gamma, cap)
        taus = np.linspace(0.0, sol.horizon, 257)
        exact = np.array([_phi_exact(lam, gamma, cap, t) for t in taus])
        got = sol.evaluate(taus)
        assert np.max(np.abs(got - exact) / np.abs(exact)) <= 1e-10


def test_phi_initial_value_exact():
    for lam in (0.1, 0.5, 0.9):
        sol = phi_solve(lam, 2.0, 1.0)
        assert sol.evaluate(0.0) == 1.0 / lam


def test_phi_endpoint_and_range():
    rng = np.random.default_rng(21)
    for _ in range(25):
        lam = rng.uniform(0.02, 0.98)
        gamma = 10.0 ** rng.uniform(-1, 1)
        cap = 10.0 ** rng.uniform(-1, 1)
        sol = phi_solve(lam, gamma, cap)
        assert abs(sol.evaluate(sol.horizon) - lam) <= 1e-6 / lam
        vals = sol.evaluate(np.linspace(0.0, sol.horizon, 1025))
        assert np.all(vals >= lam - 1e-6)
        assert np.all(vals <= 1.0 / lam + 1e-6)
        assert np.all(np.diff(vals) < 0.0)


def test_phi_stiff_small_lam():
    # contraction ratios near 1e-3 arise when an interval sits at its cap
    sol = phi_solve(7.8e-4, 26.4, 0.055)
    assert abs(sol.evaluate(sol.horizon) - 7.8e-4) <= 1e-6 / 7.8e-4
    vals = sol.evaluate(np.linspace(0.0, sol.horizon, 2049))
    assert np.all(np.isfinite(vals))
    assert np.all(vals >= 7.8e-4 - 1e-6)


def test_phi_rejects_tau_outside_horizon():
    sol = phi_solve(0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        sol.evaluate(sol.horizon * 1.01)
    with pytest.raises(ValueError):
        sol.evaluate(-0.1)
    with pytest.raises(ValueError):  # 3.3e-10 beyond, above the 1e-10 tolerance
        sol.evaluate(sol.horizon * (1.0 + 1e-9))


def test_certified_horizon_is_evaluable():
    # for q = gamma/lambda_cap in [1e-3, 1e-2) the solved lam often gives a
    # horizon a little below h, within the solve's tolerance; evaluate used
    # to reject tau = h there with "tau outside [0, horizon]"
    rng = np.random.default_rng(17)
    solved = 0
    for _ in range(60):
        cap = 10.0 ** rng.uniform(-1.0, 3.0)
        gamma = rng.uniform(1e-3, 1e-2) * cap
        for frac in (0.9, 0.99, 0.999):
            h = frac * t_max(gamma, cap)
            try:
                lam = solve_lambda_for_horizon(h, gamma, cap)
            except HorizonError:
                continue
            solved += 1
            phi = phi_solve(lam, gamma, cap).evaluate([0.0, h])
            assert phi[0] == 1.0 / lam and np.all(np.isfinite(phi))
    assert solved >= 150


@pytest.mark.parametrize("seed", [7, 8])
def test_horizons_match_mpmath(seed):
    # both branches of q = gamma/cap, the shipped family's q >= 467 in the
    # arctangent one; at most 1.1e-15 (t_max) and 4.7e-16 (t_tilde_max)
    # were seen over these draws
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(seed)
    branches = set()
    for _ in range(3000):
        q, cap = 10.0 ** rng.uniform(-9.0, 9.0), 10.0 ** rng.uniform(-3.0, 3.0)
        lam = rng.uniform(1e-6, 1.0 - 1e-6)
        gamma = q * cap
        branches.add(q > 1.0)
        exact = _t_tilde_mp(mpmath, None, gamma, cap)
        assert abs(t_max(gamma, cap) - exact) <= 2e-15 * exact
        exact = _t_tilde_mp(mpmath, lam, gamma, cap)
        assert abs(t_tilde_max(lam, gamma, cap) - exact) <= 2e-15 * exact
    assert branches == {False, True}
