"""End-to-end acceptance gate.

Each test prints one `ACCEPTANCE <id>: PASS/FAIL` line on the real
terminal (bypassing capture) and then asserts, so the suite output names
every criterion explicitly.  Criterion 5c is known to fail for this
synthesis route; see the README note on the sampling-rate comparison.
"""

import math
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from dynstc.engine import (
    DynamicVariable,
    StcConfig,
    gamma_trigger,
    static_trigger,
    t_max_cap,
    t_min_of,
    window_average_c,
)
from dynstc.sim import simulate, simulate_periodic
from dynstc.synthesis import (
    ParameterFamily,
    ParameterSet,
    build_family,
    default_epsilon_ladder,
    verify_family,
)
from dynstc.systems import linear_test, van_der_pol
from dynstc.timing import phi_solve, solve_lambda_for_horizon, t_max, t_tilde_max

X0 = [-0.3, 1.7]


def _verdict(capsys, label, ok, detail=""):
    tail = f"  [{detail}]" if detail else ""
    with capsys.disabled():
        print(f"\nACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"ACCEPTANCE {label} failed: {detail}"


def _note(capsys, label, text):
    with capsys.disabled():
        print(f"\nACCEPTANCE {label} (soft): {text}")


@pytest.fixture(scope="module")
def bench():
    """Benchmark pipeline: synthesis, dynamic run with monitors, periodic
    baseline.  Built once; the wall time is part of criterion 5."""
    spec = van_der_pol()
    t0 = time.perf_counter()
    family = build_family(spec, default_epsilon_ladder(), 0.05, 48)
    cfg = StcConfig(family=family, c=10.0, delta=0.999, eps_ref=0.01, m=30)
    traj = simulate(X0, cfg, spec, 15.0)
    periodic = simulate_periodic(X0, spec, t_min_of(cfg), 15.0)
    elapsed = time.perf_counter() - t0
    return SimpleNamespace(spec=spec, family=family, cfg=cfg, traj=traj,
                           periodic=periodic, elapsed=elapsed)


def test_acceptance_1_interval_functions(capsys):
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    errs = []
    for lam_cap in 10.0 ** rng.uniform(-2.0, 2.0, 100):
        lo = t_max(lam_cap * (1.0 - 1e-9), lam_cap)
        hi = t_max(lam_cap * (1.0 + 1e-9), lam_cap)
        if abs(hi - lo) > 1e-4 / lam_cap:
            errs.append(f"branch jump {abs(hi - lo):.3g} at lambda={lam_cap:.3g}")
            break
    for _ in range(1000):
        lam = float(rng.uniform(0.01, 0.95))
        gamma = float(10.0 ** rng.uniform(-1.5, 1.5))
        lam_cap = float(10.0 ** rng.uniform(-1.5, 1.5))
        tt = t_tilde_max(lam, gamma, lam_cap)
        tm = t_max(gamma, lam_cap)
        if not (0.0 < tt < tm):
            errs.append(f"horizon ordering broke at ({lam}, {gamma}, {lam_cap})")
            break
        if t_tilde_max(math.sqrt(lam), gamma, lam_cap) >= tt:
            errs.append(f"not monotone in lambda at ({lam}, {gamma}, {lam_cap})")
            break
    for _ in range(200):
        gamma = float(10.0 ** rng.uniform(-1.5, 1.5))
        lam_cap = float(10.0 ** rng.uniform(-1.5, 1.5))
        lam = float(rng.uniform(0.01, 0.95))
        h = t_tilde_max(lam, gamma, lam_cap)
        back = solve_lambda_for_horizon(h, gamma, lam_cap)
        if abs(back - lam) > 1e-8:
            errs.append(f"round-trip error {abs(back - lam):.3g}")
            break
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        errs.append(f"runtime {elapsed:.2f}s >= 1s")
    _verdict(capsys, 1, not errs, errs[0] if errs else f"{elapsed:.2f}s")


def test_acceptance_2_comparison_ode(capsys):
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    errs = []
    for _ in range(200):
        lam = float(rng.uniform(0.02, 0.98))
        gamma = float(10.0 ** rng.uniform(-1.5, 1.5))
        lam_cap = float(10.0 ** rng.uniform(-1.5, 1.5))
        phi = phi_solve(lam, gamma, lam_cap)
        ts = np.linspace(0.0, phi.horizon, 257)
        vals = phi.evaluate(ts)
        if vals[0] != 1.0 / lam:
            errs.append(f"phi(0) != 1/lambda at ({lam}, {gamma}, {lam_cap})")
            break
        if vals.min() < lam - 1e-6 or vals.max() > 1.0 / lam + 1e-6:
            errs.append(f"range violation at ({lam}, {gamma}, {lam_cap})")
            break
        if abs(float(vals[-1]) - lam) > 1e-6 / lam:
            errs.append(f"endpoint off by {abs(float(vals[-1]) - lam):.3g}")
            break
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        errs.append(f"runtime {elapsed:.2f}s >= 5s")
    _verdict(capsys, 2, not errs, errs[0] if errs else f"200 solutions, {elapsed:.2f}s")


def _random_family(rng):
    n = int(rng.integers(1, 5))
    sets = [ParameterSet(epsilon=float(10.0 ** rng.uniform(-3, 0)),
                         gamma=float(10.0 ** rng.uniform(-1, 1.5)),
                         l_const=float(10.0 ** rng.uniform(-2, 0)))]
    for _ in range(n - 1):
        eps = float(rng.choice([1.0, -1.0]) * 10.0 ** rng.uniform(-3, 1.6))
        sets.append(ParameterSet(epsilon=eps,
                                 gamma=float(10.0 ** rng.uniform(-1, 1.5)),
                                 l_const=float(10.0 ** rng.uniform(-2, 0))))
    return ParameterFamily(sets=tuple(sets))


def _oracle_h(v, c_val, cfg):
    # two-stage line search per set: coarse 1001-point pass, then a second
    # 1001-point pass inside the last feasible coarse cell
    best = t_min_of(cfg)
    for i, ps in enumerate(cfg.family.sets):
        if i == 0:
            continue
        dt = cfg.delta * t_max(ps.gamma, max(ps.l_const + 0.5 * ps.epsilon, 1.0 - cfg.delta))
        a = cfg.eps_ref - ps.epsilon
        lo, hi = 0.0, dt
        h_set = None
        for _ in range(2):
            hs = np.linspace(lo, hi, 1001)
            ok = np.nonzero(v * np.exp(a * hs) <= c_val)[0]
            if ok.size == 0:
                h_set = None
                break
            h_set = float(hs[ok[-1]])
            if ok[-1] == 1000:
                break
            lo, hi = h_set, float(hs[ok[-1] + 1])
        if h_set is not None:
            best = max(best, h_set)
    return best


def test_acceptance_3_trigger_oracle(capsys):
    rng = np.random.default_rng(303)
    spec = linear_test(c=1e9)
    t0 = time.perf_counter()
    errs = []
    for _ in range(10_000):
        fam = _random_family(rng)
        c = float(10.0 ** rng.uniform(-1, 2))
        cfg = StcConfig(family=fam, c=c, m=2,
                        eps_ref=float(10.0 ** rng.uniform(-3, 0)))
        v = 0.0 if rng.uniform() < 0.05 else float(c * rng.uniform(0.0, 1.0))
        dyn = DynamicVariable(eta=(float(rng.uniform(0.0, 2.0 * c)),))
        dec = gamma_trigger([math.sqrt(v)], dyn, cfg, spec)
        scale = t_max_cap(cfg)
        if not (t_min_of(cfg) <= dec.h <= scale * (1.0 + 1e-12)):
            errs.append(f"h = {dec.h:.6g} outside [t_min, cap]")
            break
        ref = _oracle_h(v, window_average_c(v, dyn, c, 2), cfg)
        if abs(dec.h - ref) > 1e-5 * scale:
            errs.append(f"|h - oracle| = {abs(dec.h - ref):.3g} > 1e-5*{scale:.3g}")
            break
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        errs.append(f"runtime {elapsed:.2f}s >= 10s")
    _verdict(capsys, 3, not errs,
             errs[0] if errs else f"10000 instances, {elapsed:.2f}s")


def test_acceptance_4_fallback_decrease(capsys):
    t0 = time.perf_counter()
    spec = linear_test(c=1.0)
    ps = ParameterSet(epsilon=0.5, gamma=1.05, l_const=0.05)
    cfg = StcConfig(family=ParameterFamily(sets=(ps,)),
                    c=1.0, m=5)
    traj = simulate([0.9], cfg, spec, 30.0)
    factor = math.exp(-ps.epsilon * t_min_of(cfg))
    errs = []
    pairs = 0
    for s1, s2 in zip(traj.samples, traj.samples[1:]):
        pairs += 1
        if s2.v > factor * s1.v * (1.0 + 1e-6):
            errs.append(f"V grew past the bound at t = {s2.t:.4g}")
            break
    if pairs < 10:
        errs.append(f"only {pairs} sampled pairs")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        errs.append(f"runtime {elapsed:.2f}s >= 1s")
    _verdict(capsys, 4, not errs,
             errs[0] if errs else f"{pairs} pairs, factor {factor:.4f}")


def test_acceptance_5a_monitors_clean(bench, capsys):
    bad = bench.traj.violations() + bench.periodic.violations()
    names = {r.monitor for r in bench.traj.monitors}
    missing = {"flow-bound", "sample-decrease", "combined-decrease",
               "running-cap", "window-envelope", "region"} - names
    ok = not bad and not missing and bench.elapsed < 30.0
    tmin = t_min_of(bench.cfg)
    _note(capsys, "5", f"t_min = {tmin:.4f} s, target [0.01, 0.05]: "
          f"{'HIT' if 0.01 <= tmin <= 0.05 else 'MISS'}")
    n5 = bench.traj.n_samples_before(5.0)
    _note(capsys, "5", f"samples in first 5 s = {n5}, target [45, 180]: "
          f"{'HIT' if 45 <= n5 <= 180 else 'MISS'}")
    _verdict(capsys, "5a", ok,
             f"{len(bad)} violations, missing={sorted(missing)}, "
             f"runtime {bench.elapsed:.2f}s")


def test_acceptance_5b_interval_bounds(bench, capsys):
    tmin, cap = t_min_of(bench.cfg), t_max_cap(bench.cfg)
    gaps = bench.traj.intervals()
    ok = bool(gaps) and all(
        tmin * (1.0 - 1e-12) <= g <= cap * (1.0 + 1e-12) for g in gaps)
    _verdict(capsys, "5b", ok,
             f"{len(gaps)} intervals in [{min(gaps):.5f}, {max(gaps):.5f}], "
             f"bounds [{tmin:.5f}, {cap:.5f}]")


def test_acceptance_5c_sampling_reduction(bench, capsys):
    n_dyn = bench.traj.n_samples_before(5.0)
    n_per = bench.periodic.n_samples_before(5.0)
    ok = n_dyn <= 0.6 * n_per
    _verdict(capsys, "5c", ok,
             f"dynamic {n_dyn} vs periodic {n_per} in 5 s, "
             f"ratio {n_dyn / n_per:.3f}, required <= 0.6")


def test_acceptance_6_static_equivalence(bench, capsys):
    rng = np.random.default_rng(606)
    cfg1 = replace(bench.cfg, m=1)
    checked = 0
    errs = []
    while checked < 1000:
        x = rng.uniform(-bench.spec.x_radius, bench.spec.x_radius, 2)
        if float(bench.spec.v(x)) > bench.cfg.c:
            continue
        checked += 1
        a = static_trigger(x, bench.cfg, bench.spec)
        b = gamma_trigger(x, DynamicVariable(), cfg1, bench.spec)
        if a != b:
            errs.append(f"decision mismatch at x = {x}")
            break
    static_traj = simulate(X0, cfg1, bench.spec, 15.0)
    n_dyn = bench.traj.n_samples_before(15.0)
    n_static = static_traj.n_samples_before(15.0)
    if n_dyn > n_static:
        errs.append(f"dynamic {n_dyn} samples > static {n_static}")
    _verdict(capsys, 6, not errs,
             errs[0] if errs else f"1000 states bit-matched, "
             f"dynamic {n_dyn} <= static {n_static}")


def test_acceptance_7_family_reverification(bench, capsys):
    t0 = time.perf_counter()
    reports = verify_family(bench.spec, bench.family, 96)
    errs = []
    for ps, rep in zip(bench.family.sets, reports):
        if not rep.certified:
            errs.append(f"eps = {ps.epsilon:.4g} violates by {rep.max_violation:.3g}")
            break
    bad_set = replace(bench.family.sets[0],
                      gamma=0.5 * bench.family.sets[0].gamma)
    bad_rep = verify_family(
        bench.spec, ParameterFamily(sets=(bad_set,)), 96)[0]
    if bad_rep.certified:
        errs.append("halved gamma was not rejected")
    elapsed = time.perf_counter() - t0
    if elapsed >= 20.0:
        errs.append(f"runtime {elapsed:.2f}s >= 20s")
    _verdict(capsys, 7, not errs,
             errs[0] if errs else f"{len(reports)} sets at density 96, "
             f"corrupted set rejected, {elapsed:.2f}s")


def test_acceptance_8_refinement_stability(bench, capsys):
    dt = t_min_of(bench.cfg) / 32.0
    t1 = simulate(X0, bench.cfg, bench.spec, 4.0, dt_flow=dt)
    t2 = simulate(X0, bench.cfg, bench.spec, 4.0, dt_flow=dt / 2.0)
    errs = []
    if len(t1.samples) != len(t2.samples):
        errs.append("decision counts differ")
    # a decision is its row's set (which fixes its fall-back flag and bound
    # type) and interval
    for (i1, h1), (i2, h2) in zip(zip(t1.samples.set_index.tolist(), t1.samples.h.tolist()),
                                  zip(t2.samples.set_index.tolist(), t2.samples.h.tolist())):
        if i1 != i2:
            errs.append("a trigger decision changed")
            break
        if abs(h1 - h2) > 1e-9 * max(h1, h2):
            errs.append(f"interval moved by {abs(h1 - h2):.3g}")
            break
    m1 = {(r.monitor, r.j): r.slack for r in t1.monitors}
    m2 = {(r.monitor, r.j): r.slack for r in t2.monitors}
    if not errs and set(m1) != set(m2):
        errs.append("monitor record sets differ")
    if not errs:
        for key, s1 in m1.items():
            s2 = m2[key]
            if math.isnan(s1) or math.isnan(s2):
                if math.isnan(s1) != math.isnan(s2):
                    errs.append(f"{key} applicability changed")
                    break
                continue
            # 10x the monitor acceptance tolerance 1e-7*(1+scale)
            if abs(s1 - s2) > 1e-6 * (1.0 + max(abs(s1), abs(s2))):
                errs.append(f"{key} slack moved by {abs(s1 - s2):.3g}")
                break
    _verdict(capsys, 8, not errs,
             errs[0] if errs else
             f"{len(t1.samples)} decisions, {len(m1)} slacks stable")
