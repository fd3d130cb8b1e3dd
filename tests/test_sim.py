"""Tests for the hybrid simulator, monitors and CSV artifacts."""

import csv
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from dynstc import sim
from dynstc.engine import (
    REGION_TOL_REL,
    StcConfig,
    TriggerDecision,
    eta_initial,
    set_lambda_cap,
    stc_step,
    t_max_cap,
    t_min_of,
)
from dynstc.sim import (
    FLOW_RECORD_TARGET,
    HybridTrajectory,
    _rk4_segment,
    IntegrationBlowupError,
    MON_TOL,
    RegionEscapeError,
    _bounds,
    monitor_flow_bound,
    run_monitors,
    simulate,
    simulate_periodic,
    write_decisions_csv,
    write_monitors_csv,
    write_trajectory_csv,
)
from dynstc.synthesis import ParameterFamily, ParameterSet, build_family, default_epsilon_ladder
from dynstc.systems import _drift, _quadratic_spec, linear_test, van_der_pol
from dynstc.timing import phi_solve, solve_lambda_for_horizon, t_max


def _family(*triples):
    sets = tuple(ParameterSet(epsilon=e, gamma=g, l_const=l) for e, g, l in triples)
    return ParameterFamily(sets=sets)


def _linear_cfg(m=5, c=1.0):
    fam = _family((0.5, 1.05, 0.05), (-1.0, 1.05, 0.05), (-5.0, 1.05, 0.05))
    return StcConfig(family=fam, c=c, m=m), linear_test(c=c)


def _state_rows(t, j, x, v, *u):
    """Flow records (t, j, x, v, u), or without u, as the simulator's record array."""
    fields = [("t", float), ("j", int), ("x", float, (np.shape(x)[-1],)), ("v", float)]
    return np.rec.fromarrays([t, j, x, v, *u], dtype=fields + [("u", float)] * len(u))


def _sample_rows(t, j, x, v, h, set_index, c_val):
    """Samples (t, j, x, v, h, set_index, c_val) as the simulator's record array."""
    fields = [("t", float), ("j", int), ("x", float, (np.shape(x)[-1],)), ("v", float),
              ("h", float), ("set_index", int), ("c_val", float)]
    return np.rec.fromarrays([t, j, x, v, h, set_index, c_val], dtype=fields)


def _decision(traj, k):
    """Sample k's decision as the trigger returns it: its row, and its set in traj.cfg."""
    smp, cfg = traj.samples[k], traj.cfg
    i = int(smp.set_index)
    return TriggerDecision(h=float(smp.h), set_index=i, params=cfg.family.sets[i],
                           lambda_cap_used=set_lambda_cap(cfg, i), v_now=float(smp.v),
                           c_val=float(smp.c_val))


def _monitor_csv(path, monitors):
    """The bytes write_monitors_csv gives for the monitor records."""
    write_monitors_csv(path, HybridTrajectory(samples=None, flow_points=None, monitors=monitors))
    return path.read_bytes()


def test_initial_jump_and_termination():
    cfg, spec = _linear_cfg()
    traj = simulate([0.5], cfg, spec, t_end=3.0)
    assert traj.samples[0].t == 0.0
    assert traj.samples[0].j == 1
    assert [s.j for s in traj.samples] == list(range(1, len(traj.samples) + 1))
    assert traj.samples[-1].t >= 3.0
    assert traj.samples[-2].t < 3.0
    assert traj.cfg is cfg and traj.kind == "dynamic"
    # the jump at the last sample issues an interval too, so every row has one
    assert traj.samples[-1].h >= t_min_of(cfg) and traj.samples[-1].set_index >= 0


def test_equilibrium_run():
    cfg, spec = _linear_cfg()
    traj = simulate([0.0], cfg, spec, t_end=5.0)
    assert all(s.v == 0.0 for s in traj.samples)
    fp = traj.flow_points
    assert np.all(fp.v == 0.0) and np.all(fp.u == 0.0)
    # at the origin every set certifies its full cap
    cap = t_max_cap(cfg)
    for h in traj.samples.h:
        assert h == pytest.approx(cap, rel=1e-12)
    assert not traj.violations()


def test_fallback_decrease_single_set():
    fam = _family((0.5, 1.05, 0.05))
    spec = linear_test()
    cfg = StcConfig(family=fam, c=1.0, m=1)
    traj = simulate([0.9], cfg, spec, t_end=4.0)
    tmin = t_min_of(cfg)
    rho = math.exp(-0.5 * tmin)
    assert np.all(traj.samples.set_index == 0)
    for a, b in zip(traj.samples, traj.samples[1:]):
        assert b.v <= rho * a.v * (1.0 + 1e-6)
    assert not traj.violations()


def test_sample_gaps_within_bounds():
    cfg, spec = _linear_cfg()
    traj = simulate([0.8], cfg, spec, t_end=6.0)
    tmin, cap = t_min_of(cfg), t_max_cap(cfg)
    gaps = traj.intervals()
    assert gaps
    for g, h in zip(gaps, traj.samples.h):
        assert g == pytest.approx(h, rel=1e-12)
        assert tmin * (1 - 1e-12) <= g <= cap * (1 + 1e-12)


def test_window_lengthens_intervals():
    # with a window of past (larger) energies the log bound opens up and
    # negative-eps sets certify beyond the fall-back floor
    cfg, spec = _linear_cfg(m=5)
    traj = simulate([0.8], cfg, spec, t_end=6.0)
    assert np.any(traj.samples.set_index != 0)
    assert traj.samples.h.max() > t_min_of(cfg)


def test_jump_and_flow_consistency():
    cfg, spec = _linear_cfg()
    traj = simulate([0.7], cfg, spec, t_end=2.0)
    fp = traj.flow_points
    for k, smp in enumerate(traj.samples[:-1]):
        rows = np.flatnonzero(fp.j == smp.j)
        first, last = rows[0], rows[-1]
        assert fp.t[first] == smp.t
        # post-jump e = 0, so U(t_j+) = V(t_j+) and x matches the sample
        np.testing.assert_array_equal(fp.x[first], smp.x)
        assert fp.u[first] == pytest.approx(fp.v[first], rel=1e-12)
        # flow is continuous into the next sample
        np.testing.assert_allclose(fp.x[last], traj.samples[k + 1].x, rtol=1e-12)
        assert fp.t[last] == pytest.approx(traj.samples[k + 1].t, rel=1e-12)


def test_monitor_suite_passes_on_linear():
    cfg, spec = _linear_cfg()
    traj = simulate([0.9], cfg, spec, t_end=6.0)
    names = {r.monitor for r in traj.monitors}
    assert names == {"flow-bound", "region", "sample-decrease",
                     "combined-decrease", "running-cap", "window-envelope"}
    assert not traj.violations()
    flow = [r for r in traj.monitors if r.monitor == "flow-bound"]
    assert len(flow) == len(traj.samples) - 1


def test_a_run_is_three_record_arrays():
    assert [f.name for f in dataclasses.fields(HybridTrajectory)] == \
        ["samples", "flow_points", "monitors", "cfg"]
    cfg, spec = _vdp_cfg()
    for traj in (simulate([-0.3, 1.2], cfg, spec, t_end=2.0),
                 simulate_periodic([-0.3, 1.2], spec, t_min_of(cfg), t_end=2.0)):
        samples, fp, monitors = traj.samples, traj.flow_points, traj.monitors
        for records, names in ((samples, ("t", "j", "x", "v", "h", "set_index", "c_val")),
                               (fp, ("t", "j", "x", "v", "u")),
                               (monitors, ("monitor", "j", "slack", "passed"))):
            assert type(records) is np.recarray and records.dtype.names == names
        assert samples.x.shape == (len(samples), 2) and fp.x.shape == (len(fp), 2)
        np.testing.assert_array_equal(samples.j, np.arange(1, len(samples) + 1))
        assert len(fp) > len(samples) and np.all(np.diff(fp.j) >= 0)
        assert len(monitors) and traj.violations() == []
        failed = monitors.copy()
        failed.passed[::3] = False
        traj = dataclasses.replace(traj, monitors=failed)
        assert [r.item() for r in traj.violations()] == \
            [r.item() for r in failed if not r.passed] != []


def test_flow_bound_checks_beyond_horizon():
    # a fabricated decision with h >= t_max is checked like any other:
    # rate = max(-0.5, 2*(0.5 - 1.0)) = -0.5
    dec = TriggerDecision(h=10.0, set_index=0,
                          params=ParameterSet(epsilon=0.5, gamma=2.0, l_const=0.5),
                          lambda_cap_used=1.0, v_now=1.0, c_val=1.0)
    assert dec.used_fallback and dec.bound_type == "fallback-decrease"
    assert 10.0 >= t_max(2.0, 1.0)
    t = np.array([0.0, 1.0, 2.0])
    env = np.exp(-0.5 * t)

    def record(u, v):
        seg = _state_rows(t, [1, 1, 1], np.zeros((3, 1)), v, u)
        return monitor_flow_bound(seg, dec, v_plus=1.0, t_start=0.0)

    rec = record([1.0, 0.9, 0.5], [1.0, 0.8, 0.4])  # U above exp(rate*tau)*V(t_j+)
    assert not rec.passed
    assert rec.slack == env[1] - 0.9 < 0.0
    rec = record([1.0, 0.5, 0.3], [1.0, 0.5, 0.35])  # V above U
    assert not rec.passed and rec.slack == 0.3 - 0.35
    rec = record([1.0, 0.5, 0.3], [1.0, 0.4, 0.2])  # consistent
    assert rec.item() == ("flow-bound", 1, 0.0, True)


def test_only_flow_bounds_need_the_tolerance_by_one_ulp():
    # the one known use of MON_TOL on the README config: a segment's tau = 0
    # flow record, whose V from spec.v on the segment's (N, 2) nodes can lie
    # 1 ulp above the sample's V from the (2,) call; every other record
    # holds exactly (21-28 such records a dynamic run, 24-27 a static one)
    spec = van_der_pol()
    cfg = StcConfig(family=build_family(spec, default_epsilon_ladder(), 0.05, 48), c=10.0,
                    delta=0.999, eps_ref=0.01, m=30)
    for x0 in ([-0.3, 1.7], [1.0, -1.0], [0.5, 1.4], [-1.2, -0.5]):
        for traj in (simulate(x0, cfg, spec, 15.0),
                     simulate(x0, dataclasses.replace(cfg, m=1), spec, 15.0),
                     simulate_periodic(x0, spec, t_min_of(cfg), 15.0)):
            mon = traj.monitors
            ulp = np.spacing(traj.samples.v[mon.j - 1])  # of V at each record's sample
            assert np.all((mon.slack >= 0.0) | (mon.monitor == "flow-bound") & (mon.slack >= -ulp))


def _head_record(value, bound):
    """A sample monitor's slack and verdict by the inline expression it used before _bounds."""
    return float(bound - value), bool(value <= bound + MON_TOL * (1.0 + bound))


def _head_flow(seg, dec, v_plus, t_start):
    """The flow bound's slack and verdict by its inline expressions before _bounds."""
    ps = dec.params
    rate = max(-ps.epsilon, 2.0 * (ps.l_const - dec.lambda_cap_used))
    us, vs = seg.u, seg.v
    env = np.exp(rate * (seg.t - t_start)) * v_plus
    slack_env = env - us
    slack_vu = us - vs
    ok = np.all(us <= env + MON_TOL * (1.0 + np.abs(env))) and \
        np.all(vs <= us + MON_TOL * (1.0 + np.abs(us)))
    return float(min(slack_env.min(), slack_vu.min())), bool(ok)


def _bits(x):
    return np.float64(x).tobytes()


def test_bound_rule_matches_each_monitor_expression(tmp_path):
    # the four sample monitors' bounds are exp(.)*V >= 0, where |bound| = bound
    rng = np.random.default_rng(29)
    bounds = [0.0, -0.0, 1.0] + list(rng.uniform(0.0, 10.0, 20)) + \
        list(10.0 ** rng.uniform(-6.0, 3.0, 20))
    for bound in map(float, bounds):
        edge = bound + MON_TOL * (1.0 + bound)
        values = [bound, edge, float(np.nextafter(edge, math.inf)),
                  float(np.nextafter(edge, -math.inf)), 0.0,
                  bound * rng.uniform(0.5, 1.5), bound + rng.normal(0.0, 1e-7)]
        # the monitors pass their bounds as a column, or (running cap) as one float
        for kind in ("sample-decrease", "combined-decrease", "running-cap",
                     "window-envelope"):
            for col in (np.full(len(values), bound), np.float64(bound)):
                recs = _bounds(kind, np.full(len(values), 3), np.array(values), col)
                heads = [_head_record(value, bound) for value in values]
                for (slack, passed), rec in zip(heads, recs, strict=True):
                    assert (rec.monitor, rec.j, rec.passed) == (kind, 3, passed)
                    assert _bits(rec.slack) == _bits(slack)
                _write_rows(tmp_path / "rows.csv", ["monitor", "j", "slack", "passed"],
                            ([kind, 3, slack, passed] for slack, passed in heads))
                assert _monitor_csv(tmp_path / "m.csv", recs) == \
                    (tmp_path / "rows.csv").read_bytes()
    over = float(np.nextafter(edge, math.inf))
    assert [r.passed for r in _bounds("running-cap", np.ones(2, dtype=int),
                                      np.array([edge, over]), bound)] == [True, False]

    # the flow bound on seeded segments of 1 to 65 records: U below, at,
    # and one ulp either side of its edge env + MON_TOL*(1 + |env|); V tied
    # with U and one ulp above U's edge; and each slack a signed zero in turn
    dec = TriggerDecision(h=0.5, set_index=1,
                          params=ParameterSet(epsilon=-1.0, gamma=2.0, l_const=0.5),
                          lambda_cap_used=1.0, v_now=1.0, c_val=1.0)  # rate 1.0
    seen = set()
    for n in (1, 2, 7, 33, 64, 65):
        t_start = rng.uniform(0.0, 5.0)
        t = t_start + np.concatenate([[0.0], np.sort(rng.uniform(0.0, 0.5, n - 1))])
        v_plus = rng.uniform(0.1, 3.0)
        env = np.exp(t - t_start) * v_plus
        edge = env + MON_TOL * (1.0 + np.abs(env))
        below = rng.uniform(0.0, 1e-3, n)
        v_over = env.copy()  # one V one ulp above the edge of U = env
        k = rng.integers(n)
        v_over[k] = np.nextafter(edge[k], math.inf)
        cases = [  # (v_plus, U, V)
            (v_plus, env - below, env - 2.0 * below),
            (v_plus, env, env - below),
            (v_plus, edge, env),
            (v_plus, np.nextafter(edge, math.inf), env),
            (v_plus, np.nextafter(edge, -math.inf), env),
            (v_plus, env, env.copy()),
            (v_plus, env, v_over),
            (-0.0, np.zeros(n), np.zeros(n)),   # slack_env -0.0, then slack_vu +0.0
            (0.0, -np.zeros(n), np.zeros(n)),   # slack_env +0.0, then slack_vu -0.0
            (v_plus, -np.zeros(n), np.zeros(n)),
        ]
        for vp, u, v in cases:
            seg = _state_rows(t, np.full(n, 4), np.zeros((n, 1)), v, u)
            slack, passed = _head_flow(seg, dec, vp, t_start)
            rec = monitor_flow_bound(seg, dec, vp, t_start)
            assert (rec.monitor, rec.j, rec.passed) == ("flow-bound", 4, passed)
            assert _bits(rec.slack) == _bits(slack)
            _write_rows(tmp_path / "rows.csv", ["monitor", "j", "slack", "passed"],
                        [["flow-bound", 4, slack, passed]])
            assert _monitor_csv(tmp_path / "m.csv", np.atleast_1d(rec).view(np.recarray)) == \
                (tmp_path / "rows.csv").read_bytes()
            seen.add((passed, _bits(slack) if slack == 0.0 else slack < 0.0))
    assert seen >= {(True, _bits(0.0)), (True, _bits(-0.0)), (True, True),
                    (True, False), (False, True)}


def test_baseline_dominance_counts():
    cfg, spec = _linear_cfg(m=5)
    cfg1 = dataclasses.replace(cfg, m=1)
    horizon = 40.0
    dyn = simulate([0.8], cfg, spec, t_end=horizon)
    stat = simulate([0.8], cfg1, spec, t_end=horizon)
    per = simulate_periodic([0.8], spec, t_min_of(cfg), horizon)
    n_dyn = dyn.n_samples_before(horizon)
    n_stat = stat.n_samples_before(horizon)
    n_per = per.n_samples_before(horizon)
    assert n_dyn <= n_stat <= n_per
    assert n_dyn < n_per


def test_refinement_stability():
    cfg, spec = _linear_cfg()
    tmin = t_min_of(cfg)
    a = simulate([0.9], cfg, spec, t_end=4.0, dt_flow=tmin / 32.0)
    b = simulate([0.9], cfg, spec, t_end=4.0, dt_flow=tmin / 64.0)
    assert len(a.samples) == len(b.samples)
    np.testing.assert_array_equal(a.samples.set_index, b.samples.set_index)
    np.testing.assert_allclose(a.samples.h, b.samples.h, rtol=1e-9)
    sa = {(r.monitor, r.j): r.slack for r in a.monitors}
    sb = {(r.monitor, r.j): r.slack for r in b.monitors}
    assert set(sa) == set(sb)
    for key, slack in sa.items():
        assert sb[key] == pytest.approx(slack, abs=1e-6 * (1 + abs(slack)))


def test_region_escape():
    # a drift without a per-component rhs: the flow calls it on 1-D arrays
    base = linear_test(c=1.0)
    spec = dataclasses.replace(base, f=lambda x, e: np.asarray(x, dtype=float))
    cfg = StcConfig(family=_family((0.5, 1.05, 0.05)), c=1.0, m=1)
    with pytest.raises(RegionEscapeError) as exc:
        simulate([0.9], cfg, spec, t_end=5.0)
    assert exc.value.v > 1.0
    assert exc.value.t is not None and 0.0 < exc.value.t < 1.0


@pytest.mark.parametrize("run", [
    lambda spec: simulate([1.2], _linear_cfg()[0], spec, 1.0),
    lambda spec: simulate_periodic([1.2], spec, 0.5, 1.0),
], ids=["dynamic", "periodic"])
def test_start_outside_region_reports_sample_zero(run):
    # both mechanisms check V(x0) in the shared loop, before the first jump
    with pytest.raises(RegionEscapeError) as exc:
        run(linear_test(c=1.0))
    assert exc.value.t == 0.0
    assert exc.value.v == pytest.approx(1.44)
    np.testing.assert_array_equal(exc.value.x, [1.2])


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_integration_blowup():
    base = linear_test(c=1e300)
    spec = dataclasses.replace(base, f=lambda x, e: np.asarray(x, dtype=float) ** 3)
    cfg = StcConfig(family=_family((0.5, 1.05, 0.05)), c=1e300, m=1)
    with pytest.raises(IntegrationBlowupError):
        simulate([1e80], cfg, spec, t_end=5.0)


def test_overflowing_comparison_function_raises():
    # a fall-back gamma of 3.675e150 overflows phi at the rate cap 5e299, so U
    # is not finite from the first segment on; tier-1 makes a numpy warning an
    # error, so the raise comes with none
    cfg = StcConfig(family=_family((1e300, 3.675e150, 0.05), (-1.0, 1.05, 0.05)), c=1.0, m=5)
    with pytest.raises(IntegrationBlowupError, match="^U is not finite on segment 1: "):
        simulate([0.5], cfg, linear_test(c=1.0), t_end=20 * t_min_of(cfg))


def test_dt_flow_validation():
    cfg, spec = _linear_cfg()
    tmin = t_min_of(cfg)
    with pytest.raises(ValueError):
        simulate([0.5], cfg, spec, t_end=1.0, dt_flow=tmin / 8.0)
    with pytest.raises(ValueError):
        simulate([0.5], cfg, spec, t_end=-1.0)
    with pytest.raises(ValueError):
        simulate_periodic([0.5], spec, 0.0, 1.0)


def test_region_level_above_verified_rejected():
    # the certificates hold on {V <= spec.region_c}; a trigger level above it
    # would let a run leave the verified region with every monitor passing
    cfg, _ = _linear_cfg(c=100.0)
    with pytest.raises(ValueError):
        simulate([9.0], cfg, linear_test(c=1.0), t_end=1.0)


@pytest.mark.parametrize("t_end", [math.nan, math.inf, -math.inf])
def test_non_finite_t_end_rejected(t_end):
    cfg, spec = _linear_cfg()
    with pytest.raises(ValueError):
        simulate([0.5], cfg, spec, t_end=t_end)
    with pytest.raises(ValueError):
        simulate_periodic([0.5], spec, period=0.25, t_end=t_end)


@pytest.mark.parametrize("period, t_end", [
    (0.25, -1.0), (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0),
])
def test_periodic_rejects_bad_horizon(period, t_end):
    with pytest.raises(ValueError):
        simulate_periodic([0.5], linear_test(), period=period, t_end=t_end)


def test_periodic_baseline():
    spec = linear_test()
    traj = simulate_periodic([0.5], spec, period=0.25, t_end=1.0)
    assert traj.kind == "periodic" and traj.cfg is None
    np.testing.assert_allclose([s.t for s in traj.samples], [0.0, 0.25, 0.5, 0.75, 1.0])
    assert traj.n_samples_before(1.0) == 4
    # each row carries the period and no set or window average
    assert np.all(traj.samples.h == 0.25) and np.all(traj.samples.set_index == -1)
    assert np.all(np.isnan(traj.samples.c_val))
    assert np.all(np.isnan(traj.flow_points.u))
    assert all(s.v <= 0.25 for s in traj.samples)   # contraction
    # equilibrium stays put
    still = simulate_periodic([0.0], spec, period=0.25, t_end=1.0)
    assert all(s.v == 0.0 for s in still.samples)


def test_runs_of_max_samples_rejected():
    # a run takes fewer than MAX_SAMPLES samples of its shortest interval,
    # checked before the first jump
    cfg, spec = _linear_cfg()
    with pytest.raises(ValueError, match=f"a run takes fewer than {sim.MAX_SAMPLES}$"):
        simulate([0.5], cfg, spec, t_end=2.0 * sim.MAX_SAMPLES * t_min_of(cfg))
    with pytest.raises(ValueError, match="takes up to 1e[+]06 samples of 1e-06 s"):
        simulate_periodic([0.5], spec, period=1e-6, t_end=1.0)


def test_sample_decrease_of_no_samples_is_empty():
    cfg, _ = _linear_cfg()
    empty = _sample_rows([], [], np.empty((0, 1)), [], [], [], [])
    records = sim.monitor_sample_decrease(HybridTrajectory(empty, None, cfg=cfg), cfg)
    assert isinstance(records, np.recarray) and len(records) == 0
    assert records.dtype == sim._MONITOR


def test_sample_rows_replay_the_trigger():
    # stc_step, replayed over the samples' states from the register a run
    # starts with, issues every row's h, set_index, C and V bit for bit:
    # windowed runs under both initial registers, and a static (m = 1) run
    cfg, spec = _vdp_cfg()
    for run_cfg in (cfg, dataclasses.replace(cfg, eta_init="zero"),
                    dataclasses.replace(cfg, m=1)):
        s = simulate([-0.3, 1.2], run_cfg, spec, t_end=3.0).samples
        assert len(s) > 10
        dyn = eta_initial(run_cfg.m, float(s.v[0]), run_cfg.eta_init)
        for k in range(len(s)):
            dec, dyn = stc_step(s.x[k], dyn, run_cfg, spec)
            assert [_bits(dec.h), dec.set_index, _bits(dec.c_val), _bits(dec.v_now)] == \
                [_bits(s.h[k]), s.set_index[k], _bits(s.c_val[k]), _bits(s.v[k])]
        assert (run_cfg.m == 1) == (set(s.set_index.tolist()) == {0})


def test_periodic_region_escape():
    base = linear_test(c=1.0)
    spec = dataclasses.replace(base, f=lambda x, e: np.asarray(x, dtype=float))
    with pytest.raises(RegionEscapeError):
        simulate_periodic([0.9], spec, period=0.5, t_end=5.0)


def test_csv_writers(tmp_path):
    cfg, spec = _linear_cfg()
    traj = simulate([0.9], cfg, spec, t_end=2.0)
    tp, dp, mp = tmp_path / "t.csv", tmp_path / "d.csv", tmp_path / "m.csv"
    write_trajectory_csv(tp, traj)
    write_decisions_csv(dp, traj)
    write_monitors_csv(mp, traj)
    tlines = tp.read_text().splitlines()
    assert tlines[0] == "t,j,x1,V,U,interval,set_index,used_fallback"
    assert len(tlines) == 1 + len(traj.flow_points)
    dlines = dp.read_text().splitlines()
    assert dlines[0] == "j,t,h,set_index,epsilon,used_fallback,V,C"
    assert len(dlines) == 1 + len(traj.samples)
    assert dlines[1].startswith("1,0.0,")
    mlines = mp.read_text().splitlines()
    assert mlines[0] == "monitor,j,slack,passed"
    assert all(line.endswith(",1") for line in mlines[1:])
    # determinism: a second identical run yields identical bytes
    traj2 = simulate([0.9], cfg, spec, t_end=2.0)
    tp2 = tmp_path / "t2.csv"
    write_trajectory_csv(tp2, traj2)
    assert tp2.read_bytes() == tp.read_bytes()
    # a run that ends at its first sample has no flow records, same columns
    empty = simulate([0.9], cfg, spec, t_end=0.0)
    assert len(empty.flow_points) == 0
    write_trajectory_csv(tmp_path / "empty.csv", empty)
    assert (tmp_path / "empty.csv").read_text() == tlines[0] + "\n"


def test_periodic_csv(tmp_path):
    spec = linear_test()
    traj = simulate_periodic([0.5], spec, period=0.25, t_end=0.5)
    path = tmp_path / "p.csv"
    write_trajectory_csv(path, traj)
    lines = path.read_text().splitlines()
    assert lines[1].split(",")[6] == "-1"   # set_index column


def _long_run(n_segments):
    """A dynamic run of n_segments segments of 16 flow records and 6 monitor records each.

    Its samples' decisions (h, set_index, V, C) cycle those of a short run;
    its records are seeded draws.
    """
    cfg, spec = _linear_cfg()
    short = simulate([0.9], cfg, spec, t_end=2.0).samples
    rng = np.random.default_rng(n_segments)
    n = 16 * n_segments
    fp = _state_rows(np.sort(rng.random(n)), np.repeat(np.arange(1, n_segments + 1), 16),
                     rng.random((n, 2)), rng.random(n), rng.random(n))
    k = np.arange(n_segments + 1)
    cycled = short[np.arange(n_segments + 1) % len(short)]
    samples = _sample_rows(k, k + 1, np.zeros((n_segments + 1, 2)), cycled.v, cycled.h,
                           cycled.set_index, cycled.c_val)
    monitors = sim._records("region", np.arange(6 * n_segments), rng.random(6 * n_segments),
                            np.ones(6 * n_segments, dtype=bool))
    return HybridTrajectory(samples=samples, flow_points=fp, monitors=monitors, cfg=cfg)


@pytest.mark.parametrize("write", [write_trajectory_csv, write_monitors_csv,
                                   write_decisions_csv])
def test_writers_hold_one_segment_not_one_run(tmp_path, write):
    # a run 4x as long raises no writer's peak by more than 32 kB: a
    # writer that converts whole columns, or lists every row before writing
    # it, peaked 2.6 MB (trajectory), 0.35 MB (monitors) and 77 kB
    # (decisions) higher on the longer run
    short, long = _long_run(200), _long_run(800)
    write(tmp_path / "warm.csv", short)
    peaks = []
    for traj in (short, long):
        tracemalloc.start()
        try:
            write(tmp_path / "out.csv", traj)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 32 * 1024, peaks


def _per_segment(traj, spec, dt_flow):
    """traj's flow records, one record array per segment, as each segment computed them.

    Each hold interval is integrated again from its sample, and U and the
    stride are the expressions each segment evaluated on its own before
    records were computed in blocks (phi by its solution's ``evaluate``,
    which has the bits of that code's closed form:
    ``tests/test_timing.py::test_phi_values_has_the_bits_of_evaluate``).
    """
    segs = []
    for k, smp in enumerate(traj.samples[:-1]):
        h = float(smp.h)
        xs, taus = _rk4_segment(spec, smp.x, h, dt_flow)
        vs = np.asarray(spec.v(xs), dtype=float)
        if traj.cfg is None:
            us = np.full(len(taus), math.nan)
        else:
            dec = _decision(traj, k)
            gamma, cap = dec.params.gamma, dec.lambda_cap_used
            w = np.linalg.norm(smp.x - xs, axis=-1)
            sol = phi_solve(solve_lambda_for_horizon(h, gamma, cap), gamma, cap)
            us = vs + gamma * sol.evaluate(taus) * w * w
        stride = max(1, int((len(taus) - 1) / FLOW_RECORD_TARGET))
        idx = list(range(0, len(taus) - 1, stride)) + [len(taus) - 1]
        segs.append(_state_rows(smp.t + taus[idx], np.full(len(idx), smp.j), xs[idx], vs[idx],
                                us[idx]))
    return segs


def _segment_monitors(segs, traj, c):
    """The flow-bound and region records of each segment by its own expressions.

    Slacks as bytes, so a zero keeps its sign.
    """
    monitors = []
    lim = c * (1.0 + REGION_TOL_REL)
    for k, seg in enumerate(segs):
        smp = traj.samples[k]
        if traj.cfg is not None:
            slack, passed = _head_flow(seg, _decision(traj, k), smp.v, smp.t)
            monitors.append(("flow-bound", smp.j, _bits(slack), passed))
        vmax = seg.v.max()
        monitors.append(("region", smp.j, _bits(lim - vmax), bool(vmax <= lim)))
    return monitors


def _joined(segs):
    return np.concatenate(segs).view(np.recarray)


def _monitor_key(records):
    return [(r.monitor, r.j, _bits(r.slack), r.passed) for r in records]


@pytest.mark.parametrize("block", [None, 1, 40, 97, 300])
@pytest.mark.parametrize("case", ["vdp", "linear", "vdp periodic", "strided periodic"])
def test_blocks_keep_the_per_segment_bits(monkeypatch, block, case):
    # every record column and every flow-bound and region record of a run
    # of several blocks has the bits of the per-segment computation; block
    # sizes from 1 record (a segment per block) up put block edges after
    # every segment of these runs, and segments at every place in a block
    cfg, spec = _linear_cfg() if case == "linear" else _vdp_cfg()
    x0 = [0.9] if case == "linear" else [-0.3, 1.7]
    if block is not None:
        monkeypatch.setattr(sim, "BLOCK_RECORDS", block)
    if case == "strided periodic":  # 500 steps a hold: every 7th node is kept
        dt_flow = 0.002
        traj = simulate_periodic(x0, spec, period=1.0, t_end=6.0, dt_flow=dt_flow)
    elif case == "vdp periodic":
        dt_flow = t_min_of(cfg) / 32.0
        traj = simulate_periodic(x0, spec, period=t_min_of(cfg), t_end=4.0)
    else:
        dt_flow = t_min_of(cfg) / 20.0
        traj = simulate(x0, cfg, spec, t_end=40.0 if case == "linear" else 8.0, dt_flow=dt_flow)
        assert set(traj.samples.set_index.tolist()) != {0}
    fp = traj.flow_points
    assert len(fp) > 2 * sim.BLOCK_RECORDS or case in ("linear", "strided periodic")
    segs = _per_segment(traj, spec, dt_flow)
    want = _joined(segs)
    got = [fp.t, fp.j, fp.x, fp.v, fp.u]
    cols = [want.t, want.j, want.x, want.v, want.u]
    assert [col.dtype for col in got] == [col.dtype for col in cols]
    assert [col.tobytes() for col in got] == [col.tobytes() for col in cols]
    dynamic = traj.cfg is not None
    monitors = _segment_monitors(segs, traj, cfg.c if dynamic else spec.region_c)
    assert _monitor_key(traj.monitors[:len(monitors)]) == monitors
    assert len(traj.monitors) == len(monitors) + (4 * len(traj.samples) - 2 if dynamic else 0)
    if dynamic:
        # a flow bound that binds: with U = V = V(t_j+)*(1 + 2*tau) the
        # slacks are negative and differ with each segment's set and sample,
        # so a record checked against another segment's decision differs
        bent = [_state_rows(seg.t, seg.j, seg.x, v, v) for seg, smp in zip(segs, traj.samples)
                for v in [smp.v * (1.0 + 2.0 * (seg.t - smp.t))]]
        monitors = _segment_monitors(bent, traj, cfg.c)
        assert len({slack for _, _, slack, passed in monitors if not passed}) > 2
        rerun = dataclasses.replace(traj, flow_points=_joined(bent))
        assert _monitor_key(run_monitors(rerun, cfg)[:len(monitors)]) == monitors


def test_simulate_holds_one_block_of_temporaries(monkeypatch):
    # at its peak a 40 s run holds, beyond the trajectory it returns, at
    # most its records' bytes (its segments' nodes, kept until they fill
    # the columns) and 16 columns of one block; U and the monitors of the
    # whole run at once held 3.3 MB more (0.71 against 3.97 MB)
    cfg, spec = _vdp_cfg()

    def held():
        simulate([-0.3, 1.7], cfg, spec, t_end=40.0)  # warm: the stepper is compiled
        tracemalloc.start()
        try:
            traj = simulate([-0.3, 1.7], cfg, spec, t_end=40.0)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        fp = traj.flow_points
        return peak - current, sum(col.nbytes for col in (fp.t, fp.j, fp.x, fp.v, fp.u))

    extra, records = held()
    bound = records + 16 * 8 * sim.BLOCK_RECORDS
    assert records > 1_000_000 and extra <= bound, (extra, records)
    monkeypatch.setattr(sim, "BLOCK_RECORDS", 10 ** 9)  # the run as one block
    assert held()[0] > bound + 1_000_000


def _csv_bytes(directory, traj):
    """The bytes of every CSV the writers produce for traj."""
    directory.mkdir()
    writers = [write_trajectory_csv, write_monitors_csv]
    if traj.cfg is not None:
        writers.append(write_decisions_csv)
    out = []
    for k, write in enumerate(writers):
        write(directory / f"{k}.csv", traj)
        out.append((directory / f"{k}.csv").read_bytes())
    return out


def test_numpy_scalars_write_as_python_floats(tmp_path):
    # a float subclass (np.float64) in the config or the period reaches the
    # interval columns; it is written as the Python float of the same value
    cfg, spec = _linear_cfg()
    np_cfg = StcConfig(family=cfg.family, c=cfg.c, m=cfg.m, delta=np.float64(cfg.delta))
    plain = simulate([0.9], cfg, spec, t_end=2.0)
    numpy = simulate([0.9], np_cfg, spec, t_end=2.0)
    assert type(t_min_of(np_cfg)) is np.float64  # the fall-back interval
    assert _csv_bytes(tmp_path / "np", numpy) == _csv_bytes(tmp_path / "py", plain)
    plain = simulate_periodic([0.5], spec, period=0.25, t_end=1.0)
    numpy = simulate_periodic([0.5], spec, period=np.float64(0.25), t_end=1.0)
    assert _csv_bytes(tmp_path / "np_periodic", numpy) == \
        _csv_bytes(tmp_path / "py_periodic", plain)


def _vdp_cfg():
    # the shipped fall-back row of the README family plus two window sets
    fam = _family((0.01, 25.7003, 0.05), (-1.0, 25.69, 0.05), (-10.0, 25.4, 0.05))
    return StcConfig(family=fam, c=10.0, m=5), van_der_pol()


def _run_key(traj):
    """Every sample with its decision, flow record and monitor record, as exact text."""
    return repr([[records[name].tolist() for name in records.dtype.names]
                 for records in (traj.samples, traj.flow_points, traj.monitors)])


@pytest.mark.parametrize("setup, x0, t_end", [
    (_linear_cfg, [0.9], 6.0), (_vdp_cfg, [-0.3, 1.2], 1.5),
])
def test_point_drift_matches_array_drift_in_simulation(setup, x0, t_end):
    cfg, spec = setup()
    # route every flow evaluation through the array branch of the same drift
    arrays = dataclasses.replace(spec, f=lambda x, e: spec.f(x[None], e[None])[0])
    plain = simulate(x0, cfg, spec, t_end=t_end)
    assert len(plain.samples) > 5 and len(plain.monitors)
    assert _run_key(simulate(x0, cfg, arrays, t_end=t_end)) == _run_key(plain)


def _reference_trajectory_csv(path, traj):
    """The row-list writer that the streamed trajectory writer replaced."""
    fp = traj.flow_points
    n = fp.x.shape[1] if len(fp) else 0
    header = ["t", "j"] + [f"x{i + 1}" for i in range(n)] + \
        ["V", "U", "interval", "set_index", "used_fallback"]
    rows = []
    for k in range(len(fp)):
        t, j, x, v, u = (fp.t[k].item(), fp.j[k].item(), fp.x[k].tolist(),
                         fp.v[k].item(), fp.u[k].item())
        smp = traj.samples[j - 1]
        interval, idx = smp.h.item(), smp.set_index.item()
        fb = idx == 0  # the fall-back is set 0; a periodic row's -1 is no set
        rows.append([t, j] + x + [v, u, interval, idx, fb])
    _write_rows(path, header, rows)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_rows(path, header, rows):
    """The csv-module writer every CSV was written by before the f-string writers."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


@pytest.mark.parametrize("kind", ["dynamic", "periodic"])
def test_trajectory_csv_matches_row_writer(tmp_path, kind):
    cfg, spec = _vdp_cfg()
    if kind == "dynamic":
        traj = simulate([-0.3, 1.2], cfg, spec, t_end=1.0)
        assert set((traj.samples.set_index == 0).tolist()) == {False, True}
    else:
        traj = simulate_periodic([-0.3, 1.2], spec, t_min_of(cfg), t_end=1.0)
    write_trajectory_csv(tmp_path / "stream.csv", traj)
    _reference_trajectory_csv(tmp_path / "rows.csv", traj)
    data = (tmp_path / "stream.csv").read_bytes()
    assert data == (tmp_path / "rows.csv").read_bytes()
    assert data.count(b"\n") == 1 + len(traj.flow_points)


def test_decisions_and_monitors_csv_match_row_writer(tmp_path):
    # the f-string writers have the bytes of the csv-module writer, also for
    # np.float64 fields, failed records and signed-zero or infinite slacks
    cfg, spec = _vdp_cfg()
    np_cfg = dataclasses.replace(cfg, delta=np.float64(cfg.delta))
    plain = simulate([-0.3, 1.2], cfg, spec, t_end=1.0)
    numpy = dataclasses.replace(  # every epsilon the writer reads from the config an np.float64
        plain, cfg=dataclasses.replace(cfg, family=ParameterFamily(sets=tuple(
            dataclasses.replace(ps, epsilon=np.float64(ps.epsilon)) for ps in cfg.family.sets))))
    slacks = np.array([-0.0, 0.0, -1e-300, math.inf, 2.5])
    extra = sim._records("flow-bound", np.full(5, 7), slacks, slacks > 0.0)
    for traj in (plain, simulate([-0.3, 1.2], np_cfg, spec, t_end=1.0), numpy):
        traj = dataclasses.replace(traj, monitors=sim._joined(traj.monitors, extra))
        decs = [_decision(traj, k) for k in range(len(traj.samples))]
        assert {d.used_fallback for d in decs} == {False, True}
        write_decisions_csv(tmp_path / "d.csv", traj)
        _write_rows(tmp_path / "d_rows.csv", ["j", "t", "h", "set_index", "epsilon",
                                              "used_fallback", "V", "C"],
                    ([s.j, s.t, d.h, d.set_index, d.params.epsilon, d.used_fallback,
                      d.v_now, d.c_val] for s, d in zip(traj.samples, decs)))
        assert (tmp_path / "d.csv").read_bytes() == (tmp_path / "d_rows.csv").read_bytes()
        write_monitors_csv(tmp_path / "m.csv", traj)
        _write_rows(tmp_path / "m_rows.csv", ["monitor", "j", "slack", "passed"],
                    traj.monitors.tolist())
        assert (tmp_path / "m.csv").read_bytes() == (tmp_path / "m_rows.csv").read_bytes()


def _reference_sample_decrease(traj, cfg):
    """The per-sample monitor loop that the column form replaced, slacks as bytes."""
    def bound(monitor, j, value, b):
        return (monitor, j, _bits(float(b - value)),
                bool(value <= b + MON_TOL * (1.0 + abs(b))))

    records = []
    tmin = t_min_of(cfg)
    eps_tilde = min(cfg.family.fallback.epsilon, cfg.eps_ref)
    vs = [s.v for s in traj.samples]
    for k in range(len(vs) - 1):
        smp = traj.samples[k]
        if smp.set_index == 0:
            b = math.exp(-cfg.family.sets[0].epsilon * smp.h) * smp.v
        else:
            b = math.exp(-cfg.eps_ref * smp.h) * smp.c_val
        records.append(bound("sample-decrease", k + 1, vs[k + 1], b))
        comb = math.exp(-eps_tilde * tmin) * max(vs[max(0, k - cfg.m + 1):k + 1])
        records.append(bound("combined-decrease", k + 1, vs[k + 1], comb))
    for k, smp in enumerate(traj.samples):
        records.append(bound("running-cap", smp.j, smp.v, vs[0]))
        env = math.exp(-eps_tilde * tmin * (max(0, k - cfg.m) / cfg.m)) * vs[0]
        records.append(bound("window-envelope", smp.j, smp.v, env))
    return records


@pytest.mark.parametrize("m", [1, 2, 5, 30, 200])
def test_sample_monitors_keep_the_per_sample_bits(tmp_path, m):
    # the column form of monitor_sample_decrease has the records of the
    # per-sample loop: runs at window lengths below, at and above their
    # sample count, and a fabricated V history of ties, signed zeros and
    # failing bounds, where max() keeps the oldest of equal V's
    cfg, spec = _vdp_cfg()
    cfg = dataclasses.replace(cfg, m=m)
    runs = [simulate([-0.3, 1.2], cfg, spec, t_end=3.0),
            simulate([0.4, -0.2], dataclasses.replace(cfg, eta_init="zero"), spec, t_end=1.0),
            simulate([-0.3, 1.2], cfg, spec, t_end=0.0)]
    rng = np.random.default_rng(m)
    vs = np.concatenate([rng.choice([0.0, -0.0], size=40),
                         rng.choice([0.0, -0.0, 1.0, 2.0, 2.0 + 1e-7, 3.0], size=40)])
    vs[0] = -0.0
    k = np.arange(len(vs))
    samples = _sample_rows(0.1 * k, k + 1, np.zeros((len(vs), 2)), vs, rng.uniform(0.0, 0.1, 80),
                           rng.integers(0, 3, 80), rng.choice([0.0, -0.0, 1.0, 2.5], size=80))
    runs.append(HybridTrajectory(samples=samples, flow_points=runs[0].flow_points, cfg=cfg))
    for traj in runs:
        records = sim.monitor_sample_decrease(traj, cfg)
        reference = _reference_sample_decrease(traj, cfg)
        assert _monitor_key(records) == reference
        _write_rows(tmp_path / "rows.csv", ["monitor", "j", "slack", "passed"],
                    ([name, j, np.frombuffer(slack)[0].item(), passed]
                     for name, j, slack, passed in reference))
        assert _monitor_csv(tmp_path / "m.csv", records) == (tmp_path / "rows.csv").read_bytes()
    assert not all(r.passed for r in sim.monitor_sample_decrease(runs[-1], cfg))


def _reference_rk4_segment(spec, x_hold, h, dt_flow):
    """The numpy RK4 loop that the float loop replaced, kept as its bit reference."""
    n_full = int(h / dt_flow)
    rem = h - n_full * dt_flow
    steps = [dt_flow] * n_full
    if rem > 1e-12 * h:
        steps.append(rem)
    elif steps:
        steps[-1] += rem
    else:
        steps = [h]
    xs = np.empty((len(steps) + 1, x_hold.shape[0]))
    xs[0] = x_hold
    x = x_hold
    f = spec.f
    for k, st in enumerate(steps):
        k1 = f(x, x_hold - x)
        x2 = x + 0.5 * st * k1
        k2 = f(x2, x_hold - x2)
        x3 = x + 0.5 * st * k2
        k3 = f(x3, x_hold - x3)
        x4 = x + st * k3
        k4 = f(x4, x_hold - x4)
        x = x + (st / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        xs[k + 1] = x
    taus = np.concatenate([[0.0], np.cumsum(steps)])
    taus[-1] = h
    return xs, taus


def _edge_state(spec, direction, level=0.999):
    """The state on the ray through direction with V = level * c."""
    d = np.asarray(direction, dtype=float)
    return d * math.sqrt(level * spec.region_c / float(spec.v(d)))


def coupled_3d():
    """A 3-dimensional drift, a dimension no built-in has."""
    def rhs(x1, x2, x3, e1, e2, e3):
        return (x2 - x1 - e1 * (x3 + e3),
                -0.5 * x2 + x1 * x3 - 2.0 * e2,
                -(x3 + e3) - x1 * (x2 + e2) + e1 * e1)

    return _quadratic_spec("coupled_3d", 3, np.diag([1.0, 2.0, 0.5]), 4.0, _drift(rhs))


@pytest.mark.parametrize("make, holds, edge_directions", [
    (van_der_pol, [[-0.3, 1.7], [0.0, -0.0], [-0.0, -0.0]], [[1.0, -2.0], [-1.0, 0.3]]),
    (linear_test, [[0.9], [0.0], [-0.0]], [[1.0], [-1.0]]),
    (coupled_3d, [[0.4, -1.1, 0.7], [0.0, -0.0, 0.0], [-0.0, -0.0, -0.0]],
     [[1.0, -2.0, 0.5], [-0.3, 0.2, -1.0]]),
])
@pytest.mark.parametrize("h, dt_flow", [
    (1.0, 0.125),           # an exact multiple: 8 full steps
    (0.0537, 0.01),         # remainder above 1e-12*h: a short last step
    (0.5 + 1e-14, 0.125),   # remainder absorbed into the last full step
    (0.03, 0.1),            # h < dt_flow: one short step
])
@pytest.mark.parametrize("route", ["rhs", "adapter"])
def test_float_rk4_matches_numpy_reference(make, holds, edge_directions, h, dt_flow, route):
    spec = make()
    assert hasattr(spec.f, "rhs")
    if route == "adapter":
        spec = dataclasses.replace(spec, f=lambda x, e, f=spec.f: f(x, e))
    x_holds = [np.array(x) for x in holds] + [_edge_state(spec, d) for d in edge_directions]
    for x_hold in x_holds:
        xs, taus = _rk4_segment(spec, x_hold, h, dt_flow)
        ref_xs, ref_taus = _reference_rk4_segment(make(), x_hold, h, dt_flow)
        assert xs.shape == ref_xs.shape and xs.dtype == ref_xs.dtype
        assert xs.tobytes() == ref_xs.tobytes()
        assert taus.tobytes() == ref_taus.tobytes()
        np.testing.assert_array_equal(np.signbit(xs), np.signbit(ref_xs))
        np.testing.assert_array_equal(np.signbit(xs[0]), np.signbit(x_hold))


def test_drift_without_rhs_runs_through_adapter(tmp_path):
    cfg, spec = _vdp_cfg()
    calls = []

    def wrapper(x, e):
        # what perfbench's tracer reads: one point as 1-D ndarrays
        assert isinstance(x, np.ndarray) and isinstance(e, np.ndarray)
        assert x.ndim == 1 and e.ndim == 1 and x.shape == e.shape == (2,)
        calls.append(1)
        return spec.f(x, e)

    wrapped = dataclasses.replace(spec, f=wrapper)
    runs = []
    for s in (spec, wrapped):
        traj = simulate([-0.3, 1.2], cfg, s, t_end=1.5)
        per = simulate_periodic([-0.3, 1.2], s, t_min_of(cfg), t_end=0.5)
        out = tmp_path / s.f.__name__
        out.mkdir()
        write_trajectory_csv(out / "t.csv", traj)
        write_decisions_csv(out / "d.csv", traj)
        write_monitors_csv(out / "m.csv", traj)
        write_trajectory_csv(out / "p.csv", per)
        files = [(out / name).read_bytes() for name in ("t.csv", "d.csv", "m.csv", "p.csv")]
        runs.append((_run_key(traj), _run_key(per), files))
    assert len(calls) > 0 and len(calls) % 4 == 0   # four stages per RK4 step
    assert runs[1] == runs[0]


@pytest.mark.parametrize("x0", [[1.0], [0.1, 0.2, 0.3], [[-0.3, 1.2]], [math.nan, 0.0],
                                [0.0, math.inf], 0.5])
def test_wrong_state_shape_rejected(x0):
    # [1.0] used to broadcast against P (V = 10.44 > c: a RegionEscapeError)
    cfg, spec = _vdp_cfg()
    for run in (lambda: simulate(x0, cfg, spec, t_end=1.0),
                lambda: simulate_periodic(x0, spec, period=0.25, t_end=1.0)):
        with pytest.raises(ValueError, match="x0 must be a finite vector"):
            run()
