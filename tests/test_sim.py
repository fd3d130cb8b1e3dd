"""Tests for the hybrid simulator, monitors and CSV artifacts."""

import dataclasses
import math

import numpy as np
import pytest

from dynstc.engine import StcConfig, TriggerDecision, t_max_cap, t_min_of
from dynstc.sim import (
    FlowRecords,
    _rk4_segment,
    _write_rows,
    IntegrationBlowupError,
    MonitorRecord,
    RegionEscapeError,
    monitor_flow_bound,
    simulate,
    simulate_periodic,
    write_decisions_csv,
    write_monitors_csv,
    write_trajectory_csv,
)
from dynstc.synthesis import ParameterFamily, ParameterSet
from dynstc.systems import linear_test, van_der_pol
from dynstc.timing import t_max


def _family(*triples):
    sets = tuple(ParameterSet(epsilon=e, gamma=g, l_const=l) for e, g, l in triples)
    return ParameterFamily(sets=sets)


def _linear_cfg(m=5, c=1.0):
    fam = _family((0.5, 1.05, 0.05), (-1.0, 1.05, 0.05), (-5.0, 1.05, 0.05))
    return StcConfig(family=fam, c=c, m=m), linear_test(c=c)


def test_initial_jump_and_termination():
    cfg, spec = _linear_cfg()
    traj = simulate([0.5], cfg, spec, t_end=3.0)
    assert traj.samples[0].t == 0.0
    assert traj.samples[0].j == 1
    assert [s.j for s in traj.samples] == list(range(1, len(traj.samples) + 1))
    assert traj.samples[-1].t >= 3.0
    assert traj.samples[-2].t < 3.0
    assert len(traj.decisions) == len(traj.samples)


def test_equilibrium_run():
    cfg, spec = _linear_cfg()
    traj = simulate([0.0], cfg, spec, t_end=5.0)
    assert all(s.v == 0.0 for s in traj.samples)
    fp = traj.flow_points
    assert np.all(fp.v == 0.0) and np.all(fp.u == 0.0)
    # at the origin every set certifies its full cap
    cap = t_max_cap(cfg)
    for d in traj.decisions:
        assert d.h == pytest.approx(cap, rel=1e-12)
    assert not traj.violations()


def test_fallback_decrease_single_set():
    fam = _family((0.5, 1.05, 0.05))
    spec = linear_test()
    cfg = StcConfig(family=fam, c=1.0, m=1)
    traj = simulate([0.9], cfg, spec, t_end=4.0)
    tmin = t_min_of(cfg)
    rho = math.exp(-0.5 * tmin)
    assert all(d.used_fallback for d in traj.decisions)
    for a, b in zip(traj.samples, traj.samples[1:]):
        assert b.v <= rho * a.v * (1.0 + 1e-6)
    assert not traj.violations()


def test_sample_gaps_within_bounds():
    cfg, spec = _linear_cfg()
    traj = simulate([0.8], cfg, spec, t_end=6.0)
    tmin, cap = t_min_of(cfg), t_max_cap(cfg)
    gaps = traj.intervals()
    assert gaps
    for g, d in zip(gaps, traj.decisions):
        assert g == pytest.approx(d.h, rel=1e-12)
        assert tmin * (1 - 1e-12) <= g <= cap * (1 + 1e-12)


def test_window_lengthens_intervals():
    # with a window of past (larger) energies the log bound opens up and
    # negative-eps sets certify beyond the fall-back floor
    cfg, spec = _linear_cfg(m=5)
    traj = simulate([0.8], cfg, spec, t_end=6.0)
    assert any(not d.used_fallback for d in traj.decisions)
    assert max(d.h for d in traj.decisions) > t_min_of(cfg)


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


def test_monitor_inapplicable_beyond_horizon():
    dec = TriggerDecision(h=10.0, set_index=0, used_fallback=True,
                          bound_type="fallback-decrease", lambda_cap_used=1.0,
                          epsilon=0.5, v_now=1.0, c_val=1.0)
    assert 10.0 >= t_max(2.0, 1.0)
    seg = FlowRecords(t=np.array([0.0]), j=np.array([1]), x=np.array([[1.0]]),
                      v=np.array([1.0]), u=np.array([1.0]))
    rec = monitor_flow_bound(seg, dec, gamma=2.0, l_const=0.5, v_plus=1.0,
                             t_start=0.0)
    assert rec.passed
    assert "inapplicable" in rec.note
    assert math.isnan(rec.slack)


def test_baseline_dominance_counts():
    cfg, spec = _linear_cfg(m=5)
    cfg1 = dataclasses.replace(cfg, m=1)
    horizon = 40.0
    dyn = simulate([0.8], cfg, spec, t_end=horizon, monitors=False)
    stat = simulate([0.8], cfg1, spec, t_end=horizon, monitors=False)
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
    for da, db in zip(a.decisions, b.decisions):
        assert da.set_index == db.set_index
        assert da.used_fallback == db.used_fallback
        assert da.h == pytest.approx(db.h, rel=1e-9)
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


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_integration_blowup():
    base = linear_test(c=1e300)
    spec = dataclasses.replace(base, f=lambda x, e: np.asarray(x, dtype=float) ** 3)
    cfg = StcConfig(family=_family((0.5, 1.05, 0.05)), c=1e300, m=1)
    with pytest.raises(IntegrationBlowupError):
        simulate([1e80], cfg, spec, t_end=5.0)


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
    assert traj.kind == "periodic"
    assert traj.period == 0.25
    np.testing.assert_allclose([s.t for s in traj.samples], [0.0, 0.25, 0.5, 0.75, 1.0])
    assert traj.n_samples_before(1.0) == 4
    assert traj.decisions == ()
    assert np.all(np.isnan(traj.flow_points.u))
    assert all(s.v <= 0.25 for s in traj.samples)   # contraction
    # equilibrium stays put
    still = simulate_periodic([0.0], spec, period=0.25, t_end=1.0)
    assert all(s.v == 0.0 for s in still.samples)


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
    assert len(dlines) == 1 + len(traj.decisions)
    assert dlines[1].startswith("1,0.0,")
    mlines = mp.read_text().splitlines()
    assert mlines[0] == "monitor,j,slack,passed"
    assert all(line.endswith(",1") for line in mlines[1:])
    # determinism: a second identical run yields identical bytes
    traj2 = simulate([0.9], cfg, spec, t_end=2.0)
    tp2 = tmp_path / "t2.csv"
    write_trajectory_csv(tp2, traj2)
    assert tp2.read_bytes() == tp.read_bytes()


def test_periodic_csv(tmp_path):
    spec = linear_test()
    traj = simulate_periodic([0.5], spec, period=0.25, t_end=0.5)
    path = tmp_path / "p.csv"
    write_trajectory_csv(path, traj)
    lines = path.read_text().splitlines()
    assert lines[1].split(",")[6] == "-1"   # set_index column


def _csv_bytes(directory, traj):
    """The bytes of every CSV the writers produce for traj."""
    directory.mkdir()
    writers = [write_trajectory_csv, write_monitors_csv]
    if traj.decisions:
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
    assert type(numpy.decisions[0].h) is np.float64
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
    """Every sample, decision, flow record and monitor record, as exact text."""
    fp = traj.flow_points
    return repr((
        [(s.t, s.j, s.x.tolist(), s.v, s.eta) for s in traj.samples],
        [dataclasses.astuple(d) for d in traj.decisions],
        [fp.t.tolist(), fp.j.tolist(), fp.x.tolist(), fp.v.tolist(), fp.u.tolist()],
        [dataclasses.astuple(r) for r in traj.monitors],
    ))


@pytest.mark.parametrize("setup, x0, t_end", [
    (_linear_cfg, [0.9], 6.0), (_vdp_cfg, [-0.3, 1.2], 1.5),
])
def test_point_drift_matches_array_drift_in_simulation(setup, x0, t_end):
    cfg, spec = setup()
    # route every flow evaluation through the array branch of the same drift
    arrays = dataclasses.replace(spec, f=lambda x, e: spec.f(x[None], e[None])[0])
    plain = simulate(x0, cfg, spec, t_end=t_end)
    assert len(plain.samples) > 5 and plain.monitors
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
        if traj.kind == "periodic":
            interval, idx, fb = traj.period, -1, False
        else:
            dec = traj.decisions[j - 1]
            interval, idx, fb = dec.h, dec.set_index, dec.used_fallback
        rows.append([t, j] + x + [v, u, interval, idx, fb])
    _write_rows(path, header, rows)


@pytest.mark.parametrize("kind", ["dynamic", "periodic"])
def test_trajectory_csv_matches_row_writer(tmp_path, kind):
    cfg, spec = _vdp_cfg()
    if kind == "dynamic":
        traj = simulate([-0.3, 1.2], cfg, spec, t_end=1.0)
        assert {d.used_fallback for d in traj.decisions} == {False, True}
    else:
        traj = simulate_periodic([-0.3, 1.2], spec, t_min_of(cfg), t_end=1.0)
    write_trajectory_csv(tmp_path / "stream.csv", traj)
    _reference_trajectory_csv(tmp_path / "rows.csv", traj)
    data = (tmp_path / "stream.csv").read_bytes()
    assert data == (tmp_path / "rows.csv").read_bytes()
    assert data.count(b"\n") == 1 + len(traj.flow_points)


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


@pytest.mark.parametrize("make, holds, edge_directions", [
    (van_der_pol, [[-0.3, 1.7], [0.0, -0.0], [-0.0, -0.0]], [[1.0, -2.0], [-1.0, 0.3]]),
    (linear_test, [[0.9], [0.0], [-0.0]], [[1.0], [-1.0]]),
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
