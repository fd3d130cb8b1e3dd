"""Hybrid simulation of the sampled-data loop with proof-derived monitors.

Between samples the state flows under x' = f(x, e(t)) with the hold
error reconstructed exactly as e(t) = x(t_j) - x(t); at each scheduled
instant the trigger jump of :mod:`dynstc.engine` fires.  There is a jump
at t = 0, so sample k lives at hybrid time (t_k, k+1).

Every run can be checked against the inequalities that back the design:

* flow bound:  V(x(t)) <= U(xi(t)) <= exp(rate*(t - t_j)) * V(t_j+)
  along each segment, where U = V + gamma*phi(tau)*W^2 with W = ||e||,
  and phi is the comparison-ODE solution pinned to the issued interval;
* sample decrease: the certificate recorded with each decision
  (window bound or fall-back decrease), their combination with
  rate min{eps_1, eps_ref}, a running cap, and a windowed geometric
  envelope;
* region invariance: V <= c (plus tolerance) at every flow node.

Integration is fixed-step RK4 with the last step shortened to land
exactly on the next sample; sampling instants are known in advance, so
no event detection is needed.  Each hold interval is integrated on
Python floats, calling a built-in drift's per-component ``f.rhs`` (any
other ``spec.f`` is called on 1-D arrays); the stages do the same IEEE
operations as numpy arithmetic on the state vectors would, so they give
the same bits.  A trajectory keeps its flow records as columns
(:class:`FlowRecords`), one row per record.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .engine import (
    REGION_TOL_REL,
    WINDOW_BOUND,
    RegionEscapeError,
    StcConfig,
    eta_initial,
    stc_step,
    t_min_of,
)
from .timing import phi_solve, solve_lambda_for_horizon, t_max

__all__ = [
    "IntegrationBlowupError",
    "Sample",
    "FlowRecords",
    "MonitorRecord",
    "HybridTrajectory",
    "simulate",
    "simulate_periodic",
    "monitor_flow_bound",
    "monitor_sample_decrease",
    "run_monitors",
    "write_trajectory_csv",
    "write_decisions_csv",
    "write_monitors_csv",
]

MON_TOL = 1e-7
FLOW_RECORD_TARGET = 64  # dense records per segment before striding


class IntegrationBlowupError(RuntimeError):
    """Non-finite state encountered during flow integration."""


@dataclass(frozen=True)
class Sample:
    t: float
    j: int
    x: np.ndarray
    v: float
    eta: tuple


@dataclass(frozen=True)
class FlowRecords:
    """Flow records as columns: times t, jump counters j, states x (N x n), V and U."""
    t: np.ndarray
    j: np.ndarray
    x: np.ndarray
    v: np.ndarray
    u: np.ndarray

    def __len__(self):
        return len(self.t)

    def rows(self, lo, hi):
        """Records lo..hi-1, as columns."""
        return FlowRecords(self.t[lo:hi], self.j[lo:hi], self.x[lo:hi],
                           self.v[lo:hi], self.u[lo:hi])


@dataclass(frozen=True)
class MonitorRecord:
    monitor: str
    j: int
    slack: float
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class HybridTrajectory:
    samples: tuple
    decisions: tuple
    flow_points: FlowRecords
    monitors: tuple = ()
    kind: str = "dynamic"
    period: float | None = None

    def intervals(self):
        return [s2.t - s1.t for s1, s2 in zip(self.samples, self.samples[1:])]

    def n_samples_before(self, t_lim: float) -> int:
        return sum(1 for s in self.samples if s.t < t_lim)

    def violations(self):
        return [r for r in self.monitors if not r.passed]


def _point_rhs(f):
    """One point's drift on floats: a built-in's ``f.rhs``, else ``f`` on 1-D arrays."""
    rhs = getattr(f, "rhs", None)
    if rhs is None:
        def rhs(*xe):
            n = len(xe) // 2
            return np.asarray(f(np.array(xe[:n]), np.array(xe[n:])), dtype=float).tolist()
    return rhs


def _rk4_segment(spec, x_hold, h, dt_flow):
    """Integrate one hold interval; returns node states and offsets.

    All RK4 stages see the reconstructed error e = x_hold - x_stage.
    """
    n_full = int(h / dt_flow)
    rem = h - n_full * dt_flow
    steps = [dt_flow] * n_full
    if rem > 1e-12 * h:
        steps.append(rem)
    elif steps:
        steps[-1] += rem
    else:
        steps = [h]
    rhs = _point_rhs(spec.f)
    xh = x_hold.tolist()
    x = xh
    rows = [x]
    for st in steps:
        hs = 0.5 * st
        k1 = rhs(*x, *[a - b for a, b in zip(xh, x)])
        y = [a + hs * b for a, b in zip(x, k1)]
        k2 = rhs(*y, *[a - b for a, b in zip(xh, y)])
        y = [a + hs * b for a, b in zip(x, k2)]
        k3 = rhs(*y, *[a - b for a, b in zip(xh, y)])
        y = [a + st * b for a, b in zip(x, k3)]
        k4 = rhs(*y, *[a - b for a, b in zip(xh, y)])
        s6 = st / 6.0
        x = [a + s6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]
        rows.append(x)
    taus = np.concatenate([[0.0], np.cumsum(steps)])
    taus[-1] = h
    return np.array(rows), taus


def _flow(spec, x_hold, h, dt_flow, c, t_start, j, cert=None):
    """Flow one hold interval from x_hold; returns (end state, V at nodes, records).

    Raises on a non-finite node or on V above c + tolerance.  The records
    (columns t, j, x, V, U) keep every stride-th node plus the last one;
    with cert = (gamma, lambda_cap) they carry U = V + gamma*phi(tau)*W(e)^2,
    otherwise U is NaN.
    """
    xs, taus = _rk4_segment(spec, x_hold, h, dt_flow)
    if not np.all(np.isfinite(xs)):
        bad = int(np.nonzero(~np.all(np.isfinite(xs), axis=-1))[0][0])
        raise IntegrationBlowupError(
            f"non-finite state at t = {t_start + taus[bad]:.6g}")
    vs = np.asarray(spec.v(xs), dtype=float)
    lim = c * (1.0 + REGION_TOL_REL)
    if np.any(vs > lim):
        bad = int(np.nonzero(vs > lim)[0][0])
        raise RegionEscapeError(
            f"V = {vs[bad]:.6g} left the region level c = {c:.6g} "
            f"at t = {t_start + taus[bad]:.6g}",
            t=float(t_start + taus[bad]), x=xs[bad].copy(), v=float(vs[bad]))
    if cert is None:
        us = np.full(len(taus), math.nan)
    else:
        gamma, lam_cap = cert
        w = np.linalg.norm(x_hold - xs, axis=-1)
        phi = phi_solve(solve_lambda_for_horizon(h, gamma, lam_cap), gamma, lam_cap)
        us = vs + gamma * phi.evaluate(taus) * w * w
    stride = max(1, int((len(taus) - 1) / FLOW_RECORD_TARGET))
    idx = list(range(0, len(taus) - 1, stride)) + [len(taus) - 1]
    records = (t_start + taus[idx], np.full(len(idx), j), xs[idx], vs[idx], us[idx])
    return xs[-1], vs, records


def _flow_records(segments, n):
    """One trajectory's records: each segment's columns, concatenated."""
    if not segments:
        return FlowRecords(np.empty(0), np.empty(0, dtype=int), np.empty((0, n)),
                           np.empty(0), np.empty(0))
    return FlowRecords(*(np.concatenate(col) for col in zip(*segments)))


def _check_x0(x0, spec):
    x = np.asarray(x0, dtype=float)
    if x.shape != (spec.n_x,) or not np.all(np.isfinite(x)):
        raise ValueError(f"x0 must be a finite vector of shape ({spec.n_x},)")
    return x


def _check_t_end(t_end):
    if not (0.0 <= t_end < math.inf):
        raise ValueError("t_end must be finite and non-negative")


def simulate(x0, cfg: StcConfig, spec, t_end: float, dt_flow: float | None = None,
             monitors: bool = True) -> HybridTrajectory:
    """Run the dynamic mechanism from x0 until the first sample >= t_end.

    cfg.c may not exceed spec.region_c, the level the certificates hold on.
    """
    if cfg.c > spec.region_c:
        raise ValueError(f"c = {cfg.c:.6g} exceeds the verified level {spec.region_c:.6g}")
    tmin = t_min_of(cfg)
    if dt_flow is None:
        dt_flow = tmin / 32.0
    if not (0.0 < dt_flow <= tmin / 16.0):
        raise ValueError(f"dt_flow must lie in (0, t_min/16] = (0, {tmin / 16.0:.6g}]")
    _check_t_end(t_end)
    x = _check_x0(x0, spec)
    dyn = eta_initial(cfg.m, float(spec.v(x)), cfg.eta_init)
    t = 0.0
    samples, decisions, segments = [], [], []
    while True:
        dec, dyn = stc_step(x, dyn, cfg, spec)
        j = len(decisions) + 1
        decisions.append(dec)
        samples.append(Sample(t=t, j=j, x=x.copy(), v=dec.v_now, eta=dyn.eta))
        if t >= t_end:
            break
        cert = (cfg.family.sets[dec.set_index].gamma, dec.lambda_cap_used)
        x, _, records = _flow(spec, x, dec.h, dt_flow, cfg.c, t, j, cert)
        segments.append(records)
        t += dec.h
    traj = HybridTrajectory(samples=tuple(samples), decisions=tuple(decisions),
                            flow_points=_flow_records(segments, spec.n_x))
    if monitors:
        traj = HybridTrajectory(samples=traj.samples, decisions=traj.decisions,
                                flow_points=traj.flow_points,
                                monitors=tuple(run_monitors(traj, cfg)))
    return traj


def simulate_periodic(x0, spec, period: float, t_end: float,
                      dt_flow: float | None = None) -> HybridTrajectory:
    """Constant-interval baseline on {V <= spec.region_c}, same flow/jump machinery."""
    if not (0.0 < period < math.inf):
        raise ValueError("period must be positive and finite")
    _check_t_end(t_end)
    c = spec.region_c
    if dt_flow is None:
        dt_flow = period / 32.0
    if not (0.0 < dt_flow <= period / 16.0):
        raise ValueError("dt_flow must lie in (0, period/16]")
    x = _check_x0(x0, spec)
    t = 0.0
    samples, segments = [], []
    monitors = []
    while True:
        j = len(samples) + 1
        v = float(spec.v(x))
        if v > c * (1.0 + REGION_TOL_REL):
            raise RegionEscapeError(
                f"V = {v:.6g} exceeds c = {c:.6g} at sample t = {t:.6g}",
                t=t, x=x.copy(), v=v)
        samples.append(Sample(t=t, j=j, x=x.copy(), v=v, eta=()))
        if t >= t_end:
            break
        x, vs, records = _flow(spec, x, period, dt_flow, c, t, j)
        segments.append(records)
        monitors.append(MonitorRecord(
            monitor="region", j=j,
            slack=float(c * (1.0 + REGION_TOL_REL) - np.max(vs)), passed=True))
        t += period
    return HybridTrajectory(samples=tuple(samples), decisions=(),
                            flow_points=_flow_records(segments, spec.n_x),
                            monitors=tuple(monitors), kind="periodic",
                            period=period)


def monitor_flow_bound(seg: FlowRecords, dec, gamma, l_const, v_plus,
                       t_start) -> MonitorRecord:
    """Check V <= U <= exp(rate*tau)*V(t_j+) on one segment's records.

    rate = max{-eps_i, 2(L_i - Lambda_i)} from the hybrid Lyapunov bound.
    When the issued interval is not below the horizon t_max (cannot
    happen for trigger output, but callers may fabricate decisions) the
    monitor reports itself inapplicable instead of failing.
    """
    j = int(seg.j[0])
    if dec.h >= t_max(gamma, dec.lambda_cap_used):
        return MonitorRecord(monitor="flow-bound", j=j, slack=math.nan,
                             passed=True, note="inapplicable: h >= t_max")
    rate = max(-dec.epsilon, 2.0 * (l_const - dec.lambda_cap_used))
    us, vs = seg.u, seg.v
    env = np.exp(rate * (seg.t - t_start)) * v_plus
    slack_env = env - us
    slack_vu = us - vs
    ok = np.all(us <= env + MON_TOL * (1.0 + np.abs(env))) and \
        np.all(vs <= us + MON_TOL * (1.0 + np.abs(us)))
    return MonitorRecord(monitor="flow-bound", j=j,
                         slack=float(min(slack_env.min(), slack_vu.min())),
                         passed=bool(ok))


def monitor_sample_decrease(traj: HybridTrajectory, cfg: StcConfig):
    """Certificate checks across consecutive samples.

    Emits one record per sample pair for the decision's own bound, the
    combined bound with rate min{eps_1, eps_ref}, the running cap
    V(t_j) <= max{V(t_0), eta(t_0)}, and a conservative windowed
    envelope contracting once per full window of m samples.
    """
    records = []
    if not traj.samples:
        return records
    tmin = t_min_of(cfg)
    eps1 = cfg.family.fallback.epsilon
    eps_tilde = min(eps1, cfg.eps_ref)
    v0 = traj.samples[0].v
    eta0 = eta_initial(cfg.m, v0, cfg.eta_init).eta
    m0 = max([v0] + list(eta0))
    for k in range(len(traj.samples) - 1):
        dec = traj.decisions[k]
        v_next = traj.samples[k + 1].v
        if dec.bound_type == WINDOW_BOUND:
            bound = math.exp(-cfg.eps_ref * dec.h) * dec.c_val
        else:
            bound = math.exp(-eps1 * dec.h) * dec.v_now
        records.append(MonitorRecord(
            monitor="sample-decrease", j=k + 1, slack=float(bound - v_next),
            passed=bool(v_next <= bound + MON_TOL * (1.0 + bound))))
        eta_pre = traj.samples[k - 1].eta if k > 0 else eta0
        comb = math.exp(-eps_tilde * tmin) * max([dec.v_now] + list(eta_pre))
        records.append(MonitorRecord(
            monitor="combined-decrease", j=k + 1, slack=float(comb - v_next),
            passed=bool(v_next <= comb + MON_TOL * (1.0 + comb))))
    for k, smp in enumerate(traj.samples):
        records.append(MonitorRecord(
            monitor="running-cap", j=smp.j, slack=float(m0 - smp.v),
            passed=bool(smp.v <= m0 + MON_TOL * (1.0 + m0))))
        depth = max(0, k - cfg.m) / cfg.m
        env = math.exp(-eps_tilde * tmin * depth) * m0
        records.append(MonitorRecord(
            monitor="window-envelope", j=smp.j, slack=float(env - smp.v),
            passed=bool(smp.v <= env + MON_TOL * (1.0 + env))))
    return records


def run_monitors(traj: HybridTrajectory, cfg: StcConfig):
    """All monitor records for a dynamic trajectory."""
    records = []
    fp = traj.flow_points
    # segment j = k + 1 holds records edges[k]..edges[k + 1] - 1 (j is sorted)
    edges = np.searchsorted(fp.j, np.arange(1, len(traj.decisions) + 2)).tolist()
    lim = cfg.c * (1.0 + REGION_TOL_REL)
    for k, dec in enumerate(traj.decisions):
        if edges[k] == edges[k + 1]:
            continue
        seg = fp.rows(edges[k], edges[k + 1])
        ps = cfg.family.sets[dec.set_index]
        records.append(monitor_flow_bound(seg, dec, ps.gamma, ps.l_const,
                                          traj.samples[k].v, traj.samples[k].t))
        vmax = seg.v.max()
        records.append(MonitorRecord(monitor="region", j=k + 1,
                                     slack=float(lim - vmax),
                                     passed=bool(vmax <= lim)))
    records.extend(monitor_sample_decrease(traj, cfg))
    return records


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_rows(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_trajectory_csv(path, traj: HybridTrajectory) -> None:
    """One row per flow record, streamed; the same bytes as :func:`_write_rows`."""
    fp = traj.flow_points
    n = fp.x.shape[1] if len(fp) else 0
    header = ["t", "j"] + [f"x{i + 1}" for i in range(n)] + \
        ["V", "U", "interval", "set_index", "used_fallback"]
    if traj.kind == "periodic":
        tails = [(traj.period, -1, False)] * len(traj.samples)
    else:
        tails = [(d.h, d.set_index, d.used_fallback) for d in traj.decisions]
    tails = [",".join(_fmt(v) for v in tail) for tail in tails]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for t, j, x, v, u in zip(fp.t.tolist(), fp.j.tolist(), fp.x.tolist(),
                                 fp.v.tolist(), fp.u.tolist()):
            xs = ",".join(map(repr, x))
            fh.write(f"{t!r},{j},{xs},{v!r},{u!r},{tails[j - 1]}\n")


def write_decisions_csv(path, traj: HybridTrajectory) -> None:
    header = ["j", "t", "h", "set_index", "epsilon", "used_fallback", "V", "C"]
    rows = [[s.j, s.t, d.h, d.set_index, d.epsilon, d.used_fallback,
             d.v_now, d.c_val] for s, d in zip(traj.samples, traj.decisions)]
    _write_rows(path, header, rows)


def write_monitors_csv(path, traj: HybridTrajectory) -> None:
    header = ["monitor", "j", "slack", "passed"]
    rows = [[r.monitor, r.j, r.slack, r.passed] for r in traj.monitors]
    _write_rows(path, header, rows)
