"""Hybrid simulation of the sampled-data loop with proof-derived monitors.

Between samples the state flows under x' = f(x, e(t)) with the hold
error reconstructed exactly as e(t) = x(t_j) - x(t); at each scheduled
instant a jump fires: the trigger of :mod:`dynstc.engine`, or a fixed
period for the baseline, in one sampling loop.  There is a jump at t = 0,
so sample k lives at hybrid time (t_k, k+1).  A trigger decision carries
the (epsilon, gamma, L) set that issued it; flow records and monitors
read their certificate from the decision, never from the family.

Every run can be checked against the inequalities that back the design:

* flow bound:  V(x(t)) <= U(xi(t)) <= exp(rate*(t - t_j)) * V(t_j+)
  along each segment, where U = V + gamma*phi(tau)*W^2 with W = ||e||,
  and phi is the comparison-ODE solution pinned to the issued interval;
* sample decrease: the certificate recorded with each decision
  (window bound or fall-back decrease), their combination with
  rate min{eps_1, eps_ref}, a running cap, and a windowed geometric
  envelope, from the samples' V alone (no sample keeps the register: the
  window bounds take the last m V's under any ``stc.eta_init``);
* region invariance: V <= c (plus tolerance) at every flow node, the
  loop's escape rule.

One bound rule makes every other record, each flow-bound record a check:
value <= bound + tol*(1 + |bound|), with slack min(bound - value).

Integration is fixed-step RK4 with the last step shortened to land
exactly on the next sample; sampling instants are known in advance, so
no event detection is needed.  Each hold interval is integrated on
Python floats by one straight-line stepper per state dimension n,
generated and compiled once per n: every component of every stage is a
scalar local, so a step builds no list.  It calls a built-in drift's
per-component ``f.rhs``; any other ``spec.f`` is called on 1-D arrays
through the adapter ``systems.component_rhs`` (so a ``perfbench
--trace 1`` run, whose ``spec.f`` wrapper has no ``rhs``, integrates
through it, and its L2 self times understate the stepper's saving).
Each stage computes x_i + hs*k_i, xh_i - y_i and
x_i + s6*(k1_i + 2.0*k2_i + 2.0*k3_i + k4_i), the same IEEE operations
in the same order as numpy arithmetic on the state vectors, so every
node state has the same bits.  A trajectory keeps its
flow records as columns (:class:`FlowRecords`), one row per record.  The
CSV writers convert one flow segment's records (trajectory) or one row
(monitors, decisions) to Python objects at a time, never a whole run's.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .engine import (
    REGION_TOL_REL,
    RegionEscapeError,
    StcConfig,
    eta_initial,
    stc_step,
    t_min_of,
)
from .systems import component_rhs
from .timing import phi_solve, solve_lambda_for_horizon

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
        """Records lo..hi - 1, as views of these columns."""
        return FlowRecords(self.t[lo:hi], self.j[lo:hi], self.x[lo:hi], self.v[lo:hi],
                           self.u[lo:hi])


@dataclass(frozen=True)
class MonitorRecord:
    monitor: str
    j: int
    slack: float
    passed: bool


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


@functools.cache
def _stepper(n):
    """RK4 over a list of steps for state dimension n, one scalar local per component.

    ``stepper(rhs, xh, steps)`` starts from the hold state xh (a list of
    n floats) and returns the node states, xh first.  The source is
    generated once per n: each stage's error xh_i - y_i, stage state
    x_i + hs*k_i and update x_i + s6*(k1_i + 2.0*k2_i + 2.0*k3_i + k4_i)
    is one expression on floats, in the order numpy would evaluate the
    same expressions on vectors.
    """
    def seq(fmt):  # "x1, x2, .., xn" for fmt "x{i}"
        return ", ".join(fmt.format(i=i) for i in range(1, n + 1))

    def stage(k, y):
        return f"        {seq(k + '{i}')}, = rhs({seq(y + '{i}')}, {seq('h{i} - ' + y + '{i}')})\n"

    def assign(target, fmt):
        return "".join(f"        {target}{i} = {fmt.format(i=i)}\n" for i in range(1, n + 1))

    src = (
        "def stepper(rhs, xh, steps):\n"
        f"    {seq('h{i}')}, = xh\n"
        f"    {seq('x{i}')}, = xh\n"
        "    rows = [xh]\n"
        "    for st in steps:\n"
        "        hs = 0.5 * st\n"
        + stage("a", "x") + assign("y", "x{i} + hs * a{i}")
        + stage("b", "y") + assign("y", "x{i} + hs * b{i}")
        + stage("c", "y") + assign("y", "x{i} + st * c{i}")
        + stage("d", "y")
        + "        s6 = st / 6.0\n"
        + assign("x", "x{i} + s6 * (a{i} + 2.0 * b{i} + 2.0 * c{i} + d{i})")
        + f"        rows.append(({seq('x{i}')},))\n"
        "    return rows\n"
    )
    scope = {}
    exec(compile(src, f"<dynstc.sim RK4 stepper, n = {n}>", "exec"), scope)
    return scope["stepper"]


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
    rows = _stepper(len(x_hold))(component_rhs(spec), x_hold.tolist(), steps)
    taus = np.concatenate([[0.0], np.cumsum(steps)])
    taus[-1] = h
    return np.array(rows), taus


def _flow(spec, x_hold, h, dt_flow, c, t_start, j, dec=None):
    """Flow one hold interval from x_hold; returns (end state, records).

    Raises on a non-finite node or on V above c + tolerance.  The records
    (columns t, j, x, V, U) keep every stride-th node plus the last one;
    for a trigger decision dec they carry U = V + gamma*phi(tau)*W(e)^2
    with its set's gamma and rate cap, otherwise U is NaN.
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
    if dec is None:
        us = np.full(len(taus), math.nan)
    else:
        gamma, lam_cap = dec.params.gamma, dec.lambda_cap_used
        w = np.linalg.norm(x_hold - xs, axis=-1)
        phi = phi_solve(solve_lambda_for_horizon(h, gamma, lam_cap), gamma, lam_cap)
        us = vs + gamma * phi.evaluate(taus) * w * w
    stride = max(1, int((len(taus) - 1) / FLOW_RECORD_TARGET))
    idx = list(range(0, len(taus) - 1, stride)) + [len(taus) - 1]
    records = (t_start + taus[idx], np.full(len(idx), j), xs[idx], vs[idx], us[idx])
    return xs[-1], records


def _hybrid(x0, spec, c, h_min, t_end, dt_flow, jump) -> HybridTrajectory:
    """The sampling loop: jump at t = 0, then flow and jump until a sample >= t_end.

    ``jump(x)`` returns (h, decision or None, V(x)) at a sample.
    dt_flow defaults to h_min/32 and is at most h_min/16, h_min being the
    shortest interval the jump issues.
    """
    if not (0.0 <= t_end < math.inf):
        raise ValueError("t_end must be finite and non-negative")
    if dt_flow is None:
        dt_flow = h_min / 32.0
    if not (0.0 < dt_flow <= h_min / 16.0):
        raise ValueError(f"dt_flow must lie in (0, {h_min / 16.0:.6g}], "
                         "a 16th of the shortest interval")
    x = np.asarray(x0, dtype=float)
    if x.shape != (spec.n_x,) or not np.all(np.isfinite(x)):
        raise ValueError(f"x0 must be a finite vector of shape ({spec.n_x},)")
    v = float(spec.v(x))
    if v > c * (1.0 + REGION_TOL_REL):
        raise RegionEscapeError(f"V(x0) = {v:.6g} exceeds the region level c = {c:.6g}",
                                t=0.0, x=x.copy(), v=v)
    t = 0.0
    samples, decisions = [], []
    segments = [(np.empty(0), np.empty(0, dtype=int), np.empty((0, spec.n_x)),
                 np.empty(0), np.empty(0))]  # the columns' types, for a run without flow
    while True:
        h, dec, v = jump(x)
        j = len(samples) + 1
        samples.append(Sample(t=t, j=j, x=x.copy(), v=v))
        if dec is not None:
            decisions.append(dec)
        if t >= t_end:
            break
        x, records = _flow(spec, x, h, dt_flow, c, t, j, dec)
        segments.append(records)
        t += h
    fp = FlowRecords(*(np.concatenate(col) for col in zip(*segments)))
    return HybridTrajectory(samples=tuple(samples), decisions=tuple(decisions),
                            flow_points=fp)


def simulate(x0, cfg: StcConfig, spec, t_end: float,
             dt_flow: float | None = None) -> HybridTrajectory:
    """Run the dynamic mechanism from x0 until the first sample >= t_end.

    cfg.c may not exceed spec.region_c, the level the certificates hold on.
    """
    if cfg.c > spec.region_c:
        raise ValueError(f"c = {cfg.c:.6g} exceeds the verified level {spec.region_c:.6g}")
    dyn = None

    def jump(x):
        nonlocal dyn
        if dyn is None:  # the register starts from V(x0)
            dyn = eta_initial(cfg.m, float(spec.v(x)), cfg.eta_init)
        dec, dyn = stc_step(x, dyn, cfg, spec)
        return dec.h, dec, dec.v_now

    traj = _hybrid(x0, spec, cfg.c, t_min_of(cfg), t_end, dt_flow, jump)
    return replace(traj, monitors=tuple(run_monitors(traj, cfg)))


def simulate_periodic(x0, spec, period: float, t_end: float,
                      dt_flow: float | None = None) -> HybridTrajectory:
    """Constant-interval baseline on {V <= spec.region_c}, same flow/jump machinery."""
    if not (0.0 < period < math.inf):
        raise ValueError("period must be positive and finite")
    traj = _hybrid(x0, spec, spec.region_c, period, t_end, dt_flow,
                   lambda x: (period, None, float(spec.v(x))))
    return replace(traj, monitors=tuple(_region(seg, spec.region_c) for seg in _segments(traj)),
                   kind="periodic", period=period)


def _segments(traj: HybridTrajectory):
    """The records of each flown segment j = 1 .. len(samples) - 1, in order, one at a time.

    Of a row range of the records, a segment holds only its rows in the range.
    """
    # segment j = k + 1 holds records edges[k]..edges[k + 1] - 1 (j is sorted)
    fp = traj.flow_points
    edges = np.searchsorted(fp.j, np.arange(1, len(traj.samples) + 1))
    return (fp.rows(lo, hi) for lo, hi in zip(edges, edges[1:]))


def _region(seg: FlowRecords, c):
    """Region record of one segment: c + tolerance minus its largest recorded V."""
    lim = c * (1.0 + REGION_TOL_REL)
    vmax = seg.v.max()
    return MonitorRecord(monitor="region", j=int(seg.j[0]), slack=float(lim - vmax),
                         passed=bool(vmax <= lim))


def _bound(monitor, j, value, bound):
    """The one bound rule: value <= bound + MON_TOL*(1 + |bound|), slack min(bound - value).

    value and bound are floats, or equal-length tuples of columns, each
    value column checked against its bound column; the slack is the least
    column minimum, compared in column order (a tie of zeros keeps the first's sign).
    """
    if not isinstance(value, tuple):
        return MonitorRecord(monitor, j, float(bound - value),
                             bool(value <= bound + MON_TOL * (1.0 + abs(bound))))
    slack = min((b - v).min() for v, b in zip(value, bound))
    passed = all(np.all(v <= b + MON_TOL * (1.0 + np.abs(b))) for v, b in zip(value, bound))
    return MonitorRecord(monitor, j, float(slack), passed)


def monitor_flow_bound(seg: FlowRecords, dec, v_plus, t_start) -> MonitorRecord:
    """Check V <= U <= exp(rate*tau)*V(t_j+) on one segment's records.

    rate = max{-eps_i, 2(L_i - Lambda_i)} from the hybrid Lyapunov bound,
    with eps_i, L_i of the decision's set and Lambda_i its rate cap.
    Every segment is checked, both inequalities by the one bound rule.
    """
    ps = dec.params
    rate = max(-ps.epsilon, 2.0 * (ps.l_const - dec.lambda_cap_used))
    env = np.exp(rate * (seg.t - t_start)) * v_plus
    return _bound("flow-bound", int(seg.j[0]), (seg.u, seg.v), (env, seg.u))


def monitor_sample_decrease(traj: HybridTrajectory, cfg: StcConfig):
    """Certificate checks across consecutive samples, read from their V history.

    Emits one record per sample pair for the decision's own bound, the
    combined bound with rate min{eps_1, eps_ref} on max{V_max(0,k-m+1), ..,
    V_k}, the running cap V(t_j) <= V(t_0), and a conservative windowed
    envelope contracting once per full window of m samples.  Under either
    initial register those are the maxima of V_k with the register the
    trigger held and of V(t_0) with its first: a "v0" pad repeats V(t_0),
    a "zero" pad lies below every V.
    """
    records = []
    if not traj.samples:
        return records
    tmin = t_min_of(cfg)
    eps_tilde = min(cfg.family.fallback.epsilon, cfg.eps_ref)
    vs = [s.v for s in traj.samples]
    for k in range(len(vs) - 1):
        dec = traj.decisions[k]
        v_next = vs[k + 1]
        if dec.used_fallback:
            bound = math.exp(-dec.params.epsilon * dec.h) * dec.v_now
        else:
            bound = math.exp(-cfg.eps_ref * dec.h) * dec.c_val
        records.append(_bound("sample-decrease", k + 1, v_next, bound))
        comb = math.exp(-eps_tilde * tmin) * max(vs[max(0, k - cfg.m + 1):k + 1])
        records.append(_bound("combined-decrease", k + 1, v_next, comb))
    for k, smp in enumerate(traj.samples):
        records.append(_bound("running-cap", smp.j, smp.v, vs[0]))
        depth = max(0, k - cfg.m) / cfg.m
        env = math.exp(-eps_tilde * tmin * depth) * vs[0]
        records.append(_bound("window-envelope", smp.j, smp.v, env))
    return records


def run_monitors(traj: HybridTrajectory, cfg: StcConfig):
    """All monitor records for a dynamic trajectory."""
    records = []
    for smp, dec, seg in zip(traj.samples, traj.decisions, _segments(traj)):
        records.append(monitor_flow_bound(seg, dec, smp.v, smp.t))
        records.append(_region(seg, cfg.c))
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
    """One row per flow record, the same bytes as :func:`_write_rows`, one segment at a time.

    Each segment's columns become Python floats only while it is written,
    so the memory held beyond the records is one segment's, not one run's.
    Records of a row range (``FlowRecords.rows``) write that range's rows.
    """
    fp = traj.flow_points
    n = fp.x.shape[1]
    header = ["t", "j"] + [f"x{i + 1}" for i in range(n)] + \
        ["V", "U", "interval", "set_index", "used_fallback"]
    if traj.kind == "periodic":
        tails = itertools.repeat((traj.period, -1, False))
    else:
        tails = ((d.h, d.set_index, d.used_fallback) for d in traj.decisions)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for j, (seg, tail) in enumerate(zip(_segments(traj), tails), start=1):
            tail = ",".join(_fmt(v) for v in tail)
            for t, x, v, u in zip(seg.t.tolist(), seg.x.tolist(), seg.v.tolist(),
                                  seg.u.tolist()):
                xs = ",".join(map(repr, x))
                fh.write(f"{t!r},{j},{xs},{v!r},{u!r},{tail}\n")


def write_decisions_csv(path, traj: HybridTrajectory) -> None:
    header = ["j", "t", "h", "set_index", "epsilon", "used_fallback", "V", "C"]
    _write_rows(path, header, ([s.j, s.t, d.h, d.set_index, d.params.epsilon, d.used_fallback,
                                d.v_now, d.c_val] for s, d in zip(traj.samples, traj.decisions)))


def write_monitors_csv(path, traj: HybridTrajectory) -> None:
    header = ["monitor", "j", "slack", "passed"]
    _write_rows(path, header, ([r.monitor, r.j, r.slack, r.passed] for r in traj.monitors))
