"""Hybrid simulation of the sampled-data loop with proof-derived monitors.

Between samples the state flows under x' = f(x, e(t)) with the hold
error reconstructed exactly as e(t) = x(t_j) - x(t); at each scheduled
instant a jump fires: the trigger of :mod:`dynstc.engine`, or a fixed
period for the baseline, in one sampling loop.  There is a jump at t = 0,
so sample k lives at hybrid time (t_k, k+1).  Each sample row carries
the interval h it issued, the index of the (epsilon, gamma, L) set that
issued it (-1 in a periodic run) and the window average C (NaN in a
periodic run); flow records and monitors read each set's parameters from
the run's config (``traj.cfg``) by that index.

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
scalar local, and the nodes go into one flat list of floats, which
becomes one array per segment.  It calls a built-in drift's
per-component ``f.rhs``; any other ``spec.f`` is called on 1-D arrays
through the adapter ``systems.component_rhs`` (so a ``perfbench
--trace 1`` run, whose ``spec.f`` wrapper has no ``rhs``, integrates
through it, and its L2 self times understate the stepper's saving).
Each stage computes x_i + hs*k_i, xh_i - y_i and
x_i + s6*(k1_i + 2.0*k2_i + 2.0*k3_i + k4_i), the same IEEE operations
in the same order as numpy arithmetic on the state vectors, so every
node state has the same bits.

A run is three record arrays (``np.recarray``), each built once: its
samples (t, j, x, V, h, set_index, C), flow records (t, j, x, V, U) and
monitor records (monitor, j, slack, passed), with one array per field
(``traj.monitors.slack``) and one record per row (``traj.samples[k].t``).
The CSV writers read each field once and convert one flow segment
(trajectory), one sample (decisions) or ``BLOCK_RECORDS`` rows (monitors)
to Python objects at a time, never a whole run's.

Per segment the loop does only what the next jump and the escape rule
need: the RK4 nodes, the non-finite and V <= c*(1 + tolerance) checks,
and the sample row.  Each segment's comparison function
(``solve_lambda_for_horizon``, ``phi_solve``), U and the record columns,
then the flow-bound and region records, are computed once per block of
whole segments of at most ``BLOCK_RECORDS`` records (a longer segment is
a block of its own): elementwise numpy over the block and ``reduceat`` at
its segment edges, with the operations a segment alone would take, so
every record keeps its bits whatever the block size.

Per sample, the trigger takes log(C/V) once for all its sets and the
register shift checks only the V it appends; per segment, the offsets
are summed in step order and a segment of stride 1 keeps its nodes
without a copy; the sample monitors are columns over the samples.
"""

from __future__ import annotations

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
    set_lambda_cap,
    stc_step,
    t_min_of,
)
from .systems import component_rhs
from .timing import phi_solve, phi_values, solve_lambda_for_horizon

__all__ = [
    "IntegrationBlowupError",
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
# flow records whose U and flow and region monitors are evaluated at once; a
# block's temporaries grow the heap, and 4096 raised fleet's peak RSS by 0.3 MB
BLOCK_RECORDS = 1024
# the most samples a run may take: a million keep about 3 GB of flow records
MAX_SAMPLES = 10 ** 6
# the fields of a monitor record; "combined-decrease" is the longest name
_MONITOR = [("monitor", "U17"), ("j", int), ("slack", float), ("passed", bool)]


class IntegrationBlowupError(RuntimeError):
    """A non-finite state during flow integration, or a non-finite U on a triggered flow.

    U is not finite where the comparison function of a segment's interval
    and set overflows, as it does for a gamma near 1e150.
    """


@dataclass(frozen=True)
class HybridTrajectory:
    """A run as record arrays, with the trigger config that issued it (None: periodic).

    samples has the fields t, j, x (n,), v, h, set_index and c_val;
    flow_points t, j, x, v and u; monitors monitor, j, slack and passed.
    """
    samples: np.recarray
    flow_points: np.recarray
    monitors: np.recarray | None = None  # set by simulate and simulate_periodic
    cfg: StcConfig | None = None

    @property
    def kind(self) -> str:
        return "periodic" if self.cfg is None else "dynamic"

    def intervals(self):
        return np.diff(self.samples.t).tolist()

    def n_samples_before(self, t_lim: float) -> int:
        return int(np.count_nonzero(self.samples.t < t_lim))

    def violations(self):
        """The monitor records that failed, as a list of rows."""
        return list(self.monitors[~self.monitors.passed])


@functools.cache
def _stepper(n):
    """RK4 over a list of steps for state dimension n, one scalar local per component.

    ``stepper(rhs, xh, steps)`` starts from the hold state xh (a list of
    n floats) and returns the node states as one flat list of floats, n
    per node, xh first.  The source is
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
        "    rows = list(xh)\n"
        "    for st in steps:\n"
        "        hs = 0.5 * st\n"
        + stage("a", "x") + assign("y", "x{i} + hs * a{i}")
        + stage("b", "y") + assign("y", "x{i} + hs * b{i}")
        + stage("c", "y") + assign("y", "x{i} + st * c{i}")
        + stage("d", "y")
        + "        s6 = st / 6.0\n"
        + assign("x", "x{i} + s6 * (a{i} + 2.0 * b{i} + 2.0 * c{i} + d{i})")
        + f"        rows += {seq('x{i}')},\n"
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
    else:  # for h > 0, rem = h > 1e-12*h when there is no full step
        steps[-1] += rem
    n = len(x_hold)
    rows = _stepper(n)(component_rhs(spec), x_hold.tolist(), steps)
    # the offsets summed in step order, as np.cumsum would
    taus = np.fromiter(itertools.accumulate(steps, initial=0.0), float, len(steps) + 1)
    taus[-1] = h
    return np.array(rows).reshape(-1, n), taus


def _flow(spec, x_hold, h, dt_flow, c, t_start):
    """Flow one hold interval from x_hold; returns (end state, offsets, states, V).

    Raises on a non-finite node or on V above c + tolerance.  Of the
    nodes it keeps every stride-th plus the last one (at stride 1 all of
    them, as integrated, with no copy), their offsets tau from t_start,
    states and V; :func:`_columns` makes them flow records.
    """
    xs, taus = _rk4_segment(spec, x_hold, h, dt_flow)
    if not np.isfinite(xs).all():
        bad = int(np.nonzero(~np.all(np.isfinite(xs), axis=-1))[0][0])
        raise IntegrationBlowupError(
            f"non-finite state at t = {t_start + taus[bad]:.6g}")
    vs = np.asarray(spec.v(xs), dtype=float)
    lim = c * (1.0 + REGION_TOL_REL)
    if (vs > lim).any():
        bad = int(np.nonzero(vs > lim)[0][0])
        raise RegionEscapeError(
            f"V = {vs[bad]:.6g} left the region level c = {c:.6g} "
            f"at t = {t_start + taus[bad]:.6g}",
            t=float(t_start + taus[bad]), x=xs[bad].copy(), v=float(vs[bad]))
    stride = max(1, int((len(taus) - 1) / FLOW_RECORD_TARGET))
    if stride == 1:
        return xs[-1], taus, xs, vs
    idx = list(range(0, len(taus) - 1, stride)) + [len(taus) - 1]
    return xs[-1], taus[idx], xs[idx], vs[idx]


def _blocks(edges):
    """Ranges (k0, k1) of whole segments, segment k holding rows edges[k]..edges[k + 1] - 1.

    A range holds at most BLOCK_RECORDS rows, or is one longer segment.
    """
    k0, last = 0, len(edges) - 1
    while k0 < last:
        k1 = max(k0 + 1, int(np.searchsorted(edges, edges[k0] + BLOCK_RECORDS, "right")) - 1)
        yield k0, k1
        k0 = k1


def _columns(samples, flows, cfg) -> np.recarray:
    """The flow records of the segments flows[k] = (offsets, states, V) of samples[k].

    U = V + gamma*phi(tau)*W(e)^2 with the comparison function of segment
    k's interval h and set (NaN in a periodic run, cfg None), computed for
    one block of whole segments at a time, so the temporaries are one block's.
    Raises IntegrationBlowupError at the first segment whose U is not finite.
    """
    counts = np.array([len(tau) for tau, _, _ in flows], dtype=int)
    edges = np.concatenate([[0], np.cumsum(counts)])
    fp = np.recarray(edges[-1], samples.dtype.descr[:4] + [("u", float)])
    t, j, x, v, u = (fp[name] for name in fp.dtype.names)
    j[:] = np.repeat(np.arange(1, len(counts) + 1), counts)
    u[:] = math.nan
    t_hold, x_hold, h, set_index = samples.t, samples.x, samples.h, samples.set_index
    # each set's (gamma, rate cap), the pair the trigger puts into its decisions
    sets = [] if cfg is None else [(ps.gamma, set_lambda_cap(cfg, i))
                                   for i, ps in enumerate(cfg.family.sets)]
    for k0, k1 in _blocks(edges):
        rows, n = slice(edges[k0], edges[k1]), counts[k0:k1]
        taus, xs, vs = zip(*flows[k0:k1])
        tau = np.concatenate(taus)
        np.add(np.repeat(t_hold[k0:k1], n), tau, out=t[rows])
        np.concatenate(xs, out=x[rows])
        np.concatenate(vs, out=v[rows])
        if cfg is not None:
            phis = [phi_solve(solve_lambda_for_horizon(hk, *sets[i]), *sets[i])
                    for hk, i in zip(h[k0:k1].tolist(), set_index[k0:k1].tolist())]
            lam, gamma, cap, horizon = (
                np.repeat([getattr(phi, f) for phi in phis], n)
                for f in ("lam", "gamma", "lambda_cap", "horizon"))
            w = np.linalg.norm(np.repeat(x_hold[k0:k1], n, axis=0) - x[rows], axis=-1)
            with np.errstate(over="ignore", invalid="ignore"):  # reported below
                np.add(v[rows], gamma * phi_values(tau, lam, gamma, cap, horizon) * w * w,
                       out=u[rows])
            bad = np.flatnonzero(~np.isfinite(u[rows]))
            if len(bad):
                raise IntegrationBlowupError(
                    f"U is not finite on segment {j[rows][bad[0]]}: the comparison "
                    "function of its interval and set overflows")
    return fp


def _hybrid(x0, spec, cfg, c, h_min, t_end, dt_flow, jump) -> HybridTrajectory:
    """The sampling loop: jump at t = 0, then flow and jump until a sample >= t_end.

    ``jump(x)`` returns (h, set_index, C, V(x)) at a sample, each a field
    of its sample row.  dt_flow defaults to h_min/32 and is at most
    h_min/16, h_min being the shortest interval the jump issues, and
    t_end/h_min is below MAX_SAMPLES.  cfg is the trigger config, None in a
    periodic run.
    """
    if not (0.0 <= t_end < math.inf):
        raise ValueError("t_end must be finite and non-negative")
    if dt_flow is None:
        dt_flow = h_min / 32.0
    if not (0.0 < dt_flow <= h_min / 16.0):
        raise ValueError(f"dt_flow must lie in (0, {h_min / 16.0:.6g}], "
                         "a 16th of the shortest interval")
    if not t_end / h_min < MAX_SAMPLES:
        raise ValueError(f"t_end = {t_end:.6g} s takes up to {t_end / h_min:.6g} samples of "
                         f"{h_min:.6g} s; a run takes fewer than {MAX_SAMPLES}")
    x = np.asarray(x0, dtype=float)
    if x.shape != (spec.n_x,) or not np.all(np.isfinite(x)):
        raise ValueError(f"x0 must be a finite vector of shape ({spec.n_x},)")
    v = float(spec.v(x))
    if v > c * (1.0 + REGION_TOL_REL):
        raise RegionEscapeError(f"V(x0) = {v:.6g} exceeds the region level c = {c:.6g}",
                                t=0.0, x=x.copy(), v=v)
    t = 0.0
    rows, flows = [], []  # per sample its row, per segment its kept nodes
    while True:
        h, i, c_val, v = jump(x)
        # a copy: a view would keep its segment's nodes alive
        rows.append((t, len(rows) + 1, x.copy(), v, h, i, c_val))
        if t >= t_end:
            break
        x, *kept = _flow(spec, x, h, dt_flow, c, t)
        flows.append(kept)
        t += h
    samples = np.rec.array(rows, dtype=[
        ("t", float), ("j", int), ("x", float, (spec.n_x,)), ("v", float),
        ("h", float), ("set_index", int), ("c_val", float)])
    del rows  # released before the flow records are built
    return HybridTrajectory(samples, _columns(samples, flows, cfg), cfg=cfg)


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
        return dec.h, dec.set_index, dec.c_val, dec.v_now

    traj = _hybrid(x0, spec, cfg, cfg.c, t_min_of(cfg), t_end, dt_flow, jump)
    return replace(traj, monitors=run_monitors(traj, cfg))


def simulate_periodic(x0, spec, period: float, t_end: float,
                      dt_flow: float | None = None) -> HybridTrajectory:
    """Constant-interval baseline on {V <= spec.region_c}, same flow/jump machinery."""
    if not (0.0 < period < math.inf):
        raise ValueError("period must be positive and finite")
    traj = _hybrid(x0, spec, None, spec.region_c, period, t_end, dt_flow,
                   lambda x: (period, -1, math.nan, float(spec.v(x))))
    monitors = _joined(*(_regions(recs, starts, spec.region_c)
                         for recs, starts, _, _ in _segment_blocks(traj)))
    return replace(traj, monitors=monitors)


def _edges(traj: HybridTrajectory):
    """Segment j = k + 1 holds records edges[k]..edges[k + 1] - 1 (j is sorted)."""
    return np.searchsorted(traj.flow_points.j, np.arange(1, len(traj.samples) + 1))


def _segment_blocks(traj: HybridTrajectory):
    """Blocks of whole flown segments: (records, starts, k0, k1) for segments k0 + 1 .. k1.

    records are the block's rows, as views, and starts[k] the first row of
    its k-th segment.
    """
    edges = _edges(traj)
    for k0, k1 in _blocks(edges):
        yield traj.flow_points[edges[k0]:edges[k1]], edges[k0:k1] - edges[k0], k0, k1


def _records(monitor, js, slack, passed):
    """The monitor records of the columns js, slack and passed, each named monitor."""
    return np.rec.fromarrays([np.full(len(js), monitor), js, slack, passed], dtype=_MONITOR)


def _joined(*items):
    """The monitor records of items in CSV order, a pair (a, b) as a[0], b[0], a[1], .. ."""
    return np.concatenate([np.empty(0, _MONITOR)] + [
        np.stack(item, axis=-1).ravel() if isinstance(item, tuple) else item
        for item in items]).view(np.recarray)


def _regions(recs, starts, c):
    """Region record of each segment: c + tolerance minus its largest recorded V."""
    lim = c * (1.0 + REGION_TOL_REL)
    vmax = np.maximum.reduceat(recs.v, starts)
    return _records("region", recs.j[starts], lim - vmax, vmax <= lim)


def _within(value, bound):
    """The one bound rule's verdict, value <= bound + MON_TOL*(1 + |bound|), elementwise."""
    return value <= bound + MON_TOL * (1.0 + abs(bound))


def _bounds(monitor, js, value, bound):
    """The one bound rule, :func:`_within`, on columns: one record per row, slack bound - value."""
    return _records(monitor, js, bound - value, _within(value, bound))


def _rate(ps, lambda_cap):
    """The flow-bound rate max{-eps_i, 2(L_i - Lambda_i)} of set ps at its rate cap."""
    return max(-ps.epsilon, 2.0 * (ps.l_const - lambda_cap))


def _flow_bounds(recs, starts, rate, v_plus, t_start):
    """Flow-bound record of each segment k of a block, from its rate[k], v_plus[k] and t_start[k].

    Checks U <= exp(rate*tau)*V(t_j+) and V <= U on each record by the
    one bound rule.  The slack is the least of the two columns' minima,
    compared in column order (a tie of zeros keeps the first's sign).
    """
    n = np.diff(starts, append=len(recs))
    env = np.exp(np.repeat(rate, n) * (recs.t - np.repeat(t_start, n))) * np.repeat(v_plus, n)
    slack_env = np.minimum.reduceat(env - recs.u, starts)
    slack_vu = np.minimum.reduceat(recs.u - recs.v, starts)
    slack = np.where(slack_vu < slack_env, slack_vu, slack_env)
    ok = _within(recs.u, env) & _within(recs.v, recs.u)
    return _records("flow-bound", recs.j[starts], slack, np.logical_and.reduceat(ok, starts))


def monitor_flow_bound(seg, dec, v_plus, t_start):
    """Check V <= U <= exp(rate*tau)*V(t_j+) on one segment's records.

    rate = max{-eps_i, 2(L_i - Lambda_i)} from the hybrid Lyapunov bound,
    with eps_i, L_i of the decision's set and Lambda_i its rate cap.
    Every segment is checked, both inequalities by the one bound rule;
    this is the one-segment case of the block check runs use.
    """
    return _flow_bounds(seg, np.zeros(1, dtype=int), [_rate(dec.params, dec.lambda_cap_used)],
                        [v_plus], [t_start])[0]


def monitor_sample_decrease(traj: HybridTrajectory, cfg: StcConfig):
    """Certificate checks across consecutive samples, read from their V history.

    Emits one record per sample pair for the decision's own bound, the
    combined bound with rate min{eps_1, eps_ref} on max{V_max(0,k-m+1), ..,
    V_k}, the running cap V(t_j) <= V(t_0), and a conservative windowed
    envelope contracting once per full window of m samples.  Under either
    initial register those are the maxima of V_k with the register the
    trigger held and of V(t_0) with its first: a "v0" pad repeats V(t_0),
    a "zero" pad lies below every V.  The bounds are columns over the
    samples, each exponential a ``math.exp`` (``np.exp`` differs from it
    in the last bit on some arguments).  A sample's own bound reads its h,
    set_index, V and C.
    """
    if not len(traj.samples):
        return _joined()
    tmin = t_min_of(cfg)
    eps_tilde = min(cfg.family.fallback.epsilon, cfg.eps_ref)
    vs, hs, cs = traj.samples.v, traj.samples.h[:-1], traj.samples.c_val[:-1]
    fallback = traj.samples.set_index[:-1] == 0
    rate = np.where(fallback, -cfg.family.fallback.epsilon, -cfg.eps_ref)
    own = np.fromiter(map(math.exp, rate * hs), float, len(hs)) * np.where(fallback, vs[:-1], cs)
    # max{V_(k-m+1), .., V_k}, folded from V_k back: an older V wins a tie, as in
    # max() (np.maximum leaves the sign of tied zeros to the hardware)
    vmax = vs[:-1].copy()
    for d in range(1, min(cfg.m, len(vmax))):
        older = vs[:-1 - d]
        np.copyto(vmax[d:], older, where=older >= vmax[d:])
    pairs, js = np.arange(1, len(vs)), traj.samples.j
    env = np.array([math.exp(-eps_tilde * tmin * (max(0, k - cfg.m) / cfg.m))
                    for k in range(len(vs))]) * vs[0]
    return _joined(
        (_bounds("sample-decrease", pairs, vs[1:], own),
         _bounds("combined-decrease", pairs, vs[1:], math.exp(-eps_tilde * tmin) * vmax)),
        (_bounds("running-cap", js, vs, vs[0]), _bounds("window-envelope", js, vs, env)))


def run_monitors(traj: HybridTrajectory, cfg: StcConfig):
    """All monitor records for a dynamic trajectory.

    A segment's flow-bound rate is its set's, from one table of cfg's sets.
    """
    rate = np.array([_rate(ps, set_lambda_cap(cfg, i)) for i, ps in enumerate(cfg.family.sets)])
    t_start, v_plus, rate = traj.samples.t, traj.samples.v, rate[traj.samples.set_index]
    return _joined(*((_flow_bounds(recs, starts, rate[k0:k1], v_plus[k0:k1],
                                   t_start[k0:k1]), _regions(recs, starts, cfg.c))
                     for recs, starts, k0, k1 in _segment_blocks(traj)),
                   monitor_sample_decrease(traj, cfg))


def write_trajectory_csv(path, traj: HybridTrajectory) -> None:
    """One row per flow record, written one flow segment at a time.

    Each segment's columns become Python floats only while it is written,
    so the memory held beyond the records is one segment's, not one run's.
    A row range of the records (a slice of ``flow_points``) writes its rows.
    Floats are written as ``repr(float(v))`` and booleans as 1 or 0, here
    and in the other writers.
    """
    fp = traj.flow_points
    t, x, v, u = fp.t, fp.x, fp.v, fp.u
    n = x.shape[1]
    header = ["t", "j"] + [f"x{i + 1}" for i in range(n)] + \
        ["V", "U", "interval", "set_index", "used_fallback"]
    tails = (f"{h.item()!r},{i},{int(i == 0)}"
             for h, i in zip(traj.samples.h, traj.samples.set_index))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        edges = _edges(traj)
        for j, lo, hi, tail in zip(itertools.count(1), edges, edges[1:], tails):
            for tk, xk, vk, uk in zip(t[lo:hi].tolist(), x[lo:hi].tolist(), v[lo:hi].tolist(),
                                      u[lo:hi].tolist()):
                xs = ",".join(map(repr, xk))
                fh.write(f"{tk!r},{j},{xs},{vk!r},{uk!r},{tail}\n")


def write_decisions_csv(path, traj: HybridTrajectory) -> None:
    """One row per sample of a triggered run; epsilon is its set's in ``traj.cfg``."""
    s, eps = traj.samples, [float(ps.epsilon) for ps in traj.cfg.family.sets]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("j,t,h,set_index,epsilon,used_fallback,V,C\n")
        for row in zip(s.j, s.t, s.h, s.set_index, s.v, s.c_val):
            j, t, h, i, v, c = (value.item() for value in row)
            fh.write(f"{j},{t!r},{h!r},{i},{eps[i]!r},{int(i == 0)},{v!r},{c!r}\n")


def write_monitors_csv(path, traj: HybridTrajectory) -> None:
    mon = traj.monitors
    cols = mon.monitor, mon.j, mon.slack, mon.passed
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("monitor,j,slack,passed\n")
        for lo in range(0, len(mon), BLOCK_RECORDS):
            for name, j, slack, passed in zip(*(col[lo:lo + BLOCK_RECORDS].tolist()
                                                for col in cols)):
                fh.write(f"{name},{j},{slack!r},{int(passed)}\n")
