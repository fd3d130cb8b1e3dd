"""Grid verification and synthesis of certificate parameter sets.

A parameter set (epsilon, gamma, L) certifies the supply-rate inequality

    <grad V(x), f(x, e)> <= -epsilon*V(x) + gamma^2*W(e)^2 - H(x, e)^2

on the compact working sets of a system, with the one weight model
W(e) = ||e|| and H(x, e) = ||f(x, e)||.  This module checks the
inequality on uniform grids, synthesizes the smallest grid-feasible
gamma for a given epsilon (with a 5% safety inflation), and assembles
ordered families whose first member is the positive-epsilon fall-back
set required by the trigger.

Grid checking is deliberate: it is system-agnostic and desk-scale.  A
grid check is a sample of the working sets, not a proof: the inequality
is known to hold only at the grid points.  Soundness is cross-checked by
re-verification on a finer grid (``dynstc verify`` re-checks a manifest
at twice its synthesis density) rather than by interval arithmetic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "SynthesisError",
    "ParameterSet",
    "ParameterFamily",
    "VerificationReport",
    "ball_grid",
    "verify_family",
    "build_family",
    "default_epsilon_ladder",
    "family_to_manifest",
    "manifest_to_family",
    "write_manifest",
    "read_manifest",
]

GAMMA_INFLATION = 1.05
GAMMA_FLOOR = 1e-6
_CHUNK = 256


class SynthesisError(RuntimeError):
    """No finite gamma can certify the requested epsilon on the grid."""

    def __init__(self, message, epsilon=None, point=None):
        super().__init__(message)
        self.epsilon = epsilon
        self.point = point


@dataclass(frozen=True)
class ParameterSet:
    epsilon: float
    gamma: float
    l_const: float

    def __post_init__(self):
        if not (math.isfinite(self.epsilon)):
            raise ValueError("epsilon must be finite")
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise ValueError("gamma must be positive")
        if not (math.isfinite(self.l_const) and self.l_const > 0.0):
            raise ValueError("L must be positive")


@dataclass(frozen=True)
class ParameterFamily:
    """Ordered certificate sets; the first, sets[0], is the fall-back and has epsilon > 0."""

    sets: tuple

    def __post_init__(self):
        object.__setattr__(self, "sets", tuple(self.sets))
        if len(self.sets) == 0:
            raise ValueError("family must contain at least one set")
        if not (self.sets[0].epsilon > 0.0):
            raise ValueError("fall-back set must have positive epsilon")

    @property
    def fallback(self) -> ParameterSet:
        return self.sets[0]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one grid pass for one parameter set.

    max_violation is the grid maximum of
    s = <grad V, f> + eps*V + H^2 - gamma^2*W^2 (certified iff <= 0).
    scale normalizes tolerances: the largest magnitude the individual
    terms of s reach.
    """

    certified: bool
    max_violation: float
    worst_x: tuple
    worst_e: tuple
    grid_density: int
    n_points: int
    scale: float


def ball_grid(radius: float, dim: int, density: int) -> np.ndarray:
    """Uniform grid on [-radius, radius]^dim masked to the closed ball."""
    if density < 2:
        raise ValueError("grid density must be at least 2")
    axes = [np.linspace(-radius, radius, density)] * dim
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    keep = np.linalg.norm(pts, axis=-1) <= radius * (1.0 + 1e-12)
    return pts[keep]


def _grids(spec, grid_density):
    if grid_density < 8:
        raise ValueError("grid_density must be at least 8 per dimension")
    xg = ball_grid(spec.x_radius, spec.n_x, grid_density)
    eg = ball_grid(spec.e_radius, spec.n_e, grid_density)
    if xg.shape[0] == 0 or eg.shape[0] == 0:
        raise ValueError("working-set grid is empty")
    return xg, eg


def _grid_pass(spec, grid_density, epsilons, gammas=None):
    """One chunked pass over the X x E grid, shared by several sets.

    Every quantity checked here has the form
    base(x, e) + eps*V(x) - gamma^2*W(e)^2 with base = <grad V, f> + H^2
    and H^2 = <f, f>, so it depends on e only through W(e)^2 = ||e||^2.
    The error grid is sorted once (stably) by W^2, which makes each level
    of exactly equal W^2 a contiguous run of columns.  Each x-chunk evaluates f once and reduces
    base, and |<grad V, f>| + H^2, to their maximum over every level; the
    per-set work then runs on chunk x levels instead of chunk x error
    points.  The cost is one shared f pass plus per-set work over the
    distinct W^2 levels (265, 445, 758 and 1322 levels for van_der_pol at
    densities 40, 48, 80 and 96).

    The results equal those of a sweep over every grid point bit for bit:
    IEEE addition, subtraction and division by a positive constant are
    monotone under rounding, so the maximum commutes with each set's map.
    A worst point is recovered by recomputing its one maximizing row over
    every error point, keeping first-occurrence tie-breaking in grid order
    over both x and e.

    Synthesis (gammas None) returns per epsilon the maximum over W > 0 of
    (base + eps*V)/W^2; a W = 0 grid point with a positive numerator is
    raised as a SynthesisError (no finite gamma can help there).
    Verification returns per set (max_s, worst (x, e), scale) plus the
    shared n_points.
    """
    xg, eg = _grids(spec, grid_density)
    we2 = np.square(np.linalg.norm(eg, axis=-1))
    if not np.all(np.isfinite(we2)):
        raise ValueError("non-finite certificate evaluation on the grid")
    perm = np.argsort(we2, kind="stable")
    eg_s, we2_s = eg[perm], we2[perm]
    starts = np.flatnonzero(np.concatenate(([True], we2_s[1:] != we2_s[:-1])))
    lev = we2_s[starts]
    # W = 0, when on the grid, is the lowest level: columns [0, n_zero)
    n_zero = int(np.searchsorted(we2_s, 0.0, side="right"))
    w_pos = slice(1 if n_zero else 0, None)  # the levels with W > 0
    vx = np.asarray(spec.v(xg), dtype=float)
    gx = np.asarray(spec.grad_v(xg), dtype=float)
    verify = gammas is not None

    best = np.full(len(epsilons), -np.inf)
    worst = [(None, None)] * len(epsilons)
    scale = np.zeros(len(epsilons))
    e_b = eg_s[None, :, :]
    for lo in range(0, xg.shape[0], _CHUNK):
        sl = slice(lo, min(lo + _CHUNK, xg.shape[0]))
        x_b = xg[sl][:, None, :]
        v_b = vx[sl][:, None]
        f = spec.f(x_b, e_b)
        gvf = np.einsum("bi,bei->be", gx[sl], f)
        h2 = np.einsum("bei,bei->be", f, f)
        base = gvf + h2
        if not np.all(np.isfinite(base)):
            raise ValueError("non-finite certificate evaluation on the grid")
        base_max = np.maximum.reduceat(base, starts, axis=1)
        if not verify:
            for k, eps in enumerate(epsilons):
                num = base_max + eps * v_b
                if n_zero and np.any(num[:, 0] > 0.0):
                    bi = int(np.argmax(num[:, 0]))
                    row = base[bi, :n_zero] + eps * vx[lo + bi]
                    x_off = tuple(xg[lo + bi])
                    e_off = tuple(eg[perm[:n_zero][row == num[bi, 0]].min()])
                    raise SynthesisError(
                        f"epsilon={eps}: positive certificate numerator "
                        f"{num[bi, 0]:.3e} at a W=0 grid point x={x_off}, e={e_off}",
                        epsilon=eps, point=(x_off, e_off))
                best[k] = max(best[k], float(np.max(num[:, w_pos] / lev[w_pos])))
            continue
        abs_max = np.maximum.reduceat(np.abs(gvf) + h2, starts, axis=1)
        for k, (eps, gam) in enumerate(zip(epsilons, gammas)):
            s = base_max + eps * v_b - (gam * gam) * lev
            flat = int(np.argmax(s))
            if s.flat[flat] > best[k]:
                best[k] = s.flat[flat]
                bi = flat // len(lev)
                row = base[bi] + eps * vx[lo + bi] - (gam * gam) * we2_s
                worst[k] = (tuple(xg[lo + bi]), tuple(eg[perm[row == best[k]].min()]))
            mag = abs_max + abs(eps) * v_b + (gam * gam) * lev
            scale[k] = max(scale[k], float(np.max(mag)))
    return best, worst, np.maximum(scale, 1.0), xg.shape[0] * eg.shape[0]


def verify_family(spec, family: ParameterFamily, grid_density: int):
    """Reports for every set of the family from a single grid pass."""
    max_s, worst, scale, n_points = _grid_pass(
        spec, grid_density, [ps.epsilon for ps in family.sets],
        [ps.gamma for ps in family.sets])
    return [VerificationReport(certified=ms <= 0.0, max_violation=ms, worst_x=wx,
                               worst_e=we, grid_density=int(grid_density),
                               n_points=n_points, scale=sc)
            for ms, (wx, we), sc in zip(max_s.tolist(), worst, scale.tolist())]


def build_family(spec, epsilons: Sequence[float], l_const: float = 0.05,
                 grid_density: int = 48) -> ParameterFamily:
    """Inflated grid-feasible gamma per epsilon, verified on the same grid.

    The largest epsilon leads as the fall-back, set 0.
    """
    if not (l_const > 0.0):
        raise ValueError("L must be positive")
    epsilons = [float(e) for e in epsilons]
    if len(epsilons) == 0:
        raise ValueError("epsilon list must be non-empty")
    if max(epsilons) <= 0.0:
        raise ValueError("family needs a positive epsilon for the fall-back set")
    first = int(np.argmax(epsilons))
    epsilons = [epsilons[first]] + epsilons[:first] + epsilons[first + 1:]
    ratios = _grid_pass(spec, grid_density, epsilons)[0]
    family = ParameterFamily(sets=tuple(
        ParameterSet(epsilon=eps, l_const=float(l_const),
                     gamma=GAMMA_INFLATION * math.sqrt(r) if r > 0.0 else GAMMA_FLOOR)
        for eps, r in zip(epsilons, ratios)))
    for eps, ps, rep in zip(epsilons, family.sets,
                            verify_family(spec, family, grid_density)):
        if not rep.certified:
            raise SynthesisError(
                f"epsilon={eps}: inflated gamma={ps.gamma:.6g} still violates the "
                f"certificate by {rep.max_violation:.3e}",
                epsilon=eps, point=(rep.worst_x, rep.worst_e))
    return family


def default_epsilon_ladder(n: int = 21, eps_top: float = 0.01,
                           eps_bottom: float = -40.0) -> list:
    """One positive rate then n-1 geometrically spaced negative rates.

    The positive entry anchors the fall-back set; the negative tail
    spans magnitudes from eps_top down to |eps_bottom|.
    """
    if n < 1:
        raise ValueError("ladder needs at least one entry")
    if not (eps_top > 0.0 and eps_bottom < 0.0):
        raise ValueError("ladder runs from a positive rate down to a negative one")
    if n == 1:
        return [eps_top]
    if n == 2:
        return [eps_top, eps_bottom]
    span = abs(eps_bottom) / eps_top
    tail = [-eps_top * span ** (k / (n - 2)) for k in range(n - 1)]
    return [eps_top] + tail


def family_to_manifest(family: ParameterFamily, grid_density: int) -> dict:
    return {
        "fallback_index": 0,
        "sets": [
            {
                "epsilon": ps.epsilon,
                "gamma": ps.gamma,
                "L": ps.l_const,
                "grid_density": int(grid_density),
            }
            for ps in family.sets
        ],
    }


def manifest_to_family(doc: dict) -> ParameterFamily:
    """The family of a manifest; its fall-back comes first ("fallback_index" 0 or absent)."""
    try:
        sets = tuple(
            ParameterSet(epsilon=float(d["epsilon"]), gamma=float(d["gamma"]),
                         l_const=float(d["L"]))
            for d in doc["sets"]
        )
        fallback_index = doc.get("fallback_index", 0)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed parameter-family manifest: {exc}") from exc
    if fallback_index != 0:
        raise ValueError(f"malformed parameter-family manifest: fallback_index is "
                         f"{fallback_index!r}, but the fall-back must be set 0")
    return ParameterFamily(sets=sets)


def write_manifest(path, family: ParameterFamily, grid_density: int) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(family_to_manifest(family, grid_density), fh,
                  indent=2, sort_keys=True)
        fh.write("\n")


def read_manifest(path):
    """Returns (family, grid_density) from a manifest file."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    family = manifest_to_family(doc)
    try:
        density = int(doc["sets"][0].get("grid_density", 0))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed parameter-family manifest: {exc}") from exc
    return family, density
