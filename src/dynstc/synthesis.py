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

Cost.  Every checked quantity has the form
base(x, e) + eps*V(x) - gamma^2*W(e)^2 with base = <grad V, f> + H^2,
so it depends on e only through W(e)^2.  One f pass over the grid, one
x row per call of f, reduces base to its maximum over each distinct W^2
level (265, 445, 758 and 1322 levels for van_der_pol at densities 40,
48, 80 and 96, against 1184, 1716, 4872 and 7080 error points).  The
pass reads f by component and lays the error points out rank-major:
levels ranked by point count, column block j holds the j-th point of
every level with more than j points, so a block's maxima are one
contiguous np.maximum per rank (26 ranks at density 80) and one gather
back to W^2 order.  The x rows are independent, so the pass splits its
blocks of rows into one contiguous range per CPU the process may use
(:mod:`dynstc.parallel`).  It keeps only each block's column maxima,
blocks x levels doubles in a shared mmap (1.85 MB at density 80, 4.7 MB
at 96; a table of every x row would take 30 and 75 MB).  Each set searches
block by block, in decreasing order of an upper bound per block from
those maxima, until no remaining bound reaches its best value.  It takes
the bounds _BLOCK blocks at a time, in the one block of scratch where it
reads each block, so its scratch does not grow with the table.  A block
it reads is filled again one x row at a time by the pass's own fill,
through a single row of scratch, once per pass (11 of 305 blocks at
density 80, about 4% more f work).  On 2 vCPUs ``dynstc verify`` peaks
at 35 MB RSS at density 80, 39 MB at 96 and 56 MB at 128 (52 and 80 MB
at 80 and 96 with that table).  ``build_family`` serves both the ratios
and the check of the inflated gammas from one pass.

Exactness.  IEEE addition, subtraction and division by a positive
constant are monotone under rounding.  So the maximum commutes with each
set's map, and the results equal those of a sweep over every grid point
bit for bit; and a block's bound, the same operations applied to the
block's column maxima and its largest row term, is no smaller than any
entry of the block, so the search skips no maximum.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .parallel import _fill_in_parallel, _shared_table
from .systems import component_rhs

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
_BLOCK = 16  # x rows per block of the f pass and of the per-set search


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
    s = <grad V, f> + eps*V + H^2 - gamma^2*W^2, and the set is certified
    on the grid iff it is <= 0: the one acceptance rule, of both synthesis
    and ``dynstc verify``.
    """

    max_violation: float
    worst_x: tuple
    worst_e: tuple
    grid_density: int
    n_points: int

    @property
    def certified(self) -> bool:
        return self.max_violation <= 0.0


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


@dataclass(frozen=True)
class _LevelTables:
    """One f pass over the X x E grid, reduced to the distinct W^2 levels.

    The error grid is sorted once, stably, by W^2 into eg_s, so each level
    of exactly equal W^2 is a contiguous run of points.  Row x of the level
    table holds, per level in ascending W^2, the maximum of
    base = <grad V, f> + H^2 over that level's error points.  Only its
    column maxima per block of _BLOCK rows (base_cols) are kept; rows(b)
    recomputes block b, one row at a time, and keeps it.  Those maxima
    also bound any prefix of a block.
    """

    density: int
    xg: np.ndarray       # state grid, in grid order
    eg: np.ndarray       # error grid, in grid order
    perm: np.ndarray     # eg_s = eg[perm]
    eg_s: np.ndarray
    we2_s: np.ndarray    # W^2 of eg_s, ascending
    lev: np.ndarray      # the distinct W^2 levels, ascending
    n_zero: int          # points of eg_s with W = 0, the lowest level
    vx: np.ndarray
    gx: np.ndarray
    base_cols: np.ndarray
    rhs: object          # f in component form (systems.component_rhs)
    ec: np.ndarray       # eg_s in rank-major order, by component (_rank_major)
    widths: list
    back: np.ndarray
    _rows: dict = field(default_factory=dict, repr=False, compare=False)

    def fill(self, lo, base, out):
        """Rows lo, lo + 1, ... of the level table into out (returned), len(base) at most.

        base is the scratch of their row terms, one row per x row.
        """
        xs, gs = self.xg[lo:lo + len(base)].tolist(), self.gx[lo:lo + len(base)].tolist()
        for k, (x, g) in enumerate(zip(xs, gs)):
            _row_terms(self.rhs, x, g, self.ec, base[k])
        terms = base[:len(xs)]
        # min and max carry a NaN through, and show an infinity of either sign
        if not (math.isfinite(terms.min()) and math.isfinite(terms.max())):
            raise ValueError("non-finite certificate evaluation on the grid")
        _rank_max(terms, self.widths, self.back, out[:len(xs)])
        return out[:len(xs)]

    def rows(self, b):
        """Block b's rows of the level table, filled again one x row at a time, once per block.

        Each row goes through the pass's fill with a single row of scratch,
        so the rows are the pass's bits and the refill holds n_e doubles
        besides the rows it keeps.
        """
        if b not in self._rows:
            lo = b * _BLOCK
            rows = np.empty((len(self.xg[lo:lo + _BLOCK]), len(self.lev)))
            base = np.empty((1, self.ec.shape[1]))
            for k in range(len(rows)):
                self.fill(lo + k, base, rows[k:k + 1])
            self._rows[b] = rows
        return self._rows[b]


def _row_terms(rhs, x, g, ec, base):
    """base = <grad V, f> + H^2 at the state x (gradient g) times the errors ec.

    x and g are Python floats, one per component; ec holds the error
    points by component, one row per component.  f is read in component
    form (systems.component_rhs) on one x row, so every array here holds
    n_e doubles, and the result goes into the given row base.  The dot
    products accumulate from the float +0.0 one component at a time: the
    operations of numpy's einsum for n_x <= 2 (the built-ins), so even the
    sign of a zero is the same.  A component of f that does not depend on
    the error (van_der_pol's x2) stays a Python float until it meets one
    that does.
    """
    gvf = h2 = 0.0
    for gi, fi in zip(g, rhs(*x, *ec)):
        gvf = gvf + gi * fi
        h2 = h2 + fi * fi
    np.add(gvf, h2, out=base)


def _rank_major(starts, n_points):
    """The rank-major order of the levels of a sorted axis that start at `starts`.

    Levels are ranked by point count, descending and stably; column block
    j of the order holds the j-th point of every level with more than j
    points, a prefix of that ranking.  Returns the order as indices into
    the sorted axis, the block widths, and the gather `back` that puts
    ranked levels in sorted order.
    """
    counts = np.diff(np.append(starts, n_points))
    ranked = np.argsort(-counts, kind="stable")
    widths = [int(np.count_nonzero(counts > j)) for j in range(int(counts.max()))]
    cols = np.concatenate([starts[ranked[:w]] + j for j, w in enumerate(widths)])
    return cols, widths, np.argsort(ranked)


def _rank_max(terms, widths, back, out):
    """Per level, the maximum of rank-major `terms` (overwritten), into `out` in sorted order.

    The running maxima of the levels sit in the first block; each later
    block is folded in with one contiguous np.maximum.  Each level's
    points meet in their sorted order, as in np.maximum.reduceat, so the
    maxima are the same bits, the sign of a zero included.
    """
    acc, lo = terms[:, :widths[0]], widths[0]
    for w in widths[1:]:
        np.maximum(acc[:, :w], terms[:, lo:lo + w], out=acc[:, :w])
        lo += w
    np.take(acc, back, axis=1, out=out, mode="clip")  # "clip" writes out unbuffered


def _level_tables(spec, grid_density):
    """The column maxima of one f pass, one x row per call of f, on every CPU.

    The blocks of _BLOCK x rows are split into one contiguous range per
    CPU (_fill_in_parallel: children fill every range but the last, which
    this process fills).  _LevelTables.fill runs each block through the
    same IEEE operations in whichever process, into (_BLOCK, n_e) and
    (_BLOCK, levels) buffers made once per pass, before the split; only
    the block's column maxima go into the shared mapping (_shared_table).
    Every array a call of f makes holds n_e doubles, below the 64 KB at
    which a free makes glibc trim the heap, up to 8192 error points
    (density about 100).
    """
    xg, eg = _grids(spec, grid_density)
    we2 = np.square(np.linalg.norm(eg, axis=-1))
    if not np.all(np.isfinite(we2)):
        raise ValueError("non-finite certificate evaluation on the grid")
    perm = np.argsort(we2, kind="stable")
    eg_s, we2_s = eg[perm], we2[perm]
    starts = np.flatnonzero(np.concatenate(([True], we2_s[1:] != we2_s[:-1])))
    cols, widths, back = _rank_major(starts, len(we2_s))
    n_x, n_lev = xg.shape[0], len(starts)
    n_zero = int(np.searchsorted(we2_s, 0.0, side="right"))
    n_blocks = -(-n_x // _BLOCK)
    t = _LevelTables(
        density=int(grid_density), xg=xg, eg=eg, perm=perm, eg_s=eg_s, we2_s=we2_s,
        lev=we2_s[starts], n_zero=n_zero, vx=np.asarray(spec.v(xg), dtype=float),
        gx=np.asarray(spec.grad_v(xg), dtype=float),
        base_cols=_shared_table(n_blocks, n_lev, "level table"), rhs=component_rhs(spec),
        ec=np.ascontiguousarray(eg_s[cols].T), widths=widths, back=back)

    base, out = np.empty((_BLOCK, len(cols))), np.empty((_BLOCK, n_lev))

    def fill(b):
        np.max(t.fill(b * _BLOCK, base, out), axis=0, out=t.base_cols[b])

    _fill_in_parallel(fill, n_blocks)
    return t


def _table_max(rows_of, cols, a, combine, buf):
    """The maximum of combine(table + a[:, None]) and the first row attaining it.

    rows_of(b) gives the rows of block b of the table, cols its column maxima.

    combine must be nondecreasing in each entry: it adds or subtracts a
    per-level constant, or divides by a positive one, in place, and
    returns its argument.  A block's bound is combine(cols + max a), from
    the block's column maxima and its largest row term: the same IEEE
    operations on inputs no smaller than any of the block's, and rounding
    is monotone, so no entry of the block exceeds its bound.  Blocks are
    visited in decreasing order of bound until no remaining bound reaches
    the best value so far; equal values keep the smallest row, as a sweep
    in grid order would.

    buf (_bound_buffer) takes the bounds _BLOCK blocks at a time, then each
    searched block: the search's scratch is one block of levels, however
    many blocks the table has.
    """
    a_max = np.maximum.reduceat(a, np.arange(0, len(a), _BLOCK))
    bounds = np.empty(len(cols))
    for lo in range(0, len(cols), _BLOCK):
        chunk = cols[lo:lo + _BLOCK]
        s = combine(np.add(chunk, a_max[lo:lo + _BLOCK, None], out=buf[:len(chunk)]))
        np.max(s, axis=1, out=bounds[lo:lo + _BLOCK])
    best, row = -np.inf, -1
    for b in np.argsort(-bounds, kind="stable"):
        if bounds[b] < best:
            break
        lo = int(b) * _BLOCK
        rows = rows_of(int(b))
        s = combine(np.add(rows, a[lo:lo + _BLOCK, None], out=buf[:len(rows)]))
        j = int(np.argmax(s))
        r = lo + j // s.shape[1]
        if s.flat[j] > best or (s.flat[j] == best and r < row):
            best, row = s.flat[j], r
    return best, row


def _row_base(t, r, errors):
    """base at the x row r of the tables t over the error points `errors`, in a fresh row."""
    base = np.empty(errors.shape[0])
    _row_terms(t.rhs, t.xg[r].tolist(), t.gx[r].tolist(), errors.T, base)
    return base


def _bound_buffer(cols):
    """The scratch of _table_max for the column maxima cols: one block, _BLOCK rows of levels."""
    return np.empty((_BLOCK, cols.shape[1]))


def _ratios(t, epsilons):
    """Per epsilon, the grid maximum over W > 0 of (base + eps*V)/W^2.

    A W = 0 grid point with a positive numerator is raised as a
    SynthesisError (no finite gamma can help there): the first such
    epsilon, at its largest W = 0 numerator (_table_max on level column 0),
    first in grid order on ties.
    """
    w_pos = slice(1 if t.n_zero else 0, None)  # the levels with W > 0
    cols, lev = t.base_cols[:, w_pos], t.lev[w_pos]
    buf = _bound_buffer(cols)
    ratios = np.empty(len(epsilons))
    for k, eps in enumerate(epsilons):
        a = eps * t.vx
        if t.n_zero:
            num, bi = _table_max(lambda b: t.rows(b)[:, :1], t.base_cols[:, :1], a,
                                 lambda m: m, buf[:, :1])
            if num > 0.0:
                base = _row_base(t, bi, t.eg_s[:t.n_zero])
                x_off = tuple(t.xg[bi])
                e_off = tuple(t.eg[t.perm[:t.n_zero][base + a[bi] == num].min()])
                raise SynthesisError(
                    f"epsilon={eps}: positive certificate numerator "
                    f"{num:.3e} at a W=0 grid point x={x_off}, e={e_off}",
                    epsilon=eps, point=(x_off, e_off))
        ratios[k] = _table_max(lambda b: t.rows(b)[:, w_pos], cols, a,
                               lambda m: np.divide(m, lev, out=m), buf)[0]
    return ratios


def _verify_tables(t, family):
    """The report of every set of the family, from the level tables.

    A set's maximum of s = base + eps*V - gamma^2*W^2 over the grid is the
    maximum over the level table of its rows + eps*V - gamma^2*lev, bit for
    bit: the maximum commutes with each set's monotone map.  The worst
    (x, e) is recovered from the one maximizing row, recomputed over every
    error point; ties go to the first point in grid order over x, then e.
    """
    buf = _bound_buffer(t.base_cols)
    reports = []
    for ps in family.sets:
        g2 = ps.gamma * ps.gamma
        g2lev = g2 * t.lev
        a = ps.epsilon * t.vx
        best, r = _table_max(t.rows, t.base_cols, a,
                             lambda m: np.subtract(m, g2lev, out=m), buf)
        base = _row_base(t, r, t.eg_s)
        worst_e = t.eg[t.perm[base + a[r] - g2 * t.we2_s == best].min()]
        reports.append(VerificationReport(
            max_violation=float(best), worst_x=tuple(t.xg[r]), worst_e=tuple(worst_e),
            grid_density=t.density, n_points=t.xg.shape[0] * t.eg.shape[0]))
    return reports


def verify_family(spec, family: ParameterFamily, grid_density: int):
    """Reports for every set of the family from one f pass over the grid."""
    return _verify_tables(_level_tables(spec, grid_density), family)


def build_family(spec, epsilons: Sequence[float], l_const: float = 0.05,
                 grid_density: int = 48) -> ParameterFamily:
    """Inflated grid-feasible gamma per epsilon, verified on the same grid.

    One f pass serves both the ratios and the check of the inflated
    gammas.  The largest epsilon leads as the fall-back, set 0.
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
    tables = _level_tables(spec, grid_density)
    ratios = _ratios(tables, epsilons)
    family = ParameterFamily(sets=tuple(
        ParameterSet(epsilon=eps, l_const=float(l_const),
                     gamma=GAMMA_INFLATION * math.sqrt(r) if r > 0.0 else GAMMA_FLOOR)
        for eps, r in zip(epsilons, ratios)))
    for eps, ps, rep in zip(epsilons, family.sets, _verify_tables(tables, family)):
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


def _manifest_number(value, key, integral=False):
    """A JSON int or float, not a boolean or a string; with `integral` no fraction."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or integral and isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"malformed parameter-family manifest: {key!r} is {value!r}")
    return int(value) if integral else float(value)


def manifest_to_family(doc: dict) -> ParameterFamily:
    """The family of a manifest; its fall-back comes first ("fallback_index" 0 or absent)."""
    try:
        sets = tuple(
            ParameterSet(epsilon=_manifest_number(d["epsilon"], "epsilon"),
                         gamma=_manifest_number(d["gamma"], "gamma"),
                         l_const=_manifest_number(d["L"], "L"))
            for d in doc["sets"]
        )
        fallback_index = doc.get("fallback_index", 0)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed parameter-family manifest: {exc}") from exc
    try:
        index = _manifest_number(fallback_index, "fallback_index", integral=True)
    except ValueError:
        index = None
    if index != 0:
        raise ValueError(f"malformed parameter-family manifest: fallback_index is "
                         f"{fallback_index!r}, but the fall-back must be set 0")
    return ParameterFamily(sets=sets)


def write_manifest(path, family: ParameterFamily, grid_density: int) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(family_to_manifest(family, grid_density), fh,
                  indent=2, sort_keys=True)
        fh.write("\n")


def read_manifest(path):
    """Returns (family, grid_density) from a manifest file.

    grid_density is None where set 0 has no such key; one below 8, the
    least _grids takes, makes the manifest malformed.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    family = manifest_to_family(doc)
    density = None
    if "grid_density" in doc["sets"][0]:
        density = _manifest_number(doc["sets"][0]["grid_density"], "grid_density", True)
        if density < 8:
            raise ValueError(f"malformed parameter-family manifest: 'grid_density' is "
                             f"{density!r}, below 8")
    return family, density
