"""Tests for grid verification and parameter-set synthesis."""

import errno
import gc
import json
import math
import mmap
import os
import signal
import tracemalloc
import types
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

from dynstc.synthesis import (
    GAMMA_FLOOR,
    GAMMA_INFLATION,
    ParameterFamily,
    ParameterSet,
    SynthesisError,
    VerificationReport,
    ball_grid,
    build_family,
    default_epsilon_ladder,
    family_to_manifest,
    manifest_to_family,
    read_manifest,
    verify_family,
    write_manifest,
)
from dynstc import parallel, synthesis
from dynstc.synthesis import (
    _BLOCK,
    _bound_buffer,
    _grids,
    _level_tables,
    _rank_major,
    _rank_max,
    _ratios,
    _row_terms,
    _table_max,
    _verify_tables,
)
from dynstc.systems import component_rhs, linear_test, spec_from_config, van_der_pol


# Reference: the per-grid-point sweeps that the W^2-level tables replaced,
# kept verbatim so that the tables can be held to equal them bit for bit.
# They sweep the grid in chunks of this many x rows.
_CHUNK = 256


def _ref_sweep(spec, params, grid_density):
    xg, eg = _grids(spec, grid_density)
    n_sets = len(params)
    vx = np.asarray(spec.v(xg), dtype=float)
    gx = np.asarray(spec.grad_v(xg), dtype=float)
    we2 = np.square(np.linalg.norm(eg, axis=-1))

    max_s = np.full(n_sets, -np.inf)
    worst = [(None, None)] * n_sets
    e_b = eg[None, :, :]
    for lo in range(0, xg.shape[0], _CHUNK):
        sl = slice(lo, min(lo + _CHUNK, xg.shape[0]))
        x_b = xg[sl][:, None, :]
        f = spec.f(x_b, e_b)
        gvf = np.einsum("bi,bei->be", gx[sl], f)
        h2 = np.einsum("bei,bei->be", f, f)
        base = gvf + h2
        if not np.all(np.isfinite(base)):
            raise ValueError("non-finite certificate evaluation on the grid")
        for k, (eps, gam) in enumerate(params):
            s = base + eps * vx[sl][:, None] - (gam * gam) * we2[None, :]
            flat = int(np.argmax(s))
            if s.flat[flat] > max_s[k]:
                max_s[k] = s.flat[flat]
                bi, ei = divmod(flat, eg.shape[0])
                worst[k] = (tuple(xg[sl][bi]), tuple(eg[ei]))
    n_points = xg.shape[0] * eg.shape[0]
    return max_s, worst, n_points


def _ref_synth_ratios(spec, epsilons, grid_density):
    xg, eg = _grids(spec, grid_density)
    vx = np.asarray(spec.v(xg), dtype=float)
    gx = np.asarray(spec.grad_v(xg), dtype=float)
    we2 = np.square(np.linalg.norm(eg, axis=-1))
    pos = we2 > 0.0
    best = np.full(len(epsilons), -np.inf)
    e_b = eg[None, :, :]
    for lo in range(0, xg.shape[0], _CHUNK):
        sl = slice(lo, min(lo + _CHUNK, xg.shape[0]))
        x_b = xg[sl][:, None, :]
        f = spec.f(x_b, e_b)
        gvf = np.einsum("bi,bei->be", gx[sl], f)
        h2 = np.einsum("bei,bei->be", f, f)
        base = gvf + h2
        if not np.all(np.isfinite(base)):
            raise ValueError("non-finite certificate evaluation on the grid")
        for k, eps in enumerate(epsilons):
            num = base + eps * vx[sl][:, None]
            if np.any(~pos):
                bad = num[:, ~pos]
                if np.any(bad > 0.0):
                    bi, ei = np.unravel_index(int(np.argmax(bad)), bad.shape)
                    x_off = tuple(xg[sl][bi])
                    e_off = tuple(eg[~pos][ei])
                    raise SynthesisError(
                        f"epsilon={eps}: positive certificate numerator "
                        f"{bad[bi, ei]:.3e} at a W=0 grid point x={x_off}, e={e_off}",
                        epsilon=eps, point=(x_off, e_off))
            ratio = num[:, pos] / we2[None, pos]
            best[k] = max(best[k], float(np.max(ratio)))
    return best


def _bits(values):
    """Exact bytes of float values, so that 0.0 and -0.0 differ."""
    return np.asarray(values, dtype=float).tobytes()


def _verify_one(spec, ps, grid_density):
    """The report of one set, verified as a one-set family."""
    return verify_family(spec, ParameterFamily(sets=(ps,)), grid_density)[0]


def test_record_fields():
    assert [f.name for f in fields(ParameterSet)] == \
        ["epsilon", "gamma", "l_const"]
    assert [f.name for f in fields(VerificationReport)] == \
        ["max_violation", "worst_x", "worst_e", "grid_density", "n_points"]
    # certified is read from max_violation, so the two cannot disagree
    assert isinstance(VerificationReport.certified, property)


def test_parameter_set_validation():
    ParameterSet(epsilon=-1.0, gamma=2.0, l_const=0.05)
    with pytest.raises(ValueError):
        ParameterSet(epsilon=0.0, gamma=0.0, l_const=0.05)
    with pytest.raises(ValueError):
        ParameterSet(epsilon=0.0, gamma=-1.0, l_const=0.05)
    with pytest.raises(ValueError):
        ParameterSet(epsilon=0.0, gamma=1.0, l_const=0.0)
    with pytest.raises(ValueError):
        ParameterSet(epsilon=math.inf, gamma=1.0, l_const=1.0)


def test_family_validation():
    pos = ParameterSet(epsilon=0.5, gamma=1.0, l_const=0.05)
    neg = ParameterSet(epsilon=-2.0, gamma=1.0, l_const=0.05)
    fam = ParameterFamily(sets=(pos, neg))
    assert fam.fallback is pos
    with pytest.raises(ValueError):
        ParameterFamily(sets=())
    with pytest.raises(ValueError):
        ParameterFamily(sets=(neg, pos))          # fall-back must have eps > 0


def test_ball_grid():
    g = ball_grid(2.0, 2, 17)
    assert g.shape[1] == 2
    assert np.all(np.linalg.norm(g, axis=1) <= 2.0 * (1 + 1e-12))
    # odd density keeps the center point
    assert np.any(np.all(g == 0.0, axis=1))
    assert len(ball_grid(1.0, 1, 9)) == 9


def test_verify_linear_certified():
    # for x' = -(x+e) with V = x^2, W = |e|, H = |f|:
    # s = -2x(x+e) + eps*x^2 + (x+e)^2 - gamma^2 e^2 = (eps-1)x^2 + (1-gamma^2)e^2
    spec = linear_test()
    ps = ParameterSet(epsilon=1.0, gamma=1.5, l_const=0.1)
    rep = _verify_one(spec, ps, grid_density=33)
    assert rep.certified
    # s = (eps-1)x^2 + (1-gamma^2)e^2 <= 0, tight at the origin grid point
    assert rep.max_violation == 0.0
    assert rep.n_points == 33 * 33
    # even density omits the origin, leaving strictly negative maxima
    rep_even = _verify_one(spec, ps, grid_density=32)
    assert rep_even.max_violation < 0.0


def test_verify_uncertified_reports_worst_point():
    spec = linear_test()
    ps = ParameterSet(epsilon=1.0, gamma=0.5, l_const=0.1)
    rep = _verify_one(spec, ps, grid_density=33)
    assert not rep.certified
    assert rep.max_violation == pytest.approx(0.75 * 4.0, rel=1e-9)
    assert abs(rep.worst_e[0]) == pytest.approx(2.0)


def test_verify_rejects_coarse_grid():
    with pytest.raises(ValueError):
        _verify_one(linear_test(), ParameterSet(epsilon=0.5, gamma=1.0, l_const=0.1), 7)


def test_synthesize_linear():
    spec = linear_test()
    ps = build_family(spec, [1.0], l_const=0.1, grid_density=32).fallback
    # ratio ((eps-1)x^2 + e^2)/e^2 peaks at exactly 1 for eps = 1
    assert ps.gamma == pytest.approx(1.05, rel=1e-12)
    assert 0.0 < ps.gamma <= 3.0
    assert ps.l_const == 0.1
    assert _verify_one(spec, ps, grid_density=32).certified
    assert _verify_one(spec, ps, grid_density=64).certified


def test_synthesize_gamma_monotone_in_epsilon():
    spec = linear_test()
    fam = build_family(spec, [-4.0, -1.0, 0.0, 0.9, 1.2, 1.5], grid_density=32)
    gammas = [ps.gamma for ps in sorted(fam.sets, key=lambda ps: ps.epsilon)]
    assert all(b >= a * (1 - 1e-12) for a, b in zip(gammas, gammas[1:]))


def test_synthesize_failure_at_w_zero():
    # eps > 1 makes the numerator (eps-1)x^2 positive on the e = 0 slice,
    # which no finite gamma can absorb; odd density puts e = 0 on the grid
    spec = linear_test()
    with pytest.raises(SynthesisError) as exc:
        build_family(spec, [1.5], l_const=0.1, grid_density=17)
    assert exc.value.epsilon == 1.5
    assert exc.value.point is not None
    # the first offender and the message are those of the per-point sweep
    with pytest.raises(SynthesisError) as ref:
        _ref_synth_ratios(spec, [1.5], 17)
    assert exc.value.point == ref.value.point
    assert _bits(exc.value.point) == _bits(ref.value.point)
    assert str(exc.value) == str(ref.value)


def _ref_w_zero_offender(spec, eps, grid_density):
    """The largest W = 0 numerator over the whole grid, first in grid order, per point."""
    xg, eg = _grids(spec, grid_density)
    zero = np.square(np.linalg.norm(eg, axis=-1)) == 0.0
    f = spec.f(xg[:, None, :], eg[zero][None, :, :])
    gx = np.asarray(spec.grad_v(xg), dtype=float)
    num = (np.einsum("bi,bei->be", gx, f) + np.einsum("bei,bei->be", f, f)
           + eps * np.asarray(spec.v(xg), dtype=float)[:, None])
    bi, ei = np.unravel_index(int(np.argmax(num)), num.shape)
    return int(bi), num[bi, ei], (tuple(xg[bi]), tuple(eg[zero][ei]))


def test_w_zero_offender_is_the_grid_maximum():
    # an expanding, biased drift: every W = 0 numerator is positive, and
    # the largest lies past the first _CHUNK x rows, which already offend
    spec = replace(van_der_pol(), f=lambda x, e: x + e + np.array([1.0, 0.0]))
    row, num, point = _ref_w_zero_offender(spec, 0.5, 33)
    assert row >= _CHUNK
    with pytest.raises(SynthesisError) as first_chunk:
        _ref_synth_ratios(spec, [0.5], 33)
    assert first_chunk.value.point != point
    with pytest.raises(SynthesisError) as exc:
        build_family(spec, [0.5], grid_density=33)
    assert exc.value.epsilon == 0.5
    assert _bits(exc.value.point) == _bits(point)
    assert str(exc.value) == (f"epsilon=0.5: positive certificate numerator {num:.3e} "
                              f"at a W=0 grid point x={point[0]}, e={point[1]}")


def test_build_family_makes_one_f_pass(monkeypatch):
    # f is counted in this process only, so the pass must not fork
    monkeypatch.setattr(parallel, "_cpus", lambda: 1)
    spec = van_der_pol()
    calls = []

    def f(x, e):
        xs = np.reshape(x, (-1, spec.n_x))
        assert np.all(xs == xs[0])  # one x row per call
        calls.append((tuple(xs[0]),
                      math.prod(np.broadcast_shapes(np.shape(x)[:-1], np.shape(e)[:-1]))))
        return spec.f(x, e)

    epsilons = [0.01, -1.0, -40.0]
    fam = build_family(replace(spec, f=f), epsilons, grid_density=24)
    assert fam == build_family(spec, epsilons, grid_density=24)
    xg, eg = _grids(spec, 24)
    assert {n for _, n in calls} == {eg.shape[0]}
    # every x row once in the pass, then once more if a search reads its
    # block, each such block whole and at most once; then one worst-point
    # row per set, whose block a search has read
    counts = Counter(row for row, _ in calls)
    assert set(counts) == set(map(tuple, xg))
    again = [counts[tuple(x)] > 1 for x in xg]
    blocks = [again[lo:lo + _BLOCK] for lo in range(0, len(xg), _BLOCK)]
    assert all(all(blk) or not any(blk) for blk in blocks)
    assert sum(counts.values()) == len(xg) + sum(again) + len(epsilons)
    assert 0 < sum(map(any, blocks)) < len(blocks) // 2


def _kept_arrays(obj):
    """The arrays reachable from obj through fields, containers and closures, and their buffers."""
    arrays, buffers, seen, todo = [], {}, set(), [obj]
    while todo:
        o = todo.pop()
        if id(o) in seen or isinstance(o, (type, types.ModuleType)):
            continue
        seen.add(id(o))
        if isinstance(o, np.ndarray):
            arrays.append(o)
            while isinstance(o.base, np.ndarray):
                o = o.base
            buffers[id(o)] = o.nbytes  # a shared mapping's whole length
        elif isinstance(o, types.FunctionType):  # not its module's globals
            todo.extend(c.cell_contents for c in o.__closure__ or ())
        else:
            todo.extend(gc.get_referents(o))
    return arrays, sum(buffers.values())


def test_level_tables_keep_no_row_per_x():
    # the searches recompute the rows they read, so the tables hold a row
    # per block of _BLOCK x rows and vectors of the grids, not a table of
    # n_x rows by levels (75 MB at density 96)
    spec = van_der_pol()
    t = _level_tables(spec, 96)
    n_x, n_e, n_lev = t.xg.shape[0], t.eg.shape[0], len(t.lev)
    n_blocks = -(-n_x // _BLOCK)
    arrays, n_bytes = _kept_arrays(t)
    assert any(a is t.base_cols for a in arrays)
    assert not [a.shape for a in arrays if a.ndim == 2 and n_x in a.shape and n_lev in a.shape]
    assert n_blocks * n_lev * 8 < n_bytes <= (n_blocks + 1) * n_lev * 8 + 8 * (n_x + n_e) * 8


@pytest.mark.parametrize("seed, n_blocks", [pytest.param(s, None, id=str(s)) for s in range(20)]
                         + [pytest.param(20 + k, n, id=f"{n}-blocks") for k, n in enumerate(
                             (_BLOCK, _BLOCK + 1, 2 * _BLOCK, 2 * _BLOCK + 1, 3 * _BLOCK))])
def test_table_max_matches_argmax(seed, n_blocks):
    # small integers make many exact ties, within and across row blocks;
    # past _BLOCK blocks the bounds are taken _BLOCK blocks at a time, and
    # the last chunk is whole or of one block
    rng = np.random.default_rng(seed)
    n_rows, n_cols = int(rng.integers(1, 6 * _BLOCK)), int(rng.integers(1, 6))
    if n_blocks is not None:
        n_rows = (n_blocks - 1) * _BLOCK + int(rng.integers(1, _BLOCK + 1))
    table = rng.integers(-3, 4, size=(n_rows, n_cols)).astype(float)
    a = rng.integers(-3, 4, size=n_rows).astype(float)
    c = rng.integers(1, 4, size=n_cols).astype(float)
    blocks = np.arange(0, n_rows, _BLOCK)
    assert n_blocks is None or len(blocks) == n_blocks
    cols = np.maximum.reduceat(table, blocks, axis=0)
    kept = table.copy()
    buf = _bound_buffer(cols)
    assert buf.shape == (_BLOCK, n_cols)

    def rows_of(b):
        return table[b * _BLOCK:(b + 1) * _BLOCK]

    for combine in (lambda m: np.subtract(m, c, out=m), lambda m: np.add(m, c, out=m),
                    lambda m: np.divide(m, c, out=m)):
        s = combine(table + a[:, None])
        flat = int(np.argmax(s))
        best, row = _table_max(rows_of, cols, a, combine, buf)
        assert (_bits(best), row) == (_bits(s.flat[flat]), flat // n_cols)
        # combine works in the buffer, never in the table
        assert _bits(table) == _bits(kept)


def test_search_scratch_does_not_grow_with_the_table(monkeypatch):
    # beyond the rows a search caches, its scratch is one block of levels
    # and a few vectors of the grids; a buffer of a row per block, with the
    # bounds of every block at once, held 0.87 MB more at density 64
    spec = van_der_pol()
    epsilons = [0.01, -1.0, -10.0, -40.0]
    family = build_family(spec, epsilons, grid_density=24)
    tables = _level_tables(spec, 64)
    n_x, n_e, n_lev = tables.xg.shape[0], tables.eg.shape[0], len(tables.lev)
    bound = 8 * (2 * _BLOCK * n_lev + 4 * (n_x + n_e))

    def held(search):
        search(replace(tables, _rows={}))  # warm
        t = replace(tables, _rows={})
        tracemalloc.start()
        try:
            search(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - sum(rows.nbytes for rows in t._rows.values())

    searches = (lambda t: _verify_tables(t, family), lambda t: _ratios(t, epsilons))
    assert tables.base_cols.shape[0] > 8 * _BLOCK
    for search in searches:
        extra = held(search)
        assert extra <= bound, (extra, bound)
    monkeypatch.setattr(synthesis, "_bound_buffer",  # a row per block, at least _BLOCK
                        lambda cols: np.empty((max(cols.shape[0], _BLOCK), cols.shape[1])))
    for search in searches:
        assert held(search) > bound + tables.base_cols.nbytes // 2


def _block_rows_ref(t, b):
    """Block b's rows of the level table t, its row terms made and reduced as one block."""
    lo = b * _BLOCK
    xs, gs = t.xg[lo:lo + _BLOCK], t.gx[lo:lo + _BLOCK]
    base = np.empty((len(xs), t.ec.shape[1]))
    for k in range(len(xs)):
        _row_terms(t.rhs, xs[k].tolist(), gs[k].tolist(), t.ec, base[k])
    out = np.empty((len(xs), len(t.lev)))
    _rank_max(base, t.widths, t.back, out)
    return out


@pytest.mark.parametrize("system, density", [("van_der_pol", 24), ("van_der_pol", 25),
                                             ("linear_test", 200)])
def test_refill_row_by_row_is_the_pass(system, density):
    # van_der_pol at 25 has W = 0 points and a zero maximum, at 24 neither;
    # linear_test at 200 spans 13 blocks
    spec = spec_from_config({"name": system})
    t = _level_tables(spec, density)
    n_blocks = t.base_cols.shape[0]
    assert n_blocks > 1 and (t.n_zero > 0) == bool(density % 2)
    for b in range(n_blocks):
        ref = _block_rows_ref(t, b)
        assert _bits(t.rows(b)) == _bits(ref)
        assert np.array_equal(np.signbit(t.rows(b)), np.signbit(ref))
    # f gives NaN only at a row that a refill reads, past the block's first row
    b = n_blocks // 2
    bad = _failing_spec(spec, t.xg[b * _BLOCK + 1:][:1], "nan")
    refill = replace(t, rhs=component_rhs(bad), _rows={})
    refill.rows(b - 1)
    with pytest.raises(ValueError, match=r"^non-finite certificate evaluation on the grid$"):
        refill.rows(b)
    assert b not in refill._rows


@pytest.mark.parametrize("seed", range(20))
def test_rank_max_matches_reduceat(seed):
    # small integers tie often; zeros carry either sign; many levels hold one point
    rng = np.random.default_rng(seed)
    counts = rng.choice([1, 1, 1, 2, 3, 5, 8], size=int(rng.integers(1, 40)))
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    n_rows, n_points = int(rng.integers(1, 2 * _BLOCK)), int(counts.sum())
    table = rng.integers(-2, 3, size=(n_rows, n_points)) * 1.0
    table[table == 0.0] = rng.choice([0.0, -0.0], size=int(np.sum(table == 0.0)))
    cols, widths, back = _rank_major(starts, n_points)
    # each point once, and each level's points in their sorted order
    assert sorted(cols) == list(range(n_points))
    assert widths == sorted(widths, reverse=True) and widths[0] == len(counts)
    out = np.empty((n_rows, len(counts)))
    _rank_max(table[:, cols], widths, back, out)
    ref = np.maximum.reduceat(table, starts, axis=1)
    assert _bits(out) == _bits(ref)
    assert np.array_equal(np.signbit(out), np.signbit(ref))


def _tables_bits(t):
    """The bytes (so the signs of zeros) of the column maxima kept and of every block's rows.

    Where W = 0 is a level, column 0 of the rows holds its maxima.
    """
    n_blocks = t.base_cols.shape[0]
    return [_bits(t.base_cols)] + [_bits(t.rows(b)) for b in range(n_blocks)]


@pytest.mark.parametrize("system, density", [("van_der_pol", 24), ("linear_test", 129)])
def test_drift_without_rhs_gives_same_tables(system, density):
    # the built-in's component rhs against one call of f unpacked by component;
    # both densities span several x row blocks
    spec = spec_from_config({"name": system})
    plain = replace(spec, f=lambda x, e: spec.f(x, e))
    assert not hasattr(plain.f, "rhs")
    assert _grids(spec, density)[0].shape[0] > 4 * _BLOCK
    assert _tables_bits(_level_tables(spec, density)) == _tables_bits(_level_tables(plain, density))


def _forced_tables(monkeypatch, spec, density, k):
    """The level tables with k CPUs, and the number of children forked for them."""
    forks, real_fork = [], os.fork

    def fork():
        forks.append(1)
        return real_fork()

    with monkeypatch.context() as m:
        m.setattr(parallel, "_cpus", lambda: k)
        m.setattr(os, "fork", fork)
        return _level_tables(spec, density), len(forks)


@pytest.mark.parametrize("system, density", [("van_der_pol", 24), ("van_der_pol", 25),
                                             ("linear_test", 200), ("linear_test", 24),
                                             ("linear_test", 16)])
def test_parallel_pass_keeps_its_bits(monkeypatch, system, density):
    # linear_test at 24 has 2 x row blocks and at 16 one, fewer than 3 CPUs;
    # van_der_pol at 25 has W = 0 points, so its level 0 is column 0 of the rows
    spec = spec_from_config({"name": system})
    n_x = _grids(spec, density)[0].shape[0]
    n_blocks = -(-n_x // _BLOCK)
    serial, forks = _forced_tables(monkeypatch, spec, density, 1)
    assert forks == 0
    assert serial.base_cols.shape == (n_blocks, len(serial.lev))
    assert (serial.n_zero > 0) == (serial.lev[0] == 0.0) == bool(density % 2)
    for k in (2, 3):
        t, forks = _forced_tables(monkeypatch, spec, density, k)
        assert forks == min(k, n_blocks) - 1
        assert _tables_bits(t) == _tables_bits(serial)
        # the rows recomputed here have the maxima the pass's processes stored
        for b in range(n_blocks):
            assert _bits(t.rows(b).max(axis=0)) == _bits(t.base_cols[b])


class _Boom(Exception):
    pass


def _failing_spec(spec, bad_rows, failure):
    """spec whose f, at the x rows bad_rows, gives NaN or raises the given exception type."""
    bad = {tuple(x) for x in bad_rows}

    def f(x, e):
        row = tuple(np.reshape(x, (-1, spec.n_x))[0])
        if row in bad:
            if failure == "nan":
                return np.full(np.broadcast_shapes(np.shape(x), np.shape(e)), np.nan)
            raise failure(f"f fails at x={row}")
        return spec.f(x, e)

    return replace(spec, f=f)


def _raised(monkeypatch, spec, density, k):
    with monkeypatch.context() as m, pytest.raises(Exception) as exc:
        m.setattr(parallel, "_cpus", lambda: k)
        _level_tables(spec, density)
    return type(exc.value), str(exc.value)


@pytest.mark.parametrize("failure", ["nan", _Boom])
@pytest.mark.parametrize("where", ["first block", "last block", "two ranges"])
def test_parallel_pass_raises_as_serial(monkeypatch, failure, where):
    # 26 blocks split 8/9/9 over 3 CPUs: the first block is the first
    # child's and the last block the parent's, and "two ranges" fails in
    # the second child's range and the parent's, with different rows
    spec = van_der_pol()
    xg = _grids(spec, 24)[0]
    n_blocks = -(-xg.shape[0] // _BLOCK)
    last = xg[(n_blocks - 1) * _BLOCK:]
    bad = {"first block": xg[:_BLOCK], "last block": last,
           "two ranges": np.vstack([xg[12 * _BLOCK + 5:][:3], last[-2:]])}[where]
    bad_spec = _failing_spec(spec, bad, failure)
    serial = _raised(monkeypatch, bad_spec, 24, 1)
    assert serial[0] is (ValueError if failure == "nan" else _Boom)
    if failure is _Boom:
        assert serial[1] == f"f fails at x={tuple(bad[0])}"
    assert _raised(monkeypatch, bad_spec, 24, 3) == serial


def test_interrupt_in_parent_range_reaps_children(monkeypatch):
    # the children are busy with their ranges when the parent's first row
    # raises: of 26 blocks over 3 CPUs, the parent fills the last 9
    spec = van_der_pol()
    xg = _grids(spec, 24)[0]
    n_blocks = -(-xg.shape[0] // _BLOCK)
    bad_spec = _failing_spec(spec, xg[n_blocks * 2 // 3 * _BLOCK:][:1], KeyboardInterrupt)
    monkeypatch.setattr(parallel, "_cpus", lambda: 3)
    with pytest.raises(KeyboardInterrupt):
        _level_tables(bad_spec, 24)


@pytest.mark.parametrize("fails", ["every fork", "second fork", "child killed"])
def test_parent_refills_ranges_it_could_not_hand_off(monkeypatch, fails):
    spec = van_der_pol()
    serial = _level_tables(spec, 24)
    parent, real_fork, calls = os.getpid(), os.fork, []

    def fork():
        calls.append(1)
        if fails == "every fork" or fails == "second fork" and len(calls) == 2:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return real_fork()

    def f(x, e):
        # a child dies by a signal on its first row, with no exception to report
        if fails == "child killed" and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return spec.f(x, e)

    monkeypatch.setattr(parallel, "_cpus", lambda: 3)
    monkeypatch.setattr(os, "fork", fork)
    t = _level_tables(replace(spec, f=f), 24)
    assert len(calls) == 2
    assert _tables_bits(t) == _tables_bits(serial)


def test_table_allocation_failure_is_memory_error(monkeypatch):
    # mmap reports ENOMEM as an OSError; other errors pass through as they are
    def no_memory(*args):
        raise OSError(errno.ENOMEM, "Cannot allocate memory")

    def no_device(*args):
        raise OSError(errno.ENODEV, "No such device")

    monkeypatch.setattr(mmap, "mmap", no_memory)
    with pytest.raises(MemoryError, match=r"^cannot map a level table of \d+ bytes$"):
        _level_tables(linear_test(), 16)
    monkeypatch.setattr(mmap, "mmap", no_device)
    with pytest.raises(OSError) as exc:
        _level_tables(linear_test(), 16)
    assert exc.value.errno == errno.ENODEV


_LADDERS = {
    "van_der_pol": [0.01, -1.0, -40.0],
    # base = e^2 - x^2 for linear_test, so +-x and +-e tie exactly
    "linear_test": [0.5, -1.0, -3.0],
}
# a custom system block: another region level, hence other grid radii and levels
_CUSTOM = {"van_der_pol": {"c": 6.0}, "linear_test": {"c": 4.0}}


# linear_test at 129 and 200 spans several x blocks, with the exact +-x
# ties in different blocks
_DENSITIES = [(system, density) for system in sorted(_LADDERS) for density in (16, 33, 48)] \
    + [("linear_test", 129), ("linear_test", 200)]


@pytest.mark.parametrize("config", ["default", "custom"])
@pytest.mark.parametrize("system,density", _DENSITIES)
def test_level_pass_matches_point_sweep(system, density, config):
    epsilons = _LADDERS[system]
    block = {"name": system, **(_CUSTOM[system] if config == "custom" else {})}
    spec = spec_from_config(block)
    ratios = _ref_synth_ratios(spec, epsilons, density)
    assert _bits(_ratios(_level_tables(spec, density), epsilons)) == _bits(ratios)
    fam = build_family(spec, epsilons, grid_density=density)
    gammas = [GAMMA_INFLATION * math.sqrt(r) if r > 0.0 else GAMMA_FLOOR
              for r in ratios]
    assert _bits([ps.gamma for ps in fam.sets]) == _bits(gammas)

    # halved gammas fail, which moves the worst points off the W = 0 level
    sets = fam.sets + tuple(replace(ps, gamma=ps.gamma / 2.0) for ps in fam.sets)
    reports = verify_family(spec, ParameterFamily(sets=sets), density)
    max_s, worst, n_points = _ref_sweep(
        spec, [(ps.epsilon, ps.gamma) for ps in sets], density)
    for k, rep in enumerate(reports):
        assert _bits(rep.max_violation) == _bits(max_s[k])
        assert _bits(rep.worst_x) == _bits(worst[k][0])
        assert _bits(rep.worst_e) == _bits(worst[k][1])
        assert rep.n_points == n_points


def test_build_family_ordering_and_fallback():
    spec = linear_test()
    fam = build_family(spec, [-1.0, 0.5, -2.0], grid_density=16)
    assert [ps.epsilon for ps in fam.sets] == [0.5, -1.0, -2.0]
    assert fam.fallback is fam.sets[0]
    assert fam.fallback.epsilon == 0.5
    assert all(rep.certified for rep in verify_family(spec, fam, grid_density=16))


def test_build_family_requires_positive_epsilon():
    spec = linear_test()
    with pytest.raises(ValueError):
        build_family(spec, [-1.0, -2.0], grid_density=16)
    with pytest.raises(ValueError):
        build_family(spec, [], grid_density=16)


def test_build_family_single_set():
    fam = build_family(linear_test(), [0.01], grid_density=16)
    assert len(fam.sets) == 1 and fam.fallback is fam.sets[0]


def test_default_epsilon_ladder():
    lad = default_epsilon_ladder()
    assert len(lad) == 21
    assert lad[0] == 0.01
    assert lad[1] == pytest.approx(-0.01)
    assert lad[-1] == pytest.approx(-40.0)
    mags = [abs(e) for e in lad[1:]]
    assert all(b > a for a, b in zip(mags, mags[1:]))
    assert default_epsilon_ladder(1) == [0.01]
    with pytest.raises(ValueError):
        default_epsilon_ladder(0)
    with pytest.raises(ValueError):
        default_epsilon_ladder(5, eps_top=-1.0)


def test_vdp_synthesis_and_refined_reverify():
    spec = van_der_pol()
    fam = build_family(spec, [0.01], l_const=0.05, grid_density=48)
    assert verify_family(spec, fam, grid_density=48)[0].certified
    rep = verify_family(spec, fam, grid_density=96)[0]
    # soundness at grid scale: the set holds on a 2x-finer grid too
    assert rep.certified


def test_family_verify_matches_single(tmp_path):
    # a set's report does not depend on the other sets of the pass
    spec = linear_test()
    fam = build_family(spec, [0.5, -1.0], grid_density=16)
    reports = verify_family(spec, fam, grid_density=16)
    for ps, rep in zip(fam.sets, reports):
        single = verify_family(spec, ParameterFamily(sets=(fam.fallback, ps)), 16)[1]
        assert rep == single


def test_corrupted_gamma_rejected():
    spec = linear_test()
    fam = build_family(spec, [0.5], grid_density=32)
    good = fam.fallback
    bad = ParameterSet(epsilon=good.epsilon, gamma=good.gamma / 2.0,
                       l_const=good.l_const)
    rep = _verify_one(spec, bad, grid_density=32)
    assert not rep.certified


def test_manifest_round_trip(tmp_path):
    spec = linear_test()
    fam = build_family(spec, [0.5, -1.0, -3.0], grid_density=16)
    path = tmp_path / "family.json"
    write_manifest(path, fam, grid_density=16)
    doc = json.loads(path.read_text())
    assert set(doc["sets"][0]) == {"epsilon", "gamma", "L", "grid_density"}
    back, density = read_manifest(path)
    assert density == 16
    assert back == fam
    # a manifest with the per-set "margin" key of earlier versions still
    # loads; the key is ignored
    for d in doc["sets"]:
        d["margin"] = 0.5
    assert manifest_to_family(doc) == fam


def test_manifest_fallback_is_set_0():
    fam = build_family(linear_test(), [0.5, -1.0], grid_density=16)
    doc = family_to_manifest(fam, 16)
    assert doc["fallback_index"] == 0
    del doc["fallback_index"]
    assert manifest_to_family(doc) == fam
    for bad in (1, -1, "0", None, False, True):
        with pytest.raises(ValueError, match="fall-back must be set 0"):
            manifest_to_family(dict(doc, fallback_index=bad))


def test_manifest_malformed():
    with pytest.raises(ValueError):
        manifest_to_family({"sets": [{"epsilon": 1.0}]})
    with pytest.raises(ValueError):
        manifest_to_family({})
