"""Tests for the dynamic trigger and jump map."""

import math
from dataclasses import replace

import numpy as np
import pytest

from dynstc import engine
from dynstc.engine import (
    FALLBACK_DECREASE,
    WINDOW_BOUND,
    DynamicVariable,
    RegionEscapeError,
    StcConfig,
    TriggerDecision,
    eta_initial,
    gamma_trigger,
    interval_for_set,
    set_lambda_cap,
    static_trigger,
    stc_step,
    t_max_cap,
    t_min_of,
    update_eta,
    window_average_c,
)
from dynstc.synthesis import (ParameterFamily, ParameterSet, build_family,
                              default_epsilon_ladder)
from dynstc.systems import linear_test, van_der_pol
from dynstc.timing import t_max


def _family(*triples):
    sets = tuple(ParameterSet(epsilon=e, gamma=g, l_const=l) for e, g, l in triples)
    return ParameterFamily(sets=sets)


FB = (0.01, 2.0, 0.05)


def _cap(ps, delta):
    """The rate cap of a candidate set, spelled out: max{L + eps/2, 1 - delta}."""
    return max(ps.l_const + 0.5 * ps.epsilon, 1.0 - delta)


def _candidate(ps, delta=0.999):
    """A config with eps_ref = 0.01 whose set 1 is ps, next to the fall-back FB."""
    return StcConfig(family=ParameterFamily(sets=(ParameterSet(*FB), ps)), c=10.0,
                     delta=delta, eps_ref=0.01)


def test_dynamic_variable_validation():
    DynamicVariable(eta=(0.0, 1.0))
    with pytest.raises(ValueError):
        DynamicVariable(eta=(-1.0,))
    with pytest.raises(ValueError):
        DynamicVariable(eta=(math.nan,))


def test_eta_initial():
    assert eta_initial(4, 2.5).eta == (2.5, 2.5, 2.5)
    assert eta_initial(4, 2.5, policy="zero").eta == (0.0, 0.0, 0.0)
    assert eta_initial(1, 7.0).eta == ()
    with pytest.raises(ValueError):
        eta_initial(0, 1.0)
    with pytest.raises(ValueError):
        eta_initial(3, -1.0)
    with pytest.raises(ValueError):
        eta_initial(3, 1.0, policy="ones")


def test_update_eta():
    assert update_eta(DynamicVariable(eta=(1.0, 2.0, 3.0)), 4.0).eta == (2.0, 3.0, 4.0)
    assert update_eta(DynamicVariable(), 5.0).eta == ()
    assert update_eta(DynamicVariable(eta=(5.0,)), 0.0).eta == (0.0,)
    with pytest.raises(ValueError):
        update_eta(DynamicVariable(eta=(1.0,)), -1.0)


def test_window_average_c():
    assert window_average_c(1.0, DynamicVariable(eta=(1.0, 1.0)), 10.0, 3) == 1.0
    assert window_average_c(30.0, DynamicVariable(eta=(30.0, 30.0)), 10.0, 3) == 10.0
    assert window_average_c(4.0, DynamicVariable(eta=(1.0, 1.0)), 10.0, 3) == 2.0
    # m = 1 degenerates to min{c, V}
    assert window_average_c(4.0, DynamicVariable(), 2.0, 1) == 2.0
    assert window_average_c(0.5, DynamicVariable(), 2.0, 1) == 0.5
    with pytest.raises(ValueError):
        window_average_c(1.0, DynamicVariable(eta=(1.0,)), 10.0, 3)
    with pytest.raises(ValueError):
        window_average_c(-1.0, DynamicVariable(eta=(1.0, 1.0)), 10.0, 3)


def test_window_average_homogeneous():
    rng = np.random.default_rng(5)
    for _ in range(50):
        v = rng.uniform(0.0, 5.0)
        eta = DynamicVariable(eta=tuple(rng.uniform(0.0, 5.0, size=4)))
        c = rng.uniform(0.1, 10.0)
        base = window_average_c(v, eta, c, 5)
        scaled = window_average_c(4.0 * v, DynamicVariable(
            eta=tuple(4.0 * e for e in eta.eta)), 4.0 * c, 5)
        assert scaled == 4.0 * base


def test_interval_case1_log_binding():
    # c >= v with eps_ref above eps: the log term can cut the cap
    ps = ParameterSet(epsilon=0.0, gamma=0.1, l_const=0.01)
    dt = 0.999 * t_max(0.1, max(0.01, 1.0 - 0.999))
    h = interval_for_set(1.0, 1.02, _candidate(ps), 1)
    expected = math.log(1.02) / 0.01
    assert expected < dt
    assert h == pytest.approx(expected, rel=1e-12)
    # and when the log bound exceeds the cap, the cap wins
    h2 = interval_for_set(1.0, 2.0, _candidate(ps), 1)
    assert h2 == pytest.approx(dt, rel=1e-12)


def test_interval_case2_cap():
    ps = ParameterSet(epsilon=0.02, gamma=2.0, l_const=0.05)
    dt = 0.999 * t_max(2.0, _cap(ps, 0.999))
    assert interval_for_set(1.0, 1.0, _candidate(ps), 1) == dt
    assert interval_for_set(0.5, 3.0, _candidate(ps), 1) == dt


def test_interval_case3_infeasible():
    ps = ParameterSet(epsilon=0.01, gamma=2.0, l_const=0.05)
    assert interval_for_set(2.0, 1.0, _candidate(ps), 1) == 0.0


def test_interval_case4_recovery_after_tbar():
    # C < V with eps well above eps_ref: admissible once h clears t_bar
    ps = ParameterSet(epsilon=5.0, gamma=6.0, l_const=0.05)
    delta = 0.2 / t_max(6.0, _cap(ps, 0.5))
    dt = delta * t_max(6.0, _cap(ps, delta))
    assert dt == pytest.approx(0.2, rel=1e-12)
    t_bar = math.log(0.5) / (0.01 - 5.0)
    assert t_bar == pytest.approx(0.1389, abs=1e-4)
    assert interval_for_set(2.0, 1.0, _candidate(ps, delta), 1) == pytest.approx(0.2, rel=1e-12)
    # a shorter cap falls below t_bar and nothing is certifiable
    ps_big = ParameterSet(epsilon=5.0, gamma=60.0, l_const=0.05)
    dt_big = delta * t_max(60.0, _cap(ps_big, delta))
    assert dt_big < t_bar
    assert interval_for_set(2.0, 1.0, _candidate(ps_big, delta), 1) == 0.0


def test_interval_conventions():
    ps = ParameterSet(epsilon=-1.0, gamma=2.0, l_const=0.05)
    dt = 0.999 * t_max(2.0, _cap(ps, 0.999))
    # origin: any interval is admissible
    assert interval_for_set(0.0, 0.0, _candidate(ps), 1) == dt
    assert interval_for_set(0.0, 5.0, _candidate(ps), 1) == dt
    # zero window average with positive energy: nothing is certifiable
    assert interval_for_set(1.0, 0.0, _candidate(ps), 1) == 0.0
    ps_pos = ParameterSet(epsilon=1.0, gamma=2.0, l_const=0.05)
    assert interval_for_set(1.0, 0.0, _candidate(ps_pos), 1) == 0.0
    with pytest.raises(ValueError):
        interval_for_set(-1.0, 1.0, _candidate(ps), 1)


def test_log_interval_rounds_past_its_root():
    # the float h = log(C/V)/a of the log branch lies above the exact root
    # of (eps_ref - eps_i)*h = log(C/V) in about half the draws; the excess
    # in that inequality is a rounding of C/V and of three operations,
    # below 4u(1 + log(C/V)) for the unit roundoff u (at most 1.34u(1 + log)
    # seen).  Relative to h it grows as C/V nears 1: up to 6.5e-13 here.
    mpmath = pytest.importorskip("mpmath")
    fam = build_family(van_der_pol(), default_epsilon_ladder(), 0.05, 48)
    cfg = StcConfig(family=fam, c=10.0)
    rng = np.random.default_rng(3)
    u, n_log, n_over = 2.0 ** -53, 0, 0
    for _ in range(20000):
        i = int(rng.integers(len(fam.sets)))
        v, c_val = rng.uniform(0.0, cfg.c, 2)
        h = interval_for_set(v, c_val, cfg, i)
        if not (c_val >= v and cfg.eps_ref > fam.sets[i].epsilon
                and h < cfg._interval_caps[i]):
            continue
        n_log += 1
        with mpmath.workdps(50):
            log_cv = mpmath.log(mpmath.mpf(c_val) / mpmath.mpf(v))
            a = mpmath.mpf(cfg.eps_ref) - mpmath.mpf(fam.sets[i].epsilon)
            excess = a * mpmath.mpf(h) - log_cv
            assert excess <= 4 * u * (1 + log_cv)
            n_over += excess > 0
    assert n_log > 1000 and n_log / 3 < n_over < n_log


def test_stc_config_validation():
    fam = _family(FB)
    StcConfig(family=fam, c=10.0)
    for kwargs in ({"delta": 1.0}, {"delta": 0.0}, {"eps_ref": 0.0},
                   {"m": 0}, {"c": 0.0}, {"eta_init": "junk"},
                   {"eps_ref": math.inf}, {"c": math.inf}):
        with pytest.raises(ValueError):
            StcConfig(family=fam, c=kwargs.pop("c", 10.0), **kwargs)


def test_t_min_and_cap():
    fam = _family(FB, (-1.0, 0.5, 0.05), (-10.0, 1.0, 0.05))
    cfg = StcConfig(family=fam, c=10.0)
    tmin = t_min_of(cfg)
    assert tmin == pytest.approx(0.999 * t_max(2.0, 0.055), rel=1e-12)
    cap = t_max_cap(cfg)
    caps = [tmin] + [0.999 * t_max(ps.gamma, _cap(ps, 0.999))
                     for ps in fam.sets[1:]]
    assert cap == max(caps)
    assert cap >= tmin


def test_trigger_single_set_family():
    spec = linear_test()
    cfg = StcConfig(family=_family(FB), c=1.0, m=3)
    dec = gamma_trigger([0.5], eta_initial(3, 0.25), cfg, spec)
    assert dec.used_fallback
    assert dec.bound_type == FALLBACK_DECREASE
    assert dec.set_index == 0
    assert dec.h == t_min_of(cfg)
    assert dec.lambda_cap_used == pytest.approx(0.055)
    assert dec.v_now == pytest.approx(0.25)
    assert dec.c_val == pytest.approx(0.25)


def test_trigger_region_violation():
    spec = linear_test()
    cfg = StcConfig(family=_family(FB), c=1.0, m=1)
    with pytest.raises(RegionEscapeError) as exc:
        gamma_trigger([2.0], DynamicVariable(), cfg, spec)
    assert exc.value.v == pytest.approx(4.0)
    assert np.array_equal(exc.value.x, [2.0])


def test_trigger_prefers_longer_window_interval():
    spec = linear_test()
    # smaller gamma buys a longer cap, certified fully since eps >= eps_ref
    fam = _family(FB, (0.02, 1.0, 0.05))
    cfg = StcConfig(family=fam, c=1.0, m=2)
    dec = gamma_trigger([0.5], DynamicVariable(eta=(0.3,)), cfg, spec)
    assert not dec.used_fallback
    assert dec.bound_type == WINDOW_BOUND
    assert dec.set_index == 1
    cap1 = 0.999 * t_max(1.0, _cap(fam.sets[1], 0.999))
    assert dec.h == cap1
    assert dec.h > t_min_of(cfg)


def test_trigger_tie_goes_to_lower_index():
    spec = linear_test()
    twin = (0.02, 1.0, 0.05)
    fam = _family(FB, twin, twin)
    cfg = StcConfig(family=fam, c=1.0, m=1)
    dec = gamma_trigger([0.5], DynamicVariable(), cfg, spec)
    assert dec.set_index == 1


def test_trigger_equal_to_fallback_counts_as_window():
    # a candidate certifying exactly the fall-back interval upgrades the
    # bound type without changing h; built so both caps share every float:
    # Lambda = 0.045 + 0.02/2 = 0.05 + 0.01/2 = 0.055, same gamma
    spec = linear_test()
    fb = ParameterSet(*FB)
    h_fb = 0.999 * t_max(fb.gamma, fb.l_const + 0.5 * fb.epsilon)
    twin = ParameterSet(epsilon=0.02, gamma=2.0, l_const=0.045)
    assert _cap(twin, 0.999) == fb.l_const + 0.5 * fb.epsilon
    fam = ParameterFamily(sets=(fb, twin))
    cfg = StcConfig(family=fam, c=10.0, m=2)
    dec = gamma_trigger([1.0], DynamicVariable(eta=(2.0,)), cfg, spec)
    assert dec.h == h_fb
    assert dec.bound_type == WINDOW_BOUND
    assert dec.set_index == 1


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
    """Brute-force line search: densest grid point satisfying the window
    inequality v*exp((eps_ref-eps)h) <= c_val, per set, best over sets."""
    best = t_min_of(cfg)
    for i, ps in enumerate(cfg.family.sets):
        if i == 0:
            continue
        dt = cfg.delta * t_max(ps.gamma, _cap(ps, cfg.delta))
        hs = np.linspace(0.0, dt, 100_001)
        ok = v * np.exp((cfg.eps_ref - ps.epsilon) * hs) <= c_val
        if ok.any():
            best = max(best, float(hs[np.nonzero(ok)[0][-1]]))
    return best


def test_trigger_matches_line_search_oracle():
    rng = np.random.default_rng(42)
    spec = linear_test(c=1e9)
    for _ in range(500):
        fam = _random_family(rng)
        c = float(10.0 ** rng.uniform(-1, 2))
        cfg = StcConfig(family=fam, c=c, m=2,
                        eps_ref=float(10.0 ** rng.uniform(-3, 0)))
        v = 0.0 if rng.uniform() < 0.05 else float(c * rng.uniform(0.0, 1.2))
        if v > c:
            v = c  # trigger precondition
        eta0 = float(rng.uniform(0.0, c * 2.0))
        dyn = DynamicVariable(eta=(eta0,))
        dec = gamma_trigger([math.sqrt(v)], dyn, cfg, spec)
        c_val = window_average_c(v, dyn, c, 2)
        dt_scale = max(cfg.delta * t_max(ps.gamma, _cap(ps, cfg.delta))
                       for ps in fam.sets)
        assert dec.h >= t_min_of(cfg)
        assert dec.h <= t_max_cap(cfg) * (1 + 1e-12)
        assert abs(dec.h - _oracle_h(v, c_val, cfg)) <= 1e-5 * dt_scale


def test_trigger_agrees_bitwise_with_interval_for_set():
    # the trigger issues the fall-back's cap t_min or the best candidate's
    # interval_for_set: same floats, same winner.  At the origin every set,
    # the fall-back included, certifies its own cap; delta = 0.9 puts
    # 1 - delta above some fall-backs' L + eps/2, where the two rate caps differ
    rng = np.random.default_rng(17)
    spec = linear_test(c=1e9)
    for _ in range(300):
        fam = _random_family(rng)
        c = float(10.0 ** rng.uniform(-1, 2))
        eps_ref = float(10.0 ** rng.uniform(-3, 0))
        x = math.sqrt(c * rng.uniform(0.0, 1.0))
        v = float(spec.v([x]))
        dyn = DynamicVariable(eta=(float(rng.uniform(0.0, c * 2.0)),))
        c_val = window_average_c(v, dyn, c, 2)
        for delta in (0.999, 0.9):
            cfg = StcConfig(family=fam, c=c, m=2, eps_ref=eps_ref, delta=delta)
            caps = [interval_for_set(0.0, c_val, cfg, i) for i in range(len(fam.sets))]
            assert caps[0] == t_min_of(cfg) and max(caps) == t_max_cap(cfg)
            assert caps == [cfg.delta * t_max(ps.gamma, set_lambda_cap(cfg, i))
                            for i, ps in enumerate(fam.sets)]
            hs = [interval_for_set(v, c_val, cfg, i) for i in range(len(fam.sets))]
            assert all(0.0 <= h <= cap for h, cap in zip(hs, caps))
            best_h, best_i = t_min_of(cfg), 0
            for i in range(1, len(fam.sets)):
                if hs[i] >= t_min_of(cfg) and (best_i == 0 or hs[i] > best_h):
                    best_h, best_i = hs[i], i
            dec = gamma_trigger([x], dyn, cfg, spec)
            assert (dec.h, dec.set_index) == (best_h, best_i)
            # the decision carries its issuing set; the flags follow from set 0
            assert dec.params is cfg.family.sets[dec.set_index]
            assert dec.used_fallback == (dec.set_index == 0)
            assert dec.bound_type == (FALLBACK_DECREASE if dec.set_index == 0
                                      else WINDOW_BOUND)


def test_fallback_interval_is_t_min():
    # one cap per set: the fall-back's interval_for_set is t_min, also at
    # delta = 0.9, where 1 - delta = 0.1 exceeds its L + eps/2 = 0.055
    cfg = StcConfig(family=_family(FB, (0.02, 1.0, 0.05)), c=1.0, m=2, delta=0.9)
    t_min = t_min_of(cfg)
    assert t_min == 0.9 * t_max(2.0, 0.05 + 0.5 * 0.01)
    assert interval_for_set(1.0, 1.0, cfg, 0) == t_min
    assert interval_for_set(0.0, 0.0, cfg, 0) == t_min
    assert interval_for_set(0.5, 2.0, cfg, 0) == t_min
    assert interval_for_set(1.0, 0.5, cfg, 0) == 0.0


def test_set_caps_computed_once_per_config(monkeypatch):
    calls = []
    real = engine.t_max
    monkeypatch.setattr(engine, "t_max", lambda g, lam: calls.append(g) or real(g, lam))
    fam = _family(FB, (0.02, 1.0, 0.05), (-1.0, 1.5, 0.05))
    cfg = StcConfig(family=fam, c=1.0, m=2)
    spec = linear_test()
    for v in np.linspace(0.0, 1.0, 40):
        gamma_trigger([math.sqrt(v)], DynamicVariable(eta=(0.3,)), cfg, spec)
    assert t_min_of(cfg) <= t_max_cap(cfg)
    assert len(calls) == len(fam.sets)


def test_trigger_scale_invariance():
    # scaling (V, eta, c) by a power of two leaves decisions bit-identical
    rng = np.random.default_rng(9)
    spec = linear_test(c=1e9)
    for _ in range(100):
        fam = _random_family(rng)
        c = float(10.0 ** rng.uniform(-1, 2))
        v = float(c * rng.uniform(0.0, 1.0))
        eta = (float(rng.uniform(0.0, c)),)
        cfg = StcConfig(family=fam, c=c, m=2)
        d1 = gamma_trigger([math.sqrt(v)], DynamicVariable(eta=eta), cfg, spec)
        d2 = gamma_trigger([math.sqrt(4.0 * v)],
                           DynamicVariable(eta=(4.0 * eta[0],)),
                           StcConfig(family=fam, c=4.0 * c, m=2), spec)
        assert d1.h == d2.h
        assert d1.set_index == d2.set_index
        assert d1.bound_type == d2.bound_type


def test_static_trigger_matches_m1():
    rng = np.random.default_rng(17)
    spec = linear_test(c=1e9)
    fam = _family(FB, (-2.0, 3.0, 0.1), (-20.0, 5.0, 0.1))
    cfg30 = StcConfig(family=fam, c=5.0, m=30)
    cfg1 = StcConfig(family=fam, c=5.0, m=1)
    for _ in range(200):
        v = float(rng.uniform(0.0, 5.0))
        a = static_trigger([math.sqrt(v)], cfg30, spec)
        b = gamma_trigger([math.sqrt(v)], DynamicVariable(), cfg1, spec)
        assert a == b


def test_stc_step_jump_semantics():
    # the decision comes from the pre-shift register, which then takes V(x)
    spec = linear_test()
    cfg = StcConfig(family=_family(FB, (0.02, 1.0, 0.05)), c=1.0, m=3)
    dyn = DynamicVariable(eta=(0.5, 0.75))
    dec, nxt = stc_step(np.array([0.5]), dyn, cfg, spec)
    assert dec == gamma_trigger(np.array([0.5]), dyn, cfg, spec)
    assert dec.c_val == pytest.approx((0.25 + 0.5 + 0.75) / 3)
    assert nxt.eta == (0.75, 0.25)  # shifted, V(x) = 0.25 appended
    assert dyn.eta == (0.5, 0.75)   # the input register is left as it was


def test_eta_fill_induction():
    # after m-1 jumps the register holds exactly the last m-1 energies
    spec = linear_test()
    m = 5
    cfg = StcConfig(family=_family(FB), c=1.0, m=m)
    xs = [0.9, 0.8, 0.7, 0.6]
    dyn = eta_initial(m, xs[0] ** 2)
    seen = []
    for xk in xs:
        _, dyn = stc_step(np.array([xk]), dyn, cfg, spec)
        seen.append(xk ** 2)
    assert dyn.eta == pytest.approx(tuple(seen))


def test_lambda_cap_used_is_the_set_cap():
    # one rule for every caller: L + eps/2 for the fall-back, else
    # max{L + eps/2, 1 - delta}; delta = 0.9 makes the two differ for the fall-back
    spec = linear_test()
    fam = _family(FB, (0.02, 1.0, 0.05))
    cfg = StcConfig(family=fam, c=1.0, m=2, delta=0.9)
    assert _cap(fam.sets[0], cfg.delta) == pytest.approx(0.1)
    win = gamma_trigger([0.5], DynamicVariable(eta=(0.3,)), cfg, spec)
    fb = gamma_trigger([0.5], DynamicVariable(eta=(0.3,)),
                       replace(cfg, family=_family(FB)), spec)
    assert not win.used_fallback and fb.used_fallback
    assert win.lambda_cap_used == set_lambda_cap(cfg, win.set_index) \
        == _cap(fam.sets[1], cfg.delta)
    assert fb.lambda_cap_used == set_lambda_cap(cfg, fb.set_index) == 0.05 + 0.5 * 0.01
    assert t_min_of(cfg) == cfg.delta * t_max(2.0, set_lambda_cap(cfg, 0))
    assert t_max_cap(cfg) == max(cfg.delta * t_max(ps.gamma, set_lambda_cap(cfg, i))
                                 for i, ps in enumerate(fam.sets))
