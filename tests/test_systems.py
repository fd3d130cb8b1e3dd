"""Tests for the bundled system models."""

import numpy as np
import pytest

from dynstc.systems import (
    SystemSpec,
    eval_f,
    in_region,
    linear_test,
    spec_from_config,
    spec_from_json,
    van_der_pol,
)


@pytest.fixture(scope="module")
def vdp():
    return van_der_pol()


def test_vdp_metadata(vdp):
    assert vdp.n_x == vdp.n_e == 2
    assert vdp.region_c == 10.0
    # radius of the smallest ball containing {V <= c}
    assert vdp.x_radius == pytest.approx(1.8616, abs=1e-3)
    assert vdp.e_radius == pytest.approx(2.0 * vdp.x_radius)


def test_vdp_drift_values(vdp):
    z = np.zeros(2)
    np.testing.assert_allclose(eval_f(vdp, z, z), [0.0, 0.0])
    np.testing.assert_allclose(eval_f(vdp, [1.0, 0.0], z), [0.0, -1.0])
    # at the origin with e=(1,1): a1 = e1*e2 = 1, a2 = e1^2 = 1,
    # so f2 = a1*e1 + (a2-2)*e2 = 1 - 1 = 0
    np.testing.assert_allclose(eval_f(vdp, z, [1.0, 1.0]), [0.0, 0.0],
                               atol=1e-15)


def test_vdp_drift_batched(vdp):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 1, 2))
    e = rng.normal(size=(1, 7, 2))
    out = eval_f(vdp, x, e)
    assert out.shape == (5, 7, 2)
    for i in range(5):
        for k in range(7):
            np.testing.assert_allclose(out[i, k], eval_f(vdp, x[i, 0], e[0, k]))


def _mixed_values(rng, shape):
    """Both signs, magnitudes 1e-3..1e3, and a share of +0.0 and -0.0."""
    z = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-3, 3, size=shape)
    zero = rng.random(shape) < 0.2
    z[zero] = np.copysign(0.0, z[zero])
    return z


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("make", [van_der_pol, linear_test])
def test_point_and_grid_drift_agree_bitwise(make):
    spec = make()
    n = spec.n_x
    rng = np.random.default_rng(11)
    x = _mixed_values(rng, (6, 1, n))
    e = _mixed_values(rng, (1, 9, n))
    x[0, 0] = 0.0
    x[1, 0] = -0.0
    e[0, :3] = [[0.0] * n, [-0.0] * n, [0.0, -0.0][:n]]

    def point(xi, ei):
        out = spec.f(xi, ei)   # the 1-D branch, on Python floats
        assert out.shape == (n,) and out.dtype == np.float64
        return out

    grid = spec.f(x, e)
    assert grid.shape == (6, 9, n)
    for i in range(6):
        for k in range(9):
            assert _same_bits(grid[i, k], point(x[i, 0], e[0, k]))
    rows = spec.f(x[:, 0], e[0, 4])   # (k, n) with (n,)
    assert rows.shape == (6, n)
    for i in range(6):
        assert _same_bits(rows[i], point(x[i, 0], e[0, 4]))
        assert _same_bits(spec.f(x[i], e[0, 4])[0], rows[i])


def test_vdp_energy(vdp):
    assert vdp.v(np.zeros(2)) == 0.0
    assert vdp.v([2.0, 2.0]) == pytest.approx(41.76)
    x = np.array([0.3, -1.2])
    np.testing.assert_allclose(vdp.grad_v(x),
                               2.0 * np.array([[4.68, 1.10], [1.10, 3.56]]) @ x)


def test_vdp_energy_symmetry(vdp):
    rng = np.random.default_rng(1)
    x = rng.normal(size=(200, 2))
    np.testing.assert_allclose(vdp.v(x), vdp.v(-x), rtol=1e-12)


def test_in_region(vdp):
    assert in_region(vdp, np.zeros(2))
    assert not in_region(vdp, [2.0, 2.0])
    # boundary point V = c counts as inside
    x = np.array([1.0, 0.0]) * np.sqrt(10.0 / 4.68)
    assert vdp.v(x) == pytest.approx(10.0)
    assert in_region(vdp, x * (1.0 - 1e-12))


def test_default_w_h(vdp):
    w, h = vdp.w, vdp.h_fn
    assert vdp.default_wh
    assert w(np.zeros(2)) == 0.0
    assert h(np.zeros(2), np.zeros(2)) == 0.0
    assert h(np.array([1.0, 0.0]), np.zeros(2)) == pytest.approx(1.0)
    assert w(np.array([3.0, 4.0])) == pytest.approx(5.0)


def test_default_w_growth_inequality(vdp):
    # the hold error flows with -f, so |d||e||/dt| = |<e/||e||, -f>| <= ||f|| = H;
    # the growth inequality then holds with slack >= 0 for every L >= 0
    rng = np.random.default_rng(2)
    x = rng.uniform(-vdp.x_radius, vdp.x_radius, size=(400, 2))
    e = rng.uniform(-vdp.e_radius, vdp.e_radius, size=(400, 2))
    f = eval_f(vdp, x, e)
    ne = np.linalg.norm(e, axis=-1)
    mask = ne > 1e-12
    rate = np.einsum("ij,ij->i", e, -f)[mask] / ne[mask]
    slack = vdp.h_fn(x, e)[mask] - rate
    assert np.all(slack >= -1e-12)


def test_region_error_containment(vdp):
    # any two points of {V <= c} differ by at most the error-ball radius
    rng = np.random.default_rng(4)
    x = rng.uniform(-vdp.x_radius, vdp.x_radius, size=(2000, 2))
    x = x[np.asarray(in_region(vdp, x))]
    assert len(x) > 100
    diffs = x[:, None, :] - x[None, :, :]
    assert np.max(np.linalg.norm(diffs, axis=-1)) <= vdp.e_radius * (1 + 1e-12)


def test_dimension_mismatch(vdp):
    with pytest.raises(ValueError):
        eval_f(vdp, [1.0, 2.0, 3.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        eval_f(vdp, [1.0, 2.0], [0.0])
    with pytest.raises(ValueError):
        in_region(vdp, [1.0])


def test_linear_test_system():
    spec = linear_test()
    assert spec.n_x == spec.n_e == 1
    assert spec.region_c == 1.0
    assert spec.x_radius == pytest.approx(1.0)
    np.testing.assert_allclose(eval_f(spec, [1.0], [2.0]), [-3.0])
    assert spec.v([2.0]) == pytest.approx(4.0)
    np.testing.assert_allclose(spec.grad_v([2.0]), [4.0])
    assert spec.w([0.5]) == pytest.approx(0.5)
    assert spec.h_fn([1.0], [2.0]) == pytest.approx(3.0)


def test_bad_p_rejected():
    with pytest.raises(ValueError):
        van_der_pol(p=[[1.0, 2.0], [0.0, 1.0]])   # not symmetric
    with pytest.raises(ValueError):
        van_der_pol(p=[[1.0, 2.0], [2.0, 1.0]])   # indefinite
    with pytest.raises(ValueError):
        van_der_pol(c=-1.0)


def test_spec_from_config():
    spec = spec_from_config({"name": "van_der_pol"})
    assert spec.name == "van_der_pol" and spec.region_c == 10.0
    spec = spec_from_config({"name": "linear_test", "c": 4.0, "dimension": 1})
    assert spec.region_c == 4.0 and spec.x_radius == pytest.approx(2.0)
    custom = spec_from_config({"name": "van_der_pol", "p": [[2.0, 0.0], [0.0, 2.0]]})
    assert custom.v([1.0, 0.0]) == pytest.approx(2.0)

    with pytest.raises(ValueError):
        spec_from_config({"name": "nonexistent"})
    with pytest.raises(ValueError):
        spec_from_config({"name": "van_der_pol", "gamma": 1.0})
    with pytest.raises(ValueError):
        spec_from_config({"name": "linear_test", "dimension": 2})
    with pytest.raises(ValueError):
        spec_from_config({"name": "linear_test", "p": [[1.0]]})
    with pytest.raises(ValueError):
        spec_from_config(["van_der_pol"])


def test_spec_from_json(tmp_path):
    path = tmp_path / "sys.json"
    path.write_text('{"name": "van_der_pol", "c": 10.0}')
    spec = spec_from_json(path)
    assert spec.name == "van_der_pol"
    assert spec.v([2.0, 2.0]) == pytest.approx(41.76)


def test_spec_validation():
    good = linear_test()
    with pytest.raises(ValueError):
        SystemSpec(name="bad", n_x=0, n_e=1, f=good.f, v=good.v,
                   grad_v=good.grad_v, w=good.w, h_fn=good.h_fn,
                   region_c=1.0, x_radius=1.0, e_radius=2.0)
