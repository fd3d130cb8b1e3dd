"""Tests for the bundled system models."""

import dataclasses
import json

import numpy as np
import pytest

from dynstc.cli import _load_config
from dynstc.systems import (
    SystemSpec,
    component_rhs,
    linear_test,
    spec_from_config,
    van_der_pol,
)


@pytest.fixture(scope="module")
def vdp():
    return van_der_pol()


def test_vdp_metadata(vdp):
    assert vdp.n_x == 2
    assert vdp.region_c == 10.0
    # radius of the smallest ball containing {V <= c}
    assert vdp.x_radius == pytest.approx(1.8616, abs=1e-3)
    assert vdp.e_radius == pytest.approx(2.0 * vdp.x_radius)


def test_vdp_drift_values(vdp):
    z = np.zeros(2)
    np.testing.assert_allclose(vdp.f(z, z), [0.0, 0.0])
    np.testing.assert_allclose(vdp.f([1.0, 0.0], z), [0.0, -1.0])
    # at the origin with e=(1,1): a1 = e1*e2 = 1, a2 = e1^2 = 1,
    # so f2 = a1*e1 + (a2-2)*e2 = 1 - 1 = 0
    np.testing.assert_allclose(vdp.f(z, [1.0, 1.0]), [0.0, 0.0],
                               atol=1e-15)


def test_vdp_drift_batched(vdp):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 1, 2))
    e = rng.normal(size=(1, 7, 2))
    out = vdp.f(x, e)
    assert out.shape == (5, 7, 2)
    for i in range(5):
        for k in range(7):
            np.testing.assert_allclose(out[i, k], vdp.f(x[i, 0], e[0, k]))


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


@pytest.mark.parametrize("make", [van_der_pol, linear_test])
def test_component_rhs_without_rhs_on_a_grid_row(make):
    # a grid row: the state as Python floats, the errors as component arrays;
    # f without rhs takes the array branch and matches the built-in bit for bit
    spec = make()
    plain = dataclasses.replace(spec, f=lambda x, e: spec.f(x, e))
    assert not hasattr(plain.f, "rhs")
    rng = np.random.default_rng(5)
    x = _mixed_values(rng, (spec.n_x,)).tolist()
    e = _mixed_values(rng, (spec.n_x, 7))
    e[:, 0] = 0.0
    e[:, 1] = -0.0
    want = [np.broadcast_to(c, (7,)) for c in spec.f.rhs(*x, *e)]
    got = component_rhs(plain)(*x, *e)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.shape(g) == (7,) and _same_bits(g, w)


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
    # the region {V <= c}, closed at its boundary
    assert vdp.v(np.zeros(2)) <= vdp.region_c
    assert not vdp.v([2.0, 2.0]) <= vdp.region_c
    x = np.array([1.0, 0.0]) * np.sqrt(10.0 / 4.68)
    assert vdp.v(x) == pytest.approx(10.0)
    assert vdp.v(x * (1.0 - 1e-12)) <= vdp.region_c


def test_default_w_h():
    # W = ||e|| and H = ||f|| are the one weight model, computed by the
    # synthesis grid pass and the simulator; a spec carries no weights
    assert [f.name for f in dataclasses.fields(SystemSpec)] == \
        ["name", "n_x", "f", "v", "grad_v", "region_c", "x_radius", "e_radius"]


def test_default_w_growth_inequality(vdp):
    # the hold error flows with -f, so |d||e||/dt| = |<e/||e||, -f>| <= ||f|| = H;
    # the growth inequality then holds with slack >= 0 for every L >= 0,
    # which is why verification reports no separate slack for it
    rng = np.random.default_rng(2)
    x = rng.uniform(-vdp.x_radius, vdp.x_radius, size=(400, 2))
    e = rng.uniform(-vdp.e_radius, vdp.e_radius, size=(400, 2))
    f = vdp.f(x, e)
    ne = np.linalg.norm(e, axis=-1)
    mask = ne > 1e-12
    rate = np.einsum("ij,ij->i", e, -f)[mask] / ne[mask]
    slack = np.linalg.norm(f, axis=-1)[mask] - rate
    assert np.all(slack >= -1e-12)


def test_region_error_containment(vdp):
    # any two points of {V <= c} differ by at most the error-ball radius
    rng = np.random.default_rng(4)
    x = rng.uniform(-vdp.x_radius, vdp.x_radius, size=(2000, 2))
    x = x[vdp.v(x) <= vdp.region_c]
    assert len(x) > 100
    diffs = x[:, None, :] - x[None, :, :]
    assert np.max(np.linalg.norm(diffs, axis=-1)) <= vdp.e_radius * (1 + 1e-12)


def test_dimension_mismatch(vdp):
    # the drift takes one argument per component, so a state or error of
    # the wrong length cannot be evaluated
    with pytest.raises(TypeError):
        vdp.f([1.0, 2.0, 3.0], [0.0, 0.0])
    with pytest.raises(TypeError):
        vdp.f(np.zeros((4, 2)), np.zeros((4, 1)))
    with pytest.raises(ValueError):
        spec_from_config({"name": "van_der_pol", "dimension": 3})


@pytest.mark.parametrize("make, x", [
    (van_der_pol, [1.0]), (van_der_pol, [1.0, 2.0, 3.0]), (van_der_pol, np.zeros((4, 1))),
    (van_der_pol, 1.0), (linear_test, [1.0, 2.0]), (linear_test, np.zeros((3, 2))),
])
def test_energy_rejects_wrong_state_length(make, x):
    # a length-1 last axis used to broadcast against P: v([1.0]) == v([1.0, 1.0])
    with pytest.raises(ValueError):
        make().v(x)


def test_linear_test_system():
    spec = linear_test()
    assert spec.n_x == 1
    assert spec.region_c == 1.0
    assert spec.x_radius == pytest.approx(1.0)
    np.testing.assert_allclose(spec.f([1.0], [2.0]), [-3.0])
    assert spec.v([2.0]) == pytest.approx(4.0)
    np.testing.assert_allclose(spec.grad_v([2.0]), [4.0])


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
    # a config file's system block builds the spec
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"system": {"name": "van_der_pol", "c": 10.0}}))
    _, spec = _load_config(path)
    assert spec.name == "van_der_pol"
    assert spec.v([2.0, 2.0]) == pytest.approx(41.76)


def test_spec_validation():
    good = linear_test()
    with pytest.raises(ValueError):
        SystemSpec(name="bad", n_x=0, f=good.f, v=good.v,
                   grad_v=good.grad_v, region_c=1.0, x_radius=1.0, e_radius=2.0)
