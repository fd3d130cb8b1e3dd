"""Closed-loop system models with Lyapunov data.

A :class:`SystemSpec` bundles the sampled-data closed loop: the drift
f(x, e) under a held input, an energy function V with its gradient, the
level c of the region {V <= c} on which guarantees hold, and the radii
of the working sets on which certificates are checked.  Those sets are
the whole state ball of radius ``x_radius`` (a superset of the ball
intersected with {V <= c}) and the error ball of radius ``e_radius``.

All evaluation callables are vectorized over leading axes: states and
errors are arrays whose last axis is the respective dimension, energies
drop that axis.  The hold error e is never integrated; the simulator
reconstructs it as e(t) = x(t_j) - x(t), which is exact under zero-order
hold since the error flows with -f.

A built-in drift is written once, per component, as
``rhs(x1, .., xn, e1, .., en) -> (f1, .., fn)``.  On one point (1-D x and
e) ``f`` evaluates it on Python floats, which avoids numpy's
per-operation cost on 2-vectors; on a grid it evaluates it on the
component arrays.  Both do the same IEEE double operations in the same
order, so a point gives the same bits either way.  ``f.rhs`` exposes the
per-component form, which the simulator's RK4 stepper (one straight-line
function per state dimension) calls directly on scalar floats and the
synthesis grid pass on component arrays; :func:`component_rhs` gives
every ``f`` that form, calling any other ``f`` on stacked arrays.

The certificate uses one weight model, which :mod:`dynstc.synthesis` and
:mod:`dynstc.sim` compute from f: the error weight W(e) = ||e|| and the
term H(x, e) = ||f(x, e)||.  The error-growth inequality
d||e||/dt <= L*W + H then holds for every L >= 0, since the error rate
is -f pointwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "SystemSpec",
    "van_der_pol",
    "linear_test",
    "spec_from_config",
    "component_rhs",
]

VDP_P_DEFAULT = ((4.68, 1.10), (1.10, 3.56))


@dataclass(frozen=True)
class SystemSpec:
    """Immutable description of one closed-loop system."""

    name: str
    n_x: int
    n_e: int
    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    v: Callable[[np.ndarray], np.ndarray]
    grad_v: Callable[[np.ndarray], np.ndarray]
    region_c: float
    x_radius: float
    e_radius: float

    def __post_init__(self):
        if self.n_x < 1 or self.n_e < 1:
            raise ValueError("dimensions must be at least 1")
        if not (self.region_c > 0.0):
            raise ValueError("region level c must be positive")
        if not (self.x_radius > 0.0 and self.e_radius > 0.0):
            raise ValueError("working-set radii must be positive")


def _drift(rhs):
    """``SystemSpec.f`` from a per-component ``rhs``: floats for one point, arrays otherwise."""
    def f(x, e):
        x = np.asarray(x, dtype=float)
        e = np.asarray(e, dtype=float)
        if x.ndim == 1 and e.ndim == 1:
            return np.array(rhs(*x.tolist(), *e.tolist()), dtype=float)
        comps = rhs(*np.moveaxis(x, -1, 0), *np.moveaxis(e, -1, 0))
        out = np.empty(np.broadcast_shapes(x.shape[:-1], e.shape[:-1]) + (len(comps),))
        for k, comp in enumerate(comps):
            out[..., k] = comp
        return out

    f.rhs = rhs  # the simulator's RK4 loop calls it on floats directly
    return f


def component_rhs(spec):
    """``spec.f`` in component form, ``rhs(x1, .., xn, e1, .., en) -> (f1, .., fn)``.

    A built-in's ``f.rhs``; any other ``f`` is called once on the
    components stacked along a last axis and its result is unpacked along
    that axis.  On Python floats (one point) the result is Python floats;
    if any component is an array (a grid row passes the state as floats
    and the errors as arrays), it is one view per component.
    """
    rhs = getattr(spec.f, "rhs", None)
    if rhs is None:
        f, n = spec.f, spec.n_x

        def rhs(*xe):
            if not any(isinstance(c, np.ndarray) for c in xe):
                return np.asarray(f(np.array(xe[:n]), np.array(xe[n:])), dtype=float).tolist()
            x = np.stack(np.broadcast_arrays(*xe[:n]), axis=-1)
            e = np.stack(np.broadcast_arrays(*xe[n:]), axis=-1)
            return tuple(np.moveaxis(np.asarray(f(x, e), dtype=float), -1, 0))
    return rhs


def _quadratic_spec(name, n, p, c, f):
    if not (c > 0.0):
        raise ValueError("region level c must be positive")
    p = np.asarray(p, dtype=float)
    if p.shape != (n, n) or not np.allclose(p, p.T):
        raise ValueError("P must be a symmetric matrix of the state dimension")
    eigs = np.linalg.eigvalsh(p)
    if eigs[0] <= 0.0:
        raise ValueError("P must be positive definite")
    a_bar = float(np.sqrt(c / float(eigs[0])))

    def v(x):
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (n,):
            raise ValueError(f"state has last axis {x.shape[-1:]}, expected ({n},)")
        return np.einsum("...i,ij,...j->...", x, p, x)

    def grad_v(x):
        return 2.0 * np.asarray(x, dtype=float) @ p

    return SystemSpec(
        name=name,
        n_x=n,
        n_e=n,
        f=f,
        v=v,
        grad_v=grad_v,
        region_c=float(c),
        x_radius=a_bar,
        e_radius=2.0 * a_bar,  # Minkowski bound: both x-hat and x lie in the state ball
    )


def van_der_pol(c: float = 10.0, p=None) -> SystemSpec:
    """Forced Van der Pol oscillator under state feedback with hold error.

    The loop is f(x, e) = A x + B(x, e) e with

        A = [[0, 1], [-1, -1]],
        B = [[0, 0], [a1, -2 + a2]],
        a1 = 2 x1 e2 + e1 e2,  a2 = x1^2 + 2 x1 e1 + e1^2,

    V(x) = x' P x, and the working region {V <= c}.
    """
    if p is None:
        p = VDP_P_DEFAULT

    def rhs(x1, x2, e1, e2):
        a1 = 2.0 * x1 * e2 + e1 * e2
        a2 = x1 * x1 + 2.0 * x1 * e1 + e1 * e1
        return x2, -x1 - x2 + a1 * e1 + (a2 - 2.0) * e2

    return _quadratic_spec("van_der_pol", 2, p, c, _drift(rhs))


def linear_test(c: float = 1.0) -> SystemSpec:
    """Scalar contraction x' = -(x + e) with V = x^2; sanity benchmark."""
    def rhs(x1, e1):
        return (-(x1 + e1),)

    return _quadratic_spec("linear_test", 1, np.eye(1), c, _drift(rhs))


_BUILTINS = {"van_der_pol": van_der_pol, "linear_test": linear_test}
_CONFIG_KEYS = {"name", "c", "p", "dimension"}


def spec_from_config(cfg: dict) -> SystemSpec:
    """Build a SystemSpec from a config mapping.

    Recognized keys: ``name`` (required, one of the built-ins), ``c``,
    ``p`` (Van der Pol energy matrix), ``dimension`` (cross-checked).
    """
    if not isinstance(cfg, dict):
        raise ValueError("system config must be a mapping")
    unknown = set(cfg) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown system config keys: {sorted(unknown)}")
    name = cfg.get("name")
    if name not in _BUILTINS:
        raise ValueError(f"unknown system {name!r}; expected one of {sorted(_BUILTINS)}")
    kwargs = {}
    if "c" in cfg:
        kwargs["c"] = float(cfg["c"])
    if "p" in cfg:
        if name != "van_der_pol":
            raise ValueError("key 'p' is only valid for van_der_pol")
        kwargs["p"] = cfg["p"]
    spec = _BUILTINS[name](**kwargs)
    if "dimension" in cfg and int(cfg["dimension"]) != spec.n_x:
        raise ValueError(f"dimension {cfg['dimension']} does not match {name} (n_x={spec.n_x})")
    return spec
