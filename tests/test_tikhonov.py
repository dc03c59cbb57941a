import numpy as np
import pytest

from cptsim.cli import _scalar_family
from cptsim.tikhonov import (
    TikhonovSystem,
    expansion_residuals,
    fit_loglog_slope,
    integrate_full,
    manifold_first_order,
    manifold_second_order,
)


def scalar_family_gx(eps):
    # f = y, g = x; exact manifold slope k = eps - eps^3 + ...
    return TikhonovSystem(a=np.array([[1.0]]), c=np.array([[0.0, 1.0], [1.0, 0.0]]), epsilon=eps)


def scalar_family_gxy(eps):
    # f = y, g = x + y; exact slope k = eps + eps^2 - 2 eps^4 + ... (no eps^3 term)
    return TikhonovSystem(a=np.array([[1.0]]), c=np.array([[0.0, 1.0], [1.0, 1.0]]), epsilon=eps)


def scalar_family_coupled(eps):
    # f = -x + y, g = x + y; exact slope k = eps + 2 eps^2 + 3 eps^3 + ...
    return TikhonovSystem(a=np.array([[1.0]]), c=np.array([[-1.0, 1.0], [1.0, 1.0]]), epsilon=eps)


def test_system_rejects_unstable_fast_map():
    c = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        TikhonovSystem(a=np.array([[-1.0]]), c=c, epsilon=0.1)
    with pytest.raises(ValueError):
        TikhonovSystem(a=np.array([[1.0]]), c=c, epsilon=0.0)


def test_manifold_first_order_scalar_value():
    s = scalar_family_gx(0.1)
    y1 = manifold_first_order(s, np.array([1.0]))
    np.testing.assert_allclose(y1, [0.1])


def test_manifold_second_order_scalar_value():
    # g = x + y adds the eps^2 Jacobian correction: y2 = eps x + eps^2 x
    s = scalar_family_gxy(0.1)
    y2 = manifold_second_order(s, np.array([1.0]))
    np.testing.assert_allclose(y2, [0.11], atol=1e-9)


def test_manifold_second_order_with_slow_coupling():
    # f = -x + y contributes through dg/dx with f(x,0) = -x:
    # y2 = eps x + eps^2 (y1 - (-x)) = eps x + 2 eps^2 x
    s = scalar_family_coupled(0.05)
    y2 = manifold_second_order(s, np.array([1.0]))
    np.testing.assert_allclose(y2, [0.05 + 2 * 0.05**2], atol=1e-9)


def test_integrate_full_tracks_slow_solution():
    # on-manifold start relaxes along x' ~ k x with k close to eps
    eps = 0.01
    s = scalar_family_gx(eps)
    x0 = np.array([1.0])
    y0 = manifold_first_order(s, x0)
    xs, ys = integrate_full(s, x0, y0, t_end=1.0)
    k = (-1.0 + np.sqrt(1.0 + 4.0 * eps**2)) / (2.0 * eps)
    assert xs[0] == pytest.approx(np.exp(k * 1.0), abs=1e-6)


def _long_double_rk4(s, z0, t_end):
    """RK4 on dz/dt = M z in long double, one step at a time on integrate_full's grid."""
    n = s.dim_slow
    n_steps = int(np.ceil(t_end / min(s.epsilon / 20.0, t_end / 50.0)))
    m = s.c.astype(np.longdouble)
    m[n:, n:] -= s.a.astype(np.longdouble) / np.longdouble(s.epsilon)
    a = np.longdouble(t_end) / n_steps * m
    # one classical RK4 step of a linear system: z -> (I + A + A^2/2 + A^3/6 + A^4/24) z
    eye = np.eye(len(m), dtype=np.longdouble)
    step = eye + a @ (eye + a @ (eye / 2 + a @ (eye / 6 + a / 24)))
    z = np.asarray(z0, dtype=np.longdouble)
    for _ in range(n_steps):
        z = step @ z
    return z


def test_integrate_full_matches_long_double_step_loop():
    # the verify-appendix family and epsilon grid, up to 20,000 steps; powering
    # the step matrix must keep the result within 1e-13 of stepping it
    for eps in np.geomspace(1e-3, 1e-1, 7):
        s = _scalar_family(float(eps))
        xs, ys = integrate_full(s, np.array([1.0]), np.array([0.0]), t_end=1.0)
        ref = _long_double_rk4(s, [1.0, 0.0], 1.0)
        got = np.concatenate([xs, ys]).astype(np.longdouble)
        rel = float(np.linalg.norm((got - ref).astype(np.float64)) / np.linalg.norm(ref.astype(np.float64)))
        assert rel <= 1e-13, (eps, rel)


def test_fit_loglog_slope_exact_power_law():
    eps = np.geomspace(1e-3, 1e-1, 6)
    slope, residual = fit_loglog_slope(eps, 3.0 * eps**2)
    assert slope == pytest.approx(2.0, abs=1e-12)
    assert residual < 1e-12


def test_fit_loglog_slope_needs_three_points():
    with pytest.raises(ValueError):
        fit_loglog_slope(np.array([0.1, 0.2]), np.array([1.0, 2.0]))


def test_expansion_residuals_shrink_with_epsilon():
    epsilons = np.geomspace(3e-3, 3e-2, 4)
    r1, r2 = expansion_residuals(
        scalar_family_coupled, np.array([1.0]), np.array([0.0]), 1.0, epsilons
    )
    assert np.all(np.diff(r1) > 0.0)
    assert np.all(np.diff(r2) > 0.0)
    assert np.all(r2 < r1)
