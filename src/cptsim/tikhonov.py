"""Two-time-scale expansion kit for linear systems in Tikhonov coordinates.

Handles dz/dt = C z - (0, A y / epsilon) for z = (x, y), so that
dx/dt = Fx x + Fy y and dy/dt = -A y / epsilon + Gx x + Gy y, with a
fast part that relaxes on the attractive slow manifold.  Provides the
first- and second-order manifold expansions, direct RK4 integration of
the full system, and the residuals and log-log fits that measure the
order of the expansions.

Master equations enter this form in the real herm_to_vec coordinates
that linalg owns (see reduction.standard_form).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kernels import rk4_increment


@dataclass(frozen=True)
class TikhonovSystem:
    """Linear slow/fast system dz/dt = C z - (0, A y / eps) for z = (x, y).

    The slow dimension is C's size minus A's; the blocks of C are the
    exact Jacobians Fx, Fy (rows of x) and Gx, Gy (rows of y).
    """

    a: np.ndarray
    c: np.ndarray
    epsilon: float

    def __post_init__(self):
        a = np.asarray(self.a, dtype=np.float64)
        c = np.asarray(self.c, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
            raise ValueError(f"A must be a nonempty square matrix, got shape {a.shape}")
        if c.ndim != 2 or c.shape[0] != c.shape[1] or c.shape[0] <= a.shape[0]:
            raise ValueError(f"C must be square and larger than A {a.shape}, got shape {c.shape}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)
        min_real = float(np.min(np.linalg.eigvals(a).real))
        if min_real <= 1e-12:
            raise ValueError(f"A must have eigenvalue real parts > 0 (min {min_real:.3e})")
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")

    @property
    def dim_slow(self) -> int:
        return self.c.shape[0] - self.a.shape[0]


def _check_x(s: TikhonovSystem, x: np.ndarray) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if x.shape != (s.dim_slow,):
        raise ValueError(f"x must have length {s.dim_slow}, got shape {x.shape}")
    return x


def manifold_first_order(s: TikhonovSystem, x: np.ndarray) -> np.ndarray:
    """Leading manifold equation y = eps A^-1 Gx x."""
    x = _check_x(s, x)
    n = s.dim_slow
    return s.epsilon * np.linalg.solve(s.a, s.c[n:, :n] @ x)


def manifold_second_order(s: TikhonovSystem, x: np.ndarray) -> np.ndarray:
    """Two-term manifold expansion.

    y = eps A^-1 Gx x + eps^2 A^-1 ( Gy A^-1 Gx x - A^-1 Gx Fx x ).
    """
    x = _check_x(s, x)
    n = s.dim_slow
    fx, gx, gy = s.c[:n, :n], s.c[n:, :n], s.c[n:, n:]
    ainv_g0 = np.linalg.solve(s.a, gx @ x)
    inner = gy @ ainv_g0 - np.linalg.solve(s.a, gx @ (fx @ x))
    return s.epsilon * ainv_g0 + s.epsilon**2 * np.linalg.solve(s.a, inner)


def integrate_full(
    s: TikhonovSystem, x0: np.ndarray, y0: np.ndarray, t_end: float
) -> tuple[np.ndarray, np.ndarray]:
    """RK4 integration of the complete slow/fast system to t_end.

    The step resolves the fast layer (about 20 steps per fast time
    constant, at least 50 steps).  The system is linear, dz/dt = M z, so
    the n steps take z to z + Q_n z with the increment Q_n of
    kernels.rk4_increment.
    """
    x = np.atleast_1d(np.asarray(x0, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y0, dtype=np.float64))
    n = s.dim_slow
    if x.shape != (n,) or y.shape != (s.a.shape[0],):
        raise ValueError("initial condition dimensions do not match the system")
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")
    n_steps = int(np.ceil(t_end / min(s.epsilon / 20.0, t_end / 50.0)))
    m = s.c.copy()
    m[n:, n:] -= s.a / s.epsilon
    z = np.concatenate([x, y])
    z = z + rk4_increment(m, t_end / n_steps, n_steps) @ z
    return z[:n], z[n:]


def expansion_residuals(
    make_system: Callable[[float], TikhonovSystem],
    x0: np.ndarray,
    y0: np.ndarray,
    t_probe: float,
    epsilons: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Distance of y(t_probe) to the order-1 and order-2 manifold values.

    Integrates the full system for each epsilon; t_probe must sit well
    past the initial layer so the transient has decayed.
    """
    eps = np.asarray(epsilons, dtype=np.float64)
    r1 = np.zeros(eps.size)
    r2 = np.zeros(eps.size)
    for i, e in enumerate(eps):
        s = make_system(float(e))
        xt, yt = integrate_full(s, x0, y0, t_probe)
        r1[i] = float(np.linalg.norm(yt - manifold_first_order(s, xt)))
        r2[i] = float(np.linalg.norm(yt - manifold_second_order(s, xt)))
    return r1, r2


def fit_loglog_slope(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of log y against log x, plus max log10 deviation."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    usable = (x > 0.0) & (y > 0.0) & np.isfinite(x) & np.isfinite(y)
    if usable.sum() < 3:
        raise ValueError(f"need at least 3 usable points for the fit, got {int(usable.sum())}")
    lx = np.log10(x[usable])
    ly = np.log10(y[usable])
    coeffs = np.polyfit(lx, ly, 1)
    residual = float(np.max(np.abs(ly - np.polyval(coeffs, lx))))
    return float(coeffs[0]), residual
