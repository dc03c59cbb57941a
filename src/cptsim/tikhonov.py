"""Two-time-scale expansion kit for systems in Tikhonov coordinates.

Handles dx/dt = f(x, y), dy/dt = -A y / epsilon + g(x, y) with a fast
part that relaxes on the attractive slow manifold.  Provides the first-
and second-order manifold expansions, the reduced vector field, and an
empirical order-of-accuracy check via direct integration.

Also contains the real-vector encoding of Hermitian matrices used to
put vectorized master equations into this form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import as_complex, hermiticity_error


def herm_to_vec(mat: np.ndarray) -> np.ndarray:
    """Encode a Hermitian d x d matrix as a real vector of length d^2.

    Layout: diagonal (d entries), then real parts of the strict upper
    triangle row-major, then the matching imaginary parts.
    """
    mat = as_complex(mat)
    err = hermiticity_error(mat)
    if err > 1e-9:
        raise ValueError(f"matrix not Hermitian (deviation {err:.3e})")
    iu = np.triu_indices(mat.shape[0], k=1)
    upper = mat[iu]
    return np.concatenate([mat.diagonal().real, upper.real, upper.imag])


def vec_to_herm(vec: np.ndarray, dim: int) -> np.ndarray:
    """Invert herm_to_vec."""
    vec = np.asarray(vec, dtype=np.float64)
    if vec.shape != (dim * dim,):
        raise ValueError(f"expected vector of length {dim * dim}, got shape {vec.shape}")
    n_off = dim * (dim - 1) // 2
    out = np.zeros((dim, dim), dtype=np.complex128)
    iu = np.triu_indices(dim, k=1)
    upper = vec[dim : dim + n_off] + 1j * vec[dim + n_off :]
    out[iu] = upper
    out += out.conj().T
    out[np.diag_indices(dim)] = vec[:dim]
    return out


@dataclass(frozen=True)
class TikhonovSystem:
    """Slow/fast system dx/dt = f(x,y), dy/dt = -A y/eps + g(x,y).

    The Jacobians of g at (x, 0) are taken by central finite differences.
    """

    dim_slow: int
    dim_fast: int
    a: np.ndarray
    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    g: Callable[[np.ndarray, np.ndarray], np.ndarray]
    epsilon: float

    def __post_init__(self):
        if self.dim_slow <= 0 or self.dim_fast <= 0:
            raise ValueError("dimensions must be positive")
        a = np.asarray(self.a, dtype=np.float64 if np.isrealobj(self.a) else np.complex128)
        if a.shape != (self.dim_fast, self.dim_fast):
            raise ValueError(f"A must be {self.dim_fast} x {self.dim_fast}, got {a.shape}")
        object.__setattr__(self, "a", a)
        min_real = float(np.min(np.linalg.eigvals(a).real))
        if min_real <= 1e-12:
            raise ValueError(f"A must have eigenvalue real parts > 0 (min {min_real:.3e})")
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")


def _check_x(s: TikhonovSystem, x: np.ndarray) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if x.shape != (s.dim_slow,):
        raise ValueError(f"x must have length {s.dim_slow}, got shape {x.shape}")
    return x


def manifold_first_order(s: TikhonovSystem, x: np.ndarray) -> np.ndarray:
    """Leading manifold equation y = eps A^-1 g(x, 0)."""
    x = _check_x(s, x)
    y0 = np.zeros(s.dim_fast)
    return s.epsilon * np.linalg.solve(s.a, np.asarray(s.g(x, y0), dtype=np.float64))


def _jacobian_g_x(s: TikhonovSystem, x: np.ndarray) -> np.ndarray:
    y0 = np.zeros(s.dim_fast)
    jac = np.zeros((s.dim_fast, s.dim_slow))
    for j in range(s.dim_slow):
        h = 1e-6 * (1.0 + abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        jac[:, j] = (np.asarray(s.g(xp, y0)) - np.asarray(s.g(xm, y0))) / (2.0 * h)
    return jac


def _jacobian_g_y(s: TikhonovSystem, x: np.ndarray) -> np.ndarray:
    jac = np.zeros((s.dim_fast, s.dim_fast))
    for j in range(s.dim_fast):
        h = 1e-6
        yp = np.zeros(s.dim_fast)
        ym = np.zeros(s.dim_fast)
        yp[j] += h
        ym[j] -= h
        jac[:, j] = (np.asarray(s.g(x, yp)) - np.asarray(s.g(x, ym))) / (2.0 * h)
    return jac


def manifold_second_order(s: TikhonovSystem, x: np.ndarray) -> np.ndarray:
    """Two-term manifold expansion.

    y = eps A^-1 g(x,0)
      + eps^2 A^-1 ( dg/dy A^-1 g(x,0) - A^-1 dg/dx f(x,0) ).
    """
    x = _check_x(s, x)
    y0 = np.zeros(s.dim_fast)
    g0 = np.asarray(s.g(x, y0), dtype=np.float64)
    f0 = np.asarray(s.f(x, y0), dtype=np.float64)
    ainv_g0 = np.linalg.solve(s.a, g0)
    gy = _jacobian_g_y(s, x)
    gx = _jacobian_g_x(s, x)
    inner = gy @ ainv_g0 - np.linalg.solve(s.a, gx @ f0)
    return s.epsilon * ainv_g0 + s.epsilon**2 * np.linalg.solve(s.a, inner)


def reduced_vector_field(s: TikhonovSystem, x: np.ndarray, order: int = 1) -> np.ndarray:
    """Slow dynamics restricted to the manifold: f(x, y_manifold(x))."""
    x = _check_x(s, x)
    if order == 1:
        y = manifold_first_order(s, x)
    elif order == 2:
        y = manifold_second_order(s, x)
    else:
        raise ValueError(f"order must be 1 or 2, got {order}")
    return np.asarray(s.f(x, y), dtype=np.float64)


def integrate_full(
    s: TikhonovSystem,
    x0: np.ndarray,
    y0: np.ndarray,
    t_end: float,
    dt: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """RK4 integration of the complete slow/fast system to t_end."""
    x = np.atleast_1d(np.asarray(x0, dtype=np.float64)).copy()
    y = np.atleast_1d(np.asarray(y0, dtype=np.float64)).copy()
    if x.shape != (s.dim_slow,) or y.shape != (s.dim_fast,):
        raise ValueError("initial condition dimensions do not match the system")
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")
    if dt is None:
        # resolve the fast layer: ~20 stages per fast time constant
        dt = min(s.epsilon / 20.0, t_end / 50.0)
    n_steps = int(np.ceil(t_end / dt))
    dt = t_end / n_steps

    def rhs(z: np.ndarray) -> np.ndarray:
        xz, yz = z[: s.dim_slow], z[s.dim_slow :]
        dx = np.asarray(s.f(xz, yz), dtype=np.float64)
        dy = -(s.a @ yz) / s.epsilon + np.asarray(s.g(xz, yz), dtype=np.float64)
        return np.concatenate([dx, dy])

    z = np.concatenate([x, y])
    for _ in range(n_steps):
        k1 = rhs(z)
        k2 = rhs(z + 0.5 * dt * k1)
        k3 = rhs(z + 0.5 * dt * k2)
        k4 = rhs(z + dt * k3)
        z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return z[: s.dim_slow], z[s.dim_slow :]


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


DEFAULT_EPSILONS = tuple(np.geomspace(1e-3, 1e-1, 7))


def verify_expansion_order(
    make_system: Callable[[float], TikhonovSystem],
    x0: np.ndarray,
    y0: np.ndarray,
    t_probe: float,
    epsilons=DEFAULT_EPSILONS,
    order: int = 1,
) -> float:
    """Empirical exponent of the manifold-expansion remainder.

    Returns the fitted log-log slope of the residual against epsilon;
    an order-k expansion with a nonvanishing next term gives ~k+1.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    eps = np.asarray(epsilons, dtype=np.float64)
    r1, r2 = expansion_residuals(make_system, x0, y0, t_probe, eps)
    slope, _ = fit_loglog_slope(eps, r1 if order == 1 else r2)
    return slope
