"""One fixed-step RK4 loop over vectorized master equations.

States are row-major vec(rho) of length d^2; generators are d^2 x d^2
complex matrices.  A static model steps dv/dt = L0 v; a drive adds
u(t) L1 v at each RK4 stage.  The loop carries per-step Hermitian
projection and trace renormalization so long runs stay on the
density-matrix manifold.
"""

from __future__ import annotations

import math

import numpy as np


def backend_name() -> str:
    """Kernel implementation, recorded in Trajectory.meta and summary.txt."""
    return "numpy"


def transpose_indices(dim: int) -> np.ndarray:
    """Index map sending vec(rho) to vec(rho^T)."""
    return np.arange(dim * dim, dtype=np.int64).reshape(dim, dim).T.ravel()


def diag_indices_vec(dim: int) -> np.ndarray:
    """Positions of the matrix diagonal inside vec(rho)."""
    return np.arange(dim, dtype=np.int64) * (dim + 1)


def sample_indices(n_steps: int, sample_every: int) -> np.ndarray:
    """Step indices to record: 0, sample_every, ..., plus the final step."""
    if sample_every <= 0:
        raise ValueError(f"sample_every must be positive, got {sample_every}")
    idx = np.arange(0, n_steps + 1, sample_every, dtype=np.int64)
    if idx[-1] != n_steps:
        idx = np.append(idx, np.int64(n_steps))
    return idx


def rk4_superop(l0, v0, dt, n_steps, sample_idx, renorm_tol, l1=None, u=None):
    """RK4 on dv/dt = (L0 + u(t) L1) v with Hermitian projection and trace control.

    Without l1 the generator is the static L0.  With it, u is the scalar
    drive u(t) (a callable), evaluated at the stage times t, t + dt/2 and
    t + dt of each step.  Returns (samples, n_renorm, max_drift):
    recorded states at the requested step indices, the renormalization
    count, and the largest |trace - 1| seen before any renormalization.
    """
    if (l1 is None) != (u is None):
        raise ValueError("l1 and u must be given together")
    d2 = v0.shape[0]
    dim = math.isqrt(d2)
    transposed = transpose_indices(dim)
    diagonal = diag_indices_vec(dim)
    n_out = sample_idx.shape[0]
    out = np.empty((n_out, d2), dtype=np.complex128)
    v = v0.astype(np.complex128).copy()
    ptr = 0
    if sample_idx[0] == 0:
        out[0] = v
        ptr = 1
    n_renorm = 0
    max_drift = 0.0
    sixth = dt / 6.0
    half = dt / 2.0
    u_a = u_b = u_c = 0.0

    def deriv(w, u_t):
        k = np.dot(l0, w)
        if l1 is not None:
            k += u_t * np.dot(l1, w)
        return k

    for step in range(1, n_steps + 1):
        if l1 is not None:
            t = (step - 1) * dt
            u_a, u_b, u_c = u(t), u(t + half), u(t + dt)
        k1 = deriv(v, u_a)
        k2 = deriv(v + half * k1, u_b)
        k3 = deriv(v + half * k2, u_b)
        k4 = deriv(v + dt * k3, u_c)
        v = v + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        v = 0.5 * (v + np.conj(v[transposed]))
        tr = 0.0
        for i in diagonal:
            tr += v[i].real
        drift = abs(tr - 1.0)
        if drift > max_drift:
            max_drift = drift
        if drift > renorm_tol and tr > 0.5:
            v = v / tr
            n_renorm += 1
        if ptr < n_out and sample_idx[ptr] == step:
            out[ptr] = v
            ptr += 1
    return out, n_renorm, max_drift
