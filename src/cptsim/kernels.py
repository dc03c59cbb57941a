"""Fixed-step RK4 loops over vectorized master equations.

States are row-major vec(rho) of length d^2; generators are d^2 x d^2
complex matrices.  The loops carry per-step Hermitian projection and
trace renormalization so long runs stay on the density-matrix manifold.
"""

from __future__ import annotations

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


def rk4_superop(lmat, v0, dt, n_steps, sample_idx, trans_idx, diag_idx, renorm_tol):
    """RK4 on dv/dt = L v with Hermitian projection and trace control.

    Returns (samples, n_renorm, max_drift): recorded states at the
    requested step indices, the renormalization count, and the largest
    |trace - 1| seen before any renormalization.
    """
    d2 = v0.shape[0]
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
    for step in range(1, n_steps + 1):
        k1 = np.dot(lmat, v)
        k2 = np.dot(lmat, v + half * k1)
        k3 = np.dot(lmat, v + half * k2)
        k4 = np.dot(lmat, v + dt * k3)
        v = v + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        v = 0.5 * (v + np.conj(v[trans_idx]))
        tr = 0.0
        for i in diag_idx:
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


def rk4_superop_driven(
    l0, l1, u_re, u_im, nu, v0, dt, n_steps, sample_idx, trans_idx, diag_idx, renorm_tol
):
    """RK4 on dv/dt = (L0 + u(t) L1) v with the same projection steps.

    u(t) = sum_k 2 (u_re[k] cos(nu[k] t) - u_im[k] sin(nu[k] t)).
    """
    d2 = v0.shape[0]
    n_out = sample_idx.shape[0]
    n_tones = u_re.shape[0]
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
    for step in range(1, n_steps + 1):
        t = (step - 1) * dt
        u_a = 0.0
        u_b = 0.0
        u_c = 0.0
        for k in range(n_tones):
            u_a += 2.0 * (u_re[k] * np.cos(nu[k] * t) - u_im[k] * np.sin(nu[k] * t))
            u_b += 2.0 * (u_re[k] * np.cos(nu[k] * (t + half)) - u_im[k] * np.sin(nu[k] * (t + half)))
            u_c += 2.0 * (u_re[k] * np.cos(nu[k] * (t + dt)) - u_im[k] * np.sin(nu[k] * (t + dt)))
        k1 = np.dot(l0, v) + u_a * np.dot(l1, v)
        w = v + half * k1
        k2 = np.dot(l0, w) + u_b * np.dot(l1, w)
        w = v + half * k2
        k3 = np.dot(l0, w) + u_b * np.dot(l1, w)
        w = v + dt * k3
        k4 = np.dot(l0, w) + u_c * np.dot(l1, w)
        v = v + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        v = 0.5 * (v + np.conj(v[trans_idx]))
        tr = 0.0
        for i in diag_idx:
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
