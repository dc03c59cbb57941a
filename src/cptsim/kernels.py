"""One fixed-step RK4 scheme over vectorized master equations.

States are row-major vec(rho) of length d^2; generators are d^2 x d^2
complex matrices.  A static model steps dv/dt = L0 v by jumping from one
sample to the next with a cached power of the RK4 step matrix; a drive
adds u(t) L1 v at each RK4 stage and is stepped one step at a time.
Hermitian projection and trace renormalization follow every update (per
sample for static models, per step for driven ones) so long runs stay on
the density-matrix manifold.
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


def rk4_increment(l0, dt, k):
    """Q_k = P^k - I, the change of v over k RK4 steps of dv/dt = L0 v.

    P = sum_{j<=4} (dt L0)^j / j! is one RK4 step.  Q = P - I is powered
    by binary decomposition with Q_{a+b} = Q_a + Q_b + Q_a Q_b, which never
    forms P itself: adding and removing I would cost digits of Q.
    """
    a = dt * l0
    q = a @ (a @ (a @ (a / 24.0) + a / 6.0) + a / 2.0) + a
    result = None
    while True:
        if k & 1:
            result = q if result is None else result + q + result @ q
        k >>= 1
        if not k:
            return result
        q = 2.0 * q + q @ q


def rk4_superop(l0, v0, dt, n_steps, sample_idx, renorm_tol, l1=None, u=None):
    """RK4 on dv/dt = (L0 + u(t) L1) v with Hermitian projection and trace control.

    Without l1 the generator is the static L0, and v jumps from one sample
    to the next as v + Q_k v (see rk4_increment), with Hermitian
    projection and trace control once per sample.  With l1, u is the
    scalar drive u(t) (a callable), evaluated at the stage times t,
    t + dt/2 and t + dt of each step, and projection and trace control
    follow every step.  Returns (samples, n_renorm, max_drift): recorded
    states at the requested step indices, the renormalization count, and
    the largest |trace - 1| seen before any renormalization (NaN once the
    state is no longer finite).
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

    def settle(v):
        nonlocal n_renorm, max_drift
        v = 0.5 * (v + np.conj(v[transposed]))
        tr = 0.0
        for i in diagonal:
            tr += v[i].real
        drift = abs(tr - 1.0)
        if not drift <= max_drift:
            max_drift = drift
        if drift > renorm_tol and tr > 0.5:
            v = v / tr
            n_renorm += 1
        return v

    if l1 is None:
        increments = {}
        prev = 0
        stops = sample_idx[sample_idx > 0].tolist()
        if not stops or stops[-1] < n_steps:
            stops.append(n_steps)
        for stop in stops:
            k = stop - prev
            if k not in increments:
                increments[k] = rk4_increment(l0, dt, k)
            v = settle(v + np.dot(increments[k], v))
            prev = stop
            if ptr < n_out and sample_idx[ptr] == stop:
                out[ptr] = v
                ptr += 1
        return out, n_renorm, max_drift

    sixth = dt / 6.0
    half = dt / 2.0

    def deriv(w, u_t):
        return np.dot(l0, w) + u_t * np.dot(l1, w)

    for step in range(1, n_steps + 1):
        t = (step - 1) * dt
        u_a, u_b, u_c = u(t), u(t + half), u(t + dt)
        k1 = deriv(v, u_a)
        k2 = deriv(v + half * k1, u_b)
        k3 = deriv(v + half * k2, u_b)
        k4 = deriv(v + dt * k3, u_c)
        v = settle(v + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        if ptr < n_out and sample_idx[ptr] == step:
            out[ptr] = v
            ptr += 1
    return out, n_renorm, max_drift
