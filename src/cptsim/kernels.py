"""One fixed-step RK4 scheme over master equations in real coordinates.

States are the real herm_to_vec vectors of linalg (length d^2, diagonal
first), so every state is Hermitian by construction; generators are
real d^2 x d^2 matrices (linalg.real_superop).  A static model steps
dv/dt = L0 v by jumping from one sample to the next with a cached power
of the RK4 step matrix.  A drive adds u(t) L1: its stage generators
L0 + u L1 are built a chunk of steps at a time from one vectorized u
call on the chunk's stage times, and each step is four matrix-vector
products.  For both model classes trace control follows every sample,
so long runs keep trace 1.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Cap on the three stacks of stage generators a driven run builds at once.
# Small, so a run's memory does not grow with its length and stays out of
# peak RSS: the stacks are real, so at dim 2 a chunk is 682 steps, at
# dim 5 it is 17.
STAGE_CHUNK_BYTES = 256 * 1024


def backend_name() -> str:
    """Kernel implementation, recorded in Trajectory.meta and summary.txt."""
    return "numpy"


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


def _stage_generators(l0, l1, u, dt, n_steps):
    """Yield (G(t), G(t + dt/2), G(t + dt)) for each step, with G = L0 + u L1.

    The generators are built a chunk of steps at a time, from one
    vectorized u call on the chunk's (3, chunk) grid of stage times, so
    the three stacks of a chunk stay within STAGE_CHUNK_BYTES.
    """
    offsets = np.array([[0.0], [dt / 2.0], [dt]])
    chunk = max(1, STAGE_CHUNK_BYTES // (3 * l0.nbytes))
    for first in range(0, n_steps, chunk):
        t = np.arange(first, min(first + chunk, n_steps)) * dt
        stacks = [l0 + w[:, None, None] * l1 for w in u(t + offsets)]
        yield from zip(*stacks)


def rk4_superop(l0, v0, dt, n_steps, sample_idx, renorm_tol, l1=None, u=None):
    """RK4 on dv/dt = (L0 + u(t) L1) v with trace control, in herm_to_vec coordinates.

    v0 and the generators are real (see linalg.real_superop).  Without l1
    the generator is the static L0, and v jumps from one sample to the
    next as v + Q_k v (see rk4_increment).  With l1, u is the drive (a
    callable mapping an array of times to an array of values); each step
    applies the generators at its stage times t, t + dt/2 and t + dt,
    built a chunk of steps at a time.  Either way trace control runs once
    per sample.  sample_idx runs from 0 to n_steps (see sample_indices).
    Returns (samples, n_renorm, max_drift): the real states at those
    steps, the renormalization count, and the largest |trace - 1| seen
    before any renormalization (NaN once the state is no longer finite).
    """
    if (l1 is None) != (u is None):
        raise ValueError("l1 and u must be given together")
    if sample_idx[0] != 0 or sample_idx[-1] != n_steps:
        raise ValueError("sample_idx must run from step 0 to n_steps, as sample_indices gives")
    dim = math.isqrt(v0.shape[0])
    v = np.array(v0, dtype=np.float64)
    out = np.empty((sample_idx.shape[0], v.shape[0]))
    out[0] = v
    n_renorm = 0
    max_drift = 0.0

    def settle(v):
        nonlocal n_renorm, max_drift
        tr = v[:dim].sum()
        drift = abs(tr - 1.0)
        if not drift <= max_drift:
            max_drift = drift
        if drift > renorm_tol and tr > 0.5:
            v = v / tr
            n_renorm += 1
        return v

    if l1 is None:
        increments = {}

        def advance(v, k):
            if k not in increments:
                increments[k] = rk4_increment(l0, dt, k)
            return v + np.dot(increments[k], v)
    else:
        stages = _stage_generators(l0, l1, u, dt, n_steps)
        sixth = dt / 6.0
        half = dt / 2.0

        def advance(v, k):
            for g_a, g_b, g_c in itertools.islice(stages, k):
                k1 = np.dot(g_a, v)
                k2 = np.dot(g_b, v + half * k1)
                k3 = np.dot(g_b, v + half * k2)
                k4 = np.dot(g_c, v + dt * k3)
                v = v + sixth * (k1 + 2.0 * (k2 + k3) + k4)
            return v

    for i, k in enumerate(np.diff(sample_idx).tolist(), start=1):
        v = out[i] = settle(advance(v, k))
    return out, n_renorm, max_drift
