"""Slow/fast splitting and the closed-form adiabatic reduction.

The excited state relaxes at rate sum(Gamma) while ground coherences
evolve slowly.  The change of variables rho -> (rho_f, rho_s) separates
the two; eliminating rho_f yields a smaller Lindblad model on the ground
block whose jump operators project onto the bright state.

Basis convention: index 0 is the excited state, indices 1..N the ground
states.  Reduced matrices are N x N and indexed by ground state only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _check_square
from .models import LindbladModel
from .tikhonov import TikhonovSystem, herm_to_vec, vec_to_herm


def _gamma_array(gammas) -> np.ndarray:
    g = np.asarray(gammas, dtype=np.float64)
    if g.ndim != 1 or g.size == 0:
        raise ValueError("gammas must be a nonempty 1-d sequence")
    if np.any(g <= 0.0):
        raise ValueError("all decay rates must be positive")
    return g


@dataclass(frozen=True)
class SlowFastSplit:
    """Fast part (excited row/column cross) and slow part (ground block)."""

    rho_f: np.ndarray
    rho_s: np.ndarray


def split_slow_fast(rho: np.ndarray, gammas) -> SlowFastSplit:
    """Separate a state into fast and slow parts.

    rho_f keeps the excited row and column; rho_s keeps the ground block
    plus the excited population redistributed over the ground states in
    proportion to the branching ratios Gamma_k / sum(Gamma).
    """
    rho = _check_square(rho, "rho")
    g = _gamma_array(gammas)
    dim = rho.shape[0]
    if dim != g.size + 1:
        raise ValueError(f"rho is {dim}-dim but gammas has {g.size} entries (need dim-1)")
    rho_f = np.zeros_like(rho)
    rho_f[0, :] = rho[0, :]
    rho_f[:, 0] = rho[:, 0]
    rho_s = rho.copy()
    rho_s[0, :] = 0.0
    rho_s[:, 0] = 0.0
    branching = g / g.sum()
    rho_s[np.arange(1, dim), np.arange(1, dim)] += branching * rho[0, 0]
    return SlowFastSplit(rho_f=rho_f, rho_s=rho_s)


def merge(s: SlowFastSplit, gammas) -> np.ndarray:
    """Invert split_slow_fast: rho = rho_s + rho_f - branching correction."""
    rho_f = _check_square(s.rho_f, "rho_f")
    rho_s = _check_square(s.rho_s, "rho_s")
    if rho_f.shape != rho_s.shape:
        raise ValueError("rho_f and rho_s must have the same shape")
    g = _gamma_array(gammas)
    dim = rho_f.shape[0]
    if dim != g.size + 1:
        raise ValueError(f"states are {dim}-dim but gammas has {g.size} entries (need dim-1)")
    rho = rho_s + rho_f
    branching = g / g.sum()
    rho[np.arange(1, dim), np.arange(1, dim)] -= branching * rho_f[0, 0]
    return rho


def embed_ground(rho_ground: np.ndarray) -> np.ndarray:
    """Place an N x N ground-block state into the (N+1)-dim space."""
    rho_ground = _check_square(rho_ground, "rho_ground")
    n = rho_ground.shape[0]
    out = np.zeros((n + 1, n + 1), dtype=np.complex128)
    out[1:, 1:] = rho_ground
    return out


def ground_block(rho: np.ndarray) -> np.ndarray:
    """Extract the N x N ground block of an (N+1)-dim state."""
    rho = _check_square(rho, "rho")
    return rho[1:, 1:].copy()


def rho_f_first_order(rho_s: np.ndarray, h: np.ndarray, total_gamma: float) -> np.ndarray:
    """Leading fast response dragged along by a slow state.

    rho_f = (-2i / sum(Gamma)) (P H rho_s - rho_s H P) with P the excited
    projector.  Valid when rho_s is supported on the ground block.
    """
    rho_s = _check_square(rho_s, "rho_s")
    h = _check_square(h, "H")
    if rho_s.shape != h.shape:
        raise ValueError("rho_s and H must have the same dimension")
    if total_gamma <= 0.0:
        raise ValueError(f"total_gamma must be positive, got {total_gamma}")
    support = max(np.abs(rho_s[0, :]).max(), np.abs(rho_s[:, 0]).max())
    if support > 1e-12:
        raise ValueError(f"rho_s must vanish on the excited row/column (max entry {support:.3e})")
    cross = h[:1, :] @ rho_s
    out = np.zeros_like(rho_s)
    out[:1, :] = cross
    out[:, :1] -= cross.conj().T
    return (-2j / total_gamma) * out


@dataclass(frozen=True)
class ReducedModel:
    """Closed-form slow model on the N-dim ground block.

    jumps_slow pairs the rates 4*Gamma_k with operators that are rank one,
    mapping the bright state to |g_k>.  gamma_slow[k] is the k-th slow
    decoherence rate 4*Gamma_k*sum|Omega|^2/Gamma^2.
    """

    n_ground: int
    hamiltonian_slow: np.ndarray
    jumps_slow: tuple[tuple[float, np.ndarray], ...]
    bright_state: np.ndarray
    gamma_slow: tuple[float, ...]
    p_bar: np.ndarray
    total_gamma: float


def _lambda_jump_structure(m: LindbladModel) -> np.ndarray:
    """Check the jumps are |g_k><e| with each ground state hit exactly once.

    Returns the rates ordered by ground index.
    """
    dim = m.dim
    n = dim - 1
    rates = np.zeros(n)
    seen = np.zeros(n, dtype=bool)
    for rate, q in m.jumps:
        nz = np.argwhere(np.abs(q) > 0.0)
        if nz.shape[0] != 1:
            raise ValueError("jump operator is not a single matrix unit |g_k><e|")
        row, col = nz[0]
        if col != 0 or row == 0 or abs(q[row, col] - 1.0) > 1e-14:
            raise ValueError("jump operator is not a unit-amplitude decay from the excited state")
        k = row - 1
        if seen[k]:
            raise ValueError(f"ground state {k + 1} appears in two jump operators")
        seen[k] = True
        rates[k] = rate
    if not seen.all():
        raise ValueError("every ground state needs a decay channel")
    return rates


def bright_dark_states(rabi) -> tuple[np.ndarray, list[np.ndarray]]:
    """Bright state driven by the laser and an orthonormal dark basis.

    The bright state is sum_l Omega_l |g_l> normalized, with a global
    phase fixed so its first nonzero component is real positive.  The
    dark basis spans the orthogonal complement in the ground space and
    is built by Gram-Schmidt over the standard basis.
    """
    omega = np.asarray(rabi, dtype=np.complex128)
    if omega.ndim != 1 or omega.size == 0:
        raise ValueError("rabi must be a nonempty 1-d sequence")
    norm = np.linalg.norm(omega)
    if norm == 0.0:
        raise ValueError("bright state undefined: all Rabi amplitudes are zero")
    bright = omega / norm
    first = np.flatnonzero(np.abs(bright) > 0.0)[0]
    phase = bright[first] / abs(bright[first])
    bright = bright / phase
    n = omega.size
    basis = [bright]
    dark = []
    for k in range(n):
        v = np.zeros(n, dtype=np.complex128)
        v[k] = 1.0
        for u in basis:
            v = v - u * (u.conj() @ v)
        vn = np.linalg.norm(v)
        if vn <= 1e-12:
            continue
        v = v / vn
        basis.append(v)
        dark.append(v)
    if len(dark) != n - 1:
        raise ValueError("dark basis construction lost a dimension")
    return bright, dark


def reduce_model(m: LindbladModel) -> ReducedModel:
    """Adiabatic elimination of the excited state.

    H_s = (1-P) H (1-P) restricted to the ground block; the slow jump
    operators are Q_k H (1-P) / Gamma at rates 4*Gamma_k.  Applies to
    any Hermitian H; for the standard Lambda Hamiltonian these evaluate
    to diag(delta) and rank-one projectors onto the bright state.
    """
    rates = _lambda_jump_structure(m)
    n = m.dim - 1
    h = m.hamiltonian
    total = float(rates.sum())
    h_s = h[1:, 1:].copy()
    # row 0 of H on the ground columns; conj gives the Rabi vector Omega
    coupling_row = h[0, 1:].copy()
    omega = coupling_row.conj()
    power = float(np.vdot(omega, omega).real)
    jumps = []
    for k in range(n):
        q_s = np.zeros((n, n), dtype=np.complex128)
        q_s[k, :] = coupling_row / total
        jumps.append((4.0 * rates[k], q_s))
    gamma_slow = tuple(float(4.0 * rates[k] * power / total**2) for k in range(n))
    if power > 0.0:
        bright, _ = bright_dark_states(omega)
    else:
        bright = np.zeros(n, dtype=np.complex128)
    p_bar = np.outer(omega, omega.conj()) / total**2
    return ReducedModel(
        n_ground=n,
        hamiltonian_slow=h_s,
        jumps_slow=tuple(jumps),
        bright_state=bright,
        gamma_slow=gamma_slow,
        p_bar=p_bar,
        total_gamma=total,
    )


def as_lindblad(rm: ReducedModel) -> LindbladModel:
    """Package the reduced model so simulators can integrate it directly."""
    return LindbladModel(
        hamiltonian=rm.hamiltonian_slow,
        jumps=rm.jumps_slow,
        output_weights=rm.jumps_slow,
        label=f"slow(N={rm.n_ground})",
    )


def slow_output(rm: ReducedModel, rho_s: np.ndarray) -> float:
    """Slow photon count rate.

    Evaluates both equivalent forms, sum_k 4 Gamma_k Tr(Q_s^dag Q_s rho)
    and (sum_k gamma_k) <b|rho|b>, checks they agree within 1e-12, and
    returns the bright-state form with [-1e-12, 0) clipped to 0.
    """
    rho_s = _check_square(rho_s, "rho_s")
    if rho_s.shape[0] != rm.n_ground:
        raise ValueError(f"rho_s is {rho_s.shape[0]}-dim, model has {rm.n_ground} ground states")
    trace_form = 0.0
    for rate, q in rm.jumps_slow:
        trace_form += rate * np.trace(q.conj().T @ q @ rho_s).real
    b = rm.bright_state
    bright_form = sum(rm.gamma_slow) * float((b.conj() @ rho_s @ b).real)
    if abs(trace_form - bright_form) > 1e-12:
        raise ValueError(
            f"output formulas disagree: {trace_form!r} vs {bright_form!r} (corrupted model?)"
        )
    if -1e-12 <= bright_form < 0.0:
        return 0.0
    return float(bright_form)


def reconstruct_full(rho_s: np.ndarray, m: LindbladModel) -> np.ndarray:
    """Lift a slow state to the full space including its fast response.

    Embeds rho_s on the ground block, attaches the first-order rho_f,
    and merges.  The correction is traceless, so the result keeps trace 1.
    """
    rates = _lambda_jump_structure(m)
    rho_s = _check_square(rho_s, "rho_s")
    if rho_s.shape[0] != m.dim - 1:
        raise ValueError(f"rho_s is {rho_s.shape[0]}-dim, expected {m.dim - 1} (ground block)")
    embedded = embed_ground(rho_s)
    rho_f = rho_f_first_order(embedded, m.hamiltonian, float(rates.sum()))
    return merge(SlowFastSplit(rho_f=rho_f, rho_s=embedded), rates)


def standard_form(m: LindbladModel) -> TikhonovSystem:
    """Recast the Lambda master equation as an explicit two-time-scale system.

    Slow variable x = vec(rho_s), fast variable y = vec(rho_f), both as
    real vectors over Hermitian matrices of the full dimension.  The fast
    relaxation X -> (X + P X P)/2 enters through the matrix A with
    epsilon = 1/sum(Gamma); the Hamiltonian coupling supplies f and g.
    """
    rates = _lambda_jump_structure(m)
    total = float(rates.sum())
    h = m.hamiltonian
    dim = m.dim
    nvec = dim * dim

    def fast_map(x_mat: np.ndarray) -> np.ndarray:
        out = 0.5 * x_mat.copy()
        out[0, 0] += 0.5 * x_mat[0, 0]
        return out

    a = np.zeros((nvec, nvec))
    for j in range(nvec):
        e = np.zeros(nvec)
        e[j] = 1.0
        a[:, j] = herm_to_vec(fast_map(vec_to_herm(e, dim)))

    def coupling(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        rho = merge(SlowFastSplit(rho_f=vec_to_herm(y, dim), rho_s=vec_to_herm(x, dim)), rates)
        hh = h @ rho
        return -1j * (hh - hh.conj().T)

    def f(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return herm_to_vec(split_slow_fast(coupling(x, y), rates).rho_s)

    def g(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return herm_to_vec(split_slow_fast(coupling(x, y), rates).rho_f)

    return TikhonovSystem(
        dim_slow=nvec,
        dim_fast=nvec,
        a=a,
        f=f,
        g=g,
        epsilon=1.0 / total,
    )
