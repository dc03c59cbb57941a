"""Slow/fast splitting and the closed-form adiabatic reduction.

The excited state relaxes at rate sum(Gamma) while ground coherences
evolve slowly.  The change of variables rho -> (rho_f, rho_s) separates
the two; eliminating rho_f yields a smaller Lindblad model on the ground
block whose jump operators project onto the bright state.

Basis convention: index 0 is the excited state, indices 1..N the ground
states.  Reduced matrices are N x N and indexed by ground state only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _check_square, herm_to_vec, real_superop, vec_to_herm
from .models import LambdaParams, LindbladModel, commutator_superop, effective_hamiltonian
from .tikhonov import TikhonovSystem


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
    total_gamma: float


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
    if not np.isfinite(norm):
        raise ValueError("bright state undefined: the norm of the Rabi amplitudes is not finite")
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


def _total_gamma(gamma) -> float:
    """sum(Gamma), refused when 4*(sum Gamma)^2, the slow rates' scale, overflows."""
    # Python floats overflow to inf without a warning
    total = sum(gamma)
    if not math.isfinite(4.0 * total * total):
        raise ValueError(f"decay rates too large: 4*(sum Gamma)^2 overflows at sum Gamma = {total:.3e}")
    return float(np.asarray(gamma).sum())


def reduce_model(p: LambdaParams) -> ReducedModel:
    """Adiabatic elimination of the excited state of a Lambda model.

    Reads delta, Omega and Gamma from p: H_s = diag(delta) on the ground
    block, and the slow jump operators Q_k = |g_k> conj(Omega)^T / sum(Gamma),
    rank-one maps of the bright state onto |g_k>, at rates 4*Gamma_k.
    ValueError when (sum Gamma)^2 underflows, or 4*(sum Gamma)^2 or a slow
    rate gamma_slow[k] overflows.
    """
    n = p.n_ground
    total = _total_gamma(p.gamma)
    # gamma_slow divides by (sum Gamma)^2, in Python floats as in _total_gamma
    scale = total**2
    if scale == 0.0:
        raise ValueError(f"decay rates too small: (sum Gamma)^2 underflows at sum Gamma = {total:.3e}")
    omega = np.asarray(p.rabi, dtype=np.complex128)
    power = float(np.vdot(omega, omega).real)
    jumps = []
    gamma_slow = []
    for k, g in enumerate(p.gamma):
        q_s = np.zeros((n, n), dtype=np.complex128)
        q_s[k, :] = omega.conj() / total
        jumps.append((4.0 * g, q_s))
        rate = 4.0 * g * power / scale
        if not math.isfinite(rate):
            raise ValueError(f"slow rate gamma_slow[{k}] = 4*Gamma_k*sum|Omega|^2/(sum Gamma)^2 overflows")
        gamma_slow.append(rate)
    bright = bright_dark_states(omega)[0] if power > 0.0 else np.zeros(n, dtype=np.complex128)
    return ReducedModel(
        n_ground=n,
        hamiltonian_slow=np.diag(np.asarray(p.detuning, dtype=np.complex128)),
        jumps_slow=tuple(jumps),
        bright_state=bright,
        gamma_slow=tuple(gamma_slow),
        total_gamma=total,
    )


def as_lindblad(rm: ReducedModel) -> LindbladModel:
    """Package the reduced model so simulators can integrate it directly."""
    return LindbladModel(
        hamiltonian=rm.hamiltonian_slow,
        jumps=rm.jumps_slow,
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


def standard_form(p: LambdaParams) -> TikhonovSystem:
    """Recast the Lambda master equation of p as an explicit two-time-scale system.

    Slow variable x = vec(rho_s), fast variable y = vec(rho_f), both as
    real herm_to_vec vectors over Hermitian matrices of the full
    dimension.  The fast relaxation X -> (X + P X P)/2 enters through the
    matrix A with epsilon = 1/sum(Gamma).  The Hamiltonian part -i[H, rho]
    supplies the coupling matrix C = S L M: L is
    real_superop(commutator_superop(H)) with H = effective_hamiltonian(p),
    and S and M are the real matrices of split_slow_fast and merge, read
    off column by column.  Refuses the decay rates reduce_model refuses.
    """
    total = _total_gamma(p.gamma)
    dim = p.n_ground + 1
    nvec = dim * dim

    def split(v: np.ndarray) -> np.ndarray:
        parts = split_slow_fast(vec_to_herm(v, dim), p.gamma)
        return np.concatenate([herm_to_vec(parts.rho_s), herm_to_vec(parts.rho_f)])

    def merged(z: np.ndarray) -> np.ndarray:
        parts = SlowFastSplit(rho_f=vec_to_herm(z[nvec:], dim), rho_s=vec_to_herm(z[:nvec], dim))
        return herm_to_vec(merge(parts, p.gamma))

    # split and merge are linear: their matrices, applied to the basis vectors
    s = np.column_stack([split(e) for e in np.eye(nvec)])
    mm = np.column_stack([merged(e) for e in np.eye(2 * nvec)])
    # X -> (X + P X P)/2 keeps X[0, 0], the first herm_to_vec entry, and halves the rest
    a = 0.5 * np.eye(nvec)
    a[0, 0] = 1.0
    return TikhonovSystem(
        a=a,
        c=s @ real_superop(commutator_superop(effective_hamiltonian(p))) @ mm,
        epsilon=1.0 / total,
    )
