"""Model constructors for laser-driven (N+1)-level systems.

Three tiers are covered: the laboratory-frame model with an oscillating
drive, the rotating-wave effective model, and the two-scale Lambda model
with complex Rabi amplitudes.  All Hamiltonians are stored divided by
hbar (hbar = 1 convention), in angular-frequency units.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import as_complex, hermiticity_error, _check_square


def _as_float_tuple(xs, name: str) -> tuple[float, ...]:
    out = tuple(float(x) for x in xs)
    if not all(np.isfinite(out)):
        raise ValueError(f"{name} contains non-finite entries")
    return out


def _as_complex_tuple(xs, name: str) -> tuple[complex, ...]:
    out = tuple(complex(x) for x in xs)
    if not all(np.isfinite(z.real) and np.isfinite(z.imag) for z in out):
        raise ValueError(f"{name} contains non-finite entries")
    return out


def _power(amplitudes, name: str) -> float:
    """Sum of |a_k|^2 of the named amplitudes; ValueError when it is not finite."""
    try:
        power = float(sum(abs(a) ** 2 for a in amplitudes))
    except OverflowError:  # a float ** 2 that overflows raises instead of giving inf
        power = math.inf
    if not math.isfinite(power):
        raise ValueError(f"{name} amplitudes too large: sum of |{name}_k|^2 is not finite")
    return power


@dataclass(frozen=True)
class LambdaParams:
    """Two-scale Lambda model parameters: detunings, Rabi amplitudes, decay rates."""

    detuning: tuple[float, ...]
    rabi: tuple[complex, ...]
    gamma: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "detuning", _as_float_tuple(self.detuning, "detuning"))
        object.__setattr__(self, "rabi", _as_complex_tuple(self.rabi, "rabi"))
        object.__setattr__(self, "gamma", _as_float_tuple(self.gamma, "gamma"))
        n = len(self.detuning)
        if n == 0:
            raise ValueError("need at least one ground state")
        if len(self.rabi) != n or len(self.gamma) != n:
            raise ValueError(
                f"length mismatch: detuning={n}, rabi={len(self.rabi)}, gamma={len(self.gamma)}"
            )
        for k, g in enumerate(self.gamma):
            if g <= 0.0:
                raise ValueError(f"gamma[{k}] must be positive, got {g}")
        _power(self.rabi, "rabi")

    @property
    def n_ground(self) -> int:
        return len(self.detuning)

    @property
    def total_gamma(self) -> float:
        return float(sum(self.gamma))

    @property
    def rabi_power(self) -> float:
        """Sum of |Omega_k|^2."""
        return _power(self.rabi, "rabi")


def slow_timescale(p: LambdaParams) -> float:
    """Characteristic time of the reduced dynamics, sum(Gamma)/sum(|Omega|^2)."""
    if p.rabi_power == 0.0:
        raise ValueError("slow timescale undefined for all-zero Rabi amplitudes")
    return p.total_gamma / p.rabi_power


@dataclass(frozen=True)
class ThreeScaleParams:
    """Laboratory-frame parameters: level energies, couplings, drive amplitudes."""

    lambda_e: float
    lambda_g: tuple[float, ...]
    mu: tuple[float, ...]
    u_amp: tuple[complex, ...]
    detuning: tuple[float, ...]
    gamma: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "lambda_e", float(self.lambda_e))
        if not np.isfinite(self.lambda_e):
            raise ValueError(f"lambda_e must be finite, got {self.lambda_e}")
        object.__setattr__(self, "lambda_g", _as_float_tuple(self.lambda_g, "lambda_g"))
        object.__setattr__(self, "mu", _as_float_tuple(self.mu, "mu"))
        object.__setattr__(self, "u_amp", _as_complex_tuple(self.u_amp, "u_amp"))
        object.__setattr__(self, "detuning", _as_float_tuple(self.detuning, "detuning"))
        object.__setattr__(self, "gamma", _as_float_tuple(self.gamma, "gamma"))
        n = len(self.lambda_g)
        if n == 0:
            raise ValueError("need at least one ground state")
        for name in ("mu", "u_amp", "detuning", "gamma"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"length mismatch: {name} has {len(getattr(self, name))} entries, expected {n}")
        for k, lam_k in enumerate(self.lambda_g):
            if self.lambda_e <= lam_k:
                raise ValueError(f"lambda_e must exceed lambda_g[{k}] (upward optical transitions)")
        for k, g in enumerate(self.gamma):
            if g <= 0.0:
                raise ValueError(f"gamma[{k}] must be positive, got {g}")
        # mu_k u_k are the rotating-wave Rabi amplitudes
        _power((m * u for m, u in zip(self.mu, self.u_amp)), "drive")

    @property
    def n_ground(self) -> int:
        return len(self.lambda_g)

    @property
    def omega(self) -> tuple[float, ...]:
        """Optical transition frequencies lambda_e - lambda_g[k]."""
        return tuple(self.lambda_e - lg for lg in self.lambda_g)

    def separation_ratios(self) -> tuple[float, float, float]:
        """(slow/fast, fast/optical, fast/ground) ratios; all should be << 1 in regime.

        The slow scales are the Rabi amplitudes |mu_k u_k| and the
        detunings.  The rotating-wave model pairs tone k with transition k
        only, so the ground splittings must also be well above the decay
        rates: fast/ground is max Gamma over the smallest |lambda_g,i -
        lambda_g,j| (inf for degenerate ground states, 0 for one).
        """
        slow = max(
            max(abs(m * u) for m, u in zip(self.mu, self.u_amp)),
            max(abs(d) for d in self.detuning),
        )
        fast_min = min(self.gamma)
        fast_max = max(self.gamma)
        opt_min = min(self.omega)
        g = np.sort(np.asarray(self.lambda_g))
        splitting = float(np.diff(g).min()) if g.size > 1 else math.inf
        ground = fast_max / splitting if splitting > 0.0 else math.inf
        return slow / fast_min, fast_max / opt_min, ground


@dataclass(frozen=True)
class DriveSpec:
    """Oscillating scalar drive u(t) multiplying a fixed interaction matrix.

    u(t) = sum_k [u_k exp(i nu_k t) + conj(u_k) exp(-i nu_k t)], real for all t.
    The method u is the one place the waveform is evaluated.
    """

    h1: np.ndarray
    amplitudes: tuple[complex, ...]
    frequencies: tuple[float, ...]

    def u(self, t):
        """u at time t; an array of times gives the array of values."""
        val = 0.0
        for uk, nk in zip(self.amplitudes, self.frequencies):
            val += 2.0 * (uk.real * np.cos(nk * t) - uk.imag * np.sin(nk * t))
        return val


@dataclass(frozen=True)
class LindbladModel:
    """Hamiltonian and weighted jump operators, which are also the output map.

    jumps are (rate, operator) pairs; the generator is
    -i[H, rho] + sum_k (rate_k/2) (2 Q rho Q^dag - Q^dag Q rho - rho Q^dag Q)
    and the photon count of the same jumps is y = sum_k rate_k Tr(Q^dag Q rho).
    """

    hamiltonian: np.ndarray
    jumps: tuple[tuple[float, np.ndarray], ...]
    drive: DriveSpec | None = None
    label: str = "lindblad"

    def __post_init__(self):
        h = _check_square(self.hamiltonian, "hamiltonian")
        object.__setattr__(self, "hamiltonian", h)
        if not np.isfinite(h).all():
            raise ValueError("hamiltonian contains non-finite entries")
        err = hermiticity_error(h)
        if err > 1e-12:
            raise ValueError(f"hamiltonian not Hermitian (deviation {err:.3e})")
        jumps = tuple((float(r), as_complex(q)) for r, q in self.jumps)
        for k, (r, q) in enumerate(jumps):
            if q.shape != h.shape:
                raise ValueError(f"jumps[{k}] shape {q.shape} does not match dim {h.shape[0]}")
            if not (np.isfinite(r) and np.isfinite(q).all()):
                raise ValueError(f"jumps[{k}] contains non-finite entries")
        object.__setattr__(self, "jumps", jumps)

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]


def _lambda_jumps(n_ground: int, gamma) -> tuple[tuple[float, np.ndarray], ...]:
    dim = n_ground + 1
    jumps = []
    for k, g in enumerate(gamma):
        q = np.zeros((dim, dim), dtype=np.complex128)
        q[k + 1, 0] = 1.0
        jumps.append((float(g), q))
    return tuple(jumps)


def effective_hamiltonian(p: LambdaParams) -> np.ndarray:
    """H/hbar = sum_k delta_k |g_k><g_k| + Omega_k |g_k><e| + conj(Omega_k) |e><g_k|."""
    dim = p.n_ground + 1
    h = np.zeros((dim, dim), dtype=np.complex128)
    for k in range(p.n_ground):
        h[k + 1, k + 1] = p.detuning[k]
        h[k + 1, 0] = p.rabi[k]
        h[0, k + 1] = np.conj(p.rabi[k])
    return h


def build_two_scale(p: LambdaParams) -> LindbladModel:
    """Two-scale Lambda model: effective Hamiltonian plus spontaneous emission."""
    return LindbladModel(
        hamiltonian=effective_hamiltonian(p),
        jumps=_lambda_jumps(p.n_ground, p.gamma),
        label=f"lambda(N={p.n_ground})",
    )


def build_three_scale(p: ThreeScaleParams) -> LindbladModel:
    """Laboratory-frame model with the quasi-resonant oscillating drive.

    H(t) = H0 + u(t) H1 with H0 diagonal in the level energies, H1 the
    dipole coupling pattern, and u(t) the sum of slowly modulated tones
    at frequencies omega_k - delta_k.
    """
    n = p.n_ground
    dim = n + 1
    h0 = np.zeros((dim, dim), dtype=np.complex128)
    h0[0, 0] = p.lambda_e
    h1 = np.zeros((dim, dim), dtype=np.complex128)
    for k in range(n):
        h0[k + 1, k + 1] = p.lambda_g[k]
        h1[k + 1, 0] = p.mu[k]
        h1[0, k + 1] = p.mu[k]
    slow_over_fast, fast_over_opt, fast_over_ground = p.separation_ratios()
    if max(slow_over_fast, fast_over_opt, fast_over_ground) >= 1.0:
        warnings.warn(
            "time-scale separation weak: "
            f"slow/fast={slow_over_fast:.3g}, fast/optical={fast_over_opt:.3g}, "
            f"fast/ground={fast_over_ground:.3g}",
            RuntimeWarning,
            stacklevel=2,
        )
    drive = DriveSpec(
        h1=h1,
        amplitudes=p.u_amp,
        frequencies=tuple(w - d for w, d in zip(p.omega, p.detuning)),
    )
    return LindbladModel(
        hamiltonian=h0,
        jumps=_lambda_jumps(n, p.gamma),
        drive=drive,
        label=f"three_scale(N={n})",
    )


def rwa_effective(p: ThreeScaleParams) -> LambdaParams:
    """Rotating-wave reduction of the laboratory-frame parameters.

    Keeps delta_k and gamma_k, sets Omega_k = mu_k u_k.  Warns when the
    resulting Rabi amplitudes are not small against the decay rates.
    """
    rabi = tuple(m * u for m, u in zip(p.mu, p.u_amp))
    gamma_min = min(p.gamma)
    if max(abs(om) for om in rabi) >= gamma_min:
        warnings.warn(
            "time-scale separation weak: max|Omega| >= min Gamma",
            RuntimeWarning,
            stacklevel=2,
        )
    return LambdaParams(detuning=p.detuning, rabi=rabi, gamma=p.gamma)


def commutator_superop(h: np.ndarray) -> np.ndarray:
    """Matrix of rho -> -i[H, rho] acting on row-major vec(rho)."""
    h = _check_square(h, "H")
    dim = h.shape[0]
    eye = np.eye(dim)
    return -1j * (np.kron(h, eye) - np.kron(eye, h.T))


def liouvillian(m: LindbladModel) -> np.ndarray:
    """Matrix of the full static generator on row-major vec(rho).

    The drive term, if any, is excluded; the RK4 kernel adds
    drive.u(t) times commutator_superop(drive.h1) at each stage.  The
    integrator steps both in herm_to_vec coordinates, through
    linalg.real_superop.
    """
    dim = m.dim
    eye = np.eye(dim)
    lmat = commutator_superop(m.hamiltonian)
    for rate, q in m.jumps:
        qd = q.conj().T
        qdq = qd @ q
        lmat += (rate / 2.0) * (
            2.0 * np.kron(q, q.conj()) - np.kron(qdq, eye) - np.kron(eye, qdq.T)
        )
    return lmat
