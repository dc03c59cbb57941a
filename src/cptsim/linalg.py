"""Dense complex matrix primitives shared by every other module.

Basis convention used throughout the package: index 0 is the excited
state |e>, indices 1..N are the ground states |g_1>..|g_N>.  This makes
the excited projector P = diag(1, 0, ..., 0).

Also owns the one vector form of a state: herm_to_vec encodes a
Hermitian d x d matrix as d^2 reals, and real_superop gives the real
d^2 x d^2 matrix that a Hermiticity-preserving superoperator is in those
coordinates.  That is the one route by which the library applies a
generator: sim.integrate, sim.equilibrium_check and the coupling
matrix of reduction.standard_form all take real_superop of
models.liouvillian or models.commutator_superop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HERM_TOL = 1e-10
TRACE_TOL = 1e-9
POS_TOL = 1e-9


def as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=np.complex128)


def _check_square(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = as_complex(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    return a


def hermitian_part(a: np.ndarray) -> np.ndarray:
    a = as_complex(a)
    # halving first keeps entries above half the float range finite
    return 0.5 * a + 0.5 * a.conj().T


def hermiticity_error(a: np.ndarray) -> float:
    """Max-abs deviation of A from its conjugate transpose."""
    a = as_complex(a)
    return float(np.abs(a - a.conj().T).max())


def frobenius_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(as_complex(a)))


def spectral_norm_hermitian(a: np.ndarray) -> float:
    """2-norm of a Hermitian matrix (largest |eigenvalue|)."""
    a = _check_square(a)
    return float(np.abs(np.linalg.eigvalsh(hermitian_part(a))).max())


@dataclass(frozen=True)
class DensityReport:
    """Result of validate_density: deviations plus the accept verdict."""

    herm_deviation: float
    trace_deviation: float
    min_eigenvalue: float
    ok: bool


def validate_density(
    rho: np.ndarray,
    tol_trace: float = TRACE_TOL,
    tol_pos: float = POS_TOL,
    tol_herm: float = HERM_TOL,
) -> DensityReport:
    """Report how far rho is from a valid density matrix.

    Accepts iff Hermiticity, trace and positivity deviations are all
    within the given tolerances.  Never raises; callers decide.
    """
    rho = _check_square(rho, "rho")
    herm = hermiticity_error(rho)
    trace = abs(complex(np.trace(rho)) - 1.0)
    eigs = np.linalg.eigvalsh(hermitian_part(rho))
    min_eig = float(eigs.min())
    ok = herm <= tol_herm and trace <= tol_trace and min_eig >= -tol_pos
    return DensityReport(herm, float(trace), min_eig, ok)


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density matrix (normalized Wishart)."""
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = x @ x.conj().T
    return rho / np.trace(rho).real


def herm_to_vec(mat: np.ndarray) -> np.ndarray:
    """Encode a Hermitian d x d matrix as a real vector of length d^2.

    Layout: diagonal (d entries), then real parts of the strict upper
    triangle row-major, then the matching imaginary parts.  The trace is
    the sum of the first d entries.
    """
    mat = as_complex(mat)
    err = hermiticity_error(mat)
    if err > 1e-9:
        raise ValueError(f"matrix not Hermitian (deviation {err:.3e})")
    upper = mat[np.triu_indices(mat.shape[0], k=1)]
    return np.concatenate([mat.diagonal().real, upper.real, upper.imag])


def vec_to_herm(vec: np.ndarray, dim: int) -> np.ndarray:
    """Invert herm_to_vec; a (n, d^2) stack gives the (n, d, d) stack of matrices."""
    vec = np.asarray(vec, dtype=np.float64)
    if vec.ndim not in (1, 2) or vec.shape[-1] != dim * dim:
        raise ValueError(f"expected vectors of length {dim * dim}, got shape {vec.shape}")
    n_off = dim * (dim - 1) // 2
    rows, cols = np.triu_indices(dim, k=1)
    diag = np.arange(dim)
    out = np.zeros(vec.shape[:-1] + (dim, dim), dtype=np.complex128)
    re, im = out.real, out.imag
    re[..., diag, diag] = vec[..., :dim]
    re[..., rows, cols] = re[..., cols, rows] = vec[..., dim : dim + n_off]
    im[..., rows, cols] = vec[..., dim + n_off :]
    im[..., cols, rows] = -vec[..., dim + n_off :]
    return out


def real_superop(lmat: np.ndarray) -> np.ndarray:
    """Matrix of a Hermiticity-preserving superoperator in herm_to_vec coordinates.

    lmat acts on row-major vec(rho).  With S the decoding matrix (the
    columns are vec(vec_to_herm(e_k))), the result is (S^-1 lmat S).real.
    The columns of S are orthogonal, so S^-1 = S^dag / diag(S^dag S)
    exactly.
    """
    d2 = lmat.shape[0]
    s = vec_to_herm(np.eye(d2), math.isqrt(d2)).reshape(d2, d2).T
    s_inv = s.conj().T / (np.abs(s) ** 2).sum(axis=0)[:, None]
    return (s_inv @ lmat @ s).real
