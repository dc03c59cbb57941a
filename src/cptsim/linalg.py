"""Dense complex matrix primitives shared by every other module.

Basis convention used throughout the package: index 0 is the excited
state |e>, indices 1..N are the ground states |g_1>..|g_N>.  This makes
the excited projector P = diag(1, 0, ..., 0).
"""

from __future__ import annotations

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


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[A, B] = AB - BA."""
    a = _check_square(a, "A")
    b = _check_square(b, "B")
    _check_same_dim(a, b)
    return a @ b - b @ a


def dissipator(q: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """2 Q rho Q^dag - Q^dag Q rho - rho Q^dag Q (caller applies the rate/2)."""
    q = _check_square(q, "Q")
    rho = _check_square(rho, "rho")
    _check_same_dim(q, rho)
    qd = q.conj().T
    qdq = qd @ q
    return 2.0 * (q @ rho @ qd) - qdq @ rho - rho @ qdq


def hermitian_part(a: np.ndarray) -> np.ndarray:
    a = as_complex(a)
    return 0.5 * (a + a.conj().T)


def hermiticity_error(a: np.ndarray) -> float:
    """Max-abs deviation of A from its conjugate transpose."""
    a = as_complex(a)
    return float(np.abs(a - a.conj().T).max())


def frobenius_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(as_complex(a)))


def frobenius_distance(a: np.ndarray, b: np.ndarray) -> float:
    """sqrt(Tr[(A-B)^2]) for Hermitian A, B.

    Equals the Frobenius norm of A - B; rejects inputs that are not
    Hermitian within HERM_TOL because the trace form is only a metric
    on Hermitian operators.
    """
    a = _check_square(a, "A")
    b = _check_square(b, "B")
    _check_same_dim(a, b)
    for name, m in (("A", a), ("B", b)):
        err = hermiticity_error(m)
        if err > HERM_TOL:
            raise ValueError(f"{name} is not Hermitian (deviation {err:.3e})")
    return float(np.linalg.norm(a - b))


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


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return hermitian_part(x)


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density matrix (normalized Wishart)."""
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = x @ x.conj().T
    return rho / np.trace(rho).real
